"""Exception types shared across the toolkit."""


class JamcodecError(Exception):
    """Base class for all toolkit errors."""


class InvalidSpecError(JamcodecError):
    """A signal, dataset, or search specification violates its invariants."""


class UnsupportedWaveformError(JamcodecError):
    """Requested waveform class is not implemented."""


class InvalidChannelError(JamcodecError):
    """Channel specification is unusable for the given buffer."""


class InvalidLengthError(JamcodecError):
    """Transform input length is not a power of two (or is too short)."""


class InsufficientSamplesError(JamcodecError):
    """Buffer is too short for the requested feature extraction."""


class ShapeError(JamcodecError):
    """Tensor shapes do not match the model or operation."""


class TrainingDivergedError(JamcodecError):
    """Training loss became non-finite."""

    def __init__(self, message, last_finite_epoch):
        super().__init__(message)
        self.last_finite_epoch = last_finite_epoch

    def __reduce__(self):  # pickle (a worker process's error) with both arguments
        return type(self), (*self.args, self.last_finite_epoch)


class EmptySearchSpaceError(JamcodecError):
    """Architecture search space enumerates to nothing."""


class LeakageError(JamcodecError):
    """Evaluation split overlaps with data the compressor was trained on."""


class StageError(JamcodecError):
    """A pipeline stage failed."""


class ChecksumMismatchError(JamcodecError):
    """A cached artifact does not match its recorded checksum."""
