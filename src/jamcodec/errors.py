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


class EmptySearchSpaceError(JamcodecError):
    """Architecture search space enumerates to nothing."""


class LeakageError(JamcodecError):
    """Evaluation split overlaps with data the compressor was trained on."""


class StageError(JamcodecError):
    """A pipeline stage failed."""


class ChecksumMismatchError(JamcodecError):
    """A cached artifact does not match its recorded checksum."""
