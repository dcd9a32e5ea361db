"""Synthetic GNSS-band interference snapshots as complex baseband IQ.

Generates labeled snapshots for six jammer waveform families plus a clean
(receiver-noise-only) class, passes them through a multipath/attenuation/AWGN
channel, and packages the results as reproducible datasets.

Seed mixing: every random draw comes from ``numpy.random.default_rng`` seeded
with a ``SeedSequence`` over a tuple of non-negative integers. Snapshot ``i``
of class ``c`` in a dataset with master seed ``s`` uses entropy
``(s, class_index, i)``; the channel additionally mixes in its ``noise_seed``.
This keeps per-snapshot generation independent and stable, so datasets may be
produced in any order (or in parallel) without changing a single sample.
"""

from dataclasses import dataclass
import json
import math
import struct

import numpy as np

from .errors import (
    InvalidChannelError,
    InvalidSpecError,
    UnsupportedWaveformError,
)

CLEAN = "clean"
NOISE = "noise"
CHIRP = "chirp"
MULTITONE = "multitone"
PULSED = "pulsed"
HOPPER = "hopper"
MODULATED = "modulated"

WAVEFORM_CLASSES = (CLEAN, NOISE, CHIRP, MULTITONE, PULSED, HOPPER, MODULATED)

DETECTION_CLEAN = "clean"
DETECTION_INTERFERENCE = "interference"

IQ_MAGIC = b"IQF1"
_MANIFEST_KEYS = ("file", "class", "detection", "scenario_id")

_U64 = 0xFFFF_FFFF_FFFF_FFFF


def derived_rng(*parts):
    """Deterministic per-context generator from a tuple of integers."""
    return np.random.default_rng(np.random.SeedSequence([int(p) & _U64 for p in parts]))


@dataclass(frozen=True)
class SampleSpec:
    """Uniform sampling grid: rate in Hz and capture duration in seconds."""

    sample_rate_hz: float
    duration_s: float

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise InvalidSpecError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if self.duration_s <= 0:
            raise InvalidSpecError(f"duration must be positive, got {self.duration_s}")
        if self.n_samples < 2:
            raise InvalidSpecError("spec yields fewer than 2 samples")

    @property
    def n_samples(self) -> int:
        return int(round(self.sample_rate_hz * self.duration_s))

    @classmethod
    def from_samples(cls, sample_rate_hz: float, n_samples: int) -> "SampleSpec":
        return cls(sample_rate_hz, n_samples / sample_rate_hz)


@dataclass(frozen=True)
class ToneSpec:
    """A single complex tone, parameterized by its I/Q amplitudes.

    The (amp_i, amp_q) pair maps to amplitude/phase through
    a*cos(x) + b*sin(x) = A*cos(x - phi), with A = sqrt(a^2 + b^2) and
    phi = atan2(b, a).
    """

    freq_hz: float
    amp_i: float = 1.0
    amp_q: float = 0.0

    @property
    def amplitude(self) -> float:
        return math.hypot(self.amp_i, self.amp_q)

    @property
    def phase(self) -> float:
        return math.atan2(self.amp_q, self.amp_i)

    @classmethod
    def from_polar(cls, freq_hz: float, amplitude: float, phase: float) -> "ToneSpec":
        if amplitude < 0:
            raise InvalidSpecError("amplitude must be non-negative")
        return cls(freq_hz, amplitude * math.cos(phase), amplitude * math.sin(phase))


@dataclass(frozen=True)
class WaveformSpec:
    """One interference waveform plus its class-specific parameters.

    Only the fields for ``class_label`` are read; the rest keep their
    defaults. All frequencies must stay strictly below half the sample rate
    unless ``allow_alias`` is set (test hook).
    """

    class_label: str
    power: float = 1.0
    allow_alias: bool = False
    # chirp
    f_start_hz: float = 0.0
    f_stop_hz: float = 0.0
    sweep_period_s: float = 0.0
    # pulsed
    duty: float = 0.5
    pulse_rate_hz: float = 0.0
    pulse_freq_hz: float = 0.0
    # multitone (single tone == one entry)
    tones: tuple = ()
    # frequency hopper
    hop_freqs_hz: tuple = ()
    dwell_s: float = 0.0
    # modulated
    symbol_rate_hz: float = 0.0
    phase_alphabet: tuple = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    carrier_hz: float = 0.0
    # noise jammer
    bandwidth_hz: float = 0.0

    def __post_init__(self):
        if self.class_label not in WAVEFORM_CLASSES:
            raise UnsupportedWaveformError(f"unknown waveform class {self.class_label!r}")
        if self.class_label == PULSED and not (0.0 < self.duty <= 1.0):
            raise InvalidSpecError(f"duty cycle must be in (0, 1], got {self.duty}")
        if self.power < 0:
            raise InvalidSpecError("power must be non-negative")

    def peak_freqs(self):
        """Frequencies that must respect the Nyquist limit."""
        if self.class_label == CHIRP:
            return (self.f_start_hz, self.f_stop_hz)
        if self.class_label == PULSED:
            return (self.pulse_freq_hz,)
        if self.class_label == MULTITONE:
            return tuple(t.freq_hz for t in self.tones)
        if self.class_label == HOPPER:
            return tuple(self.hop_freqs_hz)
        if self.class_label == MODULATED:
            return (self.carrier_hz,)
        if self.class_label == NOISE:
            return (self.bandwidth_hz / 2.0,)
        return ()


@dataclass(frozen=True)
class ChannelSpec:
    """Attenuation, multipath taps, and additive receiver noise.

    ``jsr_db`` is the jammer-to-noise power ratio after attenuation; ``None``
    disables the noise term entirely. Taps are (delay_samples, complex gain)
    with strictly increasing delays; an empty list means a single direct path.
    """

    attenuation_db: float = 0.0
    jsr_db: float | None = None
    multipath_taps: tuple = ()
    noise_seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.attenuation_db) or not math.isfinite(self.jsr_db or 0.0):
            raise InvalidSpecError(f"attenuation_db and jsr_db must be finite, got {self.attenuation_db} "
                                   f"and {self.jsr_db}")
        delays = [d for d, _ in self.multipath_taps]
        if any(d < 0 for d in delays):
            raise InvalidChannelError("tap delays must be non-negative")
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise InvalidChannelError("tap delays must be strictly increasing")

    def taps(self):
        return self.multipath_taps if self.multipath_taps else ((0, 1.0 + 0.0j),)


@dataclass
class IqBuffer:
    """Complex baseband snapshot with its sampling spec."""

    samples: np.ndarray
    spec: SampleSpec

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.shape != (self.spec.n_samples,):
            raise InvalidSpecError(
                f"buffer length {self.samples.shape} does not match spec {self.spec.n_samples}"
            )
        if not np.all(np.isfinite(self.samples.view(np.float64))):
            raise InvalidSpecError("buffer contains non-finite samples")

    @property
    def i(self) -> np.ndarray:
        return self.samples.real

    @property
    def q(self) -> np.ndarray:
        return self.samples.imag

    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2))

    def power(self) -> float:
        return self.energy() / len(self.samples)


@dataclass
class LabeledSnapshot:
    iq: IqBuffer
    waveform: str
    detection_label: str
    scenario_id: int
    seed: int = 0

    def __post_init__(self):
        is_clean = self.waveform == CLEAN
        if is_clean != (self.detection_label == DETECTION_CLEAN):
            raise InvalidSpecError("detection label must be 'clean' iff the waveform is clean")


@dataclass(frozen=True)
class Scenario:
    """A recording condition: one channel configuration with an id."""

    scenario_id: int
    channel: ChannelSpec


@dataclass(frozen=True)
class DatasetSpec:
    classes: tuple
    per_class_count: int
    scenarios: tuple
    seed: int
    sample: SampleSpec

    def __post_init__(self):
        if not self.classes:
            raise InvalidSpecError("class list must not be empty")
        if self.per_class_count < 1:
            raise InvalidSpecError("per_class_count must be >= 1")
        if not self.scenarios:
            raise InvalidSpecError("at least one scenario is required")
        for c in self.classes:
            if c not in WAVEFORM_CLASSES:
                raise UnsupportedWaveformError(f"unknown waveform class {c!r}")


def synth_tone(tone: ToneSpec, spec: SampleSpec) -> IqBuffer:
    """Analytic complex tone: sample k is A*exp(j*(2*pi*f*k/fs - phi))."""
    if abs(tone.freq_hz) >= spec.sample_rate_hz:
        raise InvalidSpecError(
            f"tone at {tone.freq_hz} Hz exceeds the sample rate {spec.sample_rate_hz} Hz"
        )
    k = np.arange(spec.n_samples, dtype=np.float64)
    ph = 2.0 * np.pi * tone.freq_hz * k / spec.sample_rate_hz - tone.phase
    samples = tone.amplitude * np.exp(1j * ph)
    return IqBuffer(samples, spec)


def _check_nyquist(w: WaveformSpec, spec: SampleSpec):
    if w.allow_alias:
        return
    limit = spec.sample_rate_hz / 2.0
    for f in w.peak_freqs():
        if abs(f) >= limit:
            raise InvalidSpecError(
                f"{w.class_label} frequency {f} Hz is not strictly below fs/2 = {limit} Hz"
            )


def _phase_from_freq(freq_per_sample: np.ndarray, fs: float) -> np.ndarray:
    """Accumulated phase whose increment at sample k is 2*pi*f[k]/fs."""
    return 2.0 * np.pi * np.cumsum(freq_per_sample) / fs


def _synth_clean(w, spec, rng):
    scale = math.sqrt(w.power / 2.0)
    return scale * (rng.standard_normal(spec.n_samples) + 1j * rng.standard_normal(spec.n_samples))


def _synth_noise(w, spec, rng):
    n = spec.n_samples
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    bw = w.bandwidth_hz if w.bandwidth_hz > 0 else spec.sample_rate_hz / 2.0
    cutoff = min(bw / 2.0, 0.499 * spec.sample_rate_hz)
    fc = cutoff / spec.sample_rate_hz  # normalized one-sided cutoff
    if fc < 0.499:
        # windowed-sinc lowpass, then renormalize to the target power
        taps = 129
        m = np.arange(taps) - (taps - 1) / 2.0
        h = 2.0 * fc * np.sinc(2.0 * fc * m)
        h *= np.hamming(taps)
        x = np.convolve(x, h, mode="same")
    p = np.mean(np.abs(x) ** 2)
    if p > 0:
        x *= math.sqrt(w.power / p)
    return x


def _synth_chirp(w, spec, rng):
    n = spec.n_samples
    fs = spec.sample_rate_hz
    period = int(round(w.sweep_period_s * fs)) if w.sweep_period_s > 0 else n
    period = max(period, 2)
    k = np.arange(n)
    frac = (k % period) / period
    freq = w.f_start_hz + (w.f_stop_hz - w.f_start_hz) * frac
    return math.sqrt(w.power) * np.exp(1j * _phase_from_freq(freq, fs))


def _synth_pulsed(w, spec, rng):
    n = spec.n_samples
    fs = spec.sample_rate_hz
    period = int(round(fs / w.pulse_rate_hz)) if w.pulse_rate_hz > 0 else max(n // 8, 2)
    period = max(period, 1)
    on_len = min(max(int(round(w.duty * period)), 1), period)
    k = np.arange(n)
    mask = (k % period) < on_len
    tone = np.exp(1j * (2.0 * np.pi * w.pulse_freq_hz * k / fs))
    return math.sqrt(w.power) * tone * mask


def _synth_multitone(w, spec, rng):
    if not w.tones:
        raise InvalidSpecError("multitone waveform needs at least one ToneSpec")
    out = np.zeros(spec.n_samples, dtype=np.complex128)
    for t in w.tones:
        out += synth_tone(t, spec).samples
    return out


def _synth_hopper(w, spec, rng):
    if not w.hop_freqs_hz:
        raise InvalidSpecError("hopper waveform needs a non-empty hop set")
    n = spec.n_samples
    fs = spec.sample_rate_hz
    dwell = int(round(w.dwell_s * fs)) if w.dwell_s > 0 else max(n // 16, 1)
    dwell = max(dwell, 1)  # hop boundaries snap to sample indices
    n_dwells = -(-n // dwell)
    hops = rng.integers(0, len(w.hop_freqs_hz), size=n_dwells)
    freq = np.repeat(np.asarray(w.hop_freqs_hz, dtype=np.float64)[hops], dwell)[:n]
    return math.sqrt(w.power) * np.exp(1j * _phase_from_freq(freq, fs))


def _synth_modulated(w, spec, rng):
    n = spec.n_samples
    fs = spec.sample_rate_hz
    sps = int(round(fs / w.symbol_rate_hz)) if w.symbol_rate_hz > 0 else max(n // 64, 1)
    sps = max(sps, 1)
    n_sym = -(-n // sps)
    alphabet = np.asarray(w.phase_alphabet, dtype=np.float64)
    symbols = rng.integers(0, len(alphabet), size=n_sym)
    theta = np.repeat(alphabet[symbols], sps)[:n]
    k = np.arange(n)
    return math.sqrt(w.power) * np.exp(1j * (2.0 * np.pi * w.carrier_hz * k / fs + theta))


_SYNTH = {
    CLEAN: _synth_clean,
    NOISE: _synth_noise,
    CHIRP: _synth_chirp,
    PULSED: _synth_pulsed,
    MULTITONE: _synth_multitone,
    HOPPER: _synth_hopper,
    MODULATED: _synth_modulated,
}


def synth_waveform(w: WaveformSpec, spec: SampleSpec, seed: int) -> IqBuffer:
    """Render one waveform class to an IQ buffer, deterministically per seed."""
    if w.class_label not in _SYNTH:
        raise UnsupportedWaveformError(f"unknown waveform class {w.class_label!r}")
    _check_nyquist(w, spec)
    rng = derived_rng(seed)
    samples = _SYNTH[w.class_label](w, spec, rng)
    return IqBuffer(samples, spec)


def apply_channel(x: IqBuffer, ch: ChannelSpec, seed: int) -> IqBuffer:
    """Multipath sum, attenuation, and optional circular-Gaussian noise.

    Output is sum_taps gain * x[k - delay], scaled by 10^(-attenuation_db/20);
    when ``jsr_db`` is set, noise with power (signal power) / 10^(jsr_db/10)
    is added from a generator seeded by (seed, ch.noise_seed).
    """
    n = len(x.samples)
    taps = ch.taps()
    for delay, _ in taps:
        if delay >= n:
            raise InvalidChannelError(f"tap delay {delay} >= buffer length {n}")
    y = np.zeros(n, dtype=np.complex128)
    for delay, gain in taps:
        if delay == 0:
            y += gain * x.samples
        else:
            y[delay:] += gain * x.samples[:-delay]
    y *= 10.0 ** (-ch.attenuation_db / 20.0)
    if ch.jsr_db is not None:
        p_sig = np.mean(np.abs(y) ** 2)
        p_noise = p_sig / (10.0 ** (ch.jsr_db / 10.0))
        rng = derived_rng(seed, ch.noise_seed)
        scale = math.sqrt(p_noise / 2.0)
        y = y + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return IqBuffer(y, x.spec)


def channel_noise_floor(ch: ChannelSpec) -> float:
    """Noise power the channel adds around a unit-power waveform."""
    if ch.jsr_db is None:
        return 0.0
    gain = sum(abs(g) ** 2 for _, g in ch.taps())
    atten = 10.0 ** (-ch.attenuation_db / 10.0)
    return gain * atten / (10.0 ** (ch.jsr_db / 10.0))


def random_waveform(class_label: str, spec: SampleSpec, rng, power: float = 1.0) -> WaveformSpec:
    """Draw class parameters from the desk-scale grids.

    The grids are this artifact's own choice: each class varies enough to make
    classification non-trivial while staying clearly below Nyquist.
    """
    fs = spec.sample_rate_hz
    if class_label == CLEAN:
        return WaveformSpec(CLEAN, power=power)
    if class_label == NOISE:
        return WaveformSpec(NOISE, power=power, bandwidth_hz=rng.uniform(0.25, 0.8) * fs / 2.0)
    if class_label == CHIRP:
        f0 = rng.uniform(-0.35, -0.05) * fs / 2.0
        f1 = rng.uniform(0.05, 0.35) * fs / 2.0
        period = rng.uniform(0.2, 0.5) * spec.duration_s
        return WaveformSpec(CHIRP, power=power, f_start_hz=f0, f_stop_hz=f1, sweep_period_s=period)
    if class_label == MULTITONE:
        n_tones = int(rng.integers(1, 4))
        offsets = rng.uniform(-0.4, 0.4, size=n_tones) * fs / 2.0
        amp = math.sqrt(power / n_tones)
        tones = tuple(
            ToneSpec.from_polar(float(f), amp, float(rng.uniform(0, 2 * math.pi))) for f in offsets
        )
        return WaveformSpec(MULTITONE, power=power, tones=tones)
    if class_label == PULSED:
        return WaveformSpec(
            PULSED,
            power=power,
            duty=float(rng.uniform(0.1, 0.4)),
            pulse_rate_hz=float(rng.uniform(20, 200) / spec.duration_s),
            pulse_freq_hz=float(rng.uniform(-0.3, 0.3)) * fs / 2.0,
        )
    if class_label == HOPPER:
        n_hops = int(rng.integers(3, 6))
        freqs = tuple(float(f) for f in rng.uniform(-0.4, 0.4, size=n_hops) * fs / 2.0)
        return WaveformSpec(
            HOPPER,
            power=power,
            hop_freqs_hz=freqs,
            dwell_s=float(rng.uniform(0.01, 0.05)) * spec.duration_s,
        )
    if class_label == MODULATED:
        return WaveformSpec(
            MODULATED,
            power=power,
            symbol_rate_hz=float(rng.uniform(0.01, 0.05)) * fs,
            carrier_hz=float(rng.uniform(-0.3, 0.3)) * fs / 2.0,
        )
    raise UnsupportedWaveformError(f"unknown waveform class {class_label!r}")


def make_dataset(dspec: DatasetSpec) -> list:
    """Balanced, scenario-tagged snapshots; bit-identical for a fixed seed."""
    out = []
    for class_idx, label in enumerate(dspec.classes):
        for rep in range(dspec.per_class_count):
            scenario = dspec.scenarios[rep % len(dspec.scenarios)]
            rng = derived_rng(dspec.seed, class_idx, rep)
            snap_seed = int(rng.integers(0, 2**63))
            if label == CLEAN:
                floor = channel_noise_floor(scenario.channel)
                w = WaveformSpec(CLEAN, power=floor if floor > 0 else 1.0)
                iq = synth_waveform(w, dspec.sample, snap_seed)
                detection = DETECTION_CLEAN
            else:
                w = random_waveform(label, dspec.sample, rng)
                iq = synth_waveform(w, dspec.sample, snap_seed)
                iq = apply_channel(iq, scenario.channel, snap_seed)
                detection = DETECTION_INTERFERENCE
            out.append(
                LabeledSnapshot(
                    iq=iq,
                    waveform=label,
                    detection_label=detection,
                    scenario_id=scenario.scenario_id,
                    seed=snap_seed,
                )
            )
    return out


def write_iq(path, iq: IqBuffer) -> None:
    """IQF1 binary: 16-byte header then interleaved little-endian f32 pairs."""
    n = len(iq.samples)
    header = IQ_MAGIC + struct.pack("<IfI", n, float(iq.spec.sample_rate_hz), 0)
    inter = np.empty(2 * n, dtype="<f4")
    inter[0::2] = iq.samples.real.astype("<f4")
    inter[1::2] = iq.samples.imag.astype("<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(inter.tobytes())


def _read_exact(fh, n, path, what) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise InvalidSpecError(f"{path}: truncated {what}: {len(data)} of {n} bytes")
    return data


def read_iq(path) -> IqBuffer:
    """Read an IQF1 file; a short read or trailing bytes raise InvalidSpecError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(IQ_MAGIC))
        if magic != IQ_MAGIC:
            raise InvalidSpecError(f"{path}: bad magic {magic!r}, expected {IQ_MAGIC!r}")
        n, rate, _ = struct.unpack("<IfI", _read_exact(fh, 12, path, "header"))
        inter = np.frombuffer(_read_exact(fh, 8 * n, path, "sample payload"), dtype="<f4")
        if fh.read(1):
            raise InvalidSpecError(f"{path}: trailing bytes after the sample payload")
    samples = inter[0::2].astype(np.float64) + 1j * inter[1::2].astype(np.float64)
    return IqBuffer(samples, SampleSpec.from_samples(float(rate), n))


def write_manifest(path, records) -> None:
    """JSON lines, one record per snapshot: file, class, detection, scenario, seed."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_manifest(path) -> list:
    """Records of write_manifest; bad JSON or a missing key raises InvalidSpecError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise InvalidSpecError(f"{path}: unreadable manifest: {exc}") from None
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or not all(k in rec for k in _MANIFEST_KEYS):
            raise InvalidSpecError(f"{path}: record {i} lacks one of {_MANIFEST_KEYS}")
    return records
