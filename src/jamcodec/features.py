"""Feature extraction: 128 spectral bins, 49 temporal statistics, 177 mixed.

The spectral path runs a forward radix-2 FFT (built here; the toolkit never
calls a library FFT and needs no inverse) over Hann-windowed segments and
folds the magnitude-squared spectrum into 128 band powers. The temporal path
splits the magnitude sequence into 7 sub-windows and computes 7 statistics
per sub-window. Concatenating both (spectral first) yields the 177-value
mixed vector.

The FFT's bit-reverse permutation and twiddles, and the Hann window, are
computed once per length and cached; each butterfly stage runs in place with
one scratch buffer. These are the same floating-point operations on the same
operands as computing them per call, so outputs are bit-identical. The
entropy histograms of all sub-windows come from one ``np.bincount`` that
applies ``np.histogram``'s uniform-bin rule, so the counts are the same too.
"""

from dataclasses import dataclass
import csv
import functools
import json

import numpy as np

from .errors import InsufficientSamplesError, InvalidLengthError, InvalidSpecError

SPECTRAL_DIM = 128
TEMPORAL_SUBWINDOWS = 7
TEMPORAL_STATS = 7
TEMPORAL_DIM = TEMPORAL_SUBWINDOWS * TEMPORAL_STATS
MIXED_DIM = SPECTRAL_DIM + TEMPORAL_DIM

DOMAIN_SPECTRAL = "spectral"
DOMAIN_TEMPORAL = "temporal"
DOMAIN_MIXED = "mixed"

LOG_EPS = 1e-12
ENTROPY_BINS = 16


@functools.lru_cache(maxsize=None)
def _fft_plan(n: int) -> tuple:
    """Bit-reverse permutation and per-stage twiddles of a length-n radix-2 FFT (read-only)."""
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    twiddles = [np.exp(-2j * np.pi * np.arange(m // 2) / m) for m in (2**k for k in range(1, bits + 1))]
    for a in [rev, *twiddles]:
        a.flags.writeable = False
    return rev, tuple(twiddles)


@functools.lru_cache(maxsize=None)
def _hann(n: int) -> np.ndarray:
    """Periodic Hann window of length n (read-only)."""
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    w.flags.writeable = False
    return w


def fft(x) -> np.ndarray:
    """Forward DFT without normalization: X[m] = sum_k x[k] exp(-2i*pi*k*m/n).

    Iterative radix-2 decimation in time over the last axis; batch axes pass
    through. The length must be a power of two >= 2.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n < 2 or (n & (n - 1)) != 0:
        raise InvalidLengthError(f"FFT length must be a power of two >= 2, got {n}")
    rev, twiddles = _fft_plan(n)
    y = np.take(x, rev, axis=-1)
    scratch = np.empty(y.shape[:-1] + (n // 2,), dtype=np.complex128)
    for w in twiddles:
        half = len(w)
        blocks = y.reshape(*y.shape[:-1], n // (2 * half), 2 * half)
        even, odd = blocks[..., :half], blocks[..., half:]
        t = scratch.reshape(odd.shape)
        np.multiply(odd, w, out=t)
        np.subtract(even, t, out=odd)
        np.add(even, t, out=even)
    return y


@dataclass
class SpectralFrame:
    """128 log-power bins (dB) plus the analysis window length."""

    bins: np.ndarray
    window_len: int

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.float64)
        if self.bins.shape != (SPECTRAL_DIM,):
            raise InvalidSpecError(f"spectral frame must have {SPECTRAL_DIM} bins")
        if not np.all(np.isfinite(self.bins)):
            raise InvalidSpecError("spectral frame contains non-finite values")


@dataclass
class TemporalFrame:
    """7 sub-windows x 7 statistics of the magnitude sequence, row-major."""

    stats: np.ndarray
    degenerate: tuple = ()  # sub-windows where sigma == 0 (skew/kurtosis defaulted)

    def __post_init__(self):
        self.stats = np.asarray(self.stats, dtype=np.float64)
        if self.stats.shape != (TEMPORAL_DIM,):
            raise InvalidSpecError(f"temporal frame must have {TEMPORAL_DIM} values")
        if not np.all(np.isfinite(self.stats)):
            raise InvalidSpecError("temporal frame contains non-finite values")


def _samples_of(x) -> np.ndarray:
    return np.asarray(x.samples if hasattr(x, "samples") else x, dtype=np.complex128)


def check_window_len(window_len: int) -> None:
    """A window_len that is not a power of two of at least 2 raises InvalidLengthError."""
    if window_len < 2 or (window_len & (window_len - 1)) != 0:
        raise InvalidLengthError(f"window_len must be a power of two, got {window_len}")


def band_power(x, window_len: int = 1024, n_bins: int = SPECTRAL_DIM) -> np.ndarray:
    """Linear band powers: Hann-windowed periodogram folded into n_bins groups.

    Per window: p[m] = |FFT(hann * x)[m]|^2 / window_len^2. Each output bin is
    the sum of p over its group of window_len/n_bins consecutive DFT bins, so
    the bins total the windowed time-domain energy divided by window_len
    (Parseval). Averaged over all full windows in the buffer.
    """
    samples = _samples_of(x)
    check_window_len(window_len)
    if n_bins < 1 or window_len % n_bins != 0:
        raise InvalidSpecError(f"n_bins {n_bins} must divide window_len {window_len}")
    n_windows = len(samples) // window_len
    if n_windows < 1:
        raise InsufficientSamplesError(
            f"buffer of {len(samples)} samples is shorter than one window ({window_len})"
        )
    frames = samples[: n_windows * window_len].reshape(n_windows, window_len)
    spectra = fft(frames * _hann(window_len))
    p = np.mean(np.abs(spectra) ** 2, axis=0) / float(window_len) ** 2
    return p.reshape(n_bins, window_len // n_bins).sum(axis=1)


def power_spectrum_bins(x, window_len: int = 1024, n_bins: int = SPECTRAL_DIM) -> SpectralFrame:
    """Band powers on a dB scale: 10*log10(band_power + 1e-12)."""
    p = band_power(x, window_len=window_len, n_bins=n_bins)
    return SpectralFrame(10.0 * np.log10(p + LOG_EPS), window_len)


_ENTROPY_EDGES = np.linspace(0.0, 1.0, ENTROPY_BINS + 1)


def _entropy_counts(norm) -> np.ndarray:
    """Per-row ``np.histogram(row, ENTROPY_BINS, range=(0, 1))`` counts of rows in [0, 1].

    One ``np.bincount`` with numpy's uniform-bin rule: index floor(x * bins),
    x == 1 into the last bin, then one step down where x lies below its bin's
    left edge and one step up where it reaches the next edge.
    """
    idx = (norm * ENTROPY_BINS).astype(np.intp)
    idx[idx == ENTROPY_BINS] -= 1
    idx -= norm < _ENTROPY_EDGES[idx]
    idx += (norm >= _ENTROPY_EDGES[idx + 1]) & (idx != ENTROPY_BINS - 1)
    idx += ENTROPY_BINS * np.arange(len(norm))[:, None]
    return np.bincount(idx.ravel(), minlength=len(norm) * ENTROPY_BINS).reshape(-1, ENTROPY_BINS)


def temporal_stats(x, n_sub: int = TEMPORAL_SUBWINDOWS) -> TemporalFrame:
    """Per-sub-window statistics of |x|.

    Statistics, in order: mean, population std, skewness, Pearson kurtosis
    (Gaussian ~= 3), max-abs, log-energy ln(sum y^2 + eps), and Shannon
    entropy (natural log) of a 16-bin histogram of the sub-window rescaled to
    [0, 1]. A zero-variance sub-window gets skewness 0 and kurtosis 3 and is
    flagged in ``degenerate``.
    """
    samples = _samples_of(x)
    if len(samples) < n_sub * 8:
        raise InsufficientSamplesError(
            f"need at least {n_sub * 8} samples for {n_sub} sub-windows, got {len(samples)}"
        )
    mag = np.abs(samples)
    sub_len = len(mag) // n_sub
    subs = mag[: n_sub * sub_len].reshape(n_sub, sub_len)

    mean = subs.mean(axis=1)
    centered = subs - mean[:, None]
    var = np.mean(centered**2, axis=1)
    std = np.sqrt(var)
    ok = std > 0.0
    safe = np.where(ok, std, 1.0)
    skew = np.where(ok, np.mean(centered**3, axis=1) / safe**3, 0.0)
    kurt = np.where(ok, np.mean(centered**4, axis=1) / safe**4, 3.0)
    max_abs = subs.max(axis=1)
    log_energy = np.log(np.sum(subs**2, axis=1) + LOG_EPS)

    lo = subs.min(axis=1)
    span = max_abs - lo
    rows = np.flatnonzero((span > 0.0) & np.isfinite(span))
    counts = _entropy_counts((subs[rows] - lo[rows, None]) / span[rows, None])
    nonzero = counts > 0
    p = counts[nonzero] / sub_len
    plogp = p * np.log(p)
    per_row = np.count_nonzero(nonzero, axis=1)
    entropy = np.zeros(n_sub)
    for i, end, n in zip(rows.tolist(), np.cumsum(per_row).tolist(), per_row.tolist()):
        entropy[i] = float(-np.sum(plogp[end - n : end]))  # one pairwise sum per row, as before

    stats = np.stack([mean, std, skew, kurt, max_abs, log_energy, entropy], axis=1)
    return TemporalFrame(stats.reshape(-1), degenerate=tuple(int(i) for i in np.flatnonzero(~ok)))


@dataclass
class NormStats:
    """Per-dimension min/max from the training split."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        self.min = np.asarray(self.min, dtype=np.float64)
        self.max = np.asarray(self.max, dtype=np.float64)
        if self.min.shape != self.max.shape or self.min.ndim != 1:
            raise InvalidSpecError("min/max must be 1-D arrays of equal length")
        if np.any(self.min > self.max):
            raise InvalidSpecError("min must not exceed max")

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"min": self.min.tolist(), "max": self.max.tolist()}, fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "NormStats":
        """Read save's JSON; a truncated or broken file raises InvalidSpecError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                d = json.load(fh)
            return cls(np.asarray(d["min"]), np.asarray(d["max"]))
        except (ValueError, KeyError, TypeError) as exc:  # bad UTF-8 or JSON, a missing key, a wrong type
            raise InvalidSpecError(f"{path}: unreadable norm stats: {exc!r}") from None


def fit_minmax(X) -> NormStats:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InvalidSpecError("normalization needs at least 2 vectors")
    return NormStats(X.min(axis=0), X.max(axis=0))


def apply_minmax(stats: NormStats, X) -> tuple:
    """Map to [0, 1] with train statistics; constant dims go to 0.5.

    Out-of-range values are clipped; the second return value is the fraction
    of entries that were clipped.
    """
    X = np.asarray(X, dtype=np.float64)
    span = stats.max - stats.min
    ok = span > 0.0
    safe = np.where(ok, span, 1.0)
    scaled = (X - stats.min) / safe
    scaled[:, ~ok] = 0.5
    clipped = np.clip(scaled, 0.0, 1.0)
    clip_rate = float(np.mean((scaled != clipped)[:, ok])) if ok.any() else 0.0
    return clipped, clip_rate


def snapshot_features(snapshot, window_len: int = 1024) -> dict:
    """All three domains for one snapshot; mixed is the 177-value concatenation, spectral first."""
    s = power_spectrum_bins(snapshot.iq, window_len=window_len).bins
    t = temporal_stats(snapshot.iq).stats
    return {DOMAIN_SPECTRAL: s, DOMAIN_TEMPORAL: t, DOMAIN_MIXED: np.concatenate([s, t])}


def dataset_features(snapshots, window_len: int = 1024) -> dict:
    """Feature matrices plus label arrays for a snapshot list."""
    spectral, temporal = [], []
    for snap in snapshots:
        f = snapshot_features(snap, window_len=window_len)
        spectral.append(f[DOMAIN_SPECTRAL])
        temporal.append(f[DOMAIN_TEMPORAL])
    spectral = np.asarray(spectral)
    temporal = np.asarray(temporal)
    return {
        DOMAIN_SPECTRAL: spectral,
        DOMAIN_TEMPORAL: temporal,
        DOMAIN_MIXED: np.concatenate([spectral, temporal], axis=1),
        "class_labels": np.asarray([s.waveform for s in snapshots]),
        "detection_labels": np.asarray([s.detection_label for s in snapshots]),
        "scenario_ids": np.asarray([s.scenario_id for s in snapshots], dtype=np.int64),
    }


def feature_header() -> list:
    return [f"s{i:03d}" for i in range(SPECTRAL_DIM)] + [f"t{i:02d}" for i in range(TEMPORAL_DIM)]


def write_feature_csv(path, mixed_rows, class_labels, detection_labels) -> None:
    """One snapshot per row: s000..s127, t00..t48, class, detection."""
    mixed_rows = np.asarray(mixed_rows, dtype=np.float64)
    if mixed_rows.ndim != 2 or mixed_rows.shape[1] != MIXED_DIM:
        raise InvalidSpecError(f"feature CSV expects {MIXED_DIM}-value mixed rows")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(feature_header() + ["class", "detection"])
        for row, cls, det in zip(mixed_rows, class_labels, detection_labels):
            w.writerow([repr(float(v)) for v in row] + [cls, det])


def read_feature_csv(path) -> dict:
    """Read write_feature_csv's file; a truncated or broken one raises InvalidSpecError."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0][:MIXED_DIM] != feature_header():
            raise InvalidSpecError(f"{path}: unexpected feature CSV header")
        rows = rows[1:]
        if any(len(row) != MIXED_DIM + 2 for row in rows):
            raise InvalidSpecError(f"{path}: a row does not hold {MIXED_DIM} values, class, detection")
        X = np.asarray([[float(v) for v in row[:MIXED_DIM]] for row in rows]).reshape(-1, MIXED_DIM)
    except (ValueError, csv.Error) as exc:  # bad UTF-8, a non-numeric value, a broken quote
        raise InvalidSpecError(f"{path}: unreadable feature CSV: {exc!r}") from None
    return {
        DOMAIN_MIXED: X,
        DOMAIN_SPECTRAL: X[:, :SPECTRAL_DIM],
        DOMAIN_TEMPORAL: X[:, SPECTRAL_DIM:],
        "class_labels": np.asarray([row[MIXED_DIM] for row in rows]),
        "detection_labels": np.asarray([row[MIXED_DIM + 1] for row in rows]),
    }


def spectrogram_image(x, n_time: int = 32, n_freq: int = 32, n_avg: int = 1) -> np.ndarray:
    """Small time-frequency log-power image (rows = time slices).

    Used as the input representation for the generative-model experiments;
    each time slice averages ``n_avg`` consecutive windows of 2*n_freq
    samples, so the buffer must hold n_time * n_avg * 2 * n_freq samples.
    """
    samples = _samples_of(x)
    window = 2 * n_freq
    if window < 2 or (window & (window - 1)) != 0:
        raise InvalidLengthError("spectrogram needs a power-of-two window (2 * n_freq)")
    if len(samples) < n_time * n_avg * window:
        raise InsufficientSamplesError(
            f"need {n_time * n_avg * window} samples for a {n_time}x{n_freq} spectrogram"
        )
    frames = samples[: n_time * n_avg * window].reshape(n_time, n_avg, window)
    spectra = fft(frames * _hann(window))
    p = np.mean(np.abs(spectra) ** 2, axis=1) / float(window) ** 2
    p = p.reshape(n_time, n_freq, 2).sum(axis=2)
    return 10.0 * np.log10(p + LOG_EPS)
