import hashlib
import math
from types import SimpleNamespace
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jamcodec import features, parallel, signals
from jamcodec.errors import InsufficientSamplesError, InvalidLengthError, InvalidSpecError


def naive_dft(x):
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    out = np.zeros(n, dtype=np.complex128)
    for m in range(n):
        acc = 0.0 + 0.0j
        for k in range(n):
            acc += x[k] * np.exp(-2j * np.pi * k * m / n)
        out[m] = acc
    return out


class TestFft:
    def test_impulse(self):
        assert np.allclose(features.fft([1, 0, 0, 0]), np.ones(4), atol=1e-12)

    def test_constant(self):
        X = features.fft(np.ones(8))
        assert abs(X[0] - 8.0) < 1e-12
        assert np.max(np.abs(X[1:])) < 1e-12

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        expect = naive_dft(x)
        got = features.fft(x)
        assert np.max(np.abs(got - expect)) <= 1e-6 * np.max(np.abs(expect))

    @pytest.mark.parametrize("n", [2, 4, 32, 512])
    def test_matches_naive_dft_sizes(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expect = naive_dft(x)
        assert np.max(np.abs(features.fft(x) - expect)) <= 1e-6 * np.max(np.abs(expect))

    @pytest.mark.parametrize("n", [0, 1, 3, 100, 1000])
    def test_rejects_bad_lengths(self, n):
        with pytest.raises(InvalidLengthError):
            features.fft(np.zeros(max(n, 0)))

    @pytest.mark.parametrize("n", [2, 64, 1024, 4096])
    def test_inverse_roundtrip(self, n):
        # the inverse DFT through the conjugate trick: conj(fft(conj(X))) / n
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = np.conj(features.fft(np.conj(features.fft(x)))) / n
        assert np.max(np.abs(back - x)) <= 1e-9 * max(1.0, np.max(np.abs(x)))

    def test_batch_axis(self):
        rng = np.random.default_rng(9)
        xb = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        got = features.fft(xb)
        for i in range(5):
            assert np.allclose(got[i], features.fft(xb[i]), atol=1e-12)

    def test_golden_bytes(self):
        rng = np.random.default_rng(2024)
        x = rng.standard_normal((3, 4, 1024)) + 1j * rng.standard_normal((3, 4, 1024))
        digest = hashlib.sha256(features.fft(x).tobytes()).hexdigest()
        assert digest == "74326558b0b7dbb5512e2c64115f3d172468ef95a63c7295728997ed8c8f0577"

    def test_input_untouched(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
        before = x.copy()
        features.fft(x)
        assert np.array_equal(x, before)


def golden_buffer():
    rng = np.random.default_rng(7)
    return rng.standard_normal(4096) + 1j * rng.standard_normal(4096)


def tone_buffer(freq_frac, fs=8192.0, n=8192, amp=1.0):
    spec = signals.SampleSpec.from_samples(fs, n)
    return signals.synth_tone(signals.ToneSpec.from_polar(freq_frac * fs, amp, 0.0), spec)


class TestPowerSpectrumBins:
    def test_tone_at_group_center_is_argmax(self):
        # group g covers DFT bins [8g, 8g+8); put the tone at bin 8*40+4
        fs, window = 8192.0, 1024
        freq = (8 * 40 + 4) * fs / window
        spec = signals.SampleSpec.from_samples(fs, 4096)
        buf = signals.synth_tone(signals.ToneSpec.from_polar(freq, 1.0, 0.0), spec)
        bins = features.power_spectrum_bins(buf, window_len=window)
        assert int(np.argmax(bins)) == 40

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        p = features.band_power(x, window_len=1024, n_bins=128)
        # oracle: windowed time-domain energy per window / window_len
        k = np.arange(1024)
        hann = 0.5 * (1.0 - np.cos(2.0 * np.pi * k / 1024))
        energies = [np.sum(np.abs(hann * x[i * 1024 : (i + 1) * 1024]) ** 2) for i in range(4)]
        expect = np.mean(energies) / 1024
        assert abs(p.sum() - expect) <= 1e-6 * expect

    def test_white_noise_flatness(self):
        # expectation over 20 seeds of (max - min) spread below 6 dB
        spreads = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 2**18
            x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
            bins = features.power_spectrum_bins(x, window_len=1024, n_bins=128)
            spreads.append(bins.max() - bins.min())
        assert np.mean(spreads) < 6.0

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        a = features.power_spectrum_bins(x, window_len=1024)
        b = features.power_spectrum_bins(np.exp(1j * 0.77) * x, window_len=1024)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_too_short_buffer(self):
        with pytest.raises(InsufficientSamplesError):
            features.power_spectrum_bins(np.zeros(512, dtype=complex), window_len=1024)

    def test_bad_bin_count(self):
        with pytest.raises(InvalidSpecError):
            features.band_power(np.zeros(2048, dtype=complex), window_len=1024, n_bins=100)

    def test_finite_on_zero_input(self):
        bins = features.power_spectrum_bins(np.zeros(1024, dtype=complex))
        assert bins.shape == (features.SPECTRAL_DIM,) and np.all(np.isfinite(bins))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_input_rejected(self, bad):
        x = np.arange(2048, dtype=complex)
        x[100] = bad
        with pytest.raises(InvalidSpecError):
            features.power_spectrum_bins(x, window_len=1024)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200], ids=["inf", "nan", "overflow"])
    def test_band_power_rejects_non_finite_input_without_a_warning(self, bad):
        x = np.ones(2048, dtype=complex)
        x[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSpecError, match="non-finite"):
                features.band_power(x, window_len=1024)

    def test_a_batch_gives_each_row_s_bytes(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((3, 2560)) + 1j * rng.standard_normal((3, 2560))  # 2.5 windows a row
        batch = features.band_power(rows, window_len=1024, n_bins=128)
        assert batch.shape == (3, 128)
        for row, powers in zip(rows, batch):
            assert powers.tobytes() == features.band_power(row, window_len=1024, n_bins=128).tobytes()

    def test_a_batch_of_db_bins_gives_each_row_s_bytes(self):
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((3, 2560)) + 1j * rng.standard_normal((3, 2560))
        batch = features.power_spectrum_bins(rows, window_len=1024)
        assert batch.shape == (3, features.SPECTRAL_DIM)
        assert batch.tobytes() == b"".join(features.power_spectrum_bins(row, window_len=1024).tobytes()
                                           for row in rows)

    def test_band_power_golden_bytes(self):
        digest = hashlib.sha256(features.band_power(golden_buffer(), window_len=1024, n_bins=128).tobytes())
        assert digest.hexdigest() == "b116f785fb40c62014c2e969c860b0bddd7b5a4f6a6e912bacff71fff2d052df"


class TestTemporalStats:
    def test_constant_buffer(self):
        x = np.full(700, 2.5 + 0.0j)
        stats = features.temporal_stats(x).reshape(7, 7)
        assert np.allclose(stats[:, 0], 2.5)        # mean
        assert np.allclose(stats[:, 1], 0.0)        # std
        assert np.allclose(stats[:, 2], 0.0)        # skew (degenerate rule)
        assert np.allclose(stats[:, 3], 3.0)        # kurtosis (degenerate rule)
        assert np.allclose(stats[:, 4], 2.5)        # max-abs
        assert np.allclose(stats[:, 6], 0.0)        # entropy
        assert np.flatnonzero(stats[:, 1] == 0.0).tolist() == list(range(7))  # every sub-window degenerate

    def test_gaussian_kurtosis_monte_carlo(self):
        # shifted normals keep the magnitude positive; kurtosis is shift-invariant
        rng = np.random.default_rng(0)
        x = 1000.0 + rng.standard_normal(1_000_002)
        kurt = features.temporal_stats(x.astype(complex)).reshape(7, 7)[:, 3]
        assert np.all((2.9 <= kurt) & (kurt <= 3.1))

    def test_uniform_histogram_entropy(self):
        # 16 evenly spread values hit all 16 bins equally -> entropy ln(16)
        vals = np.tile(np.arange(16) / 15.0, 7 * 16)
        entropy = features.temporal_stats(vals.astype(complex)).reshape(7, 7)[:, 6]
        assert np.max(np.abs(entropy - math.log(16))) < 1e-12

    def test_log_energy(self):
        x = np.full(7 * 8, 2.0 + 0.0j)
        stats = features.temporal_stats(x).reshape(7, 7)
        assert np.allclose(stats[:, 5], math.log(8 * 4.0 + features.LOG_EPS))

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        a = features.temporal_stats(x)
        b = features.temporal_stats(np.exp(1j * 1.3) * x)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_too_short(self):
        with pytest.raises(InsufficientSamplesError):
            features.temporal_stats(np.zeros(55, dtype=complex))

    def test_finite_for_any_finite_input(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(256) * 1e6
        stats = features.temporal_stats(x.astype(complex))
        assert stats.shape == (features.TEMPORAL_DIM,) and np.all(np.isfinite(stats))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_input_rejected(self, bad):
        x = np.arange(700, dtype=complex)
        x[100] = bad
        with pytest.raises(InvalidSpecError):
            features.temporal_stats(x)

    @staticmethod
    def _histogram_entropy(sub):
        lo, hi = sub.min(), sub.max()
        counts, _ = np.histogram((sub - lo) / (hi - lo), bins=16, range=(0.0, 1.0))
        p = counts[counts > 0] / len(sub)
        return float(-np.sum(p * np.log(p)))

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.3, 1.1), (1e-3, 7.0)])
    def test_entropy_on_bin_edges_matches_histogram(self, lo, hi):
        # magnitudes at lo + (k/16)(hi - lo) and one ulp either side: the bin edges
        edges = np.linspace(0.0, 1.0, 17)
        on = lo + edges * (hi - lo)
        sub = np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf)])
        sub = np.clip(sub, lo, hi)
        rng = np.random.default_rng(6)
        subs = [rng.permutation(sub)] + [rng.uniform(lo, hi, len(sub)) for _ in range(6)]
        entropy = features.temporal_stats(np.concatenate(subs).astype(complex)).reshape(7, 7)[:, 6]
        assert entropy.tolist() == [self._histogram_entropy(s) for s in subs]

    def test_one_constant_subwindow(self):
        rng = np.random.default_rng(8)
        subs = rng.uniform(0.5, 2.0, (7, 40))
        subs[3] = 1.25
        stats = features.temporal_stats(subs.reshape(-1).astype(complex)).reshape(7, 7)
        assert stats[3, 1] == 0.0 and stats[3, 2] == 0.0 and stats[3, 3] == 3.0
        assert stats[3, 6] == 0.0
        assert np.flatnonzero(stats[:, 1] == 0.0).tolist() == [3]  # the one degenerate sub-window
        assert np.all(stats[np.arange(7) != 3, 6] > 0.0)


def baseline_snapshots(seed, per_class=5):
    """Every waveform class over scenarios 0-4 of the Baseline channel, 4096 samples at 1 MHz."""
    scenarios = tuple(
        signals.Scenario(i, signals.ChannelSpec(attenuation_db=20.0, jsr_db=10.0, noise_seed=i))
        for i in range(5)
    )
    return signals.make_dataset(signals.DatasetSpec(
        classes=signals.WAVEFORM_CLASSES, per_class_count=per_class, scenarios=scenarios,
        seed=seed, sample=signals.SampleSpec.from_samples(1_000_000.0, 4096),
    ))


class TestDatasetFeatures:
    GOLDEN = {
        0: "de8542d2345553adb836f4950c559e201aa9367de071b75c0b97f258be3d6af2",
        7: "90ebc97e5ef1580a3ccf153975b4eff6c0f6028c30333c480b8426f51094def7",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden_bytes(self, seed):
        data = features.dataset_features(baseline_snapshots(seed))
        mixed = data[features.DOMAIN_MIXED]
        assert mixed.shape == (5 * len(signals.WAVEFORM_CLASSES), features.MIXED_DIM)
        assert hashlib.sha256(mixed.tobytes()).hexdigest() == self.GOLDEN[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_both_paths_give_the_golden_bytes(self, cpus, seed):
        self.test_golden_bytes(seed)

    def test_a_call_inside_a_fork_map_job_runs_in_process(self, cpus):
        snaps = baseline_snapshots(0)

        def job(i):
            mixed = features.dataset_features(snaps)[features.DOMAIN_MIXED]
            return parallel.n_workers(len(snaps)), hashlib.sha256(mixed.tobytes()).hexdigest()

        assert parallel.fork_map(job, 2) == [(1, self.GOLDEN[0])] * 2

    def test_a_non_finite_snapshot_raises_invalid_spec_in_the_caller(self, cpus):
        snaps = baseline_snapshots(0, per_class=1)
        snaps[-1].iq.samples[7] = np.nan
        with pytest.raises(InvalidSpecError, match="non-finite"):
            features.dataset_features(snaps)

    def test_rows_equal_snapshot_features(self):
        snaps = baseline_snapshots(1, per_class=1)
        data = features.dataset_features(snaps)
        for i, snap in enumerate(snaps):
            f = features.snapshot_features(snap)
            for domain in (features.DOMAIN_SPECTRAL, features.DOMAIN_TEMPORAL, features.DOMAIN_MIXED):
                assert data[domain][i].tobytes() == f[domain].tobytes()


class TestMixedVector:
    def _features(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        return features.snapshot_features(SimpleNamespace(iq=x))

    def test_dimension_177(self):
        assert self._features()[features.DOMAIN_MIXED].shape == (177,)
        assert features.MIXED_DIM == 253 - 76  # transmitted block minus side channel

    def test_roundtrip_split(self):
        f = self._features()
        spectral, temporal = np.split(f[features.DOMAIN_MIXED], [128])
        assert np.array_equal(spectral, f[features.DOMAIN_SPECTRAL])
        assert np.array_equal(temporal, f[features.DOMAIN_TEMPORAL])

    def test_spectral_comes_first(self):
        f = self._features()
        assert np.array_equal(f[features.DOMAIN_MIXED][:128], f[features.DOMAIN_SPECTRAL])


class TestNormalize:
    def test_midpoint_maps_to_half(self):
        stats = features.NormStats(np.array([0.0]), np.array([2.0]))
        scaled, _ = features.apply_minmax(stats, np.array([[1.0]]))
        assert scaled[0, 0] == 0.5

    def test_train_split_lands_in_unit_interval(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 7)) * 40
        scaled, clip = features.apply_minmax(features.fit_minmax(X), X)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        assert clip == 0.0

    def test_clip_rate_counted(self):
        train = np.array([[0.0], [1.0]])
        stats = features.fit_minmax(train)
        test = np.array([[2.0], [0.5], [-1.0], [0.25]])
        scaled, clip_rate = features.apply_minmax(stats, test)
        assert scaled.max() <= 1.0 and scaled.min() >= 0.0
        assert clip_rate == 0.5

    def test_constant_dimension_to_half(self):
        X = np.array([[3.0, 1.0], [3.0, 2.0]])
        scaled, _ = features.apply_minmax(features.fit_minmax(X), X)
        assert np.all(scaled[:, 0] == 0.5)

    def test_needs_two_vectors(self):
        with pytest.raises(InvalidSpecError):
            features.fit_minmax(np.array([[1.0, 2.0]]))

    @given(st.integers(2, 30), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_unit_interval_property(self, n, d):
        rng = np.random.default_rng(n * 31 + d)
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10)
        scaled, _ = features.apply_minmax(features.fit_minmax(X), X)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0


class TestFeatureCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 177))
        cls = np.array(["chirp", "clean", "noise", "pulsed"])
        det = np.array(["interference", "clean", "interference", "interference"])
        path = tmp_path / "features.csv"
        features.write_feature_csv(path, X, cls, det)
        back = features.read_feature_csv(path)
        assert np.array_equal(back[features.DOMAIN_MIXED], X)  # repr() round-trips floats
        assert back["class_labels"].tolist() == cls.tolist()
        assert back["detection_labels"].tolist() == det.tolist()

    def test_header_names(self, tmp_path):
        path = tmp_path / "features.csv"
        features.write_feature_csv(path, np.zeros((1, 177)), ["clean"], ["clean"])
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "s000" and header[127] == "s127"
        assert header[128] == "t00" and header[176] == "t48"
        assert header[177:] == ["class", "detection"]


class TestSpectrogram:
    def test_shape_and_finiteness(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        img = features.spectrogram_image(x, n_time=32, n_freq=32, n_avg=2)
        assert img.shape == (32, 32) and np.all(np.isfinite(img))

    def test_tone_makes_vertical_line(self):
        fs, n = 8192.0, 4096
        spec = signals.SampleSpec.from_samples(fs, n)
        buf = signals.synth_tone(signals.ToneSpec.from_polar(fs / 4, 1.0, 0.0), spec)
        img = features.spectrogram_image(buf, n_time=32, n_freq=32, n_avg=2)
        assert np.all(np.argmax(img, axis=1) == np.argmax(img[0]))

    def test_too_short(self):
        with pytest.raises(InsufficientSamplesError):
            features.spectrogram_image(np.zeros(100, dtype=complex))

    def test_window_not_a_power_of_two(self):
        with pytest.raises(InvalidLengthError):
            features.spectrogram_image(np.zeros(4096, dtype=complex), n_time=8, n_freq=24)

    @pytest.mark.parametrize("n_avg, golden", [
        (1, "2f5f833f2af657acb130c7b76b09188bea30a63f7c2c210253080287a2154301"),
        (2, "37514e33ee9b5b63265ace412349c607de258d3de1b3f621078f91c5620c746b"),
    ])
    def test_golden_bytes(self, n_avg, golden):
        img = features.spectrogram_image(golden_buffer(), n_time=32, n_freq=32, n_avg=n_avg)
        assert hashlib.sha256(img.tobytes()).hexdigest() == golden
