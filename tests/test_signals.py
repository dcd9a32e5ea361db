import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jamcodec import features, signals
from jamcodec.errors import (
    InvalidChannelError,
    InvalidSpecError,
    UnsupportedWaveformError,
)


def spec_of(fs, n):
    return signals.SampleSpec.from_samples(fs, n)


class TestSampleSpec:
    def test_n_samples_rounding(self):
        assert signals.SampleSpec(8000.0, 8000).duration_s == 1.0

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidSpecError):
            signals.SampleSpec(0.0, 1.0)
        with pytest.raises(InvalidSpecError):
            signals.SampleSpec(-1.0, 1.0)

    def test_rejects_single_sample(self):
        with pytest.raises(InvalidSpecError):
            signals.SampleSpec.from_samples(1000.0, 1)

    @pytest.mark.parametrize("n", [4096.0, 1.5, True])
    def test_rejects_a_count_that_is_not_an_integer(self, n):
        with pytest.raises(InvalidSpecError, match="sample count"):
            signals.SampleSpec(8000.0, n)


class TestToneSpec:
    def test_polar_roundtrip(self):
        t = signals.ToneSpec(10.0, amp_i=0.3, amp_q=-0.7)
        back = signals.ToneSpec.from_polar(10.0, t.amplitude, t.phase)
        assert abs(back.amp_i - t.amp_i) <= 1e-9 * max(1.0, abs(t.amp_i))
        assert abs(back.amp_q - t.amp_q) <= 1e-9 * max(1.0, abs(t.amp_q))

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_polar_roundtrip_property(self, a, b):
        t = signals.ToneSpec(1.0, amp_i=a, amp_q=b)
        back = signals.ToneSpec.from_polar(1.0, t.amplitude, t.phase)
        assert math.isclose(back.amp_i, a, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(back.amp_q, b, rel_tol=1e-9, abs_tol=1e-9)


class TestSynthTone:
    def test_dc_tone(self):
        buf = signals.synth_tone(signals.ToneSpec(0.0, 1.0, 0.0), spec_of(8000.0, 4))
        assert np.allclose(buf.samples.real, 1.0, atol=0) and np.allclose(buf.samples.imag, 0.0, atol=0)

    def test_quarter_rate_cosine(self):
        buf = signals.synth_tone(signals.ToneSpec(2000.0, 1.0, 0.0), spec_of(8000.0, 4))
        assert np.max(np.abs(buf.samples.real - np.array([1.0, 0.0, -1.0, 0.0]))) < 1e-12

    def test_scalar_loop_oracle(self):
        # independent per-sample evaluation of the closed form
        spec = spec_of(8000.0, 8)
        tone = signals.ToneSpec(1000.0, amp_i=0.6, amp_q=0.8)
        buf = signals.synth_tone(tone, spec)
        amp = math.hypot(0.6, 0.8)
        phase = math.atan2(0.8, 0.6)
        for k in range(8):
            arg = 2 * math.pi * 1000.0 * k / 8000.0 - phase
            assert abs(buf.samples.real[k] - amp * math.cos(arg)) < 1e-12
            assert abs(buf.samples.imag[k] - amp * math.sin(arg)) < 1e-12

    def test_energy(self):
        spec = spec_of(8000.0, 64)
        buf = signals.synth_tone(signals.ToneSpec(700.0, 1.5, 2.0), spec)
        amp2 = 1.5**2 + 2.0**2
        assert abs(np.sum(np.abs(buf.samples) ** 2) - amp2 * 64) <= 1e-6 * amp2 * 64

    def test_quadrature_identity(self):
        # rectangular and polar parameterizations give the same samples
        spec = spec_of(8000.0, 32)
        a, b = -0.4, 1.1
        direct = signals.synth_tone(signals.ToneSpec(900.0, a, b), spec)
        amp, ph = math.hypot(a, b), math.atan2(b, a)
        polar = signals.synth_tone(signals.ToneSpec.from_polar(900.0, amp, ph), spec)
        assert np.max(np.abs(direct.samples - polar.samples)) < 1e-9

    def test_rejects_fast_tone(self):
        with pytest.raises(InvalidSpecError):
            signals.synth_tone(signals.ToneSpec(9000.0, 1.0, 0.0), spec_of(8000.0, 4))


class TestSynthWaveform:
    def test_chirp_sweep_phase_increments(self):
        # sweep 0 -> fs/4 across the buffer: increment reaches pi/2 * (n-1)/n
        # at the end and passes pi/4 at the half-sweep sample
        n = 4096
        spec = spec_of(8000.0, n)
        w = signals.WaveformSpec(signals.CHIRP, f_start_hz=0.0, f_stop_hz=2000.0,
                                 sweep_period_s=n / 8000.0)
        buf = signals.synth_waveform(w, spec, seed=0)
        phase = np.unwrap(np.angle(buf.samples))
        inc = np.diff(phase)
        assert abs(inc[-1] - math.pi / 2 * (n - 1) / n) < 1e-6
        assert abs(inc[n // 2 - 1] - math.pi / 4) < 1e-6

    def test_pulsed_duty_cycle(self):
        spec = spec_of(8000.0, 1000)
        w = signals.WaveformSpec(signals.PULSED, duty=0.25, pulse_rate_hz=80.0,
                                 pulse_freq_hz=500.0)
        buf = signals.synth_waveform(w, spec, seed=1)
        for p in range(10):
            period = buf.samples[p * 100 : (p + 1) * 100]
            assert np.count_nonzero(period) == 25

    def test_pulsed_zero_outside_pulses(self):
        spec = spec_of(8000.0, 400)
        w = signals.WaveformSpec(signals.PULSED, duty=0.5, pulse_rate_hz=40.0)
        buf = signals.synth_waveform(w, spec, seed=1)
        mask = (np.arange(400) % 200) < 100
        assert np.all(buf.samples[~mask] == 0.0)

    def test_multitone_two_dominant_bins(self):
        # FFT oracle through the features module
        spec = spec_of(8192.0, 4096)
        tones = (
            signals.ToneSpec.from_polar(8192.0 / 8, 1.0, 0.0),
            signals.ToneSpec.from_polar(8192.0 / 4, 1.0, 0.5),
        )
        buf = signals.synth_waveform(
            signals.WaveformSpec(signals.MULTITONE, tones=tones), spec, seed=0
        )
        bins = features.power_spectrum_bins(buf, window_len=1024, n_bins=128)
        top2 = set(np.argsort(bins)[-2:].tolist())
        # fs/8 -> DFT bin 128 -> group 16; fs/4 -> bin 256 -> group 32
        assert top2 == {16, 32}

    def test_noise_power_and_bandwidth(self):
        spec = spec_of(8000.0, 8192)
        w = signals.WaveformSpec(signals.NOISE, power=2.0, bandwidth_hz=2000.0)
        buf = signals.synth_waveform(w, spec, seed=3)
        power = np.mean(np.abs(buf.samples) ** 2)
        assert abs(power - 2.0) <= 0.1 * 2.0

    def test_determinism(self):
        spec = spec_of(8000.0, 2048)
        for label in signals.WAVEFORM_CLASSES:
            rng = np.random.default_rng(7)
            w = signals.random_waveform(label, spec, rng)
            a = signals.synth_waveform(w, spec, seed=42)
            b = signals.synth_waveform(w, spec, seed=42)
            assert np.array_equal(a.samples, b.samples), label

    def test_unknown_class_rejected(self):
        with pytest.raises(UnsupportedWaveformError):
            signals.WaveformSpec("laser")

    def test_bad_duty_rejected(self):
        with pytest.raises(InvalidSpecError):
            signals.WaveformSpec(signals.PULSED, duty=0.0)

    def test_nyquist_guard(self):
        spec = spec_of(8000.0, 64)
        w = signals.WaveformSpec(signals.MULTITONE,
                                 tones=(signals.ToneSpec(4000.0, 1.0, 0.0),))
        with pytest.raises(InvalidSpecError):
            signals.synth_waveform(w, spec, seed=0)


class TestApplyChannel:
    def test_identity_tap(self):
        spec = spec_of(8000.0, 64)
        x = signals.synth_tone(signals.ToneSpec(1000.0), spec)
        ch = signals.ChannelSpec(attenuation_db=0.0, multipath_taps=((0, 1.0 + 0.0j),))
        y = signals.apply_channel(x, ch, seed=0)
        assert np.array_equal(y.samples, x.samples)

    def test_attenuation_20db_exact(self):
        spec = spec_of(8000.0, 64)
        x = signals.synth_tone(signals.ToneSpec(1000.0), spec)
        y = signals.apply_channel(x, signals.ChannelSpec(attenuation_db=20.0), seed=0)
        assert np.array_equal(y.samples, x.samples * 0.1)

    def test_convolution_oracle(self):
        # naive double loop over taps and samples
        spec = spec_of(8000.0, 128)
        rng = np.random.default_rng(5)
        x = signals.IqBuffer(rng.standard_normal(128) + 1j * rng.standard_normal(128), spec)
        taps = ((0, 1.0 + 0.0j), (5, 0.5 + 0.0j))
        y = signals.apply_channel(x, signals.ChannelSpec(multipath_taps=taps), seed=0)
        expect = np.zeros(128, dtype=np.complex128)
        for k in range(128):
            for delay, gain in taps:
                if k - delay >= 0:
                    expect[k] += gain * x.samples[k - delay]
        assert np.max(np.abs(y.samples - expect)) < 1e-12

    def test_linearity_without_noise(self):
        spec = spec_of(8000.0, 128)
        rng = np.random.default_rng(6)
        x = signals.IqBuffer(rng.standard_normal(128) + 1j * rng.standard_normal(128), spec)
        ax = signals.IqBuffer(3.5 * x.samples, spec)
        ch = signals.ChannelSpec(attenuation_db=6.0, multipath_taps=((0, 1+0j), (3, 0.2-0.1j)))
        y1 = signals.apply_channel(ax, ch, seed=0)
        y2 = signals.apply_channel(x, ch, seed=0)
        assert np.max(np.abs(y1.samples - 3.5 * y2.samples)) < 1e-12

    def test_noise_deterministic_per_seed(self):
        spec = spec_of(8000.0, 256)
        x = signals.synth_tone(signals.ToneSpec(1000.0), spec)
        ch = signals.ChannelSpec(jsr_db=10.0, noise_seed=4)
        a = signals.apply_channel(x, ch, seed=9)
        b = signals.apply_channel(x, ch, seed=9)
        c = signals.apply_channel(x, ch, seed=10)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_jsr_sets_noise_power(self):
        spec = spec_of(8000.0, 65536)
        x = signals.synth_tone(signals.ToneSpec(1000.0), spec)
        ch = signals.ChannelSpec(jsr_db=10.0)
        y = signals.apply_channel(x, ch, seed=1)
        noise = y.samples - x.samples
        assert abs(np.mean(np.abs(noise) ** 2) - 0.1) < 0.01

    def test_tap_delay_too_large(self):
        spec = spec_of(8000.0, 16)
        x = signals.synth_tone(signals.ToneSpec(100.0), spec)
        with pytest.raises(InvalidChannelError):
            signals.apply_channel(x, signals.ChannelSpec(multipath_taps=((16, 1+0j),)), seed=0)

    def test_tap_order_enforced(self):
        with pytest.raises(InvalidChannelError):
            signals.ChannelSpec(multipath_taps=((5, 1+0j), (2, 0.5+0j)))


class TestNyquistReconstruction:
    def test_best_fit_tone_at_twice_rate(self):
        # least-squares over a frequency grid recovers f when fs = 2f
        fs, f, n = 8000.0, 4000.0, 256
        buf = signals.synth_tone(signals.ToneSpec(f, 1.0, 0.3), spec_of(fs, n))
        k = np.arange(n)
        grid = np.linspace(0.0, fs / 2, 101)
        corr = [abs(np.sum(buf.samples * np.exp(-2j * np.pi * g * k / fs))) for g in grid]
        assert grid[int(np.argmax(corr))] == f


def default_scenarios(n=3, jsr=10.0):
    return tuple(
        signals.Scenario(i, signals.ChannelSpec(attenuation_db=20.0, jsr_db=jsr, noise_seed=i))
        for i in range(n)
    )


class TestMakeDataset:
    def test_balanced_counts(self):
        dspec = signals.DatasetSpec(
            classes=signals.WAVEFORM_CLASSES, per_class_count=10,
            scenarios=default_scenarios(), seed=1, sample=spec_of(64000.0, 2048),
        )
        snaps = signals.make_dataset(dspec)
        assert len(snaps) == 70
        for label in signals.WAVEFORM_CLASSES:
            assert sum(s.waveform == label for s in snaps) == 10

    def test_deterministic(self):
        dspec = signals.DatasetSpec(
            classes=(signals.CHIRP, signals.CLEAN), per_class_count=3,
            scenarios=default_scenarios(), seed=5, sample=spec_of(64000.0, 2048),
        )
        a = signals.make_dataset(dspec)
        b = signals.make_dataset(dspec)
        for s, t in zip(a, b):
            assert np.array_equal(s.iq.samples, t.iq.samples)

    def test_histogram_matches_request(self):
        classes = (signals.NOISE, signals.PULSED, signals.MODULATED)
        dspec = signals.DatasetSpec(
            classes=classes, per_class_count=7,
            scenarios=default_scenarios(2), seed=2, sample=spec_of(64000.0, 2048),
        )
        snaps = signals.make_dataset(dspec)
        hist = {}
        for s in snaps:
            hist[s.waveform] = hist.get(s.waveform, 0) + 1
        assert hist == {c: 7 for c in classes}

    def test_detection_labels_consistent(self):
        dspec = signals.DatasetSpec(
            classes=(signals.CLEAN, signals.CHIRP), per_class_count=4,
            scenarios=default_scenarios(), seed=3, sample=spec_of(64000.0, 2048),
        )
        for s in signals.make_dataset(dspec):
            expected = signals.DETECTION_CLEAN if s.waveform == signals.CLEAN \
                else signals.DETECTION_INTERFERENCE
            assert s.detection_label == expected

    def test_scenario_of_assigns_the_scenarios_in_turn(self):
        scenarios = default_scenarios(3)
        dspec = signals.DatasetSpec(classes=(signals.CLEAN, signals.CHIRP), per_class_count=7,
                                    scenarios=scenarios, seed=3, sample=spec_of(64000.0, 2048))
        assert [dspec.scenario_of(r) for r in range(7)] == [scenarios[r % 3] for r in range(7)]
        snaps = signals.make_dataset(dspec)
        assert [s.scenario_id for s in snaps] == [0, 1, 2, 0, 1, 2, 0] * 2

    def test_empty_classes_rejected(self):
        with pytest.raises(InvalidSpecError):
            signals.DatasetSpec(classes=(), per_class_count=1,
                                scenarios=default_scenarios(), seed=0,
                                sample=spec_of(64000.0, 2048))


class TestIqFileFormat:
    def test_roundtrip(self, tmp_path):
        spec = spec_of(48000.0, 512)
        rng = np.random.default_rng(0)
        buf = signals.IqBuffer(rng.standard_normal(512) + 1j * rng.standard_normal(512), spec)
        path = tmp_path / "x.iqf"
        signals.write_iq(path, buf)
        back = signals.read_iq(path)
        assert back.spec.n_samples == 512
        assert back.spec.sample_rate_hz == 48000.0
        assert np.max(np.abs(back.samples - buf.samples)) < 1e-6  # f32 storage

    def test_header_layout(self, tmp_path):
        spec = spec_of(1000.0, 4)
        buf = signals.IqBuffer(np.ones(4, dtype=np.complex128), spec)
        path = tmp_path / "x.iqf"
        signals.write_iq(path, buf)
        raw = path.read_bytes()
        assert raw[:4] == b"IQF1"
        assert len(raw) == 16 + 4 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.iqf"
        path.write_bytes(b"NOPE" + b"\0" * 12)
        with pytest.raises(InvalidSpecError):
            signals.read_iq(path)

    def test_manifest_roundtrip(self, tmp_path):
        records = [
            {"file": "a.iqf", "class": "chirp", "detection": "interference",
             "scenario_id": 1, "seed": 99},
            {"file": "b.iqf", "class": "clean", "detection": "clean",
             "scenario_id": 2, "seed": 100},
        ]
        path = tmp_path / "manifest.jsonl"
        signals.write_manifest(path, records)
        assert signals.read_manifest(path) == records

    @pytest.mark.parametrize("edit", [
        {"scenario_id": 3.7}, {"scenario_id": "3"}, {"scenario_id": True}, {"seed": 1.0}, {"seed": None},
    ], ids=["scenario_id_fraction", "scenario_id_string", "scenario_id_true", "seed_float", "seed_null"])
    def test_manifest_rejects_a_scenario_id_or_seed_that_is_not_an_int(self, tmp_path, edit):
        path = tmp_path / "manifest.jsonl"
        signals.write_manifest(path, [{"file": "a.iqf", "class": "chirp", "detection": "interference",
                                       "scenario_id": 3, "seed": 99, **edit}])
        with pytest.raises(InvalidSpecError, match="not an integer"):
            signals.read_manifest(path)

    def test_manifest_requires_a_seed(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        signals.write_manifest(path, [{"file": "a.iqf", "class": "chirp", "detection": "interference",
                                       "scenario_id": 3}])
        with pytest.raises(InvalidSpecError, match="lacks"):
            signals.read_manifest(path)

    def test_dataset_roundtrip(self, tmp_path):
        dspec = signals.DatasetSpec(classes=(signals.CLEAN, signals.HOPPER), per_class_count=3,
                                    scenarios=default_scenarios(2), seed=4, sample=spec_of(64000.0, 256))
        snaps = signals.make_dataset(dspec)
        written = signals.write_dataset(tmp_path, snaps)
        assert written == [tmp_path / signals.DATASET_MANIFEST] + [
            tmp_path / f"data/snap_{i:05d}.iqf" for i in range(len(snaps))]
        back = signals.read_dataset(tmp_path)
        assert len(back) == len(snaps)
        for s, t in zip(snaps, back):
            assert t.iq.samples.tobytes() == s.iq.samples.astype(np.complex64).astype(np.complex128).tobytes()
            assert t.iq.spec == s.iq.spec
            assert (t.waveform, t.detection_label, t.scenario_id, t.seed) == \
                (s.waveform, s.detection_label, s.scenario_id, s.seed)

    @pytest.fixture
    def saved_iq(self, tmp_path):
        path = tmp_path / "x.iqf"
        rng = np.random.default_rng(1)
        signals.write_iq(path, signals.IqBuffer(rng.standard_normal(64) + 0j, spec_of(8000.0, 64)))
        return path

    @pytest.mark.parametrize("keep", [0, 6, -3])
    def test_truncated_iq_rejected(self, saved_iq, keep):
        # 0 bytes lose the magic, 6 cut the header, -3 the last sample
        data = saved_iq.read_bytes()
        saved_iq.write_bytes(data[:keep] if keep >= 0 else data[:len(data) + keep])
        with pytest.raises(InvalidSpecError):
            signals.read_iq(saved_iq)

    def test_trailing_iq_bytes_rejected(self, saved_iq):
        saved_iq.write_bytes(saved_iq.read_bytes() + b"\x00\x00")
        with pytest.raises(InvalidSpecError):
            signals.read_iq(saved_iq)

    @pytest.mark.parametrize("content", [
        b'{"file": "a.iqf", "class": "chirp"',
        b"\xff\xfe\n",
        b'{"file": "a.iqf", "class": "chirp", "detection": "interference"}\n',
        b"[1, 2]\n",
    ])
    def test_bad_manifest_rejected(self, tmp_path, content):
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(content)
        with pytest.raises(InvalidSpecError):
            signals.read_manifest(path)
