import hashlib
from fractions import Fraction
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from jamcodec import nn, quantize
from jamcodec.errors import InvalidSpecError

ARCHS = {
    "dense": {},
    "conv": {"conv_front": ((3, 16, 5, 2),)},
    "conv2": {"conv_front": ((3, 8, 5, 2), (8, 16, 3, 1))},
}
INPUT_DIM = 177


def _model(name):
    """An untrained 128-128-6 AE with small random biases, so every bias path is exercised."""
    model = nn.build_autoencoder(INPUT_DIM, (128, 128), 6, seed=4, **ARCHS[name])
    rng = np.random.default_rng(17)
    for b in (p for p in model.parameters() if p.ndim == 1):
        b[...] = rng.normal(scale=0.5, size=b.shape)
    return model


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(5)
    calib = rng.normal(size=(256, INPUT_DIM))
    out = {}
    for name in ARCHS:
        model = _model(name)
        # Calibrated on tiny inputs, the int32 biases clip at the int32 limits, so
        # a normal-sized input drives the accumulators past them.
        out[name] = (quantize.quantize_model(model, quantize.calibrate(model, calib)),
                     quantize.quantize_model(model, quantize.calibrate(model, 1e-9 * calib)))
    return out


def _inputs(kind):
    rng = np.random.default_rng(23)
    if kind == "single":
        return rng.normal(size=INPUT_DIM)
    if kind == "block":
        return rng.normal(size=(1000, INPUT_DIM))
    return 1e3 * rng.normal(size=(50, INPUT_DIM))  # "large"


# --- the int64 reference path: int64 einsum/matmul, np.add.at scatter, separate requant steps


def _ref_rounding_rshift(t, shift):
    if shift <= 0:
        return t << (-shift)
    offset = np.int64(1) << np.int64(shift - 1)
    mag = (np.abs(t) + offset) >> np.int64(shift)
    return np.where(t >= 0, mag, -mag)


def _ref_requant(ql, acc):
    over = int(np.count_nonzero((acc > quantize.INT32_MAX) | (acc < quantize.INT32_MIN)))
    acc = np.clip(acc, quantize.INT32_MIN, quantize.INT32_MAX)
    y = _ref_rounding_rshift(acc * np.int64(ql.multiplier), ql.shift) + np.int64(ql.out_qp.zero_point)
    y = np.clip(y, quantize.QMIN, quantize.QMAX)
    if ql.activation == "relu":
        y = np.maximum(y, np.int64(ql.out_qp.zero_point))
    return y, over


def _ref_geom(length, kernel, stride):
    out_len = -(-length // stride)
    total_pad = max(0, (out_len - 1) * stride + kernel - length)
    idx = np.arange(out_len)[:, None] * stride + np.arange(kernel)[None, :]
    return out_len, total_pad // 2, total_pad, idx


def int64_forward(qm, x):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = quantize.quantize_tensor(np.atleast_2d(x), qm.input_qp).astype(np.int64)
    overflows = 0
    for ql in qm.layers:
        if ql.kind == "reshape":
            h = h.reshape(h.shape[0], *ql.geometry["out_shape"])
            continue
        centered = h - np.int64(ql.in_qp.zero_point)
        w, b = ql.w_q.astype(np.int64), ql.b_q.astype(np.int64)
        kernel, stride = ql.geometry.get("kernel"), ql.geometry.get("stride")
        if ql.kind == "dense":
            acc = centered @ w + b
        elif ql.kind == "conv1d":
            batch, length, in_ch = centered.shape
            out_len, pad_left, total_pad, idx = _ref_geom(length, kernel, stride)
            xp = np.pad(centered, ((0, 0), (pad_left, total_pad - pad_left), (0, 0)))
            acc = xp[:, idx, :].reshape(batch, out_len, kernel * in_ch) @ w.reshape(kernel * in_ch, -1) + b
        else:
            out_len = ql.geometry["output_len"]
            _, pad_left, total_pad, idx = _ref_geom(out_len, kernel, stride)
            contrib = np.einsum("blc,kco->blko", centered, w)
            zpad = np.zeros((centered.shape[0], out_len + total_pad, w.shape[2]), dtype=np.int64)
            np.add.at(zpad, (slice(None), idx), contrib)
            acc = zpad[:, pad_left : pad_left + out_len, :] + b
        h, over = _ref_requant(ql, acc)
        overflows += over
        last = ql
    out = quantize.dequantize(h, last.out_qp)
    return (out[0] if single else out), overflows


def _digest(out, saturations):
    h = hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes())
    h.update(str(saturations).encode())
    return h.hexdigest()


# SHA-256 of the little-endian float64 outputs followed by the saturation count, computed
# with the int64 path above; "large" runs the tiny-calibration models and saturates.
GOLDEN = {
    ("dense", "single"): "2d353c0177ac18db4516a69586f7702985cd8f89d796ea4c42d0e9743321a135",
    ("dense", "block"): "bcf63b201a0523bf0786a3933aebfe6f8b6212e95786451585bde6e8a2554a6a",
    ("dense", "large"): "7357fb52edb680835e7867b7e3e05fe2af1e144a9a49e30851c057939ddc31de",
    ("conv", "single"): "2c96bcc7a42c63afffc459f9219ce67aba23125afc2b8729b9d417633c89b6c5",
    ("conv", "block"): "8ae4136140da5290a80fe22f1db6b134abb1f869e2e7b44eb8511365bbc36710",
    ("conv", "large"): "6f94935f9d62fa90f1997040d06373af80a62b1b06fd4d538dff155cf6ab7faa",
    ("conv2", "single"): "22c6c8f245e7b054627a1c3e699c3755cf5c10c1ce73c963266af68fc1c98d2b",
    ("conv2", "block"): "53619b642fbfd88643b7483495beb50ce141d1ccb9ed825b787058c25b9d3b6e",
    ("conv2", "large"): "c454611966ac2f8baa61feaa865202f95d136d51b367d4d7cf9f3441520355f7",
}


class TestInt8Forward:
    @pytest.mark.parametrize("arch, kind", sorted(GOLDEN))
    def test_golden_outputs_and_saturations(self, models, arch, kind):
        qm = models[arch][kind == "large"]
        out, info = quantize.int8_forward(qm, _inputs(kind), return_info=True)
        if kind == "large":
            assert info["int32_saturations"] > 0
        else:
            assert info["int32_saturations"] == 0
        assert _digest(out, info["int32_saturations"]) == GOLDEN[arch, kind]

    @pytest.mark.parametrize("arch, kind", sorted(GOLDEN))
    def test_matches_int64_reference(self, models, arch, kind):
        qm = models[arch][kind == "large"]
        out, info = quantize.int8_forward(qm, _inputs(kind), return_info=True)
        ref, over = int64_forward(qm, _inputs(kind))
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()
        assert info["int32_saturations"] == over

    def test_batch_rows_equal_single_vectors(self, models):
        x = _inputs("block")[:5]
        for arch in ARCHS:
            qm = models[arch][0]
            batch = quantize.int8_forward(qm, x)
            for row, expect in zip(x, batch):
                assert quantize.int8_forward(qm, row).tobytes() == expect.tobytes()


C = quantize._CHUNK_ROWS


class TestChunking:
    """int8_forward runs a batch in chunks of C rows; no boundary may move a byte."""

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    @pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 2 * C + 3])
    def test_row_counts_match_int64_reference(self, models, arch, n):
        qm = models[arch][0]
        x = np.random.default_rng(n).normal(size=(n, INPUT_DIM))
        out, info = quantize.int8_forward(qm, x, return_info=True)
        ref, over = int64_forward(qm, x)
        assert out.shape == (n, INPUT_DIM) and out.dtype == np.float64
        assert out.tobytes() == ref.tobytes()
        assert info["int32_saturations"] == over == 0

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_saturating_block_over_three_chunks(self, models, arch):
        qm = models[arch][1]
        x = 1e3 * np.random.default_rng(29).normal(size=(2 * C + 3, INPUT_DIM))
        out, info = quantize.int8_forward(qm, x, return_info=True)
        ref, over = int64_forward(qm, x)
        assert out.tobytes() == ref.tobytes()
        assert info["int32_saturations"] == over > 0


class TestAccumulationDtype:
    """float32 sums a dot product exactly up to fan-in 514, float64 beyond."""

    @pytest.mark.parametrize("fan_in, dtype", [(514, np.float32), (515, np.float64)])
    def test_extreme_accumulators_stay_exact(self, fan_in, dtype):
        # centred activations of 255 against weights of -128 but one -127 per column: odd
        # sums just under 2^24 in magnitude at fan-in 514, just over it at 515
        w_q = np.full((fan_in, 2), -128, dtype=np.int8)
        w_q[[0, 1], [0, 1]] = -127
        ql = quantize.QuantLayer("dense", w_q, np.array([4, -4], np.int32), quantize.QuantParams(1.0, -128),
                                 quantize.QuantParams(1.0, 0), 1.0, 2**30, 30, "linear",
                                 {"in": fan_in, "out": 2})
        assert ql.w_acc.dtype == dtype and ql.w_mat.dtype == np.float64
        h = np.full((3, fan_in), 127, dtype=np.int8)
        dot = (h.astype(np.int64) + 128) @ w_q.astype(np.int64)
        assert np.all(dot % 2 == 1) and (abs(dot).max() > 2**24) == (fan_in == 515)
        acc = quantize._accumulate(ql, h)
        assert acc.dtype == np.int64 and acc.tolist() == (dot + ql.b_q).tolist()

    def test_wide_model_takes_float64_and_matches_reference(self):
        model = nn.build_autoencoder(600, (16,), 4, seed=2)
        rng = np.random.default_rng(3)
        qm = quantize.quantize_model(model, quantize.calibrate(model, rng.normal(size=(64, 600))))
        assert [l.w_acc.dtype for l in qm.layers] == [np.float64, np.float32, np.float32, np.float32]
        x = rng.normal(size=(C + 7, 600))
        out, info = quantize.int8_forward(qm, x, return_info=True)
        ref, over = int64_forward(qm, x)
        assert out.tobytes() == ref.tobytes() and info["int32_saturations"] == over


_BEYOND_INT32 = st.one_of(st.integers(-(2**40), quantize.INT32_MIN - 1),
                         st.integers(quantize.INT32_MAX + 1, 2**40))


class TestRequantizeProperty:
    """_requantize, in place, against the separate-step reference _ref_requant.

    With no value beyond int32 the fast path runs, with any the saturating one.
    """

    @settings(max_examples=300, deadline=None)
    @given(inside=st.lists(st.integers(quantize.INT32_MIN, quantize.INT32_MAX), min_size=1, max_size=40),
           beyond=st.lists(_BEYOND_INT32, max_size=5),
           scale=st.one_of(st.tuples(st.integers(2**30, 2**31 - 1), st.integers(1, 48)),
                           st.tuples(st.integers(0, 1000), st.integers(-3, 0))),
           activation=st.sampled_from(["relu", "linear"]),
           zero_point=st.sampled_from([-128, -37, 0, 5, 127]),
           data=st.data())
    def test_matches_reference(self, inside, beyond, scale, activation, zero_point, data):
        multiplier, shift = scale
        acc = np.array(data.draw(st.permutations(inside + beyond)), dtype=np.int64)
        ql = _identity_layer(1, multiplier, shift, activation, zero_point)
        expect, expect_over = _ref_requant(ql, acc.copy())
        over = quantize._requantize(ql, acc)
        assert over == expect_over == len(beyond)
        assert acc.dtype == np.int64 and acc.tolist() == expect.tolist()


def _identity_layer(n, multiplier, shift, activation="linear", zero_point=0):
    unit = quantize.QuantParams(1.0, 0)
    return quantize.QuantLayer("dense", np.eye(n, dtype=np.int8), np.zeros(n, np.int32), unit,
                               quantize.QuantParams(1.0, zero_point), 1.0, multiplier, shift,
                               activation, {"in": n, "out": n})


def _round_half_away(q):
    """Round a Fraction half away from zero, exactly."""
    mag = abs(q)
    r = int(mag) + (1 if mag - int(mag) >= Fraction(1, 2) else 0)
    return r if q >= 0 else -r


class TestRequantization:
    """One identity dense layer with unit scales: the output is requant(acc) exactly."""

    def _run(self, acc, multiplier, shift, activation="linear", zero_point=0):
        acc = np.asarray(acc, dtype=np.float64)
        layer = _identity_layer(acc.size, multiplier, shift, activation, zero_point)
        qm = quantize.QuantizedModel([layer], quantize.QuantParams(1.0, 0), {}, acc.size, acc.size)
        return quantize.int8_forward(qm, acc) + zero_point

    def test_rounding_shift_half_ties_go_away_from_zero(self):
        acc = [1, -1, 3, -3, 5, -5, 2, -2, 0, 7, -7]
        expect = [1, -1, 2, -2, 3, -3, 1, -1, 0, 4, -4]
        assert self._run(acc, 1, 1).tolist() == expect
        # multiplier 2^30 with shift 31 is the same factor 1/2 in the fixed-point form
        assert self._run(acc, 2**30, 31).tolist() == expect

    def test_requant_matches_exact_rational_oracle(self):
        acc = np.arange(-128, 128)
        for multiplier, shift in [(1, 0), (3, 1), (5, 2), (2**30, 33), (1518500250, 32),
                                  (1234567891, 35), (2**31 - 1, 31), (1, -1)]:
            out = self._run(acc, multiplier, shift)
            exact = [Fraction(int(a) * multiplier) / Fraction(2) ** shift for a in acc]
            expect = [min(127, max(-128, _round_half_away(q))) for q in exact]
            assert out.tolist() == expect, (multiplier, shift)

    def test_relu_clamps_at_the_zero_point(self):
        out = self._run([-9, -1, 0, 4, 127], 3, 0, activation="relu", zero_point=-5)
        # 3 * acc + zp = [-32, -8, -5, 7, 376] -> clamp to [-5, 127]
        assert out.tolist() == [-5, -5, -5, 7, 127]


class TestFixedPointMultiplier:
    @pytest.mark.parametrize("m_real", [1e-6, 0.0123, 0.3, 0.5, 0.75, 0.999999, 1.0, 1.7, 3.0, 1000.5])
    def test_normalized_and_accurate(self, m_real):
        m, shift = quantize._fixed_point_multiplier(m_real)
        assert 2**30 <= m < 2**31
        assert abs(m * 2.0**-shift - m_real) <= m_real * 2.0**-30

    def test_exact_powers_of_two(self):
        assert quantize._fixed_point_multiplier(0.5) == (2**30, 31)
        assert quantize._fixed_point_multiplier(1.0) == (2**30, 30)
        assert quantize._fixed_point_multiplier(4.0) == (2**30, 28)

    def test_rounding_up_to_two_pow_31_renormalizes(self):
        assert quantize._fixed_point_multiplier(1.0 - 2.0**-33) == (2**30, 30)

    @pytest.mark.parametrize("m_real", [0.0, -0.5])
    def test_non_positive_is_zero(self, m_real):
        assert quantize._fixed_point_multiplier(m_real) == (0, 0)


class TestCalibration:
    @pytest.mark.parametrize("arch", ["dense", "conv"])
    def test_one_range_per_path_boundary(self, arch):
        model = _model(arch)
        x = np.random.default_rng(6).normal(size=(32, INPUT_DIM))
        ranges = quantize.calibrate(model, x, percentile=100.0)
        assert len(ranges) == len(model.path) + 1
        assert ranges[0] == (x.min(), x.max())
        h = x
        for layer, got in zip(model.path, ranges[1:]):
            h = layer.forward(h)
            assert got == (h.min(), h.max())

    def test_ranges_of_another_architecture_rejected(self):
        x = np.random.default_rng(7).normal(size=(32, INPUT_DIM))
        dense, conv = _model("dense"), _model("conv")
        with pytest.raises(InvalidSpecError):
            quantize.quantize_model(dense, quantize.calibrate(conv, x))
        with pytest.raises(InvalidSpecError):
            quantize.quantize_model(conv, quantize.calibrate(dense, x))

    @pytest.mark.parametrize("percentile", [10.0, 49.9, math.nan, 100.5, math.inf])
    def test_percentile_outside_fifty_to_hundred_rejected(self, percentile):
        x = np.random.default_rng(8).normal(size=(32, INPUT_DIM))
        with pytest.raises(InvalidSpecError):
            quantize.calibrate(_model("dense"), x, percentile=percentile)


class TestSerialization:
    def test_round_trip(self, models, tmp_path):
        for arch in ARCHS:
            qm = models[arch][0]
            path = tmp_path / f"{arch}.aeq"
            quantize.save_quantized(path, qm)
            back = quantize.load_quantized(path)
            assert (back.input_qp, back.arch, back.latent_dim, back.input_dim) == (
                qm.input_qp, qm.arch, qm.latent_dim, qm.input_dim)
            assert len(back.layers) == len(qm.layers)
            for a, b in zip(back.layers, qm.layers):
                assert a.w_q.dtype == np.int8 and a.b_q.dtype == np.int32
                assert np.array_equal(a.w_q, b.w_q) and np.array_equal(a.b_q, b.b_q)
                assert (a.kind, a.in_qp, a.out_qp, a.w_scale, a.multiplier, a.shift,
                        a.activation, a.geometry) == (b.kind, b.in_qp, b.out_qp, b.w_scale,
                                                      b.multiplier, b.shift, b.activation,
                                                      b.geometry)
            x = _inputs("block")[:20]
            assert quantize.int8_forward(back, x).tobytes() == quantize.int8_forward(qm, x).tobytes()
            quantize.save_quantized(tmp_path / "again.aeq", back)
            assert (tmp_path / "again.aeq").read_bytes() == path.read_bytes()

    # computed before int8_forward cached float64 weights on QuantLayer; they stay off disk
    AEQ_GOLDEN = {
        "dense": "7e62d83415e63a205906af64b174f22ee7214521c66024618001377b001e6f68",
        "conv": "bef2db7527d902c3c50530ebe7874cbab9a7e5d1d63203127194872bd244b7ba",
        "conv2": "25fd70ac9f50dbdcbe988c2983b64f6ce644fbd88a0d6e2c8ba0b86cf6fb0641",
    }

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_file_golden_bytes(self, models, tmp_path, arch):
        path = tmp_path / f"{arch}.aeq"
        quantize.save_quantized(path, models[arch][0])
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.AEQ_GOLDEN[arch]

    def test_cached_weights_follow_w_q(self, models, tmp_path):
        for arch in ARCHS:
            path = tmp_path / f"{arch}.aeq"
            quantize.save_quantized(path, models[arch][0])
            for ql in quantize.load_quantized(path).layers:
                assert ql.w_mat.dtype == np.float64 and ql.w_mat.size == ql.w_q.size
                if ql.kind == "conv1d_t":
                    assert np.array_equal(ql.w_mat.reshape(ql.w_q.shape[1], ql.w_q.shape[0], -1),
                                          ql.w_q.transpose(1, 0, 2))
                else:
                    assert np.array_equal(ql.w_mat.reshape(ql.w_q.shape), ql.w_q)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.aeq"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(InvalidSpecError):
            quantize.load_quantized(path)

    @pytest.fixture
    def saved(self, models, tmp_path):
        path = tmp_path / "model.aeq"
        quantize.save_quantized(path, models["conv"][0])
        return path

    @pytest.mark.parametrize("keep", [0, 2, 6, 40, -3, -1])
    def test_truncated_file(self, saved, keep):
        # 6 bytes cut the header, 40 the descriptor, -3 and -1 the last bias blob
        data = saved.read_bytes()
        saved.write_bytes(data[:keep] if keep >= 0 else data[:len(data) + keep])
        with pytest.raises(InvalidSpecError):
            quantize.load_quantized(saved)

    def test_trailing_bytes(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\x00\x00")
        with pytest.raises(InvalidSpecError):
            quantize.load_quantized(saved)

    def test_corrupt_descriptor(self, saved):
        data = bytearray(saved.read_bytes())
        data[8] = 0xFF  # the descriptor's opening brace becomes invalid UTF-8
        saved.write_bytes(bytes(data))
        with pytest.raises(InvalidSpecError):
            quantize.load_quantized(saved)
