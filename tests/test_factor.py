import hashlib
import json
import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from jamcodec import cli, factor, nn
from jamcodec.errors import InvalidSpecError, ShapeError

CLASSES = ("chirp", "multitone", "pulsed", "hopper", "modulated", "noise")


def sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def images():
    images, _ = factor.make_spectrogram_dataset(CLASSES, 8, seed=0)
    return images


# One value: the parameter only keeps these tests' ids, which end in [small_conv], stable.
@pytest.fixture(scope="module", params=["small_conv"])
def trained(images):
    cfg = factor.FactorVaeConfig(epochs=2, seed=0, lr=1e-3)
    model, disc, history = factor.train_factorvae(cfg, images)
    return model, disc, history


# SHA-256 of (model parameters, history JSON, 5-step interpolation between
# images 0 and 47) after 2 epochs on 6 classes x 8 images, seed 0.
GOLDEN_TRAINING = (
    "c83a933bf27da042cd6a42465976a8b424193ba90e58f9a4a0e4a6fe61412634",
    "83d843c32bf23b50b727bdd1a80ae4beadf5c93973f6f86a3af140cbd33eb1c8",
    "4fb3e82edea2733b88850f6308bbb2977f18ea5b13c29922e110ecc15fb2559b",
)

# SHA-256 of the trained discriminator's parameters, same run as above.
GOLDEN_DISC = "601b93822e2cca6445a1c2671edf06885af0e2eeff1d4615f291bf54335496f2"


class TestGoldens:
    def test_training_and_interpolation_bytes(self, trained, images):
        model, _, history = trained
        strip = factor.interpolate(model, images[0], images[-1], 5)
        got = (
            sha(b"".join(p.tobytes() for p in model.parameters())),
            sha(json.dumps(history, sort_keys=True).encode()),
            sha(strip.tobytes()),
        )
        assert got == GOLDEN_TRAINING

    def test_discriminator_bytes(self, trained):
        _, disc, _ = trained
        assert sha(disc.flat_params.tobytes()) == GOLDEN_DISC

    def test_interpolate_cli_pgm(self, tmp_path, capsys):
        prefix = tmp_path / "strip"
        argv = ["interpolate", "--per-class", "8", "--epochs", "2", "--strips", "1",
                "--output-prefix", str(prefix)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"{prefix}_0.pgm"
        digest = sha((tmp_path / "strip_0.pgm").read_bytes())
        assert digest == "304da58730c18ebfc9d0f279e73638007344800d5d66d1f9f2ef2bcdf7c3bf05"


def fd_fraction(arrays, grads, loss, h=1e-6, tol=1e-5):
    """Fraction of entries whose analytic gradient matches a central difference."""
    ok = total = 0
    for arr, grad in zip(arrays, grads):
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            lp = loss()
            arr[idx] = orig - h
            lm = loss()
            arr[idx] = orig
            fd = (lp - lm) / (2 * h)
            total += 1
            ok += abs(grad[idx] - fd) <= tol * max(abs(grad[idx]), abs(fd), 1e-3)
    return ok / total


def layer_fd_fraction(layer, x):
    """Input and parameter gradients of sum(layer(x) * r) against central differences."""
    r = np.random.default_rng(5).standard_normal(layer.forward(x).shape)
    layer.forward(x, train=True)
    grads = [layer.backward(r)] + [g.copy() for g in layer.grads]
    return fd_fraction([x, *layer.params], grads, lambda: float(np.sum(layer.forward(x) * r)))


def tap_copy_conv2d(x, w, b, stride, grad):
    """Linear Conv2d forward, weight gradient and input gradient as the layer first ran them.

    One strided tap copy per kernel tap builds the columns, and the input
    gradient is one GEMM for every tap, scattered back one tap at a time in
    ascending (ti, tj).
    """
    batch, h, wd, in_ch = x.shape
    kernel, out_ch = w.shape[0], w.shape[3]
    out_h, top, pad_h, _ = nn._conv1d_geometry(h, kernel, stride)
    out_w, left, pad_w, _ = nn._conv1d_geometry(wd, kernel, stride)
    xp = np.pad(x, ((0, 0), (top, pad_h - top), (left, pad_w - left), (0, 0)))

    def tap(arr, ti, tj):
        return arr[:, ti : ti + (out_h - 1) * stride + 1 : stride, tj : tj + (out_w - 1) * stride + 1 : stride]

    cols = np.empty((batch, out_h, out_w, kernel, kernel, in_ch))
    for ti in range(kernel):
        for tj in range(kernel):
            cols[:, :, :, ti, tj, :] = tap(xp, ti, tj)
    flat = cols.reshape(batch, out_h * out_w, -1)
    z = (flat @ w.reshape(-1, out_ch) + b).reshape(batch, out_h, out_w, out_ch)
    gz = grad.reshape(batch, out_h * out_w, out_ch)
    grad_w = (flat.reshape(-1, flat.shape[-1]).T @ gz.reshape(-1, out_ch)).reshape(w.shape)
    gcols = (gz @ w.reshape(-1, out_ch).T).reshape(batch, out_h, out_w, kernel, kernel, in_ch)
    gpad = np.zeros(xp.shape)
    for ti in range(kernel):
        for tj in range(kernel):
            tap(gpad, ti, tj)[...] += gcols[:, :, :, ti, tj, :]
    return z, grad_w, gpad[:, top : top + h, left : left + wd]


class TestConv2dKeepsItsBits:
    """Forward and weight gradient keep the oracle's bytes. The input gradient runs
    one GEMM per tap, which BLAS may sum in another order than the oracle's one
    GEMM, so it compares to within 1e-12."""

    @given(kernel=st.integers(1, 5), stride=st.integers(1, 2), h=st.integers(1, 12), w=st.integers(1, 12),
           in_ch=st.integers(1, 4), out_ch=st.integers(1, 4), batch=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @example(kernel=3, stride=2, h=7, w=8, in_ch=2, out_ch=3, batch=2, seed=0)
    @example(kernel=3, stride=1, h=8, w=7, in_ch=2, out_ch=3, batch=2, seed=1)
    @settings(max_examples=150, deadline=None)
    def test_matches_tap_copy_oracle(self, kernel, stride, h, w, in_ch, out_ch, batch, seed):
        rng = np.random.default_rng(seed)
        layer = factor.Conv2d(in_ch, out_ch, kernel, stride, activation="linear", rng=rng)
        layer.b[...] = rng.standard_normal(out_ch)
        x = rng.standard_normal((batch, h, w, in_ch))
        z = layer.forward(x, train=True)
        grad = rng.standard_normal(z.shape)
        grad_x = layer.backward(grad)
        want_z, want_w, want_x = tap_copy_conv2d(x, layer.w, layer.b, stride, grad)
        assert z.tobytes() == want_z.tobytes()
        assert layer.grads[0].tobytes() == want_w.tobytes()
        np.testing.assert_allclose(grad_x, want_x, rtol=1e-12, atol=1e-12)


class TestGradients:
    @pytest.mark.parametrize("stride, shape", [(1, (2, 5, 6, 2)), (2, (2, 7, 6, 2))])
    def test_conv2d(self, stride, shape):
        layer = factor.Conv2d(2, 3, 3, stride, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal(shape)
        assert layer_fd_fraction(layer, x) >= 0.99

    def test_conv2d_linear_exact(self):
        layer = factor.Conv2d(2, 3, 3, 2, activation="linear", rng=np.random.default_rng(3))
        x = np.random.default_rng(4).standard_normal((2, 6, 5, 2))
        assert layer_fd_fraction(layer, x) == 1.0

    def test_upsample2x(self):
        x = np.random.default_rng(8).standard_normal((2, 3, 2, 3))
        assert layer_fd_fraction(factor.Upsample2x(), x) == 1.0

    def test_tc_gradient_wrt_z(self):
        disc = factor.Discriminator(4, seed=1)
        z = np.random.default_rng(9).standard_normal((6, 4))
        weight = 6.4
        tc, grad_z, tc_logits = factor.tc_term(disc, z, weight)
        logits = disc.forward(z)
        assert tc_logits.tobytes() == logits.tobytes()
        assert tc == float(np.mean(logits[:, 0] - logits[:, 1]))

        def loss():
            logits = disc.forward(z)
            return weight * float(np.mean(logits[:, 0] - logits[:, 1]))

        assert fd_fraction([z], [grad_z], loss) >= 0.99


class TestDocumentedClaims:
    def test_permute_dims_keeps_each_dimension_multiset(self):
        z = np.random.default_rng(10).standard_normal((17, 5))
        out = factor.permute_dims(z, seed=3)
        assert np.array_equal(np.sort(out, axis=0), np.sort(z, axis=0))
        assert not np.array_equal(out, z)
        assert np.array_equal(out, factor.permute_dims(z, seed=3))

    def test_interpolate_endpoints(self, trained, images):
        model, _, _ = trained
        strip = factor.interpolate(model, images[3], images[40], 4)
        mu_a, _ = model.encode(images[3][None])
        mu_b, _ = model.encode(images[40][None])
        assert strip.shape == (4, *model.image_hw)
        assert strip[0].tobytes() == model.decode(mu_a)[0].tobytes()
        assert strip[-1].tobytes() == model.decode(mu_b)[0].tobytes()

    def test_wrong_image_size_rejected(self, trained):
        model, _, _ = trained
        with pytest.raises(ShapeError):
            model.encode(np.zeros((2, 16, 64)))
        with pytest.raises(ShapeError):
            factor.interpolate(model, np.zeros((32, 16)), np.zeros((32, 16)), 3)

    def test_dataset_scaled_to_unit_range(self, images):
        assert images.shape == (48, 32, 32)
        assert images.min() == 0.0 and images.max() == 1.0

    @pytest.mark.parametrize("kwargs", [{"tc_weight": -1.0}, {"lr": 0.0}, {"lr": -1e-3},
                                        {"lr": math.nan}, {"lr": math.inf}, {"epochs": 0},
                                        {"tc_weight": math.nan}, {"tc_weight": math.inf}])
    def test_config_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidSpecError):
            factor.FactorVaeConfig(**kwargs)

    def test_interpolate_needs_two_steps(self, trained, images):
        with pytest.raises(InvalidSpecError):
            factor.interpolate(trained[0], images[0], images[1], 1)
