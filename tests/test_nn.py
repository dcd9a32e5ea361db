import hashlib
import json
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from jamcodec import factor, nn
from jamcodec.errors import InvalidSpecError, ShapeError, TrainingDivergedError


def eval_loss(model, x, seed=3):
    if model.variational:
        mu, logvar = model.encode(x)
        eps = nn.derived_rng(seed).standard_normal(mu.shape)
        z = mu + np.exp(0.5 * np.clip(logvar, -10, 10)) * eps
        return nn.mse_loss(x, model.decode(z)) + nn.gaussian_kl(mu, logvar)
    recon, _ = nn.forward(model, x)
    return nn.mse_loss(x, recon)


def finite_difference_fraction(model, x, h=1e-4, tol=1e-4, seed=3, n_arrays=None):
    """Fraction of parameters (of the first n_arrays arrays, default all) whose
    backprop gradient matches central FD."""
    _, grads = nn.backprop(model, x, seed=seed)
    ok = total = 0
    for pi, p in enumerate(model.parameters()[:n_arrays]):
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + h
            lp = eval_loss(model, x, seed)
            p[idx] = orig - h
            lm = eval_loss(model, x, seed)
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            g = grads[pi][idx]
            rel = abs(g - fd) / max(abs(g), abs(fd), 1e-8)
            total += 1
            ok += rel <= tol
    return ok / total


class TestForward:
    def test_identity_dense(self):
        model = nn.build_autoencoder(3, (3,), 3, seed=0)
        # single path: encoder Dense(3,3,relu), Dense(3,3,linear); decoder mirrors
        for layer in model.encoder + model.decoder:
            layer.w[...] = np.eye(3)
            layer.b[...] = 0.0
        x = np.abs(np.random.default_rng(0).standard_normal((4, 3)))
        recon, latent = nn.forward(model, x)
        assert np.allclose(recon, x, atol=1e-12)
        assert np.allclose(latent, x, atol=1e-12)

    def test_zero_weights_relu(self):
        model = nn.build_autoencoder(5, (4,), 2, seed=0)
        for layer in model.encoder + model.decoder:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        recon, latent = nn.forward(model, np.ones((2, 5)))
        assert np.all(latent == 0.0) and np.all(recon == 0.0)

    def test_scalar_loop_oracle(self):
        # element-by-element reference for a 2-layer encoder, batch of 3
        model = nn.build_autoencoder(4, (3,), 2, seed=9)
        x = np.random.default_rng(1).uniform(0, 1, (3, 4))
        recon, latent = nn.forward(model, x)

        def dense_scalar(w, b, inp, act):
            out = []
            for j in range(w.shape[1]):
                acc = b[j]
                for i in range(w.shape[0]):
                    acc += inp[i] * w[i, j]
                out.append(max(acc, 0.0) if act == "relu" else acc)
            return out

        for n in range(3):
            h = list(x[n])
            for layer in model.encoder:
                h = dense_scalar(layer.w, layer.b, h, layer.activation)
            assert np.max(np.abs(np.array(h) - latent[n])) < 1e-6
            for layer in model.decoder:
                h = dense_scalar(layer.w, layer.b, h, layer.activation)
            assert np.max(np.abs(np.array(h) - recon[n])) < 1e-6

    def test_latent_dimension(self):
        model = nn.build_autoencoder(16, (8, 8), 5, seed=0)
        _, latent = nn.forward(model, np.zeros((7, 16)))
        assert latent.shape == (7, 5)

    def test_shape_error(self):
        model = nn.build_autoencoder(8, (4,), 2, seed=0)
        with pytest.raises(ShapeError):
            nn.forward(model, np.zeros((2, 9)))

    @pytest.mark.parametrize("kernel, stride", [(5, 2), (3, 1), (4, 2)])
    def test_conv_columns_equal_fancy_index_gather(self, kernel, stride):
        layer = nn.Conv1d(3, 4, kernel, stride=stride, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((7, 59, 3))
        layer.forward(x, train=True)
        cols = layer._cache[0]
        _, pad_left, total_pad, idx = nn._conv1d_geometry(59, kernel, stride)
        xp = np.pad(x, ((0, 0), (pad_left, total_pad - pad_left), (0, 0)))
        assert cols.tobytes() == xp[:, idx, :].reshape(cols.shape).tobytes()

    def test_variational_forward_deterministic_without_seed(self):
        model = nn.build_autoencoder(6, (5,), 2, seed=1, variational=True)
        x = np.random.default_rng(0).uniform(0, 1, (3, 6))
        r1, l1 = nn.forward(model, x)
        r2, l2 = nn.forward(model, x)
        assert np.array_equal(r1, r2) and np.array_equal(l1, l2)

    @pytest.mark.parametrize("conv_front", [(), ((2, 3, 3, 2),)])
    def test_path_is_the_mu_compression_path(self, conv_front):
        model = nn.build_autoencoder(12, (6,), 2, seed=4, variational=True, conv_front=conv_front)
        assert model.path == model.encoder + [model.mu_head] + model.decoder
        assert all(layer is not model.logvar_head for layer in model.path)
        x = np.random.default_rng(2).uniform(0, 1, (5, 12))
        recon, latent = nn.forward(model, x)
        mu, _ = model.encode(x)
        assert latent.tobytes() == mu.tobytes()
        assert recon.tobytes() == model.decode(mu).tobytes()


class TestBackprop:
    def test_linear_model_closed_form(self):
        # encoder = single linear map W (no decoder): recon = x W
        rng = np.random.default_rng(4)
        W = rng.standard_normal((6, 6))
        layer = nn.Dense(6, 6, activation="linear")
        layer.w[...] = W
        layer.b[...] = 0.0
        model = nn.AeModel([layer], [], latent_dim=6, input_dim=6)
        x = rng.standard_normal((5, 6))
        loss, grads = nn.backprop(model, x)
        recon = x @ W
        expect = x.T @ (2.0 * (recon - x) / x.size)
        assert np.max(np.abs(grads[0] - expect)) < 1e-8

    def test_zero_loss_zero_gradients(self):
        model = nn.build_autoencoder(3, (3,), 3, seed=0)
        for layer in model.encoder + model.decoder:
            layer.w[...] = np.eye(3)
            layer.b[...] = 0.0
        x = np.abs(np.random.default_rng(2).standard_normal((4, 3)))
        loss, grads = nn.backprop(model, x)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    def test_dense_fd(self):
        model = nn.build_autoencoder(10, (7, 5), 3, seed=7)
        x = np.random.default_rng(107).uniform(0, 1, (6, 10))
        assert finite_difference_fraction(model, x) >= 0.99

    def test_conv_stride2_fd(self):
        model = nn.build_autoencoder(16, (6,), 3, seed=5, conv_front=((2, 4, 3, 2),))
        x = np.random.default_rng(2).uniform(0, 1, (4, 16))
        assert finite_difference_fraction(model, x) >= 0.99

    def test_conv_stride1_fd(self):
        model = nn.build_autoencoder(12, (5,), 2, seed=6, conv_front=((1, 3, 3, 1),))
        x = np.random.default_rng(3).uniform(0, 1, (3, 12))
        assert finite_difference_fraction(model, x) >= 0.99

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("out_ch", [1, 3])
    def test_conv_transpose_fd(self, stride, out_ch):
        """Input, weight and bias gradients of sum(layer(x) * r) against central differences."""
        rng = np.random.default_rng(10 * stride + out_ch)
        layer = nn.ConvTranspose1d(2, out_ch, 3, stride, output_len=9, activation="linear", rng=rng)
        layer.b[...] = rng.standard_normal(out_ch)
        x = rng.standard_normal((3, nn._conv1d_geometry(9, 3, stride)[0], 2))
        r = rng.standard_normal((3, 9, out_ch))
        layer.forward(x, train=True)
        grads = [layer.backward(r)] + [g.copy() for g in layer.grads]
        h = 1e-6
        for arr, grad in zip([x, *layer.params], grads):
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                lp = float(np.sum(layer.forward(x) * r))
                arr[idx] = orig - h
                lm = float(np.sum(layer.forward(x) * r))
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(grad[idx] - fd) <= 1e-5 * max(abs(grad[idx]), abs(fd), 1e-3)

    def test_vae_loss_fd(self):
        model = nn.build_autoencoder(8, (6,), 3, seed=8, variational=True)
        x = np.random.default_rng(4).uniform(0, 1, (5, 8))
        assert finite_difference_fraction(model, x) >= 0.99

    @pytest.mark.parametrize("kwargs", [
        dict(input_dim=10, hidden_widths=(7, 5), latent_dim=3, seed=7),
        dict(input_dim=16, hidden_widths=(6,), latent_dim=3, seed=5, conv_front=((2, 4, 3, 2),)),
        dict(input_dim=8, hidden_widths=(6,), latent_dim=3, seed=8, variational=True),
    ], ids=["dense", "conv_front", "variational_vae"])
    def test_first_layer_weight_gradient_with_its_input_gradient_skipped(self, kwargs):
        model = nn.build_autoencoder(**kwargs)
        first = next(layer for layer in model.encoder if layer.params)
        assert first.params[0] is model.parameters()[0]
        calls = []
        backward = first.backward

        def spy(grad, input_grad=True):
            calls.append(input_grad)
            out = backward(grad, input_grad=input_grad)
            assert (out is None) != input_grad
            return out

        first.backward = spy
        x = np.random.default_rng(4).uniform(0, 1, (5, kwargs["input_dim"]))
        assert finite_difference_fraction(model, x, n_arrays=2) >= 0.99
        assert calls == [False]


CONV_SHAPES = dict(kernel=st.integers(1, 7), stride=st.integers(1, 2), length=st.integers(1, 40),
                   channels=st.integers(1, 4), other=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestConvKernelsKeepTheirBits:
    """_overlap_add sums each output element in ascending tap order: the bytes of
    np.add.at over _conv1d_geometry's index with the positions reversed. The conv
    products it and the transposed conv's gathers run as BLAS GEMMs, which sum in
    another order than the np.add.at and einsum oracles below, so those compare to
    within 1e-12."""

    @given(**CONV_SHAPES)
    @settings(max_examples=150, deadline=None)
    def test_helper(self, kernel, stride, length, channels, other, seed):
        out_len, pad_left, total_pad, idx = nn._conv1d_geometry(length, kernel, stride)
        cols = np.random.default_rng(seed).standard_normal((other, out_len, kernel, channels))
        want = np.zeros((other, length + total_pad, channels))
        np.add.at(want, (slice(None), idx[::-1]), cols[:, ::-1])
        # w[t] selects tap t's block of a row, so each product is that block, exactly.
        select = np.eye(kernel * channels).reshape(kernel * channels, kernel, channels).transpose(1, 0, 2)
        got = nn._overlap_add(cols.reshape(other, out_len, -1), select, stride, (other, length, channels),
                              [(out_len, pad_left, total_pad, idx)])
        assert got.tobytes() == want[:, pad_left : pad_left + length].tobytes()

    @given(**CONV_SHAPES)
    @settings(max_examples=150, deadline=None)
    def test_conv_transpose_forward(self, kernel, stride, length, channels, other, seed):
        rng = np.random.default_rng(seed)
        layer = nn.ConvTranspose1d(other, channels, kernel, stride, output_len=length, activation="linear",
                                   rng=rng)
        layer.b[...] = rng.standard_normal(channels)
        in_len, pad_left, total_pad, idx = nn._conv1d_geometry(length, kernel, stride)
        x = rng.standard_normal((3, in_len, other))
        zpad = np.zeros((3, length + total_pad, channels))
        np.add.at(zpad, (slice(None), idx), np.einsum("blc,kco->blko", x, layer.w))
        assert_close(layer.forward(x), zpad[:, pad_left : pad_left + length, :] + layer.b)

    @given(**CONV_SHAPES)
    @settings(max_examples=150, deadline=None)
    def test_conv_input_gradient(self, kernel, stride, length, channels, other, seed):
        rng = np.random.default_rng(seed)
        layer = nn.Conv1d(channels, other, kernel, stride=stride, activation="linear", rng=rng)
        out_len, pad_left, total_pad, idx = nn._conv1d_geometry(length, kernel, stride)
        layer.forward(rng.standard_normal((3, length, channels)), train=True)
        grad = rng.standard_normal((3, out_len, other))
        gcols = (grad @ layer.w.reshape(kernel * channels, other).T).reshape(3, out_len, kernel, channels)
        gpad = np.zeros((3, length + total_pad, channels))
        np.add.at(gpad, (slice(None), idx), gcols)
        assert_close(layer.backward(grad), gpad[:, pad_left : pad_left + length, :])

    @given(**CONV_SHAPES)
    @settings(max_examples=150, deadline=None)
    def test_conv_transpose_gradients(self, kernel, stride, length, channels, other, seed):
        rng = np.random.default_rng(seed)
        layer = nn.ConvTranspose1d(other, channels, kernel, stride, output_len=length, activation="linear",
                                   rng=rng)
        in_len, pad_left, total_pad, idx = nn._conv1d_geometry(length, kernel, stride)
        x = rng.standard_normal((3, in_len, other))
        layer.forward(x, train=True)
        grad = rng.standard_normal((3, length, channels))
        gzpad = np.pad(grad, ((0, 0), (pad_left, total_pad - pad_left), (0, 0)))
        assert_close(layer.backward(grad), np.einsum("blko,kco->blc", gzpad[:, idx, :], layer.w))
        assert_close(layer.grads[0], np.einsum("blc,blko->kco", x, gzpad[:, idx, :]))
        assert layer.grads[1].tobytes() == np.sum(grad.reshape(-1, channels), axis=0).tobytes()


FLAT_MODELS = {
    "dense": dict(input_dim=12, hidden_widths=(8, 6), latent_dim=3, seed=1),
    "conv_front": dict(input_dim=16, hidden_widths=(6,), latent_dim=3, seed=5, conv_front=((2, 4, 3, 2),)),
    "variational": dict(input_dim=12, hidden_widths=(8,), latent_dim=3, seed=2, variational=True),
}


def assert_layers_view(layers, flat_params, flat_grads):
    """Every weight, bias and gradient is a view of the flat buffers, laid out in layer order."""
    layers = [layer for layer in layers if layer.params]
    assert layers and flat_params.shape == flat_grads.shape
    for layer in layers:
        assert np.shares_memory(layer.w, flat_params) and np.shares_memory(layer.b, flat_params)
        assert all(np.shares_memory(g, flat_grads) for g in layer.grads)
    assert b"".join(p.tobytes() for layer in layers for p in layer.params) == flat_params.tobytes()


def assert_views_of_flat_buffer(model, n_params):
    assert model.n_params() == n_params == model.flat_params.size
    assert_layers_view(model._layers(), model.flat_params, model.flat_grads)


class TestFlatBuffer:
    """Each trained network keeps its parameters in one buffer that the layers view."""

    @pytest.mark.parametrize("kind", sorted(FLAT_MODELS))
    def test_layers_view_the_buffer_through_build_train_load_and_set(self, kind, tmp_path):
        kwargs = FLAT_MODELS[kind]
        model = nn.build_autoencoder(**kwargs)
        n_params = model.n_params()
        assert_views_of_flat_buffer(model, n_params)

        x = np.random.default_rng(11).uniform(0, 1, (48, kwargs["input_dim"]))
        budget = nn.TrainBudget(screen_epochs=1, retrain_epochs_max=3, batch_size=16, seed=3, lr=3e-3)
        model, _ = nn.train_autoencoder(model, x[:36], x[36:], budget)
        assert_views_of_flat_buffer(model, n_params)

        nn.save_model(tmp_path / "m.aem", model)
        loaded = nn.load_model(tmp_path / "m.aem")
        assert_views_of_flat_buffer(loaded, n_params)
        assert all(np.array_equal(a, b.astype(np.float32)) for a, b in zip(loaded.parameters(), model.parameters()))

        values = np.random.default_rng(0).standard_normal(n_params).astype(np.float32)
        model.flat_params[...] = values
        assert_views_of_flat_buffer(model, n_params)
        assert np.array_equal(np.concatenate([p.ravel() for p in model.parameters()]), values)
        nn.train_autoencoder(model, x[:36], x[36:], budget)
        assert_views_of_flat_buffer(model, n_params)

    def test_image_vae_views_the_buffer(self):
        model = factor.ImageVae((16, 16), 4, seed=0)
        assert all(np.shares_memory(p, model.flat_params) for p in model.parameters())
        assert all(np.shares_memory(g, model.flat_grads) for g in model.gradients())
        assert model.n_params() == sum(p.size for p in model.parameters())

    def test_discriminator_views_its_buffers_through_a_backward_pass(self):
        disc = factor.Discriminator(4, seed=1)
        assert_layers_view(disc.layers, disc.flat_params, disc.flat_grads)
        assert not disc.flat_grads.any()
        factor.tc_term(disc, np.random.default_rng(9).standard_normal((6, 4)), 6.4)
        assert disc.flat_grads.any()
        assert_layers_view(disc.layers, disc.flat_params, disc.flat_grads)

    def test_best_epoch_checkpoint_does_not_move_with_later_steps(self):
        x = np.random.default_rng(3).uniform(0, 1, (60, 6))
        budget = nn.TrainBudget(screen_epochs=1, retrain_epochs_max=60, early_stop_patience=3,
                                batch_size=8, seed=1, lr=0.1)
        model, history = nn.train_autoencoder(nn.build_autoencoder(6, (5,), 2, seed=2), x[:45], x[45:], budget)
        vals = [h["val_loss"] for h in history]
        assert vals[-1] > min(vals)  # later epochs stepped past the best one
        recon, _ = nn.forward(model, x[45:])
        assert nn.mse_loss(x[45:], recon) == min(vals)


class TestAdam:
    def test_first_step_magnitude(self):
        p = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -0.7, 2.0])
        before = p.copy()
        nn.Adam(p, g, lr=0.01).step()
        expect = 0.01 * g / (np.abs(g) + 1e-8)
        assert np.max(np.abs((before - p) - expect)) < 1e-12

    def test_zero_gradient_no_move(self):
        p = np.array([1.0, 2.0])
        nn.Adam(p, np.zeros(2), lr=0.1).step()
        assert np.array_equal(p, [1.0, 2.0])

    def test_three_step_trace_on_quadratic(self):
        # independent scalar re-implementation of bias-corrected Adam
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w_ref, m, v = 1.0, 0.0, 0.0
        trace = []
        for t in range(1, 4):
            g = 2.0 * w_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w_ref -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            trace.append(w_ref)

        p, g = np.array([1.0]), np.empty(1)
        opt = nn.Adam(p, g, lr=lr)
        got = []
        for _ in range(3):
            g[...] = 2.0 * p
            opt.step()
            got.append(float(p[0]))
        assert np.max(np.abs(np.array(got) - np.array(trace))) < 1e-12

    def test_matches_out_of_place_expression_bit_for_bit(self):
        rng = np.random.default_rng(6)
        params, grads = rng.normal(size=43), np.empty(43)
        opt = nn.Adam(params, grads, lr=0.01)
        ref_p, ref_m, ref_v = params.copy(), np.zeros(43), np.zeros(43)
        b1, b2, eps = opt.beta1, opt.beta2, opt.eps
        for t in range(1, 21):
            grads[...] = rng.normal(size=43)
            given = grads.copy()
            opt.step()
            assert grads.tobytes() == given.tobytes()  # the gradient is only read
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            ref_m = b1 * ref_m + (1.0 - b1) * given
            ref_v = b2 * ref_v + (1.0 - b2) * given * given
            ref_p = ref_p - 0.01 * (ref_m / bc1) / (np.sqrt(ref_v / bc2) + eps)
            for got, want in zip((params, opt.m, opt.v), (ref_p, ref_m, ref_v)):
                assert got.tobytes() == want.tobytes()


class TestLosses:
    def test_mse_identical(self):
        assert nn.mse_loss(np.ones((3, 4)), np.ones((3, 4))) == 0.0

    def test_mse_unit_offset(self):
        assert nn.mse_loss(np.zeros((2, 5)), np.ones((2, 5))) == 1.0

    def test_mse_scalar_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        acc = 0.0
        for i in range(3):
            for j in range(4):
                acc += (a[i, j] - b[i, j]) ** 2
        assert abs(nn.mse_loss(a, b) - acc / 12) < 1e-12

    def test_kl_zero_at_prior(self):
        assert nn.gaussian_kl(np.zeros((4, 3)), np.zeros((4, 3))) == 0.0

    def test_kl_closed_form_unit_mean(self):
        assert abs(nn.gaussian_kl(np.array([[1.0]]), np.array([[0.0]])) - 0.5) < 1e-12

    def test_kl_quadrature_oracle(self):
        # numerically integrate KL(N(mu, s^2) || N(0,1)) on a dense grid
        for mu, logvar in [(0.7, 0.3), (-1.2, -0.8), (0.0, 1.5)]:
            sigma = math.exp(0.5 * logvar)
            lo = min(mu - 12 * sigma, -12.0)
            hi = max(mu + 12 * sigma, 12.0)
            t = np.linspace(lo, hi, 200_001)
            p = np.exp(-0.5 * ((t - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
            q = np.exp(-0.5 * t**2) / math.sqrt(2 * math.pi)
            integrand = np.where(p > 0, p * (np.log(p + 1e-300) - np.log(q + 1e-300)), 0.0)
            expect = np.trapezoid(integrand, t)
            got = nn.gaussian_kl(np.array([[mu]]), np.array([[logvar]]))
            assert abs(got - expect) < 1e-3

    def test_vae_total_is_mse_plus_kl(self):
        model = nn.build_autoencoder(6, (5,), 2, seed=3, variational=True)
        x = np.random.default_rng(1).uniform(0, 1, (4, 6))
        seed = 17
        loss, _ = nn.backprop(model, x, seed=seed)
        assert abs(loss - eval_loss(model, x, seed)) < 1e-12


def vae_pass(mu, logvar, rows, rng):
    """vae_forward on rows inputs, the heads' weights zeroed and their biases mu and logvar."""
    model = nn.build_autoencoder(3, (4,), len(mu), seed=0, variational=True)
    for head, bias in ((model.mu_head, mu), (model.logvar_head, logvar)):
        head.w[...] = 0.0
        head.b[...] = bias
    return nn.vae_forward(model, np.zeros((rows, 3)), rng)


class TestReparameterize:
    def test_sigma_zero_limit(self):
        mu = np.array([1.0, -2.0])
        fwd = vae_pass(mu, [-50.0, -50.0], 1, nn.derived_rng(0))
        # logvar clamps to -10, so sigma = e^-5: z stays within ~1e-2 of mu, and no gradient flows to it
        assert np.all(fwd.logvar == -nn.LOGVAR_CLAMP) and not fwd.clamp_mask.any()
        assert np.max(np.abs(fwd.z - mu)) < 0.05

    def test_seed_repeatability(self):
        def z(seed):
            return vae_pass(np.zeros(3), np.zeros(3), 4, nn.derived_rng(seed)).z

        assert np.array_equal(z(5), z(5))
        assert not np.array_equal(z(5), z(6))

    def test_moments_monte_carlo(self):
        z = vae_pass([0.7], [math.log(2.25)], 100_000, nn.derived_rng(11)).z
        assert abs(np.mean(z) - 0.7) < 0.01 * 0.7 + 0.01
        assert abs(np.var(z) - 2.25) < 0.01 * 2.25 + 0.01


def plane_data(n, seed=0):
    """Points on a random 2-D plane embedded in 10-D."""
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((2, 10))
    coords = rng.uniform(-1, 1, (n, 2))
    return coords @ basis


class TestTrainAutoencoder:
    def test_rank_limited_linear_data(self):
        X = plane_data(300, seed=2)
        model = nn.build_autoencoder(10, (8,), 2, seed=1, hidden_activation="linear")
        budget = nn.TrainBudget(screen_epochs=10, retrain_epochs_max=600,
                                early_stop_patience=50, batch_size=64, seed=0, lr=5e-3)
        model, history = nn.train_autoencoder(model, X[:240], X[240:], budget)
        assert min(h["val_loss"] for h in history) < 1e-3

    def test_patience_zero_stops_at_first_non_improvement(self):
        X = np.random.default_rng(0).uniform(0, 1, (40, 6))
        model = nn.build_autoencoder(6, (4,), 2, seed=0)
        budget = nn.TrainBudget(screen_epochs=1, retrain_epochs_max=500,
                                early_stop_patience=0, batch_size=8, seed=0, lr=1e-3)
        _, history = nn.train_autoencoder(model, X[:30], X[30:], budget)
        vals = [h["val_loss"] for h in history]
        # every epoch but the last must have strictly improved on the best so far
        for i in range(1, len(vals) - 1):
            assert vals[i] < min(vals[:i])
        assert vals[-1] >= min(vals[:-1])

    def test_identical_seeds_identical_histories(self):
        X = np.random.default_rng(1).uniform(0, 1, (50, 5))
        budget = nn.TrainBudget(screen_epochs=1, retrain_epochs_max=30,
                                early_stop_patience=5, batch_size=16, seed=4, lr=1e-3)
        _, h1 = nn.train_autoencoder(nn.build_autoencoder(5, (4,), 2, seed=9), X[:40], X[40:], budget)
        _, h2 = nn.train_autoencoder(nn.build_autoencoder(5, (4,), 2, seed=9), X[:40], X[40:], budget)
        assert h1 == h2

    @pytest.mark.parametrize("kwargs", [{"batch_size": 0}, {"early_stop_patience": -1}, {"lr": 0.0},
                                        {"lr": -1e-3}, {"lr": math.nan}, {"lr": math.inf}])
    def test_budget_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidSpecError):
            nn.TrainBudget(**kwargs)

    def test_divergence_raises_with_epoch(self):
        X = np.random.default_rng(2).uniform(0, 1, (40, 4)) * 1e3
        model = nn.build_autoencoder(4, (4,), 2, seed=0, hidden_activation="linear")
        budget = nn.TrainBudget(screen_epochs=1, retrain_epochs_max=50,
                                early_stop_patience=50, batch_size=8, seed=0, lr=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match=r"non-finite at epoch \d+$"):
                nn.train_autoencoder(model, X[:30], X[30:], budget)

    def test_returns_best_checkpoint(self):
        X = np.random.default_rng(3).uniform(0, 1, (60, 6))
        model = nn.build_autoencoder(6, (5,), 2, seed=2)
        budget = nn.TrainBudget(screen_epochs=1, retrain_epochs_max=40,
                                early_stop_patience=10, batch_size=16, seed=1, lr=3e-3)
        model, history = nn.train_autoencoder(model, X[:45], X[45:], budget)
        recon, _ = nn.forward(model, X[45:])
        best_val = min(h["val_loss"] for h in history)
        assert abs(nn.mse_loss(X[45:], recon) - best_val) < 1e-9

    def test_empty_split_rejected(self):
        model = nn.build_autoencoder(4, (3,), 2, seed=0)
        budget = nn.TrainBudget()
        with pytest.raises(InvalidSpecError):
            nn.train_autoencoder(model, np.zeros((0, 4)), np.zeros((5, 4)), budget)

    def test_loss_monotone_on_convex_problem(self):
        # full-batch linear AE: training loss non-increasing after epoch 5
        # in at least 19 of 20 seeded runs
        X = plane_data(64, seed=5)
        good = 0
        for seed in range(20):
            model = nn.build_autoencoder(10, (6,), 2, seed=seed, hidden_activation="linear")
            budget = nn.TrainBudget(screen_epochs=1, retrain_epochs_max=60,
                                    early_stop_patience=60, batch_size=64, seed=seed, lr=1e-3)
            _, history = nn.train_autoencoder(model, X, X, budget, early_stop=False)
            losses = [h["train_loss"] for h in history][5:]
            good += all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert good >= 19

    def test_reconstruction_lower_bound(self):
        # latent >= input dim, linear layers, <= latent_dim independent points
        rng = np.random.default_rng(7)
        X = rng.standard_normal((4, 4))
        model = nn.build_autoencoder(4, (6,), 4, seed=3, hidden_activation="linear")
        budget = nn.TrainBudget(screen_epochs=1, retrain_epochs_max=4000,
                                early_stop_patience=4000, batch_size=4, seed=0, lr=1e-2)
        model, history = nn.train_autoencoder(model, X, X, budget, early_stop=False)
        assert min(h["val_loss"] for h in history) < 1e-6


# SHA-256 of (trained parameters, history JSON) after 6 epochs on 36 uniform rows
GOLDEN_TRAINING = {
    "dense_mse": (
        dict(input_dim=12, hidden_widths=(8, 6), latent_dim=3, seed=1),
        "9e2ab8d5942f2a14ebdb30e8bd6243833b2c221b9316a3c0d28dc67856ab0c3f",
        "9c8bdb93181678c08476fec1c14acebd8daae989a742841b479ef2fa73e1e503",
    ),
    "variational_vae": (
        dict(input_dim=12, hidden_widths=(8,), latent_dim=3, seed=2, variational=True),
        "5c99faf45239d000fb06aae5f2b07e0b2ae6bc9709775603efc35134ec674a91",
        "40b87571da8f7df71f83a321f30eee3957d29e30da342319e85557da452b0fbb",
    ),
    "conv_front": (
        dict(input_dim=16, hidden_widths=(6,), latent_dim=3, seed=5, conv_front=((2, 4, 3, 2),)),
        "267e2b657162c803d386af1cec3a700af505f5d35fa51b0212526a2493ad7844",
        "fa0d57a3410604b8b1426b505ab4912ea897b02f0fcf8b9b737409acac08383a",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRAINING))
def test_training_golden_bytes(name):
    kwargs, params_sha, history_sha = GOLDEN_TRAINING[name]
    x = np.random.default_rng(11).uniform(0, 1, (48, kwargs["input_dim"]))
    budget = nn.TrainBudget(screen_epochs=1, retrain_epochs_max=6, early_stop_patience=2,
                            batch_size=16, seed=3, lr=3e-3)
    model, history = nn.train_autoencoder(nn.build_autoencoder(**kwargs), x[:36], x[36:], budget)
    assert hashlib.sha256(b"".join(p.tobytes() for p in model.parameters())).hexdigest() == params_sha
    assert hashlib.sha256(json.dumps(history, sort_keys=True).encode()).hexdigest() == history_sha


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        model = nn.build_autoencoder(12, (8, 6), 3, seed=4)
        model.metadata = {"train_scenarios": [0, 1], "norm_stats": {"min": [0.0], "max": [1.0]}}
        x = np.random.default_rng(0).uniform(0, 1, (5, 12))
        recon, _ = nn.forward(model, x)
        path = tmp_path / "model.aem"
        nn.save_model(path, model)
        back = nn.load_model(path)
        recon2, _ = nn.forward(back, x)
        assert np.max(np.abs(recon - recon2)) < 1e-5  # weights quantized to f32
        assert back.metadata["train_scenarios"] == [0, 1]
        assert path.read_bytes()[:4] == b"AEM1"

    def test_variational_roundtrip(self, tmp_path):
        model = nn.build_autoencoder(8, (6,), 2, seed=1, variational=True)
        path = tmp_path / "vae.aem"
        nn.save_model(path, model)
        back = nn.load_model(path)
        x = np.random.default_rng(1).uniform(0, 1, (3, 8))
        mu1, lv1 = model.encode(x)
        mu2, lv2 = back.encode(x)
        assert np.max(np.abs(mu1 - mu2)) < 1e-5
        assert np.max(np.abs(lv1 - lv2)) < 1e-5

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.aem"
        p.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(InvalidSpecError):
            nn.load_model(p)

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.aem"
        nn.save_model(path, nn.build_autoencoder(20, (8,), 3, seed=2, conv_front=((2, 4, 3, 2),)))
        return path

    def test_resave_is_byte_identical(self, saved, tmp_path):
        nn.save_model(tmp_path / "again.aem", nn.load_model(saved))
        assert (tmp_path / "again.aem").read_bytes() == saved.read_bytes()

    @pytest.mark.parametrize("keep", [0, 6, 40, -3, -1])
    def test_truncated_file(self, saved, keep):
        # 6 bytes cut the header, 40 the descriptor, -3 and -1 the last weight blob
        data = saved.read_bytes()
        saved.write_bytes(data[:keep] if keep >= 0 else data[:len(data) + keep])
        with pytest.raises(InvalidSpecError):
            nn.load_model(saved)

    def test_trailing_bytes(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\x00\x00")
        with pytest.raises(InvalidSpecError):
            nn.load_model(saved)

    @pytest.mark.parametrize("descriptor", [b"\xff{}", b"{not json", b"[1]"])
    def test_corrupt_descriptor(self, saved, descriptor):
        data = saved.read_bytes()
        header = len(nn.MODEL_MAGIC) + 4
        desc_len = int.from_bytes(data[len(nn.MODEL_MAGIC):header], "little")
        body = data[header + desc_len:]
        saved.write_bytes(nn.MODEL_MAGIC + len(descriptor).to_bytes(4, "little") + descriptor + body)
        with pytest.raises(InvalidSpecError):
            nn.load_model(saved)

    @pytest.mark.parametrize("key", ["seed", "variational", "conv_front", "hidden_activation", "metadata"])
    def test_a_descriptor_missing_a_written_key_is_rejected(self, tmp_path, key):
        # with no default to fall back on, a linear model cannot load as ReLU
        path = tmp_path / "model.aem"
        nn.save_model(path, nn.build_autoencoder(12, (8,), 3, seed=5, hidden_activation="linear"))
        data = path.read_bytes()
        header = len(nn.MODEL_MAGIC) + 4
        desc_len = int.from_bytes(data[len(nn.MODEL_MAGIC):header], "little")
        descriptor = json.loads(data[header:header + desc_len])
        del (descriptor if key == "metadata" else descriptor["arch"])[key]
        blob = json.dumps(descriptor).encode()
        path.write_bytes(nn.MODEL_MAGIC + len(blob).to_bytes(4, "little") + blob + data[header + desc_len:])
        with pytest.raises(InvalidSpecError, match=f"model.aem.*{key}"):
            nn.load_model(path)

    def test_a_descriptor_without_arch_names_the_file(self, saved):
        data = saved.read_bytes()
        header = len(nn.MODEL_MAGIC) + 4
        desc_len = int.from_bytes(data[len(nn.MODEL_MAGIC):header], "little")
        descriptor = json.loads(data[header:header + desc_len])
        del descriptor["arch"]
        blob = json.dumps(descriptor).encode()
        saved.write_bytes(nn.MODEL_MAGIC + len(blob).to_bytes(4, "little") + blob + data[header + desc_len:])
        with pytest.raises(InvalidSpecError, match="model.aem"):
            nn.load_model(saved)
