"""Minimal neural-network kernel for the autoencoder compressors.

Dense and 1-D convolutional layers with hand-written backpropagation, Adam,
MSE and Gaussian-KL losses, the reparameterized VAE forward/backward pair
(which the FactorVAE in factor.py also runs), and the training loop with
early stopping. In-memory state and all arithmetic are float64 so
gradients check out against finite differences and results are reproducible
bit-for-bit on one platform; serialized weights are little-endian float32.
"""

import collections
import json
import math
import struct

import numpy as np

from .errors import InvalidSpecError, ShapeError, TrainingDivergedError
from .signals import _read_exact, derived_rng

MODEL_MAGIC = b"AEM1"
LOGVAR_CLAMP = 10.0

_LEAKY_SLOPE = 0.2


def _act(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "linear":
        return z
    if name == "leaky_relu":
        return np.where(z > 0.0, z, _LEAKY_SLOPE * z)
    raise InvalidSpecError(f"unknown activation {name!r}")


def _act_grad(name, z):
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "linear":
        return np.ones_like(z)
    if name == "leaky_relu":
        return np.where(z > 0.0, 1.0, _LEAKY_SLOPE)
    raise InvalidSpecError(f"unknown activation {name!r}")


def _kaiming_uniform(rng, fan_in, shape):
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


class _WeightBias:
    """Weight/bias parameter plumbing shared by the layers with parameters."""

    def _init_params(self, rng, fan_in, w_shape, n_out):
        self.w = _kaiming_uniform(rng or np.random.default_rng(0), fan_in, w_shape)
        self.b = np.zeros(n_out, dtype=np.float64)
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]
        self._cache = None

    @property
    def params(self):
        return [self.w, self.b]

    def set_params(self, arrays):
        self.w, self.b = arrays[0].astype(np.float64), arrays[1].astype(np.float64)


class Dense(_WeightBias):
    kind = "dense"

    def __init__(self, n_in, n_out, activation="relu", rng=None):
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        if self.n_in <= 0 or self.n_out <= 0:
            raise InvalidSpecError("dense dimensions must be positive")
        self.activation = activation
        self._init_params(rng, self.n_in, (self.n_in, self.n_out), self.n_out)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n_in:
            raise ShapeError(f"dense expects {self.n_in} inputs, got {x.shape[-1]}")
        z = x @ self.w + self.b
        if train:
            self._cache = (x, z)
        return _act(self.activation, z)

    def backward(self, grad_out):
        x, z = self._cache
        gz = grad_out * _act_grad(self.activation, z)
        self.grads[0] = x.reshape(-1, self.n_in).T @ gz.reshape(-1, self.n_out)
        self.grads[1] = gz.reshape(-1, self.n_out).sum(axis=0)
        return gz @ self.w.T

    def spec(self):
        return {"kind": "dense", "in": self.n_in, "out": self.n_out, "activation": self.activation}


def _conv1d_geometry(length, kernel, stride):
    out_len = -(-length // stride)
    total_pad = max(0, (out_len - 1) * stride + kernel - length)
    pad_left = total_pad // 2
    idx = np.arange(out_len)[:, None] * stride + np.arange(kernel)[None, :]
    return out_len, pad_left, total_pad, idx


class Conv1d(_WeightBias):
    """1-D convolution over (batch, length, channels), 'same' padding."""

    kind = "conv1d"

    def __init__(self, in_ch, out_ch, kernel, stride=2, activation="relu", rng=None):
        if stride not in (1, 2):
            raise InvalidSpecError(f"conv stride must be 1 or 2, got {stride}")
        self.in_ch, self.out_ch, self.kernel, self.stride = int(in_ch), int(out_ch), int(kernel), int(stride)
        self.activation = activation
        self._init_params(rng, in_ch * kernel, (kernel, in_ch, out_ch), out_ch)

    def out_len(self, length):
        return _conv1d_geometry(length, self.kernel, self.stride)[0]

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.in_ch:
            raise ShapeError(f"conv1d expects (B, L, {self.in_ch}), got {x.shape}")
        batch, length, _ = x.shape
        out_len, pad_left, total_pad, idx = _conv1d_geometry(length, self.kernel, self.stride)
        xp = np.pad(x, ((0, 0), (pad_left, total_pad - pad_left), (0, 0)))
        cols = np.take(xp, idx, axis=1).reshape(batch, out_len, self.kernel * self.in_ch)
        wmat = self.w.reshape(self.kernel * self.in_ch, self.out_ch)
        z = cols @ wmat + self.b
        if train:
            self._cache = (cols, z, x.shape, pad_left, total_pad, idx)
        return _act(self.activation, z)

    def backward(self, grad_out):
        cols, z, x_shape, pad_left, total_pad, idx = self._cache
        batch, length, _ = x_shape
        out_len = z.shape[1]
        gz = grad_out * _act_grad(self.activation, z)
        wmat = self.w.reshape(self.kernel * self.in_ch, self.out_ch)
        self.grads[0] = (
            cols.reshape(-1, self.kernel * self.in_ch).T @ gz.reshape(-1, self.out_ch)
        ).reshape(self.w.shape)
        self.grads[1] = gz.reshape(-1, self.out_ch).sum(axis=0)
        gcols = (gz @ wmat.T).reshape(batch, out_len, self.kernel, self.in_ch)
        gpad = np.zeros((batch, length + total_pad, self.in_ch), dtype=np.float64)
        np.add.at(gpad, (slice(None), idx), gcols)
        return gpad[:, pad_left : pad_left + length, :]

    def spec(self):
        return {
            "kind": "conv1d",
            "in_ch": self.in_ch,
            "out_ch": self.out_ch,
            "kernel": self.kernel,
            "stride": self.stride,
            "activation": self.activation,
        }


class ConvTranspose1d(_WeightBias):
    """Adjoint of Conv1d; used to mirror strided conv layers in decoders."""

    kind = "conv1d_t"

    def __init__(self, in_ch, out_ch, kernel, stride, output_len, activation="relu", rng=None):
        self.in_ch, self.out_ch, self.kernel, self.stride = int(in_ch), int(out_ch), int(kernel), int(stride)
        self.output_len = int(output_len)
        self.activation = activation
        self._init_params(rng, in_ch * kernel, (kernel, in_ch, out_ch), out_ch)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.in_ch:
            raise ShapeError(f"conv1d_t expects (B, L, {self.in_ch}), got {x.shape}")
        batch, in_len, _ = x.shape
        expected, pad_left, total_pad, idx = _conv1d_geometry(self.output_len, self.kernel, self.stride)
        if expected != in_len:
            raise ShapeError(f"conv1d_t expects input length {expected}, got {in_len}")
        contrib = np.einsum("blc,kco->blko", x, self.w)
        zpad = np.zeros((batch, self.output_len + total_pad, self.out_ch), dtype=np.float64)
        np.add.at(zpad, (slice(None), idx), contrib)
        z = zpad[:, pad_left : pad_left + self.output_len, :] + self.b
        if train:
            self._cache = (x, z, pad_left, total_pad, idx)
        return _act(self.activation, z)

    def backward(self, grad_out):
        x, z, pad_left, total_pad, idx = self._cache
        gz = grad_out * _act_grad(self.activation, z)
        gzpad = np.pad(gz, ((0, 0), (pad_left, total_pad - pad_left), (0, 0)))
        gcols = gzpad[:, idx, :]  # (B, in_len, kernel, out_ch)
        self.grads[0] = np.einsum("blc,blko->kco", x, gcols)
        self.grads[1] = gz.reshape(-1, self.out_ch).sum(axis=0)
        return np.einsum("blko,kco->blc", gcols, self.w)

    def spec(self):
        return {
            "kind": "conv1d_t",
            "in_ch": self.in_ch,
            "out_ch": self.out_ch,
            "kernel": self.kernel,
            "stride": self.stride,
            "output_len": self.output_len,
            "activation": self.activation,
        }


class Reshape:
    """Parameter-free view change between dense and conv layers."""

    kind = "reshape"

    def __init__(self, out_shape):
        self.out_shape = tuple(int(v) for v in out_shape)
        self.grads = []
        self._in_shape = None

    @property
    def params(self):
        return []

    def set_params(self, arrays):
        pass

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        if train:
            self._in_shape = x.shape
        return x.reshape(x.shape[0], *self.out_shape)

    def backward(self, grad_out):
        return grad_out.reshape(self._in_shape)

    def spec(self):
        return {"kind": "reshape", "out_shape": list(self.out_shape)}


class AeModel:
    """Encoder/decoder stacks plus optional variational heads.

    For variational models the encoder ends at the last hidden layer and the
    mu/logvar heads project to the latent space; otherwise the encoder's last
    layer is the latent projection itself.
    """

    def __init__(self, encoder, decoder, latent_dim, input_dim, mu_head=None, logvar_head=None,
                 arch=None, metadata=None):
        self.encoder = list(encoder)
        self.decoder = list(decoder)
        self.mu_head = mu_head
        self.logvar_head = logvar_head
        self.latent_dim = int(latent_dim)
        self.input_dim = int(input_dim)
        self.arch = arch
        self.metadata = dict(metadata or {})

    @property
    def variational(self):
        return self.mu_head is not None

    def _layers(self):
        heads = [self.mu_head, self.logvar_head] if self.variational else []
        return self.encoder + heads + self.decoder

    def parameters(self):
        return [p for layer in self._layers() for p in layer.params]

    def gradients(self):
        return [g for layer in self._layers() for g in layer.grads]

    def set_parameters(self, arrays):
        i = 0
        for layer in self._layers():
            k = len(layer.params)
            if k:
                layer.set_params(arrays[i : i + k])
            i += k

    def n_params(self):
        return int(sum(p.size for p in self.parameters()))

    def encode(self, x, train=False):
        h = np.asarray(x, dtype=np.float64)
        for layer in self.encoder:
            h = layer.forward(h, train=train)
        if self.variational:
            mu = self.mu_head.forward(h, train=train)
            logvar = np.clip(self.logvar_head.forward(h, train=train), -LOGVAR_CLAMP, LOGVAR_CLAMP)
            return mu, logvar
        return h

    def decode(self, z, train=False):
        h = np.asarray(z, dtype=np.float64)
        for layer in self.decoder:
            h = layer.forward(h, train=train)
        return h

    def copy_params(self):
        return [p.copy() for p in self.parameters()]


def forward(model: AeModel, x, seed=None) -> tuple:
    """Reconstruction and latent batch; deterministic unless a seed samples z."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] != model.input_dim:
        raise ShapeError(f"model expects {model.input_dim} inputs, got {x.shape[-1]}")
    if model.variational:
        mu, logvar = model.encode(x)
        latent = mu if seed is None else reparameterize(mu, logvar, seed)
    else:
        latent = model.encode(x)
    return model.decode(latent), latent


def mse_loss(x, xhat) -> float:
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ShapeError(f"mse shapes differ: {x.shape} vs {xhat.shape}")
    return float(np.mean((x - xhat) ** 2))


def gaussian_kl(mu, logvar) -> float:
    """Mean over the batch of -0.5 * sum_d(1 + logvar - mu^2 - exp(logvar))."""
    mu = np.atleast_2d(np.asarray(mu, dtype=np.float64))
    logvar = np.atleast_2d(np.asarray(logvar, dtype=np.float64))
    if mu.shape != logvar.shape:
        raise ShapeError(f"kl shapes differ: {mu.shape} vs {logvar.shape}")
    per_sample = -0.5 * np.sum(1.0 + logvar - mu**2 - np.exp(logvar), axis=-1)
    return float(np.mean(per_sample))


def reparameterize(mu, logvar, seed) -> np.ndarray:
    """z = mu + exp(logvar/2) * n with n ~ N(0, 1) drawn from the seed."""
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.clip(np.asarray(logvar, dtype=np.float64), -LOGVAR_CLAMP, LOGVAR_CLAMP)
    if mu.shape != logvar.shape:
        raise ShapeError(f"reparameterize shapes differ: {mu.shape} vs {logvar.shape}")
    eps = derived_rng(seed).standard_normal(mu.shape)
    return mu + np.exp(0.5 * logvar) * eps


VaePass = collections.namedtuple("VaePass", "recon mu logvar z sigma eps clamp_mask")


def vae_forward(model: AeModel, x, rng) -> VaePass:
    """Training-mode forward with z = mu + exp(logvar/2) * eps, eps drawn from rng."""
    h = x
    for layer in model.encoder:
        h = layer.forward(h, train=True)
    mu = model.mu_head.forward(h, train=True)
    logvar_raw = model.logvar_head.forward(h, train=True)
    logvar = np.clip(logvar_raw, -LOGVAR_CLAMP, LOGVAR_CLAMP)
    clamp_mask = (logvar_raw > -LOGVAR_CLAMP) & (logvar_raw < LOGVAR_CLAMP)
    eps = rng.standard_normal(mu.shape)
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * eps
    return VaePass(model.decode(z, train=True), mu, logvar, z, sigma, eps, clamp_mask)


def vae_backward(model: AeModel, fwd: VaePass, grad_recon, grad_z=None) -> None:
    """Backward of vae_forward plus the batch-mean KL term into the layer grads.

    grad_recon is the caller's reconstruction-loss gradient; grad_z, if given,
    is an extra loss gradient with respect to z.
    """
    batch = fwd.mu.shape[0]
    grad = grad_recon
    for layer in reversed(model.decoder):
        grad = layer.backward(grad)
    if grad_z is not None:
        grad = grad + grad_z
    grad_mu = grad + fwd.mu / batch
    grad_logvar = grad * (0.5 * fwd.sigma * fwd.eps) - 0.5 * (1.0 - np.exp(fwd.logvar)) / batch
    grad_logvar = grad_logvar * fwd.clamp_mask
    grad_h = model.mu_head.backward(grad_mu) + model.logvar_head.backward(grad_logvar)
    for layer in reversed(model.encoder):
        grad_h = layer.backward(grad_h)


def backprop(model: AeModel, x, loss_kind="mse", seed=0) -> tuple:
    """Loss and gradients for one batch.

    loss_kind "mse" reconstructs through the deterministic latent; "vae"
    (variational models only) samples z with the seed and adds the KL term.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for layer in model._layers():
        for i, g in enumerate(layer.grads):
            layer.grads[i] = np.zeros_like(g)

    if model.variational and loss_kind == "vae":
        fwd = vae_forward(model, x, derived_rng(seed))
        loss = mse_loss(x, fwd.recon) + gaussian_kl(fwd.mu, fwd.logvar)
        vae_backward(model, fwd, 2.0 * (fwd.recon - x) / x.size)
        return loss, model.gradients()

    # plain reconstruction path (mu is the latent for variational models)
    h = x
    for layer in model.encoder:
        h = layer.forward(h, train=True)
    if model.variational:
        latent = model.mu_head.forward(h, train=True)
    else:
        latent = h
    recon = model.decode(latent, train=True)
    loss = mse_loss(x, recon)
    grad = 2.0 * (recon - x) / x.size
    for layer in reversed(model.decoder):
        grad = layer.backward(grad)
    if model.variational:
        grad = model.mu_head.backward(grad)
    for layer in reversed(model.encoder):
        grad = layer.backward(grad)
    return loss, model.gradients()


class AdamState:
    """Bias-corrected Adam moments for a fixed parameter list."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = float(lr), float(beta1), float(beta2), float(eps)
        self.t = 0
        self.m = [np.zeros(p.shape, dtype=np.float64) for p in params]
        self.v = [np.zeros(p.shape, dtype=np.float64) for p in params]


def adam_step(params, grads, state: AdamState) -> list:
    """One standard Adam update; returns the new parameter arrays."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeError("parameter/gradient/state lengths differ")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    out = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        # in place, with the IEEE operations of
        # m = beta1 * m + (1 - beta1) * g; v = beta2 * v + (1 - beta2) * g * g
        # p - lr * (m / bc1) / (sqrt(v / bc2) + eps)
        g = np.asarray(g, dtype=np.float64)
        tmp = np.multiply(1.0 - state.beta1, g)
        m *= state.beta1
        m += tmp
        np.multiply(1.0 - state.beta2, g, out=tmp)
        tmp *= g
        v *= state.beta2
        v += tmp
        step = np.divide(m, bc1)
        step *= state.lr
        denom = np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        denom += state.eps
        step /= denom
        out.append(np.subtract(p, step, out=step).astype(p.dtype, copy=False))
    return out


class TrainBudget:
    """Epoch/batch budget shared by screening and retraining."""

    def __init__(self, screen_epochs=40, retrain_epochs_max=700, early_stop_patience=20,
                 batch_size=32, seed=0, lr=1e-3):
        if not (retrain_epochs_max >= screen_epochs >= 1):
            raise InvalidSpecError("need retrain_epochs_max >= screen_epochs >= 1")
        self.screen_epochs = int(screen_epochs)
        self.retrain_epochs_max = int(retrain_epochs_max)
        self.early_stop_patience = int(early_stop_patience)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.lr = float(lr)


def _epoch_loss(model, x, loss_kind, seed):
    if model.variational and loss_kind == "vae":
        mu, logvar = model.encode(x)
        z = reparameterize(mu, logvar, seed)
        return mse_loss(x, model.decode(z)) + gaussian_kl(mu, logvar)
    recon, _ = forward(model, x)
    return mse_loss(x, recon)


def train_autoencoder(model: AeModel, train_x, val_x, budget: TrainBudget,
                      epochs=None, early_stop=True, loss_kind="mse") -> tuple:
    """Minibatch Adam with early stopping on validation MSE.

    Returns the model restored to its best-validation checkpoint and the
    per-epoch history [{epoch, train_loss, val_loss}, ...]. Raises
    TrainingDivergedError when a loss goes non-finite.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    if train_x.shape[0] == 0 or val_x.shape[0] == 0:
        raise InvalidSpecError("train and validation splits must be non-empty")
    n_epochs = int(epochs) if epochs is not None else budget.retrain_epochs_max
    state = AdamState(model.parameters(), lr=budget.lr)
    history = []
    best_val = math.inf
    best_params = model.copy_params()
    since_best = 0

    for epoch in range(n_epochs):
        order = derived_rng(budget.seed, epoch).permutation(train_x.shape[0])
        epoch_losses = []
        for bstart in range(0, len(order), budget.batch_size):
            batch = train_x[order[bstart : bstart + budget.batch_size]]
            loss, grads = backprop(model, batch, loss_kind=loss_kind,
                                   seed=_mix(budget.seed, epoch, bstart))
            model.set_parameters(adam_step(model.parameters(), grads, state))
            epoch_losses.append(loss)
        train_loss = float(np.mean(epoch_losses))
        val_loss = _epoch_loss(model, val_x, loss_kind, _mix(budget.seed, epoch, -1))
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingDivergedError(
                f"loss became non-finite at epoch {epoch}", last_finite_epoch=epoch - 1
            )
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": float(val_loss)})
        if val_loss < best_val:
            best_val = val_loss
            best_params = model.copy_params()
            since_best = 0
        else:
            since_best += 1
            if early_stop and since_best > budget.early_stop_patience:
                break
    model.set_parameters(best_params)
    return model, history


def _mix(*parts):
    h = 0
    for p in parts:
        h = (h * 1_000_003 + (int(p) & 0xFFFF_FFFF)) & 0x7FFF_FFFF_FFFF_FFFF
    return h


def build_autoencoder(input_dim, hidden_widths, latent_dim, seed=0, variational=False,
                      conv_front=(), hidden_activation="relu") -> AeModel:
    """Symmetric autoencoder: optional conv front, dense trunk, mirrored decoder."""
    input_dim = int(input_dim)
    hidden_widths = tuple(int(w) for w in hidden_widths)
    latent_dim = int(latent_dim)
    if latent_dim <= 0 or input_dim <= 0 or not hidden_widths:
        raise InvalidSpecError("autoencoder needs positive dims and at least one hidden layer")
    rng = derived_rng(seed)
    encoder, decoder = [], []

    dense_in = input_dim
    conv_shapes = []
    if conv_front:
        in_ch = conv_front[0][0]
        if input_dim % in_ch != 0:
            raise InvalidSpecError(f"input dim {input_dim} not divisible by {in_ch} channels")
        length = input_dim // in_ch
        encoder.append(Reshape((length, in_ch)))
        for in_c, out_c, kernel, stride in conv_front:
            layer = Conv1d(in_c, out_c, kernel, stride=stride, activation=hidden_activation, rng=rng)
            conv_shapes.append((length, in_c, out_c, kernel, stride))
            length = layer.out_len(length)
            encoder.append(layer)
        encoder.append(Reshape((length * conv_front[-1][1],)))
        dense_in = length * conv_front[-1][1]

    dims = [dense_in, *hidden_widths]
    for a, b in zip(dims, dims[1:]):
        encoder.append(Dense(a, b, activation=hidden_activation, rng=rng))

    if variational:
        mu_head = Dense(hidden_widths[-1], latent_dim, activation="linear", rng=rng)
        logvar_head = Dense(hidden_widths[-1], latent_dim, activation="linear", rng=rng)
    else:
        encoder.append(Dense(hidden_widths[-1], latent_dim, activation="linear", rng=rng))
        mu_head = logvar_head = None

    rev = [latent_dim, *reversed(hidden_widths)]
    for a, b in zip(rev, rev[1:]):
        decoder.append(Dense(a, b, activation=hidden_activation, rng=rng))
    if conv_front:
        decoder.append(Dense(hidden_widths[0], dense_in, activation=hidden_activation, rng=rng))
        decoder.append(Reshape((dense_in // conv_front[-1][1], conv_front[-1][1])))
        for i, (length, in_c, out_c, kernel, stride) in enumerate(reversed(conv_shapes)):
            act = "linear" if i == len(conv_shapes) - 1 else hidden_activation
            decoder.append(
                ConvTranspose1d(out_c, in_c, kernel, stride, output_len=length, activation=act, rng=rng)
            )
        decoder.append(Reshape((input_dim,)))
    else:
        decoder.append(Dense(hidden_widths[0], input_dim, activation="linear", rng=rng))

    arch = {
        "input_dim": input_dim,
        "hidden": list(hidden_widths),
        "latent_dim": latent_dim,
        "variational": bool(variational),
        "conv_front": [list(c) for c in conv_front],
        "hidden_activation": hidden_activation,
        "seed": int(seed),
    }
    return AeModel(encoder, decoder, latent_dim, input_dim, mu_head, logvar_head, arch=arch)


def save_model(path, model: AeModel) -> None:
    """AEM1 binary: magic, length-prefixed JSON descriptor, f32 weight blobs."""
    if model.arch is None:
        raise InvalidSpecError("only models built by build_autoencoder can be serialized")
    descriptor = {
        "format": "AEM1",
        "version": 1,
        "arch": model.arch,
        "metadata": model.metadata,
        "layers": [layer.spec() for layer in model._layers()],
    }
    desc = json.dumps(descriptor, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(desc)))
        fh.write(desc)
        for p in model.parameters():
            fh.write(np.ascontiguousarray(p, dtype="<f4").tobytes())


def _read_descriptor(fh, path, magic) -> dict:
    """Magic, little-endian u32 length and JSON descriptor of a model file; version 1 only."""
    found = fh.read(len(magic))
    if found != magic:
        raise InvalidSpecError(f"{path}: bad magic {found!r}, expected {magic!r}")
    (desc_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
    desc = _read_exact(fh, desc_len, path, "descriptor")
    try:
        descriptor = json.loads(desc.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise InvalidSpecError(f"{path}: unreadable descriptor: {exc}") from None
    if not isinstance(descriptor, dict) or descriptor.get("version") != 1:
        raise InvalidSpecError(f"{path}: unsupported model version")
    return descriptor


def load_model(path) -> AeModel:
    """Read an AEM1 file; a short read or trailing bytes raise InvalidSpecError."""
    with open(path, "rb") as fh:
        descriptor = _read_descriptor(fh, path, MODEL_MAGIC)
        arch = descriptor["arch"]
        model = build_autoencoder(
            arch["input_dim"],
            arch["hidden"],
            arch["latent_dim"],
            seed=arch.get("seed", 0),
            variational=arch.get("variational", False),
            conv_front=tuple(tuple(c) for c in arch.get("conv_front", [])),
            hidden_activation=arch.get("hidden_activation", "relu"),
        )
        model.metadata = descriptor.get("metadata", {})
        arrays = [np.frombuffer(_read_exact(fh, 4 * p.size, path, "weights"), dtype="<f4").reshape(p.shape)
                  for p in model.parameters()]
        if fh.read(1):
            raise InvalidSpecError(f"{path}: trailing bytes after the last tensor")
        model.set_parameters(arrays)
    return model
