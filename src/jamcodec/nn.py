"""Minimal neural-network kernel for the autoencoder compressors.

Dense and convolutional layers with hand-written backpropagation, Adam,
MSE and Gaussian-KL losses, the sampling VAE forward/backward pair
(which the FactorVAE in factor.py also runs), and the training loop with
early stopping. In-memory state and all arithmetic are float64 so
gradients check out against finite differences and results are reproducible
bit-for-bit on one platform; serialized weights are little-endian float32.

Every network walks its layers with two helpers: run_layers (forward, in
order) and backward_layers (backward, last first, optionally ending at a
stop layer). An AeModel records its deterministic compression path once, as
``path`` (encoder + [mu head] + decoder): nn.forward, the MSE training loss
and quantize's int8 freeze all walk it. z is sampled in one place,
vae_forward, which both the VAE training step and its validation loss run.

Every trained network (an AeModel, and the FactorVAE's discriminator) keeps
its parameters in one flat float64 buffer, ``flat_params``, and its
gradients in another, ``flat_grads``; flat_buffers makes both and turns each
layer's ``w``, ``b`` and grads into views of them. Backward passes write
their gradients into those views, so a training step is one Adam.step()
over the whole buffer, with no gathering and no copying back; a model file
holds the buffer's float32 bytes in the same order. Every backward pass
overwrites the gradients it owns, so nothing is zeroed per batch.

An AeModel's backward walks stop at its first encoder layer with
parameters, which skips its input gradient: that would flow only to the
data. Every other layer computes it (the FactorVAE's discriminator too,
whose input gradient is the TC term's).

One convolution kernel serves any number of spatial axes, and every product
in it is a GEMM. The gather side: _pad zero-pads each axis of (batch,
*spatial, channels) by its _conv1d_geometry and _im2col takes all windows with
one np.take over a flat index, so Conv1d's forward and weight gradient and
ConvTranspose1d's weight and input gradients are each one (rows, K) @ (K, out)
product. The scatter side, Conv1d's input gradient and ConvTranspose1d's
forward, is _overlap_add: one GEMM per tap, each added into a strided view of
a position-major buffer in ascending tap order, the one tap order for 1-D and
2-D. Conv1d runs it on one axis, factor.Conv2d on two, and quantize's int8
conv1d pads and gathers with it.
"""

import collections
from dataclasses import dataclass
import json
import math
import struct

import numpy as np

from . import FORMAT_VERSIONS
from .errors import InvalidSpecError, ShapeError, TrainingDivergedError
from .signals import _read_exact, derived_rng

MODEL_MAGIC = FORMAT_VERSIONS["model"].encode()
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


def _act_backward(name, z, grad_out):
    """grad_out times the activation's derivative at z, bit for bit."""
    if name == "relu":
        return grad_out * (z > 0.0)
    if name == "linear":
        return grad_out
    if name == "leaky_relu":
        return grad_out * np.where(z > 0.0, 1.0, _LEAKY_SLOPE)
    raise InvalidSpecError(f"unknown activation {name!r}")


def _kaiming_uniform(rng, fan_in, shape):
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


class _WeightBias:
    """Weight/bias parameter plumbing shared by the layers with parameters.

    A new layer owns its arrays; flat_buffers rebinds w, b and grads to views
    of a network's flat buffers (_bind). Backward passes write grads in place,
    never rebind.
    """

    def _init_params(self, rng, fan_in, w_shape, n_out):
        self.w = _kaiming_uniform(rng or np.random.default_rng(0), fan_in, w_shape)
        self.b = np.zeros(n_out, dtype=np.float64)
        self.grads = (np.zeros_like(self.w), np.zeros_like(self.b))
        self._cache = None

    @property
    def params(self):
        return [self.w, self.b]

    def _bind(self, params, grads):
        self.w, self.b = params
        self.grads = tuple(grads)


def flat_buffers(layers) -> tuple:
    """(flat_params, flat_grads) for layers, in their params order.

    flat_params starts as a copy of the layers' parameters; each layer with
    parameters is then rebound so that its parameters and gradients are
    views of the two buffers.
    """
    flat_params = np.concatenate([p.ravel() for layer in layers for p in layer.params])
    flat_grads = np.zeros_like(flat_params)
    start = 0
    for layer in layers:
        params, grads = [], []
        for p in layer.params:
            stop = start + p.size
            params.append(flat_params[start:stop].reshape(p.shape))
            grads.append(flat_grads[start:stop].reshape(p.shape))
            start = stop
        if params:
            layer._bind(params, grads)
    return flat_params, flat_grads


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

    def backward(self, grad_out, input_grad=True):
        x, z = self._cache
        gz = _act_backward(self.activation, z, grad_out)
        gz2 = gz.reshape(-1, self.n_out)
        np.matmul(x.reshape(-1, self.n_in).T, gz2, out=self.grads[0])
        np.sum(gz2, axis=0, out=self.grads[1])
        return gz @ self.w.T if input_grad else None

    def spec(self):
        return {"kind": "dense", "in": self.n_in, "out": self.n_out, "activation": self.activation}


def _conv1d_geometry(length, kernel, stride):
    out_len = -(-length // stride)
    total_pad = max(0, (out_len - 1) * stride + kernel - length)
    pad_left = total_pad // 2
    idx = np.arange(out_len)[:, None] * stride + np.arange(kernel)[None, :]
    return out_len, pad_left, total_pad, idx


def _padded_shape(shape, geometry):
    return (shape[0], *(n + g[2] for n, g in zip(shape[1:-1], geometry)), shape[-1])


def _interior(shape, geometry):
    """Where an unpadded (batch, *spatial, channels) array of this shape sits inside its padding."""
    return (slice(None), *(slice(g[1], g[1] + n) for n, g in zip(shape[1:-1], geometry)))


def _pad(x, geometry):
    """x (batch, *spatial, channels) zero-padded on each spatial axis as its _conv1d_geometry says."""
    out = np.zeros(_padded_shape(x.shape, geometry), dtype=x.dtype)
    out[_interior(x.shape, geometry)] = x
    return out


def _im2col(xp, geometry):
    """Windows of a padded (batch, *spatial, channels) array as (batch, positions, taps * channels).

    One np.take over the flattened spatial axes with one flat window index: in
    1-D that is _conv1d_geometry's idx itself, in 2-D
    ih[:, None, :, None] * padded_w + iw[None, :, None, :].
    """
    n = len(geometry)
    step = 1
    for axis in range(n - 1, -1, -1):
        idx = geometry[axis][3]
        shape = [1] * (2 * n)
        shape[axis], shape[n + axis] = idx.shape
        term = idx.reshape(shape)
        index = term if axis == n - 1 else index + term * step
        step *= xp.shape[1 + axis]
    batch, channels = xp.shape[0], xp.shape[-1]
    cols = np.take(xp.reshape(batch, -1, channels), index, axis=1)
    return cols.reshape(batch, math.prod(index.shape[:n]), -1)


def _overlap_add(g, w, stride, out_shape, geometry):
    """The sum over taps of g @ w[tap], each added at its tap's window, cropped to out_shape.

    g is (batch, *positions, c) and w (*taps, c, out); out_shape is (batch,
    *spatial, out), the interior of geometry's padding. g's rows are made
    position-major once, each tap's product is one GEMM, and each is added into
    a strided view of a zeroed (*padded, batch, out) buffer, taps ascending:
    every output element sums its terms in that order, and with the batch
    innermost each add runs long inner loops. One copy transposes the cropped
    buffer back.
    """
    n = g.ndim - 2
    positions, batch = g.shape[1:-1], g.shape[0]
    rows = np.moveaxis(g, 0, n).reshape(-1, g.shape[-1])
    buf = np.zeros((*_padded_shape(out_shape, geometry)[1:-1], batch, w.shape[-1]))
    prod = np.empty((*positions, batch, w.shape[-1]))
    spans = [(p - 1) * stride + 1 for p in positions]
    for tap in np.ndindex(*w.shape[:n]):
        np.matmul(rows, w[tap], out=prod.reshape(rows.shape[0], -1))
        buf[tuple(slice(t, t + span, stride) for t, span in zip(tap, spans))] += prod
    return np.ascontiguousarray(np.moveaxis(buf[_interior(out_shape, geometry)[1:]], n, 0))


class Conv1d(_WeightBias):
    """Convolution over (batch, *spatial, channels), 'same' padding; ndim spatial axes.

    The weight is (kernel, ..., kernel, in, out), one kernel axis per spatial
    axis; subclasses set ndim.
    """

    kind = "conv1d"
    ndim = 1

    def __init__(self, in_ch, out_ch, kernel, stride=2, activation="relu", rng=None):
        if stride not in (1, 2):
            raise InvalidSpecError(f"conv stride must be 1 or 2, got {stride}")
        self.in_ch, self.out_ch, self.kernel, self.stride = int(in_ch), int(out_ch), int(kernel), int(stride)
        self.activation = activation
        taps = (self.kernel,) * self.ndim
        self._init_params(rng, self.in_ch * math.prod(taps), (*taps, self.in_ch, self.out_ch), self.out_ch)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != self.ndim + 2 or x.shape[-1] != self.in_ch:
            raise ShapeError(f"{self.kind} expects (B, {self.ndim} spatial axes, {self.in_ch}), got {x.shape}")
        geometry = [_conv1d_geometry(n, self.kernel, self.stride) for n in x.shape[1:-1]]
        cols = _im2col(_pad(x, geometry), geometry)
        z = (cols @ self.w.reshape(-1, self.out_ch) + self.b).reshape(
            x.shape[0], *(g[0] for g in geometry), self.out_ch)
        if train:
            self._cache = (cols, z, x.shape, geometry)
        return _act(self.activation, z)

    def backward(self, grad_out, input_grad=True):
        cols, z, x_shape, geometry = self._cache
        gz = _act_backward(self.activation, z, grad_out)
        gz2 = gz.reshape(-1, self.out_ch)
        k_in = cols.shape[-1]
        np.matmul(cols.reshape(-1, k_in).T, gz2, out=self.grads[0].reshape(k_in, self.out_ch))
        np.sum(gz2, axis=0, out=self.grads[1])
        if not input_grad:
            return None
        return _overlap_add(gz, self.w.swapaxes(-1, -2), self.stride, x_shape, geometry)

    def spec(self):
        return {"kind": self.kind, "in_ch": self.in_ch, "out_ch": self.out_ch, "kernel": self.kernel,
                "stride": self.stride, "activation": self.activation}


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
        geometry = [_conv1d_geometry(self.output_len, self.kernel, self.stride)]
        if geometry[0][0] != x.shape[1]:
            raise ShapeError(f"conv1d_t expects input length {geometry[0][0]}, got {x.shape[1]}")
        z = _overlap_add(x, self.w, self.stride, (x.shape[0], self.output_len, self.out_ch), geometry)
        z += self.b
        if train:
            self._cache = (x, z, geometry)
        return _act(self.activation, z)

    def backward(self, grad_out):
        x, z, geometry = self._cache
        gz = _act_backward(self.activation, z, grad_out)
        gcols = _im2col(_pad(gz, geometry), geometry)  # (B, in_len, kernel * out_ch)
        g_cm = x.reshape(-1, self.in_ch).T @ gcols.reshape(-1, gcols.shape[-1])
        self.grads[0][...] = g_cm.reshape(self.in_ch, self.kernel, self.out_ch).transpose(1, 0, 2)
        np.sum(gz.reshape(-1, self.out_ch), axis=0, out=self.grads[1])
        return gcols @ self.w.transpose(0, 2, 1).reshape(-1, self.in_ch)

    def spec(self):
        return {"kind": "conv1d_t", "in_ch": self.in_ch, "out_ch": self.out_ch, "kernel": self.kernel,
                "stride": self.stride, "output_len": self.output_len, "activation": self.activation}


class Reshape:
    """Parameter-free view change between dense and conv layers."""

    kind = "reshape"
    params = grads = ()

    def __init__(self, out_shape):
        self.out_shape = tuple(int(v) for v in out_shape)
        self._in_shape = None

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        if train:
            self._in_shape = x.shape
        return x.reshape(x.shape[0], *self.out_shape)

    def backward(self, grad_out):
        return grad_out.reshape(self._in_shape)

    def spec(self):
        return {"kind": "reshape", "out_shape": list(self.out_shape)}


def run_layers(layers, h, train=False):
    """h through each layer's forward in turn."""
    h = np.asarray(h, dtype=np.float64)
    for layer in layers:
        h = layer.forward(h, train=train)
    return h


def backward_layers(layers, grad, stop=None):
    """grad back through layers, last first; returns the input gradient.

    The stop layer computes its parameter gradients only and ends the walk
    (its input gradient would flow to the data, which nothing reads); the
    result is then None.
    """
    for layer in reversed(layers):
        if layer is stop:
            layer.backward(grad, input_grad=False)
            return None
        grad = layer.backward(grad)
    return grad


class AeModel:
    """Encoder/decoder stacks plus optional variational heads.

    For variational models the encoder ends at the last hidden layer and the
    mu/logvar heads project to the latent space; otherwise the encoder's last
    layer is the latent projection itself. ``path`` is the deterministic
    compression path, encoder + [mu head] + decoder: what nn.forward, the MSE
    loss and the int8 freeze run.
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
        self.path = self.encoder + ([mu_head] if self.variational else []) + self.decoder
        self._first_trainable = next((layer for layer in self.encoder if layer.params), None)
        self.flat_params, self.flat_grads = flat_buffers(self._layers())

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

    def n_params(self):
        return self.flat_params.size

    def encode(self, x):
        h = run_layers(self.encoder, x)
        if self.variational:
            mu = self.mu_head.forward(h)
            logvar = np.clip(self.logvar_head.forward(h), -LOGVAR_CLAMP, LOGVAR_CLAMP)
            return mu, logvar
        return h

    def decode(self, z, train=False):
        return run_layers(self.decoder, z, train)


def forward(model: AeModel, x) -> tuple:
    """Reconstruction and latent batch through model.path (mu is a VAE's latent)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] != model.input_dim:
        raise ShapeError(f"model expects {model.input_dim} inputs, got {x.shape[-1]}")
    latent = run_layers(model.path[: len(model.path) - len(model.decoder)], x)
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


VaePass = collections.namedtuple("VaePass", "recon mu logvar z sigma eps clamp_mask")


def vae_forward(model: AeModel, x, rng) -> VaePass:
    """Training-mode forward with z = mu + exp(logvar/2) * eps, eps drawn from rng.

    logvar is clamped to [-LOGVAR_CLAMP, LOGVAR_CLAMP]; clamp_mask marks the
    entries inside it, the only ones whose gradient flows back.
    """
    h = run_layers(model.encoder, x, train=True)
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
    grad = backward_layers(model.decoder, grad_recon)
    if grad_z is not None:
        grad = grad + grad_z
    grad_mu = grad + fwd.mu / batch
    grad_logvar = grad * (0.5 * fwd.sigma * fwd.eps) - 0.5 * (1.0 - np.exp(fwd.logvar)) / batch
    grad_logvar = grad_logvar * fwd.clamp_mask
    grad_h = model.mu_head.backward(grad_mu) + model.logvar_head.backward(grad_logvar)
    backward_layers(model.encoder, grad_h, stop=model._first_trainable)


def backprop(model: AeModel, x, seed=0) -> tuple:
    """Loss and gradients for one batch.

    A plain model reconstructs through model.path under MSE; a variational
    one samples z with the seed and adds the KL term.
    The gradients are model.gradients(), views of the model's flat gradient
    buffer that the next backward pass overwrites.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if model.variational:
        fwd = vae_forward(model, x, derived_rng(seed))
        loss = mse_loss(x, fwd.recon) + gaussian_kl(fwd.mu, fwd.logvar)
        vae_backward(model, fwd, 2.0 * (fwd.recon - x) / x.size)
        return loss, model.gradients()

    recon = run_layers(model.path, x, train=True)
    loss = mse_loss(x, recon)
    backward_layers(model.path, 2.0 * (recon - x) / x.size, stop=model._first_trainable)
    return loss, model.gradients()


class Adam:
    """Bias-corrected Adam over one flat parameter buffer and its gradient buffer.

    step() advances the moments m, v and the parameters in place, with the
    IEEE operations of m = beta1 * m + (1 - beta1) * g,
    v = beta2 * v + (1 - beta2) * g * g and
    params -= lr * (m / bc1) / (sqrt(v / bc2) + eps), where bc1 and bc2 are
    the bias corrections of step t. Two scratch arrays hold the temporaries:
    fresh ones each step cost page faults.
    """

    def __init__(self, params, grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.grads = params, grads
        self.lr, self.beta1, self.beta2, self.eps = float(lr), float(beta1), float(beta2), float(eps)
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._tmp = np.empty_like(params)
        self._step = np.empty_like(params)

    def step(self) -> None:
        self.t += 1
        g, m, v, tmp, step = self.grads, self.m, self.v, self._tmp, self._step
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        np.multiply(1.0 - self.beta1, g, out=tmp)
        m *= self.beta1
        m += tmp
        np.multiply(1.0 - self.beta2, g, out=tmp)
        tmp *= g
        v *= self.beta2
        v += tmp
        np.divide(m, bc1, out=step)
        step *= self.lr
        denom = np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        denom += self.eps
        step /= denom
        self.params -= step


@dataclass(frozen=True)
class TrainBudget:
    """Epoch/batch budget shared by screening and retraining."""

    screen_epochs: int = 40
    retrain_epochs_max: int = 250
    early_stop_patience: int = 20
    batch_size: int = 32
    seed: int = 0
    lr: float = 1e-3

    def __post_init__(self):
        if not (self.retrain_epochs_max >= self.screen_epochs >= 1):
            raise InvalidSpecError("need retrain_epochs_max >= screen_epochs >= 1")
        if self.batch_size < 1 or self.early_stop_patience < 0:
            raise InvalidSpecError(f"need batch_size >= 1 and early_stop_patience >= 0, "
                                   f"got {self.batch_size} and {self.early_stop_patience}")
        if not 0.0 < self.lr < math.inf:
            raise InvalidSpecError(f"lr must be finite and positive, got {self.lr}")


def _epoch_loss(model, x, seed):
    if model.variational:
        fwd = vae_forward(model, x, derived_rng(seed))
        return mse_loss(x, fwd.recon) + gaussian_kl(fwd.mu, fwd.logvar)
    recon, _ = forward(model, x)
    return mse_loss(x, recon)


def train_autoencoder(model: AeModel, train_x, val_x, budget: TrainBudget,
                      epochs=None, early_stop=True) -> tuple:
    """Minibatch Adam on backprop's loss, with early stopping on its validation value.

    Returns the model restored to its best-validation checkpoint and the
    per-epoch history [{epoch, train_loss, val_loss}, ...]. Raises
    TrainingDivergedError when a loss goes non-finite.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    if train_x.shape[0] == 0 or val_x.shape[0] == 0:
        raise InvalidSpecError("train and validation splits must be non-empty")
    n_epochs = int(epochs) if epochs is not None else budget.retrain_epochs_max
    opt = Adam(model.flat_params, model.flat_grads, lr=budget.lr)
    history = []
    best_val = math.inf
    best_params = model.flat_params.copy()
    since_best = 0

    for epoch in range(n_epochs):
        order = derived_rng(budget.seed, epoch).permutation(train_x.shape[0])
        epoch_losses = []
        for bstart in range(0, len(order), budget.batch_size):
            batch = train_x[order[bstart : bstart + budget.batch_size]]
            loss, _ = backprop(model, batch, seed=_mix(budget.seed, epoch, bstart))
            opt.step()
            epoch_losses.append(loss)
        train_loss = float(np.mean(epoch_losses))
        val_loss = _epoch_loss(model, val_x, _mix(budget.seed, epoch, -1))
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingDivergedError(f"loss became non-finite at epoch {epoch}")
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": float(val_loss)})
        if val_loss < best_val:
            best_val = val_loss
            best_params = model.flat_params.copy()
            since_best = 0
        else:
            since_best += 1
            if early_stop and since_best > budget.early_stop_patience:
                break
    model.flat_params[...] = best_params
    return model, history


def _mix(*parts):
    h = 0
    for p in parts:
        h = (h * 1_000_003 + (int(p) & 0xFFFF_FFFF)) & 0x7FFF_FFFF_FFFF_FFFF
    return h


def check_dims(input_dim, hidden_widths, latent_dim) -> None:
    """Raise InvalidSpecError unless every dimension is positive and there is a hidden layer."""
    if not hidden_widths or min(input_dim, latent_dim, *hidden_widths) <= 0:
        raise InvalidSpecError(f"autoencoder needs positive dims and at least one hidden layer, got "
                               f"input {input_dim}, hidden {list(hidden_widths)}, latent {latent_dim}")


def build_autoencoder(input_dim, hidden_widths, latent_dim, seed=0, variational=False,
                      conv_front=(), hidden_activation="relu") -> AeModel:
    """Symmetric autoencoder: optional conv front, dense trunk, mirrored decoder."""
    input_dim = int(input_dim)
    hidden_widths = tuple(int(w) for w in hidden_widths)
    latent_dim = int(latent_dim)
    check_dims(input_dim, hidden_widths, latent_dim)
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
            length = _conv1d_geometry(length, kernel, stride)[0]
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
    """AEM1 binary: magic, length-prefixed JSON descriptor, the flat buffer as f32."""
    if model.arch is None:
        raise InvalidSpecError("only models built by build_autoencoder can be serialized")
    descriptor = {
        "format": "AEM1",
        "version": 1,
        "arch": model.arch,
        "metadata": model.metadata,
        "layers": [layer.spec() for layer in model._layers()],
    }
    with open(path, "wb") as fh:
        _write_descriptor(fh, MODEL_MAGIC, descriptor)
        fh.write(model.flat_params.astype("<f4").tobytes())


def _write_descriptor(fh, magic, descriptor) -> None:
    """Magic, little-endian u32 length and sorted-key JSON descriptor, as _read_descriptor reads them."""
    desc = json.dumps(descriptor, sort_keys=True).encode("utf-8")
    fh.write(magic)
    fh.write(struct.pack("<I", len(desc)))
    fh.write(desc)


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
    """Read an AEM1 file; a short read, trailing bytes or a malformed arch raise InvalidSpecError."""
    with open(path, "rb") as fh:
        descriptor = _read_descriptor(fh, path, MODEL_MAGIC)
        try:
            arch = descriptor["arch"]
            model = build_autoencoder(
                arch["input_dim"],
                arch["hidden"],
                arch["latent_dim"],
                seed=arch["seed"],
                variational=arch["variational"],
                conv_front=tuple(tuple(c) for c in arch["conv_front"]),
                hidden_activation=arch["hidden_activation"],
            )
            model.metadata = descriptor["metadata"]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidSpecError(f"{path}: malformed descriptor: {exc!r}") from None
        model.flat_params[...] = np.frombuffer(_read_exact(fh, 4 * model.n_params(), path, "weights"),
                                               dtype="<f4")
        if fh.read(1):
            raise InvalidSpecError(f"{path}: trailing bytes after the last tensor")
    return model
