"""Factorized VAE on small spectrogram images, as run by ``jamcodec interpolate``.

A VAE with one encoder, three stride-2 3x3 convolutions (1 -> 8 -> 16 -> 32
channels), is trained with the reconstruction + KL objective plus a
total-correlation term estimated by a discriminator that tells joint latents
from dimension-wise permuted ones. Training alternates one VAE update and one
discriminator update per batch of ``BATCH_SIZE`` images, with separate Adam
optimizers: the VAE's at the configured rate with ``VAE_BETAS``, the
discriminator's at a tenth of it with ``DISC_BETAS``. The VAE is an
nn.AeModel and runs nn.vae_forward and nn.vae_backward; the discriminator
walks its layers with nn.run_layers and nn.backward_layers. Both networks
keep their parameters and gradients in nn.flat_buffers, so each update is
one nn.Adam step over a whole buffer.

Conv2d is nn's one convolution kernel on two spatial axes; it sets only its
kind and ``ndim = 2``, so it takes Conv1d's arguments, has a (kernel, kernel,
in, out) weight, and runs the same GEMMs and the same ascending-tap scatter as
the 1-D layers.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import features as feat
from . import signals
from .errors import InvalidSpecError, ShapeError, TrainingDivergedError
from .nn import (Adam, AeModel, Conv1d, Dense, Reshape, backward_layers, flat_buffers, gaussian_kl,
                 mse_loss, run_layers, vae_backward, vae_forward)
from .signals import derived_rng

BATCH_SIZE = 32
VAE_BETAS = (0.9, 0.999)
DISC_BETAS = (0.5, 0.9)
IMAGE_SIDE = 32  # spectrogram images are IMAGE_SIDE x IMAGE_SIDE
DISC_WIDTH, DISC_LAYERS = 256, 4  # the discriminator's hidden width and its dense layers, output included


class Conv2d(Conv1d):
    """2-D convolution over (batch, height, width, channels), 'same' padding."""

    kind = "conv2d"
    ndim = 2


class Upsample2x:
    """Nearest-neighbour 2x upsampling on (B, H, W, C)."""

    params = grads = ()
    _in_shape = None

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        if train:
            self._in_shape = x.shape
        return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)

    def backward(self, grad_out):
        b, h, w, c = self._in_shape
        return grad_out.reshape(b, h, 2, w, 2, c).sum(axis=(2, 4))


@dataclass(frozen=True)
class FactorVaeConfig:
    """What ``train_factorvae`` reads; the rest is fixed by the module constants.

    ``lr`` is the VAE's Adam rate; the discriminator's is ``lr / 10``.
    """

    latent_dim: int = 8
    tc_weight: float = 6.4
    epochs: int = 250
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.tc_weight < math.inf:
            raise InvalidSpecError(f"tc_weight must be finite and non-negative, got {self.tc_weight}")
        if self.epochs < 1:
            raise InvalidSpecError(f"epochs must be at least 1, got {self.epochs}")
        if not 0.0 < self.lr < math.inf:
            raise InvalidSpecError(f"lr must be finite and positive, got {self.lr}")


class Discriminator:
    """MLP mapping a latent batch to two logits (joint vs permuted), on one flat buffer."""

    def __init__(self, latent_dim, seed=0):
        rng = derived_rng(seed, 0xD15C)
        dims = [latent_dim] + [DISC_WIDTH] * (DISC_LAYERS - 1)
        self.layers = [Dense(a, b, activation="leaky_relu", rng=rng) for a, b in zip(dims, dims[1:])]
        self.layers.append(Dense(dims[-1], 2, activation="linear", rng=rng))
        self.flat_params, self.flat_grads = flat_buffers(self.layers)

    def forward(self, z, train=False):
        return run_layers(self.layers, z, train)

    def backward(self, grad_logits):
        return backward_layers(self.layers, grad_logits)


def softmax_cross_entropy(logits, labels):
    """Mean CE and its gradient w.r.t. the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def permute_dims(z, seed) -> np.ndarray:
    """Independently permute each latent dimension across the batch axis.

    Dimension j uses the generator seeded by (seed, j), so per-dimension
    multisets of values are preserved exactly.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    out = np.empty_like(z)
    for j in range(z.shape[1]):
        perm = derived_rng(seed, j).permutation(z.shape[0])
        out[:, j] = z[perm, j]
    return out


def tc_term(disc: Discriminator, z, weight) -> tuple:
    """(tc, grad_z, logits): the generator TC estimate mean(logit0 - logit1) over z, the
    gradient of weight * tc with respect to z, and the discriminator's logits of z. Its layers
    keep that forward's caches, so a backward from gradients of the logits needs no rerun."""
    logits = disc.forward(z, train=True)
    grad_logits = np.zeros_like(logits)
    grad_logits[:, 0] = weight / len(z)
    grad_logits[:, 1] = -weight / len(z)
    return float(np.mean(logits[:, 0] - logits[:, 1])), disc.backward(grad_logits), logits


class ImageVae(AeModel):
    """Convolutional VAE over (B, H, W) images in [0, 1]."""

    def __init__(self, image_hw, latent_dim, seed=0):
        h, w = image_hw
        if h % 8 != 0 or w % 8 != 0:
            raise InvalidSpecError("image sides must be divisible by 8")
        rng = derived_rng(seed, 0xE4C)
        convs = [
            Conv2d(1, 8, 3, 2, activation="relu", rng=rng),
            Conv2d(8, 16, 3, 2, activation="relu", rng=rng),
            Conv2d(16, 32, 3, 2, activation="relu", rng=rng),
        ]
        fh, fw = h // 8, w // 8
        flat = fh * fw * 32
        mu_head = Dense(flat, latent_dim, activation="linear", rng=rng)
        logvar_head = Dense(flat, latent_dim, activation="linear", rng=rng)
        decoder = [
            Dense(latent_dim, flat, activation="relu", rng=rng),
            Reshape((fh, fw, 32)),
            Upsample2x(),
            Conv2d(32, 16, 3, 1, activation="relu", rng=rng),
            Upsample2x(),
            Conv2d(16, 8, 3, 1, activation="relu", rng=rng),
            Upsample2x(),
            Conv2d(8, 1, 3, 1, activation="linear", rng=rng),
            Reshape((h, w)),
        ]
        encoder = [Reshape((h, w, 1)), *convs, Reshape((flat,))]
        super().__init__(encoder, decoder, latent_dim, h * w, mu_head, logvar_head)
        self.image_hw = (h, w)

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.image_hw:
            raise ShapeError(f"expected (B, {self.image_hw[0]}, {self.image_hw[1]}) images, got {x.shape}")
        return super().encode(x)


def train_factorvae(cfg: FactorVaeConfig, images) -> tuple:
    """Alternating VAE/discriminator training; returns (model, disc, history).

    Per batch: one VAE update on recon + KL + tc_weight * TC (discriminator
    parameters frozen), then one discriminator update on its cross-entropy
    against dimension-permuted latents. Deterministic for a fixed config.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise ShapeError(f"expected (N, H, W) images, got {images.shape}")
    n = images.shape[0]
    model = ImageVae(images.shape[1:3], cfg.latent_dim, seed=cfg.seed)
    disc = Discriminator(cfg.latent_dim, seed=cfg.seed)
    opt_vae = Adam(model.flat_params, model.flat_grads, lr=cfg.lr, beta1=VAE_BETAS[0], beta2=VAE_BETAS[1])
    opt_disc = Adam(disc.flat_params, disc.flat_grads, lr=cfg.lr / 10.0,
                    beta1=DISC_BETAS[0], beta2=DISC_BETAS[1])
    history = []

    for epoch in range(cfg.epochs):
        order = derived_rng(cfg.seed, 0xEB0C, epoch).permutation(n)
        sums = np.zeros(4)
        n_batches = 0
        for bi, start in enumerate(range(0, n, BATCH_SIZE)):
            x = images[order[start : start + BATCH_SIZE]]
            bsz = x.shape[0]

            # --- VAE update (discriminator frozen) ---
            fwd = vae_forward(model, x, derived_rng(cfg.seed, 0x5A3, epoch, bi))
            recon_loss = mse_loss(x, fwd.recon)
            kl = gaussian_kl(fwd.mu, fwd.logvar)
            tc_raw, grad_z_tc = 0.0, np.zeros_like(fwd.z)
            if cfg.tc_weight > 0.0:
                tc_raw, grad_z_tc, logits_t = tc_term(disc, fwd.z, cfg.tc_weight)
            # Reconstruction term sums squared error over pixels (per sample,
            # batch-averaged); a per-pixel mean would let the KL term crush
            # the latent code. The logged "recon" metric stays per-pixel MSE.
            vae_backward(model, fwd, 2.0 * (fwd.recon - x) / bsz, grad_z_tc)
            opt_vae.step()

            # --- discriminator update on detached latents, from tc_term's logits and caches ---
            disc_loss = math.log(2.0)
            if cfg.tc_weight > 0.0:
                z_perm = permute_dims(fwd.z, _permute_seed(cfg.seed, epoch, bi))
                loss_t, gt = softmax_cross_entropy(logits_t, np.zeros(bsz, dtype=np.int64))
                disc.backward(0.5 * gt)
                grads_t = disc.flat_grads.copy()
                logits_p = disc.forward(z_perm, train=True)
                loss_p, gp = softmax_cross_entropy(logits_p, np.ones(bsz, dtype=np.int64))
                disc.backward(0.5 * gp)
                disc.flat_grads += grads_t
                opt_disc.step()
                disc_loss = 0.5 * (loss_t + loss_p)

            sums += (recon_loss, kl, tc_raw, disc_loss)
            n_batches += 1
            if not np.isfinite(recon_loss + kl + tc_raw):
                raise TrainingDivergedError(f"FactorVAE loss non-finite at epoch {epoch}")
        means = sums / n_batches
        pixels = images.shape[1] * images.shape[2]
        history.append({
            "epoch": epoch,
            "recon": float(means[0]),
            "kl": float(means[1]),
            "tc": float(means[2]),
            "disc_loss": float(means[3]),
            "objective": float(means[0] * pixels + means[1] + cfg.tc_weight * means[2]),
        })
    return model, disc, history


def _permute_seed(seed, epoch, batch):
    return (int(seed) * 0x9E3779B1 + epoch * 131_071 + batch * 8191) & 0x7FFF_FFFF


def interpolate(model: ImageVae, x_a, x_b, steps: int) -> np.ndarray:
    """Decode evenly spaced points on the segment between the latent means of two images.

    Frame t decodes (1 - t) * mu_a + t * mu_b, so the first and last frames
    are the direct decodings of mu_a and mu_b, bit for bit.
    """
    if steps < 2:
        raise InvalidSpecError("interpolation needs at least 2 steps")
    mu_a, _ = model.encode(np.asarray(x_a)[None])
    mu_b, _ = model.encode(np.asarray(x_b)[None])
    out = []
    for t in np.linspace(0.0, 1.0, steps):
        out.append(model.decode((1.0 - t) * mu_a + t * mu_b)[0])
    return np.asarray(out)


def _desk_waveform(label, spec, rng):
    """Waveform draws for the spectrogram dataset: tighter grids than the
    classification dataset so classes stay geometrically distinct images."""
    fs = spec.sample_rate_hz
    half = fs / 2.0
    if label == signals.CHIRP:
        return signals.WaveformSpec(
            signals.CHIRP,
            f_start_hz=float(rng.uniform(-0.30, -0.22)) * half,
            f_stop_hz=float(rng.uniform(0.22, 0.30)) * half,
            sweep_period_s=float(rng.uniform(0.28, 0.38)) * spec.duration_s,
        )
    if label == signals.MULTITONE:
        # one or two lines; the single-tone case sits where the modulated
        # carrier lives, so the two classes differ mainly in line width
        n_tones = int(rng.integers(1, 3))
        freqs = [float(rng.uniform(0.18, 0.26)) * half]
        if n_tones == 2:
            freqs.append(float(rng.uniform(-0.26, -0.18)) * half)
        amp = math.sqrt(1.0 / n_tones)
        return signals.WaveformSpec(signals.MULTITONE, tones=tuple(
            signals.ToneSpec.from_polar(f, amp, float(rng.uniform(0, 2 * math.pi)))
            for f in freqs
        ))
    if label == signals.PULSED:
        return signals.WaveformSpec(
            signals.PULSED,
            duty=float(rng.uniform(0.24, 0.26)),
            pulse_rate_hz=8.0 / spec.duration_s,
            pulse_freq_hz=float(rng.uniform(-0.06, 0.06)) * half,
        )
    if label == signals.HOPPER:
        base = np.array([-0.30, 0.0, 0.30])
        jitter = rng.uniform(-0.015, 0.015, size=3)
        return signals.WaveformSpec(
            signals.HOPPER,
            hop_freqs_hz=tuple((base + jitter) * half),
            dwell_s=float(rng.uniform(0.24, 0.26)) * spec.duration_s,
        )
    if label == signals.MODULATED:
        return signals.WaveformSpec(
            signals.MODULATED,
            symbol_rate_hz=float(rng.uniform(0.022, 0.028)) * fs,
            carrier_hz=float(rng.uniform(0.18, 0.26)) * half,
        )
    if label == signals.NOISE:
        return signals.WaveformSpec(
            signals.NOISE, bandwidth_hz=float(rng.uniform(0.50, 0.65)) * half
        )
    return signals.random_waveform(label, spec, rng)


def make_spectrogram_dataset(classes, per_class, seed) -> tuple:
    """Labeled IMAGE_SIDE x IMAGE_SIDE spectrogram images of synthetic waveforms, scaled to [0, 1].

    Each image averages 2 periodograms per time row of a 1 MHz snapshot.
    """
    if per_class < 1:
        raise InvalidSpecError(f"need at least 1 image per class, got {per_class}")
    n_avg = 2
    spec = signals.SampleSpec.from_samples(1_000_000.0, IMAGE_SIDE * n_avg * 2 * IMAGE_SIDE)
    images, labels = [], []
    for ci, label in enumerate(classes):
        for rep in range(per_class):
            rng = derived_rng(seed, ci, rep)
            w = _desk_waveform(label, spec, rng)
            iq = signals.synth_waveform(w, spec, int(rng.integers(0, 2**63)))
            images.append(feat.spectrogram_image(iq, n_time=IMAGE_SIDE, n_freq=IMAGE_SIDE, n_avg=n_avg))
            labels.append(label)
    images = np.asarray(images)
    lo, hi = images.min(), images.max()
    if hi > lo:
        images = (images - lo) / (hi - lo)
    return images, np.asarray(labels)
