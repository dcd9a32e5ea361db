"""Exhaustive autoencoder architecture grids: enumerate, screen, retrain.

Width sequences are non-increasing (a deeper hidden layer never has more
neurons than a shallower one) and the latent dimension stays below the last
hidden width. The canonical spectral grid -- widths {32, 64, 128}, depth 2-3,
latents 3-10 -- enumerates to exactly 128 architectures.
"""

from dataclasses import dataclass, field
import csv
import itertools
import math

import numpy as np

from . import nn
from .errors import EmptySearchSpaceError, InvalidSpecError


@dataclass(frozen=True)
class ArchSpec:
    input_dim: int
    hidden: tuple
    latent_dim: int
    conv_front: tuple = ()  # (in_ch, out_ch, kernel, stride) per conv layer

    def __post_init__(self):
        if self.input_dim <= 0 or self.latent_dim <= 0:
            raise InvalidSpecError("dimensions must be positive")
        if not self.hidden or any(w <= 0 for w in self.hidden):
            raise InvalidSpecError("hidden widths must be positive and non-empty")
        if any(b > a for a, b in zip(self.hidden, self.hidden[1:])):
            raise InvalidSpecError(f"hidden widths must be non-increasing, got {self.hidden}")
        if self.latent_dim >= self.hidden[-1]:
            raise InvalidSpecError(
                f"latent dim {self.latent_dim} must be below the last hidden width {self.hidden[-1]}"
            )

    def descriptor(self) -> str:
        conv = "".join(f"c{i}x{o}k{k}s{s}-" for i, o, k, s in self.conv_front)
        return f"{conv}in{self.input_dim}-h{'x'.join(str(w) for w in self.hidden)}-z{self.latent_dim}"


@dataclass(frozen=True)
class SearchSpace:
    input_dim: int
    widths: tuple = (32, 64, 128)
    depths: tuple = (2, 3)
    latents: tuple = tuple(range(3, 11))
    conv_options: tuple = ((),)  # each entry is one conv_front alternative

    def __post_init__(self):
        if not self.widths or not self.depths or not self.latents:
            raise InvalidSpecError("search space must have widths, depths, and latents")


@dataclass(frozen=True)
class CostProfile:
    n_params: int
    n_macs: int
    memory_bytes_int8: int


def enumerate_archs(space: SearchSpace) -> list:
    """Duplicate-free exhaustive list, ordered by (depth, widths, latent)."""
    widths = tuple(sorted(space.widths))
    out = []
    for conv_front in space.conv_options:
        for depth in sorted(space.depths):
            for combo in itertools.product(widths, repeat=depth):
                if any(b > a for a, b in zip(combo, combo[1:])):
                    continue
                for latent in sorted(space.latents):
                    if latent >= combo[-1]:
                        continue
                    out.append(
                        ArchSpec(space.input_dim, combo, latent, conv_front=tuple(conv_front))
                    )
    if not out:
        raise EmptySearchSpaceError("search space enumerates to zero architectures")
    return out


def dense_cost(n_in: int, n_out: int) -> tuple:
    """(parameters, MACs) of one dense layer: weights plus bias, in*out MACs."""
    return n_in * n_out + n_out, n_in * n_out


def count_params_ops(arch: ArchSpec) -> CostProfile:
    """Parameters and multiply-accumulates for encoder plus mirrored decoder."""
    params = 0
    macs = 0
    n_tensors = 0

    dense_in = arch.input_dim
    conv_lens = []
    if arch.conv_front:
        length = arch.input_dim // arch.conv_front[0][0]
        for in_c, out_c, kernel, stride in arch.conv_front:
            out_len = nn._conv1d_geometry(length, kernel, stride)[0]
            params += in_c * out_c * kernel + out_c
            macs += out_len * out_c * in_c * kernel
            n_tensors += 2
            conv_lens.append((length, out_len, in_c, out_c, kernel))
            length = out_len
        dense_in = length * arch.conv_front[-1][1]

    dims = [dense_in, *arch.hidden, arch.latent_dim]
    for a, b in zip(dims, dims[1:]):
        p, m = dense_cost(a, b)
        params += p
        macs += m
        n_tensors += 2
    for a, b in zip(dims[::-1], dims[::-1][1:]):
        p, m = dense_cost(a, b)
        params += p
        macs += m
        n_tensors += 2

    if arch.conv_front:
        # transposed mirror: same weight shapes, MACs counted at the larger output extent
        for in_len, out_len, in_c, out_c, kernel in reversed(conv_lens):
            params += in_c * out_c * kernel + in_c
            macs += out_len * out_c * in_c * kernel
            n_tensors += 2

    memory = params + 5 * n_tensors  # int8 weights plus per-tensor scale (f32) and zero point (i8)
    return CostProfile(n_params=params, n_macs=macs, memory_bytes_int8=memory)


@dataclass
class ScreenResult:
    arch: ArchSpec
    val_mse: float
    model: object = None
    diverged: bool = False
    history: list = field(default_factory=list)


def _build(arch: ArchSpec, seed: int, variational: bool):
    return nn.build_autoencoder(
        arch.input_dim, arch.hidden, arch.latent_dim, seed=seed,
        variational=variational, conv_front=arch.conv_front,
    )


def _fit_and_score(arch, model, train_x, val_x, budget, variational, epochs, early_stop):
    """Train model, then score it by validation MSE; a divergence scores inf with no model."""
    try:
        model, history = nn.train_autoencoder(
            model, train_x, val_x, budget, epochs=epochs, early_stop=early_stop,
            loss_kind="vae" if variational else "mse",
        )
    except nn.TrainingDivergedError:
        return ScreenResult(arch, math.inf, None, diverged=True)
    recon, _ = nn.forward(model, val_x)
    return ScreenResult(arch, nn.mse_loss(val_x, recon), model, history=history)


def screen(archs, train_x, val_x, budget: nn.TrainBudget, variational=False) -> list:
    """Train every architecture for the screening budget; stable-sort by val MSE.

    A diverging architecture is recorded (val_mse = inf) and ranked last; the
    search continues. One shared seed drives every screening run.
    """
    if not archs:
        raise EmptySearchSpaceError("no architectures to screen")
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    if train_x.shape[0] == 0 or val_x.shape[0] == 0:
        raise InvalidSpecError("screening needs non-empty train and validation data")
    results = [
        _fit_and_score(arch, _build(arch, budget.seed, variational), train_x, val_x, budget,
                       variational, budget.screen_epochs, early_stop=False)
        for arch in archs
    ]
    return sorted(results, key=lambda r: r.val_mse)


def retrain_topk(ranked, k, train_x, val_x, budget: nn.TrainBudget, variational=False) -> list:
    """Continue training the k best screened models with early stopping."""
    if k > len(ranked):
        raise InvalidSpecError(f"k={k} exceeds the {len(ranked)} ranked architectures")
    finalists = []
    for res in ranked[:k]:
        model = res.model if res.model is not None else _build(res.arch, budget.seed, variational)
        finalists.append(_fit_and_score(res.arch, model, train_x, val_x, budget, variational,
                                        budget.retrain_epochs_max, early_stop=True))
    return finalists


def write_search_report(path, results, retrained=frozenset()) -> None:
    """CSV of (descriptor, val MSE, params, MACs, latent, screened/retrained)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["arch", "val_mse", "n_params", "n_macs", "latent_dim", "screened", "retrained"])
        for res in results:
            cost = count_params_ops(res.arch)
            w.writerow([
                res.arch.descriptor(),
                repr(float(res.val_mse)),
                cost.n_params,
                cost.n_macs,
                res.arch.latent_dim,
                1,
                int(res.arch.descriptor() in retrained),
            ])
