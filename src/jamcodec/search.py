"""Exhaustive autoencoder architecture grids: enumerate, screen, retrain.

Width sequences are non-increasing (a deeper hidden layer never has more
neurons than a shallower one) and the latent dimension stays below the last
hidden width. The canonical spectral grid -- widths {32, 64, 128}, depth 2-3,
latents 3-10 -- enumerates to exactly 128 architectures. An architecture's
parameter and MAC counts come from the layers nn builds for it, so nn alone
owns the autoencoder's layout.

screen and retrain_topk train each candidate as one parallel.fork_map job: in
forked worker processes, or in this process on one usable CPU. Every candidate
trains from the same seed either way, so the validation MSEs, the ranking and
every parameter are the serial loop's byte for byte. Retraining continues each
screened model in place.
"""

from dataclasses import dataclass
import csv
import itertools
import math

import numpy as np

from . import nn, parallel
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


def _build(arch: ArchSpec, seed: int, variational: bool):
    return nn.build_autoencoder(
        arch.input_dim, arch.hidden, arch.latent_dim, seed=seed,
        variational=variational, conv_front=arch.conv_front,
    )


def count_params_ops(arch: ArchSpec) -> CostProfile:
    """Parameters and multiply-accumulates of the autoencoder nn builds for arch.

    One zero row runs through the built path. Each layer costs its weights plus
    biases in parameters, and its weights once per position in MACs: once for
    a dense layer, at each output position for a conv, and at each input
    position for a transposed conv.
    """
    params = macs = 0
    h = np.zeros((1, arch.input_dim))
    for layer in _build(arch, 0, False).path:
        out = layer.forward(h)
        if layer.params:
            params += layer.w.size + layer.b.size
            macs += layer.w.size * {"dense": 1, "conv1d": out.shape[1], "conv1d_t": h.shape[1]}[layer.kind]
        h = out
    return CostProfile(n_params=params, n_macs=macs)


@dataclass
class ScreenResult:
    arch: ArchSpec
    val_mse: float
    model: object = None
    diverged: bool = False


def _train(candidates, train_x, val_x, budget, variational, epochs, early_stop):
    """ScreenResults of training each (arch, model or None) candidate, in candidate order.

    Each candidate is one fork_map job, which returns (validation MSE, trained
    flat_params), or (inf, None) if training diverged. A candidate without a
    model starts from _build's parameters. Trained parameters are copied into
    the candidate's model (built here if it had none); a diverged candidate
    leaves its model as it was and scores inf with no model.
    """
    def fit(i):
        arch, model = candidates[i]
        trained = _build(arch, budget.seed, variational)
        if model is not None:
            trained.flat_params[...] = model.flat_params
        try:
            trained, _ = nn.train_autoencoder(trained, train_x, val_x, budget, epochs=epochs,
                                              early_stop=early_stop)
        except nn.TrainingDivergedError:
            return math.inf, None
        recon, _ = nn.forward(trained, val_x)
        return nn.mse_loss(val_x, recon), trained.flat_params

    results = []
    for (arch, model), (val_mse, params) in zip(candidates, parallel.fork_map(fit, len(candidates))):
        if params is not None:
            model = model if model is not None else _build(arch, budget.seed, variational)
            model.flat_params[...] = params
        results.append(ScreenResult(arch, val_mse, None if params is None else model, params is None))
    return results


def screen(archs, train_x, val_x, budget: nn.TrainBudget, variational=False) -> list:
    """Train every architecture for the screening budget; stable-sort by val MSE.

    A diverging architecture is recorded (val_mse = inf) and ranked last; the
    search continues. One shared seed drives every screening run. The
    candidates train through fork_map (see the module docstring), with the
    serial loop's results byte for byte.
    """
    if not archs:
        raise EmptySearchSpaceError("no architectures to screen")
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    if train_x.shape[0] == 0 or val_x.shape[0] == 0:
        raise InvalidSpecError("screening needs non-empty train and validation data")
    results = _train([(arch, None) for arch in archs], train_x, val_x, budget, variational,
                     budget.screen_epochs, early_stop=False)
    return sorted(results, key=lambda r: r.val_mse)


def retrain_topk(ranked, k, train_x, val_x, budget: nn.TrainBudget, variational=False) -> list:
    """Continue training the k best screened models with early stopping.

    Each finalist's model is its screened model, trained on in place
    (``finalists[i].model is ranked[i].model``); one screened as diverged
    starts afresh. A retrain that diverges leaves the screened model's
    parameters as they were screened, and nothing reads them. The finalists
    train through fork_map, with the serial loop's results byte for byte.
    """
    if k > len(ranked):
        raise InvalidSpecError(f"k={k} exceeds the {len(ranked)} ranked architectures")
    return _train([(res.arch, res.model) for res in ranked[:k]], train_x, val_x, budget, variational,
                  budget.retrain_epochs_max, early_stop=True)


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
