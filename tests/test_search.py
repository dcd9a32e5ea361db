import hashlib
import itertools
import math
import struct
import weakref

import numpy as np
import pytest

from jamcodec import nn, search
from jamcodec.errors import EmptySearchSpaceError, InvalidSpecError, ShapeError

SPECTRAL_SPACE = search.SearchSpace(input_dim=128)


def brute_force_shapes(widths, depth):
    """All non-increasing width tuples, enumerated independently."""
    return [c for c in itertools.product(sorted(widths), repeat=depth)
            if all(a >= b for a, b in zip(c, c[1:]))]


class TestEnumerate:
    def test_spectral_grid_is_128(self):
        assert len(search.enumerate_archs(SPECTRAL_SPACE)) == 128

    def test_shape_counts_brute_force(self):
        shapes2 = brute_force_shapes((32, 64, 128), 2)
        shapes3 = brute_force_shapes((32, 64, 128), 3)
        assert len(shapes2) == 6 and len(shapes3) == 10
        # every latent in 3..10 is below every allowed last width
        assert (len(shapes2) + len(shapes3)) * 8 == 128

    def test_matches_brute_force_product(self):
        archs = search.enumerate_archs(SPECTRAL_SPACE)
        expect = set()
        for depth in (2, 3):
            for shape in brute_force_shapes((32, 64, 128), depth):
                for latent in range(3, 11):
                    if latent < shape[-1]:
                        expect.add((shape, latent))
        assert {(a.hidden, a.latent_dim) for a in archs} == expect

    def test_increasing_widths_excluded(self):
        with pytest.raises(InvalidSpecError):
            search.ArchSpec(128, (64, 128), 4)
        assert all(a.hidden != (64, 128) for a in search.enumerate_archs(SPECTRAL_SPACE))

    def test_duplicate_free_and_ordered(self):
        archs = search.enumerate_archs(SPECTRAL_SPACE)
        keys = [(len(a.hidden), a.hidden, a.latent_dim) for a in archs]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)

    def test_latent_below_last_width(self):
        space = search.SearchSpace(input_dim=64, widths=(8,), depths=(2,),
                                   latents=(3, 7, 8, 9))
        archs = search.enumerate_archs(space)
        assert {a.latent_dim for a in archs} == {3, 7}

    def test_empty_space_rejected(self):
        space = search.SearchSpace(input_dim=64, widths=(8,), depths=(2,), latents=(9,))
        with pytest.raises(EmptySearchSpaceError):
            search.enumerate_archs(space)


class TestCostProfile:
    def test_paper_mixed_arch(self):
        cost = search.count_params_ops(search.ArchSpec(177, (128, 128), 6))
        assert 79_000 <= cost.n_params <= 81_000

    def test_paper_spectral_arch(self):
        cost = search.count_params_ops(search.ArchSpec(128, (128, 128), 4))
        assert 66_500 <= cost.n_params <= 69_500

    def test_paper_temporal_arch(self):
        cost = search.count_params_ops(search.ArchSpec(49, (64, 64), 3))
        assert 14_000 <= cost.n_params <= 16_000

    def test_matches_instantiated_tensors_for_whole_grid(self):
        for arch in search.enumerate_archs(SPECTRAL_SPACE):
            model = nn.build_autoencoder(arch.input_dim, arch.hidden, arch.latent_dim, seed=0)
            assert search.count_params_ops(arch).n_params == model.n_params()

    def test_macs_hand_count(self):
        # 4 -> 3 -> 2 and mirror: 12 + 6 + 6 + 12 = 36 MACs, plus 3 + 2 + 3 + 4 biases
        cost = search.count_params_ops(search.ArchSpec(4, (3,), 2))
        assert (cost.n_params, cost.n_macs) == (48, 36)

    def test_conv_front_counted(self):
        arch = search.ArchSpec(64, (16,), 4, conv_front=((2, 4, 3, 2),))
        model = nn.build_autoencoder(arch.input_dim, arch.hidden, arch.latent_dim,
                                     seed=0, conv_front=arch.conv_front)
        cost = search.count_params_ops(arch)
        assert cost.n_params == model.n_params()
        # conv 32x2 -> 16x4: 24 weights at 16 positions; dense 64 -> 16 -> 4 -> 16 -> 64;
        # the transposed conv's 24 weights at its 16 input positions
        assert (cost.n_params, cost.n_macs) == (
            28 + 1040 + 68 + 80 + 1088 + 26, 384 + 1024 + 64 + 64 + 1024 + 384)

    def test_costs_match_golden(self):
        """(n_params, n_macs) over the canonical grid, perfbench's conv slice and a two-layer conv front."""
        archs = (search.enumerate_archs(SPECTRAL_SPACE)
                 + search.enumerate_archs(search.SearchSpace(
                     177, widths=(64,), depths=(2,), latents=(6,),
                     conv_options=(((3, 8, 5, 2),), ((3, 4, 3, 1),))))
                 + [search.ArchSpec(177, (64, 64), 6, conv_front=((3, 8, 5, 2), (8, 16, 3, 1)))])
        digest = hashlib.sha256()
        for arch in archs:
            cost = search.count_params_ops(arch)
            digest.update(struct.pack("<qq", cost.n_params, cost.n_macs))
        assert len(archs) == 131
        assert digest.hexdigest() == "2885f8007d28a8b173a34c8b4752f574c2fee9dd90c233f8c2724a6234a04b81"


def low_rank_data(n, d=12, rank=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (n, rank)) @ rng.standard_normal((rank, d))


def tiny_budget(seed=0, screen=8):
    return nn.TrainBudget(screen_epochs=screen, retrain_epochs_max=40,
                          early_stop_patience=6, batch_size=16, seed=seed, lr=3e-3)


class TestScreen:
    def test_bigger_arch_wins_on_low_rank_data(self):
        X = low_rank_data(120)
        small = search.ArchSpec(12, (4,), 3)
        large = search.ArchSpec(12, (10, 8), 3)
        wins = ties = 0
        for seed in range(5):
            ranked = search.screen([small, large], X[:90], X[90:], tiny_budget(seed))
            gap = abs(ranked[0].val_mse - ranked[1].val_mse)
            if ranked[0].arch == large:
                wins += 1
            elif gap < 0.1 * max(r.val_mse for r in ranked):
                ties += 1
        assert wins + ties == 5 and wins >= 3

    def test_singleton(self):
        X = low_rank_data(60)
        ranked = search.screen([search.ArchSpec(12, (6,), 3)], X[:40], X[40:], tiny_budget())
        assert len(ranked) == 1

    def test_ranking_is_permutation(self):
        X = low_rank_data(80)
        archs = [search.ArchSpec(12, (8,), 3), search.ArchSpec(12, (6, 4), 3),
                 search.ArchSpec(12, (4,), 3)]
        ranked = search.screen(archs, X[:60], X[60:], tiny_budget())
        assert sorted(r.arch.descriptor() for r in ranked) == sorted(a.descriptor() for a in archs)
        assert [r.val_mse for r in ranked] == sorted(r.val_mse for r in ranked)

    def test_bit_reproducible(self):
        X = low_rank_data(60)
        archs = [search.ArchSpec(12, (8,), 3), search.ArchSpec(12, (6,), 3)]
        a = search.screen(archs, X[:40], X[40:], tiny_budget(3))
        b = search.screen(archs, X[:40], X[40:], tiny_budget(3))
        assert [r.val_mse for r in a] == [r.val_mse for r in b]

    def test_empty_archs_rejected(self):
        with pytest.raises(EmptySearchSpaceError):
            search.screen([], np.zeros((4, 2)), np.zeros((2, 2)), tiny_budget())


class TestRetrain:
    def test_k1_returns_best_only(self):
        X = low_rank_data(80)
        archs = [search.ArchSpec(12, (8,), 3), search.ArchSpec(12, (4,), 3)]
        ranked = search.screen(archs, X[:60], X[60:], tiny_budget())
        finalists = search.retrain_topk(ranked, 1, X[:60], X[60:], tiny_budget())
        assert len(finalists) == 1
        assert finalists[0].arch == ranked[0].arch

    def test_retrain_improves_or_holds(self):
        X = low_rank_data(100)
        ranked = search.screen([search.ArchSpec(12, (8,), 3)], X[:70], X[70:], tiny_budget())
        finalists = search.retrain_topk(ranked, 1, X[:70], X[70:], tiny_budget())
        assert finalists[0].val_mse <= ranked[0].val_mse + 1e-9

    def test_k_exceeds_ranked(self):
        X = low_rank_data(60)
        ranked = search.screen([search.ArchSpec(12, (6,), 3)], X[:40], X[40:], tiny_budget())
        with pytest.raises(InvalidSpecError):
            search.retrain_topk(ranked, 2, X[:40], X[40:], tiny_budget())


class TestReport:
    def test_csv_written(self, tmp_path):
        X = low_rank_data(60)
        archs = [search.ArchSpec(12, (8,), 3), search.ArchSpec(12, (6,), 3)]
        ranked = search.screen(archs, X[:40], X[40:], tiny_budget())
        path = tmp_path / "report.csv"
        search.write_search_report(path, ranked, retrained={ranked[0].arch.descriptor()})
        lines = path.read_text().splitlines()
        assert lines[0] == "arch,val_mse,n_params,n_macs,latent_dim,screened,retrained"
        assert len(lines) == 3
        assert lines[1].endswith(",1,1")  # best arch marked retrained


def slice_data(seed=0):
    """Rows of 24 values: a dense arch reads them flat, a conv front as 8 steps x 3 channels."""
    X = low_rank_data(96, d=24, rank=3, seed=seed)
    return X[:72], X[72:]


# one screened slice per family, each with more than one candidate
SLICE = {
    "dense": ([search.ArchSpec(24, (12,), 3), search.ArchSpec(24, (16, 8), 4),
               search.ArchSpec(24, (8,), 3)], False),
    "conv": ([search.ArchSpec(24, (12,), 3, conv_front=((3, 4, 3, 2),)),
              search.ArchSpec(24, (12,), 4, conv_front=((3, 2, 3, 1),))], False),
    "vae": ([search.ArchSpec(24, (12,), 3), search.ArchSpec(24, (8,), 4)], True),
}


def run_slice(family, seed=0, k=2):
    """Digests of the screened ranking, of the ranking after retrain_topk and of its finalists."""
    archs, variational = SLICE[family]
    train_x, val_x = slice_data(seed)
    budget = tiny_budget(seed, screen=6)
    ranked = search.screen(archs, train_x, val_x, budget, variational=variational)
    screened = slice_digest(ranked)
    finalists = search.retrain_topk(ranked, k, train_x, val_x, budget, variational=variational)
    return screened, slice_digest(ranked), slice_digest(finalists)


def slice_digest(results):
    """SHA-256 of each result's descriptor, validation MSE and trained parameters, in order."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.arch.descriptor().encode())
        h.update(struct.pack("<d", r.val_mse))
        h.update(b"diverged" if r.model is None else r.model.flat_params.tobytes())
    return h.hexdigest()


# SHA-256 of each family's slice at seed 0: screened, ranked after retraining the best two (which
# continues the screened models in place), finalists
GOLDEN_SLICE = {
    "dense": (
        "7c4eda6ac0056b8c0481910597baecded4008d769bfffc833b1de5f3d3954016",
        "498a2150e7bd054e2d277ccbbf1ff40bfdbff8b33983ecf61a27a04117e7db16",
        "776e23c7acc11ccff8d7a7745364adf06fab91813ea20b1367031d2c6fbe3212",
    ),
    "conv": (
        "55fa4a49dcd710b26d71bf37d06b887b4095c8a1a38c9095497481cdebde0e6b",
        "f5580ce8a718b887933ef42e5eae380de526dceb1bbc0c05b56150e925668aa4",
        "f6c1259c429ba5aa0c872485bde58676db2b82d1ee26e1961f8c649376102956",
    ),
    "vae": (
        "6f5a10f6f07b915438e56ed757293387e88b7b1576140c5f225c82e04b82708d",
        "65ed919cfa2f70da82fa87d91e834361e4e12cd6057a421467815269e4dc7bfc",
        "315e7e5bd32290b6c58ae0fde710637bd32a38e4f6072caa7f9786e75a0c505b",
    ),
}


@pytest.mark.parametrize("family", sorted(GOLDEN_SLICE))
def test_slice_golden_bytes(family):
    assert run_slice(family) == GOLDEN_SLICE[family]


@pytest.mark.parametrize("family", sorted(GOLDEN_SLICE))
def test_both_paths_give_the_golden_bytes(cpus, family):
    assert run_slice(family) == GOLDEN_SLICE[family]


def test_finalists_continue_the_screened_models(cpus):
    train_x, val_x = slice_data()
    ranked = search.screen(SLICE["dense"][0], train_x, val_x, tiny_budget())
    screened = [r.model for r in ranked]
    finalists = search.retrain_topk(ranked, 2, train_x, val_x, tiny_budget())
    assert [r.model for r in ranked] == screened
    assert all(f.model is r.model for f, r in zip(finalists, ranked))


def test_a_diverged_retrain_leaves_the_screened_parameters(cpus):
    train_x, val_x = slice_data()
    ranked = search.screen(SLICE["dense"][0], train_x, val_x, tiny_budget())
    screened = [r.model.flat_params.copy() for r in ranked]
    with np.errstate(over="ignore", invalid="ignore"):
        finalists = search.retrain_topk(ranked, 2, train_x * 1e160, val_x * 1e160, tiny_budget())
    assert [(f.val_mse, f.model, f.diverged) for f in finalists] == [(math.inf, None, True)] * 2
    assert all(np.array_equal(r.model.flat_params, p) for r, p in zip(ranked, screened))


def test_diverged_candidates_rank_last_and_retrain_afresh(cpus):
    train_x, val_x = slice_data()
    archs = SLICE["dense"][0]
    with np.errstate(over="ignore", invalid="ignore"):
        ranked = search.screen(archs, train_x * 1e160, val_x * 1e160, tiny_budget())
    assert [(r.arch, r.val_mse, r.model, r.diverged) for r in ranked] == [(a, math.inf, None, True) for a in archs]
    finalists = search.retrain_topk(ranked, 2, train_x, val_x, tiny_budget())
    assert all(f.model is not None and not f.diverged for f in finalists)
    assert [r.model for r in ranked] == [None] * 3


def test_a_mismatched_input_dim_raises_shape_error_in_the_caller(cpus):
    train_x, val_x = slice_data()
    archs = [search.ArchSpec(24, (8,), 3), search.ArchSpec(20, (8,), 3)]
    with pytest.raises(ShapeError, match="expects 20 inputs"):
        search.screen(archs, train_x, val_x, tiny_budget())
    ranked = [search.ScreenResult(arch, 1.0) for arch in archs]
    with pytest.raises(ShapeError, match="expects 20 inputs"):
        search.retrain_topk(ranked, 2, train_x, val_x, tiny_budget())


def test_the_rows_die_with_the_caller_s_reference(cpus):
    train_x, val_x = slice_data()
    rows = weakref.ref(train_x)
    ranked = search.screen(SLICE["dense"][0], train_x, val_x, tiny_budget())
    search.retrain_topk(ranked, 2, train_x, val_x, tiny_budget())
    del train_x
    assert rows() is None
