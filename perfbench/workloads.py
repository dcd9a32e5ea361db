"""The four workloads: pipeline, search, stream and compress.

Every workload measures the same two end-to-end quantities, so that one set
of metric names holds for all of them:
  work_s  median seconds of the workload's unit of work,
  op_ms   median milliseconds of one of its operations.
What the unit of work and the operation are is stated on each class.

Each workload class has
  prepare(seed, work)  builds its inputs from the seed (timed as set-up),
  warm()               calls each kernel once before timing,
  run(seconds, tracer) measures whole rounds of the same operations for at
                       least ``seconds`` and checks the outputs.
``run`` returns ({"work_s", "op_ms"}, attempted, failed). In a traced run the
benchmark's own spans mark each unit of work ("work") and operation ("op"),
and ``layer_metrics`` turns the spans into the per-layer metrics, by one
definition for every workload: a layer a workload never calls reads 0. Traced
and untraced units alternate, so the run can state its own overhead.
"""

from contextlib import nullcontext
import json
import shutil
import statistics
import time

import numpy as np

from jamcodec import features, forest, nn, pipeline, quantize, search, signals

import checks
from checks import require

CLASSES = ("clean", "chirp", "multitone", "pulsed", "hopper", "modulated")
TRAIN_SCENARIOS = (0, 1, 2, 3)
TEST_SCENARIO = 4
UNSEEN_SCENARIO = 5
POOL_SEED_OFFSET = 1 << 32  # stream snapshots come from a dataset seed no training set uses
STAGES = ("synth", "features", "train", "quantize", "classify", "report")
FAMILIES = ("dense", "conv", "vae")


def _rng(seed, stream):
    """The benchmark's own generator for input stream ``stream`` of a seed (any int)."""
    return np.random.default_rng([seed % 2**64, stream])


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _toggle(tracer, on):
    """Install the wrappers for a traced unit, remove them for an untraced one.

    Returns the tracer to record the unit with, or None.
    """
    if tracer is None:
        return None
    if on:
        tracer.enable()
        return tracer
    tracer.disable()
    return None


def _overhead_pct(traced, untraced):
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base


# ---- tracing: one instrument list and one set of definitions ------------

def _int8_attrs(args, kwargs, result):
    attrs = {"single": int(np.ndim(args[1]) == 1)}
    if isinstance(result, tuple):
        attrs["saturations"] = result[1]["int32_saturations"]
    return attrs


def instrument(tracer):
    """Wrap every public function a per-layer metric is taken from."""
    for s in STAGES:
        tracer.add(pipeline, f"stage_{s}", f"pipeline.stage_{s}")
    tracer.add(pipeline.Runner, "run_stage", "pipeline.run_stage",
               lambda a, k, r: {"ran": int(a[1] not in a[0].cache_hits)})
    tracer.add(forest, "train_forest", "forest.train_forest", lambda a, k, r: {"trees": len(r.trees)})
    tracer.add(forest, "predict_batch", "forest.predict_batch")
    tracer.add(forest, "predict", "forest.predict")
    tracer.add(nn, "train_autoencoder", "nn.train_autoencoder", lambda a, k, r: {"epochs": len(r[1])})
    tracer.add(nn, "forward", "nn.forward")
    tracer.add(search, "screen", "search.screen", lambda a, k, r: {"candidates": len(r)})
    tracer.add(search, "retrain_topk", "search.retrain_topk")
    tracer.add(features, "dataset_features", "features.dataset_features")
    tracer.add(features, "snapshot_features", "features.snapshot_features")
    tracer.add(quantize, "int8_forward", "quantize.int8_forward", _int8_attrs)
    tracer.add(signals, "make_dataset", "signals.make_dataset")
    for f in ("write_iq", "read_iq", "write_manifest", "read_manifest"):
        tracer.add(signals, f, "signals.io")


# seconds per traced unit of work spent in a span
PER_WORK_S = {
    **{f"pipeline.{s}_s": f"pipeline.stage_{s}" for s in STAGES},
    "forest.train_s": "forest.train_forest",
    "forest.predict_batch_s": "forest.predict_batch",
    "nn.train_s": "nn.train_autoencoder",
    "search.screen_s": "search.screen",
    "search.retrain_s": "search.retrain_topk",
    **{f"search.{fam}_s": f"search.{fam}" for fam in FAMILIES},
    "features.extract_s": "features.dataset_features",
    "signals.make_dataset_s": "signals.make_dataset",
    "signals.io_s": "signals.io",
}
# counts per traced unit of work: (span, attribute)
PER_WORK_COUNT = {
    "forest.trees": ("forest.train_forest", "trees"),
    "nn.epochs": ("nn.train_autoencoder", "epochs"),
    "search.candidates": ("search.screen", "candidates"),
    "quantize.int32_saturations": ("quantize.int8_forward", "saturations"),
}
# median milliseconds of one call: (span, parent span or None, attribute filter or None)
PER_CALL_MS = {
    "forest.predict_one_ms": ("forest.predict", None, None),
    "features.snapshot_ms": ("features.snapshot_features", None, None),
    "quantize.int8_one_ms": ("quantize.int8_forward", None, ("single", 1)),
    "quantize.dense_block_ms": ("quantize.int8_forward", "block.dense", None),
    "quantize.conv_block_ms": ("quantize.int8_forward", "block.conv", None),
    "nn.forward_block_ms": ("nn.forward", "block.dense", None),
}


def layer_metrics(tracer, overhead):
    """Every per-layer metric from the spans of a traced run.

    Units of work are the root spans called "work"; a pipeline rerun is a
    root span called "op". A span that never occurred gives 0.
    """
    work = tracer.traces_of("work")
    per = 1.0 / len(work) if work else 0.0
    out = {k: per * tracer.total_s(span, work) for k, span in PER_WORK_S.items()}
    out.update({k: per * tracer.count(span, attr, work) for k, (span, attr) in PER_WORK_COUNT.items()})
    out["quantize.int8_batch_s"] = per * sum(
        s["end"] - s["start"] for s in tracer.select("quantize.int8_forward", work)
        if not s["attrs"].get("single"))
    out.update({k: tracer.median_ms(span, parent=parent, attr=attr) or 0.0
                for k, (span, parent, attr) in PER_CALL_MS.items()})
    reruns = tracer.traces_of("op")
    out["pipeline.rerun_stages_run"] = (
        tracer.count("pipeline.run_stage", "ran", reruns) / len(reruns) if reruns else 0.0)
    out["trace.overhead_pct"] = overhead
    return out


# ---- inputs ---------------------------------------------------------------

def make_snapshots(seed, scenario_ids, per_class):
    """Balanced snapshots over the Baseline channel: 20 dB attenuation, 10 dB JSR."""
    scenarios = tuple(
        signals.Scenario(i, signals.ChannelSpec(attenuation_db=20.0, jsr_db=10.0, noise_seed=i))
        for i in scenario_ids
    )
    return signals.make_dataset(signals.DatasetSpec(
        classes=CLASSES, per_class_count=per_class, scenarios=scenarios, seed=seed,
        sample=signals.SampleSpec.from_samples(1_000_000.0, 4096),
    ))


class BaselineData:
    """The Baseline 180 snapshots (30 per class over scenarios 0-4) as features.

    Min-max statistics come from the training scenarios 0-3; the train rows
    are split 85/15 into train and validation by a seeded permutation.
    """

    def __init__(self, seed):
        snaps = make_snapshots(seed, TRAIN_SCENARIOS + (TEST_SCENARIO,), per_class=30)
        data = features.dataset_features(snaps)
        train = np.isin(data["scenario_ids"], TRAIN_SCENARIOS)
        self.stats = features.fit_minmax(data[features.DOMAIN_MIXED][train])
        self.X, _ = features.apply_minmax(self.stats, data[features.DOMAIN_MIXED])
        self.labels = data["class_labels"]
        self.train = train
        order = _rng(seed, 1).permutation(int(train.sum()))
        n_val = int(len(order) * 0.15)
        x_train = self.X[train]
        self.tr, self.val = x_train[order[n_val:]], x_train[order[:n_val]]


def budget(seed, screen, retrain, patience):
    return nn.TrainBudget(screen_epochs=screen, retrain_epochs_max=retrain,
                          early_stop_patience=patience, batch_size=32, seed=seed, lr=1e-3)


def int8_model(data, hidden, latent, train_budget, conv_front=()):
    """Train an AE on the Baseline features and freeze it to int8."""
    seed = train_budget.seed
    model = nn.build_autoencoder(data.X.shape[1], hidden, latent, seed=seed, conv_front=conv_front)
    model, _ = nn.train_autoencoder(model, data.tr, data.val, train_budget)
    cal = quantize.calibrate(model, data.X[data.train][:256], percentile=99.9)
    return model, quantize.quantize_model(model, cal)


# ---- pipeline -----------------------------------------------------------

class Pipeline:
    """Rounds of one fresh pipeline.run on the Baseline config, then cached reruns.

    Unit of work: one fresh run into an empty directory. Operation: one
    cached rerun, started from the state the round's fresh run left: its
    artifacts plus the manifest.json it wrote, which is put back before each
    rerun. A round is one fresh run and ``reruns`` reruns.
    """

    reruns = 5
    min_rounds = 4  # a fresh run takes 6-8 s and moves with the machine; the median needs several

    def prepare(self, seed, work):
        self.work = work
        self.seed = seed
        self.out = work / "run"
        self.config = work / "config.json"
        self._write_config(self.config, {"seed": seed, "output_dir": str(self.out),
                                         "train": {"retrain_epochs_max": 60}})

    def warm(self):
        """A small end-to-end run: 30 snapshots, 3 epochs, 4 trees."""
        out = self.work / "warm"
        shutil.rmtree(out, ignore_errors=True)
        cfg = self.work / "warm.json"
        self._write_config(cfg, {
            "seed": self.seed, "output_dir": str(out),
            "dataset": {"per_class_count": 5},
            "train": {"screen_epochs": 3, "retrain_epochs_max": 3},
            "forest": {"n_trees": 4},
        })
        pipeline.run(cfg)
        shutil.rmtree(out)

    @staticmethod
    def _write_config(path, cfg):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)

    def _fresh(self, tracer):
        """One fresh run, checked; returns its time and the reference bytes of its artifacts."""
        shutil.rmtree(self.out, ignore_errors=True)
        active = _toggle(tracer, True)  # every fresh run of a traced run is traced whole
        with _span(active, "work"):
            t = time.perf_counter()
            pipeline.run(self.config)
            dt = time.perf_counter() - t
        artifacts = checks.check_manifest_hashes(self.out)
        checks.check_energy(self.out)
        with open(self.out / "data" / "manifest.jsonl", "r", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        n_test = sum(1 for r in records if int(r["scenario_id"]) == TEST_SCENARIO)
        require(n_test == 36, f"{n_test} test snapshots, expected 36")
        self.f2_int8 = checks.check_classify(self.out, n_test)
        return dt, checks.snapshot_bytes(self.out, artifacts)

    def run(self, seconds, tracer):
        start = time.perf_counter()
        fresh, reruns, traced, untraced = [], [], [], []
        while len(fresh) < self.min_rounds or time.perf_counter() - start < seconds:
            dt, reference = self._fresh(tracer)
            fresh.append(dt)
            manifest_bytes = (self.out / "manifest.json").read_bytes()
            for i in range(self.reruns):
                (self.out / "manifest.json").write_bytes(manifest_bytes)
                active = _toggle(tracer, i % 2 == 0)
                with _span(active, "op"):
                    t = time.perf_counter()
                    pipeline.run(self.config)
                    dt = time.perf_counter() - t
                reruns.append(dt)
                (traced if active else untraced).append(dt)
                checks.check_unchanged(self.out, reference)
        self.overhead = _overhead_pct(traced, untraced) if tracer is not None else None
        print(f"pipeline  macro F2 on int8 reconstructions: {self.f2_int8!r}")
        print(f"pipeline  fresh runs (s): {[round(t, 3) for t in fresh]}")
        metrics = {"work_s": statistics.median(fresh), "op_ms": 1000.0 * statistics.median(reruns)}
        return metrics, len(fresh) + len(reruns), 0


# ---- search -------------------------------------------------------------

class Search:
    """search.screen then search.retrain_topk over a fixed slice of the grid.

    The slice: six dense candidates (widths 32/64, depth 2, latents 4 and
    8), two conv-front candidates (widths 64x64, latent 6, conv fronts 3->8
    k5 s2 and 3->4 k3 s1 over the 177 features read as 59 x 3), and two
    variational candidates (64x64, latents 4 and 8). Each family is screened
    for 20 epochs and its best two are retrained for up to 40 with patience 5.

    Unit of work: one round, the whole slice; every round repeats the same
    training. Operation: one screened or retrained candidate; op_ms is the
    round's time over its operations.
    """

    top_k = 2
    min_rounds = 3

    def prepare(self, seed, work):
        self.data = BaselineData(seed)
        dim = self.data.X.shape[1]
        self.slice = {
            "dense": search.enumerate_archs(search.SearchSpace(
                dim, widths=(32, 64), depths=(2,), latents=(4, 8))),
            "conv": search.enumerate_archs(search.SearchSpace(
                dim, widths=(64,), depths=(2,), latents=(6,),
                conv_options=(((3, 8, 5, 2),), ((3, 4, 3, 1),)))),
            "vae": search.enumerate_archs(search.SearchSpace(
                dim, widths=(64,), depths=(2,), latents=(4, 8))),
        }
        self.budget = budget(seed, screen=20, retrain=40, patience=5)

    def warm(self):
        one_epoch = budget(self.budget.seed, 1, 1, 1)
        for fam, archs in self.slice.items():
            search.screen(archs[:1], self.data.tr, self.data.val, one_epoch, variational=fam == "vae")

    def _round(self, tracer):
        results = {}
        for fam, archs in self.slice.items():
            with _span(tracer, f"search.{fam}"):
                vae = fam == "vae"
                ranked = search.screen(archs, self.data.tr, self.data.val, self.budget, variational=vae)
                finalists = search.retrain_topk(ranked, self.top_k, self.data.tr, self.data.val,
                                                self.budget, variational=vae)
            results[fam] = (ranked, finalists)
        return results

    def run(self, seconds, tracer):
        start = time.perf_counter()
        rounds, per_op, traced, untraced, first = [], [], [], [], None
        attempted = failed = 0
        while len(rounds) < self.min_rounds or time.perf_counter() - start < seconds:
            active = _toggle(tracer, len(rounds) % 2 == 0)
            with _span(active, "work"):
                t = time.perf_counter()
                results = self._round(active)
                dt = time.perf_counter() - t
            rounds.append(dt)
            (traced if active else untraced).append(dt)
            ops = sum(len(ranked) + len(finalists) for ranked, finalists in results.values())
            per_op.append(dt / ops)
            attempted += ops
            failed += sum(r.diverged for ranked, finalists in results.values() for r in ranked + finalists)
            if first is None:
                first = results
                self._check(results)
            else:
                require(self._scores(results) == self._scores(first),
                        "a repeated search round gave different validation MSEs")
        self.overhead = _overhead_pct(traced, untraced) if tracer is not None else None
        metrics = {"work_s": statistics.median(rounds), "op_ms": 1000.0 * statistics.median(per_op)}
        return metrics, attempted, failed

    @staticmethod
    def _scores(results):
        return {fam: [r.val_mse for r in ranked + finalists] for fam, (ranked, finalists) in results.items()}

    def _check(self, results):
        for fam, (ranked, finalists) in results.items():
            mses = [r.val_mse for r in ranked]
            require(mses == sorted(mses), f"{fam}: ranking is not sorted by val_mse")
            for r in ranked + finalists:
                if r.model is None:
                    continue
                expected = search.count_params_ops(r.arch).n_params
                if fam == "vae":  # the logvar head is trained but not on the inference path
                    expected += r.arch.hidden[-1] * r.arch.latent_dim + r.arch.latent_dim
                require(r.model.n_params() == expected,
                        f"{r.arch.descriptor()}: model has {r.model.n_params()} parameters, "
                        f"count_params_ops gives {expected}")
        best = min((r for r in results["dense"][1] if r.model is not None), key=lambda r: r.val_mse)
        checks.check_val_mse(best.model, self.data.val, best.val_mse)


# ---- stream -------------------------------------------------------------

class Stream:
    """Closed loop, one caller: one snapshot at a time from an unseen scenario.

    Set-up trains the Baseline AE (128, 128 -> 6) on scenarios 0-3, freezes it
    to int8 and fits a 120-tree forest on int8 reconstructions of the
    training rows. The pool is 240 snapshots (40 per class) of scenario 5
    from another dataset seed, interleaved by class.

    Unit of work: one pass, the whole pool fed once. Operation: one snapshot
    through features, min-max, single-vector int8 and forest.predict. op_ms
    is the median over the pool of each snapshot's latency, which is the
    median over the run's passes: a slow second on the machine moves one
    sample of a snapshot, not the result.
    """

    min_passes = 3

    def prepare(self, seed, work):
        data = BaselineData(seed)
        self.stats = data.stats
        _, self.qm = int8_model(data, (128, 128), 6, budget(seed, 40, 60, 20))
        recon = quantize.int8_forward(self.qm, data.X[data.train])
        self.forest = forest.train_forest(recon, data.labels[data.train],
                                          forest.ForestConfig(n_trees=120, seed=seed))
        snaps = make_snapshots(seed + POOL_SEED_OFFSET, (UNSEEN_SCENARIO,), per_class=40)
        per_class = len(snaps) // len(CLASSES)  # make_dataset groups by class; interleave them
        self.pool = [snaps[c * per_class + r] for r in range(per_class) for c in range(len(CLASSES))]

    def classify_one(self, snap):
        f = features.snapshot_features(snap)
        x, _ = features.apply_minmax(self.stats, f[features.DOMAIN_MIXED][None, :])
        return forest.predict(self.forest, quantize.int8_forward(self.qm, x[0]))

    def warm(self):
        self.classify_one(self.pool[0])

    def run(self, seconds, tracer):
        passes, traced, untraced, labels = [], [], [], {}
        samples = [[] for _ in self.pool]  # latencies of each snapshot, one per pass
        start = time.perf_counter()
        while len(passes) < self.min_passes or time.perf_counter() - start < seconds:
            active = _toggle(tracer, len(passes) % 2 == 0)
            with _span(active, "work"):
                pass_start = time.perf_counter()
                for i, snap in enumerate(self.pool):
                    with _span(active, "op"):
                        t = time.perf_counter()
                        label = self.classify_one(snap)
                        samples[i].append(time.perf_counter() - t)
                    require(labels.setdefault(i, label) == label, f"snapshot {i} got two labels")
                dt = time.perf_counter() - pass_start
            passes.append(dt)
            (traced if active else untraced).append(dt)
        _toggle(tracer, False)
        self._check(labels)
        self.overhead = _overhead_pct(traced, untraced) if tracer is not None else None
        typical_ms = [1000.0 * statistics.median(s) for s in samples]
        metrics = {"work_s": statistics.median(passes), "op_ms": statistics.median(typical_ms)}
        return metrics, len(passes) * len(self.pool), 0

    def _check(self, labels):
        for snap in self.pool[: len(CLASSES)]:
            checks.check_band_power(features.band_power(snap.iq), snap.iq.samples)
        data = features.dataset_features(self.pool)
        x, _ = features.apply_minmax(self.stats, data[features.DOMAIN_MIXED])
        batch = forest.predict_batch(self.forest, quantize.int8_forward(self.qm, x))
        for i, label in labels.items():
            require(label == batch[i], f"snapshot {i}: streamed {label!r}, batch path {batch[i]!r}")
        truth = [s.waveform for s in self.pool]
        accuracy = float(np.mean([batch[i] == truth[i] for i in range(len(truth))]))
        require(accuracy >= 0.4, f"stream accuracy {accuracy:.3f} is not well above chance (1/6)")
        print(f"stream    accuracy on the unseen scenario: {accuracy!r}")


# ---- compress -----------------------------------------------------------

class Compress:
    """int8_forward on blocks of 1000 feature vectors, dense and conv-front models.

    Both AEs are trained for 30 epochs on the Baseline features: a dense
    (128, 128 -> 6) and a conv-front one (3->16 k5 s2 over 59 x 3, then
    128, 128 -> 6). Four blocks are drawn with replacement from the 180
    normalised Baseline feature vectors.

    Unit of work: one pass, each block through the dense and then the
    conv-front model. Operation: one block through one model; op_ms is the
    median over the pass's blocks of their two models' mean time.
    """

    block_rows = 1000  # energy.PowerModel batch size
    n_blocks = 4
    min_passes = 3
    snr_floor_db = 20.0

    def prepare(self, seed, work):
        data = BaselineData(seed)
        train_budget = budget(seed, 30, 30, 30)
        self.models = {
            "dense": int8_model(data, (128, 128), 6, train_budget),
            "conv": int8_model(data, (128, 128), 6, train_budget, conv_front=((3, 16, 5, 2),)),
        }
        rng = _rng(seed, 3)
        self.blocks = [data.X[rng.integers(0, len(data.X), self.block_rows)] for _ in range(self.n_blocks)]

    def warm(self):
        for _, qm in self.models.values():
            quantize.int8_forward(qm, self.blocks[0])

    def run(self, seconds, tracer):
        passes, pairs, traced, untraced, first = [], [], [], [], {}
        start = time.perf_counter()
        while len(passes) < self.min_passes or time.perf_counter() - start < seconds:
            active = _toggle(tracer, len(passes) % 2 == 0)
            with _span(active, "work"):
                pass_start = time.perf_counter()
                for b, block in enumerate(self.blocks):
                    pair = 0.0
                    for kind, (model, qm) in self.models.items():
                        with _span(active, f"block.{kind}"):
                            t = time.perf_counter()
                            out, info = quantize.int8_forward(qm, block, return_info=True)
                            pair += time.perf_counter() - t
                            if active is not None and kind == "dense":
                                nn.forward(model, block)  # the float reference, outside the timing
                        require(info["int32_saturations"] == 0,
                                f"{kind}: {info['int32_saturations']} int32 saturations")
                        checks.check_on_grid(qm, out)
                        first.setdefault((kind, b), out)
                    pairs.append(pair / len(self.models))
                dt = time.perf_counter() - pass_start
            passes.append(dt)
            (traced if active else untraced).append(dt)
        _toggle(tracer, False)
        self._check(first)
        self.overhead = _overhead_pct(traced, untraced) if tracer is not None else None
        metrics = {"work_s": statistics.median(passes), "op_ms": 1000.0 * statistics.median(pairs)}
        return metrics, len(passes) * self.n_blocks * len(self.models), 0

    def _check(self, first):
        for (kind, b), out in first.items():
            model, qm = self.models[kind]
            recon, _ = nn.forward(model, self.blocks[b])
            snr = checks.snr_db(recon, out)
            require(snr >= self.snr_floor_db, f"{kind} block {b}: int8 SNR {snr:.1f} dB below {self.snr_floor_db} dB")
            if b == 0:
                checks.check_int8_rows(qm, self.blocks[b][:2].tolist(), out[:2])


WORKLOADS = {"pipeline": Pipeline, "search": Search, "stream": Stream, "compress": Compress}
