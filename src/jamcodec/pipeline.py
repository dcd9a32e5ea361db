"""Config-driven orchestration: synth -> features -> [search] -> train ->
quantize -> classify -> energy -> report, with reproducible on-disk artifacts.

``ExperimentConfig.from_json`` validates the whole config before any stage
runs: it builds every typed spec the stages read (dataset, training budget,
forest, power and traffic models, ...), so an unreadable file, a section or
key that DEFAULTS lacks, a wrong type, an out-of-range value, or a dataset
that leaves a split or the calibration set short raises InvalidSpecError and
nothing is written.

One ordered table, ``STAGES``, gives each stage's config subsections and the
files it reads, named by the upstream stage that writes them.
``run(config, until=name)`` walks it, calling ``stage_<name>`` for each; the
CLI's stage subcommands are ``run`` with ``until``.

A stage's cache key is the SHA-256 of (stage name, subsection JSON, a digest
of the jamcodec sources, the checksums of its declared reads as recorded by
their writers earlier in this run), so keys change with any source change.
``Runner.run_stage`` is the one artifact check: a rerun with an unchanged key
is skipped when every recorded output is intact, re-runs its stage when an
output is gone, and raises ChecksumMismatchError when one changed. The run manifest
(manifest.json) lists every artifact with its checksum and contains no
timestamps, so identical (config, seed) runs produce byte-identical
manifests. A run through ``until`` keeps the previous manifest's records of
the stages it did not reach; the next run checks their keys as usual. An
unreadable previous manifest is a lost cache index, not a stop: Runner
prints a ``warning:`` line and every stage runs.

The one environment override: JAMCODEC_OUTPUT_DIR replaces the configured
output directory.
"""

import contextlib
from dataclasses import dataclass, field
import functools
import hashlib
import json
import os
from pathlib import Path
import sys

import numpy as np

from . import __version__, energy, features as feat, forest, nn, quantize, render, search, signals
from .errors import ChecksumMismatchError, InvalidLengthError, InvalidSpecError, StageError


@dataclass(frozen=True)
class Stage:
    """One pipeline step: its config subsections and the files it reads.

    ``reads`` holds (upstream stage, path under the output dir) pairs; "*"
    stands for every output of the upstream stage.
    """

    name: str
    sections: tuple
    reads: tuple = ()


_SPLIT_READS = (("features", "features/features.csv"), ("synth", "data/manifest.jsonl"))
_MODEL_READS = _SPLIT_READS + (("train", "train/model.aem"), ("train", "train/normstats.json"))

STAGES = (
    Stage("synth", ("dataset",)),
    Stage("features", ("features", "dataset"), (("synth", "*"),)),
    Stage("search", ("search", "train", "dataset", "domain"), _SPLIT_READS),
    Stage("train", ("train", "dataset", "domain", "search"),
          _SPLIT_READS + (("search", "search/best_arch.json"),)),
    Stage("quantize", ("quant", "dataset", "domain"), _MODEL_READS),
    Stage("classify", ("forest", "dataset", "domain"),
          _MODEL_READS + (("quantize", "quantize/model.aeq"),)),
    Stage("energy", ("power", "traffic")),
    Stage("report", ("forest",), (("classify", "*"),)),
)
_STAGE = {s.name: s for s in STAGES}

DEFAULTS = {
    "dataset": {
        "classes": ["clean", "chirp", "multitone", "pulsed", "hopper", "modulated"],
        "per_class_count": 30,
        "sample_rate_hz": 1_000_000.0,
        "n_samples": 4096,
        "scenarios": [
            {"scenario_id": i, "attenuation_db": 20.0, "jsr_db": 10.0, "noise_seed": i}
            for i in range(5)
        ],
        "test_scenarios": [4],
    },
    "domain": "mixed",
    "features": {"window_len": 1024},
    "search": {
        "enabled": False,
        "widths": [32, 64, 128],
        "depths": [2, 3],
        "latents": [3, 4, 5, 6, 7, 8, 9, 10],
        "top_k": 14,
        "max_archs": None,
    },
    "train": {
        "hidden": [128, 128],
        "latent_dim": 6,
        "screen_epochs": 40,
        "retrain_epochs_max": 250,
        "early_stop_patience": 20,
        "batch_size": 32,
        "lr": 1e-3,
        "val_fraction": 0.15,
    },
    "quant": {"calib_count": 256, "percentile": 99.9},
    "forest": {"n_trees": 120, "max_depth": None, "min_leaf": 1},
    "power": {},
    "traffic": {},
}


def _merge(base, override):
    out = dict(base)
    for k, v in (override or {}).items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


_DOMAIN_DIM = {feat.DOMAIN_SPECTRAL: feat.SPECTRAL_DIM, feat.DOMAIN_TEMPORAL: feat.TEMPORAL_DIM,
               feat.DOMAIN_MIXED: feat.MIXED_DIM}


def _ints(values) -> tuple:
    return tuple(int(v) for v in values)


def _check_known_keys(sections):
    """Reject a section or key that DEFAULTS lacks: the stages would never read it.

    Scenario entries are list items and keep their optional keys; power and
    traffic keys are checked by the models they are passed to.
    """
    for name, value in sections.items():
        if name not in DEFAULTS:
            raise InvalidSpecError(f"unknown config section {name!r}")
        known = DEFAULTS[name]
        if known and isinstance(known, dict) and isinstance(value, dict):
            unknown = sorted(set(value) - set(known))
            if unknown:
                raise InvalidSpecError(f"config section {name!r}: unknown keys {unknown}")


@contextlib.contextmanager
def _section(name):
    """Report a missing key or a bad value met while reading config section ``name``."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, InvalidLengthError, InvalidSpecError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise InvalidSpecError(f"config section {name!r}: {detail}") from None


class ExperimentConfig:
    """An experiment's seed, output dir, merged config sections and the specs built from them.

    Stage keys hash ``sections``; the stages read only the typed fields, which
    the constructor builds and checks, so a bad config fails before any stage.
    """

    def __init__(self, seed, output_dir, sections):
        _check_known_keys(sections)
        self.sections = sections
        with _section("seed"):
            self.seed = int(seed)
        with _section("output_dir"):
            self.output_dir = Path(output_dir)
        with _section("dataset"):
            d = sections["dataset"]
            self.dataset = signals.DatasetSpec(
                classes=tuple(d["classes"]),
                per_class_count=int(d["per_class_count"]),
                scenarios=tuple(
                    signals.Scenario(
                        scenario_id=int(s["scenario_id"]),
                        channel=signals.ChannelSpec(
                            attenuation_db=float(s.get("attenuation_db", 0.0)),
                            jsr_db=None if s.get("jsr_db") is None else float(s["jsr_db"]),
                            multipath_taps=tuple(
                                (int(t[0]), complex(t[1], t[2])) for t in s.get("multipath", [])
                            ),
                            noise_seed=int(s.get("noise_seed", 0)),
                        ),
                    )
                    for s in d["scenarios"]
                ),
                seed=self.seed,
                sample=signals.SampleSpec.from_samples(float(d["sample_rate_hz"]), int(d["n_samples"])),
            )
            self.test_scenarios = frozenset(_ints(d["test_scenarios"]))
        self.domain = sections["domain"]
        if not isinstance(self.domain, str) or self.domain not in _DOMAIN_DIM:
            raise InvalidSpecError(f"unknown domain {self.domain!r}")
        with _section("features"):
            self.window_len = int(sections["features"]["window_len"])
            feat.check_window_len(self.window_len)
        with _section("search"):
            sc = sections["search"]
            self.search_enabled = sc["enabled"]
            if not isinstance(self.search_enabled, bool):
                raise TypeError(f"enabled must be true or false, got {self.search_enabled!r}")
            self.search_space = search.SearchSpace(
                input_dim=_DOMAIN_DIM[self.domain], widths=_ints(sc["widths"]),
                depths=_ints(sc["depths"]), latents=_ints(sc["latents"]),
            )
            self.max_archs = int(sc["max_archs"]) if sc.get("max_archs") else None
            self.top_k = int(sc["top_k"])
            if self.top_k < 1:
                raise InvalidSpecError(f"top_k must be at least 1, got {self.top_k}")
        with _section("train"):
            t = sections["train"]
            self.budget = nn.TrainBudget(
                screen_epochs=int(t["screen_epochs"]),
                retrain_epochs_max=int(t["retrain_epochs_max"]),
                early_stop_patience=int(t["early_stop_patience"]),
                batch_size=int(t["batch_size"]),
                seed=self.seed,
                lr=float(t["lr"]),
            )
            self.val_fraction = float(t["val_fraction"])
            if not 0.0 <= self.val_fraction < 1.0:
                raise InvalidSpecError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
            self.hidden, self.latent_dim = _ints(t["hidden"]), int(t["latent_dim"])
            nn.check_dims(_DOMAIN_DIM[self.domain], self.hidden, self.latent_dim)
        with _section("quant"):
            self.calib_count = int(sections["quant"]["calib_count"])
            self.percentile = quantize.check_percentile(sections["quant"]["percentile"])
        with _section("forest"):
            f = sections["forest"]
            self.forest_config = forest.ForestConfig(
                n_trees=int(f["n_trees"]),
                max_depth=None if f.get("max_depth") is None else int(f["max_depth"]),
                min_leaf=int(f["min_leaf"]),
                seed=self.seed,
            )
        with _section("power"):
            self.power = energy.PowerModel(**sections["power"])
        with _section("traffic"):
            self.traffic = energy.TrafficModel(**sections["traffic"])
        self._check_split_sizes()

    def _check_split_sizes(self):
        """Reject a dataset whose splits a later stage would refuse."""
        ids = [s.scenario_id for s in self.dataset.scenarios]
        if not self.test_scenarios <= set(ids):
            raise InvalidSpecError(f"test scenarios {sorted(self.test_scenarios - set(ids))} are not listed")
        # make_dataset puts repetition r of every class in scenario ids[r % len(ids)]
        reps = [ids[r % len(ids)] in self.test_scenarios for r in range(self.dataset.per_class_count)]
        n_test = len(self.dataset.classes) * sum(reps)
        n_train = len(self.dataset.classes) * len(reps) - n_test
        if not n_test or min(n_train, self.calib_count) < 16:
            raise InvalidSpecError(f"the dataset gives {n_train} training and {n_test} test snapshots; a run "
                                   "needs test snapshots and >= 16 training vectors (and calib_count >= 16)")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Read a config file and merge it over DEFAULTS; any problem raises InvalidSpecError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # no file, bad UTF-8 or bad JSON
            raise InvalidSpecError(f"{path}: unreadable config: {exc}") from None
        if not isinstance(raw, dict) or "seed" not in raw:
            raise InvalidSpecError("experiment config must be an object that sets a seed")
        out_dir = os.environ.get("JAMCODEC_OUTPUT_DIR") or raw.get("output_dir")
        if not out_dir:
            raise InvalidSpecError("experiment config must set output_dir")
        sections = _merge(DEFAULTS, {k: v for k, v in raw.items() if k not in ("seed", "output_dir")})
        return cls(raw["seed"], out_dir, sections)

    def section_hash(self, *names) -> str:
        payload = {"seed": self.seed}
        for n in names:
            payload[n] = self.sections.get(n, {})
        return _sha_bytes(json.dumps(payload, sort_keys=True).encode())


def _sha_bytes(b) -> str:
    return hashlib.sha256(b).hexdigest()


def _sha_file(path) -> str:
    with open(path, "rb") as fh:
        return _sha_bytes(fh.read())


@functools.cache
def _source_digest() -> str:
    """SHA-256 over the jamcodec source files, computed once per process."""
    lines = [f"{p.name} {_sha_file(p)}" for p in sorted(Path(__file__).parent.glob("*.py"))]
    return _sha_bytes("\n".join(lines).encode())


@dataclass
class RunManifest:
    config_hash: str
    tool_version: str
    stages: dict = field(default_factory=dict)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(vars(self), fh, sort_keys=True, indent=2)

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a saved manifest; bad JSON or a missing key raises InvalidSpecError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                d = json.load(fh)
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise InvalidSpecError(f"{path}: unreadable run manifest: {exc}") from None
        if (not isinstance(d, dict) or not {"config_hash", "tool_version"} <= d.keys()
                or not isinstance(d.get("stages", {}), dict)):
            raise InvalidSpecError(f"{path}: run manifest needs config_hash, tool_version, object stages")
        return cls(config_hash=d["config_hash"], tool_version=d["tool_version"],
                   stages=d.get("stages", {}))


class Runner:
    """Executes stages with content-addressed caching under one output dir."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.out = cfg.output_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out / "manifest.json"
        self.previous = None
        if self.manifest_path.exists():
            try:
                self.previous = RunManifest.load(self.manifest_path)
            except InvalidSpecError as exc:  # only the cache index: every stage misses
                print(f"warning: {exc}; running every stage", file=sys.stderr)
        self.manifest = RunManifest(
            config_hash=self.cfg.section_hash(*self.cfg.sections.keys()),
            tool_version=__version__,
        )
        self.cache_hits = []

    def _stage_key(self, name, sections, inputs) -> str:
        parts = [name, self.cfg.section_hash(*sections), _source_digest()]
        for rel in sorted(inputs):
            parts += [rel, inputs[rel]]
        return _sha_bytes("\n".join(parts).encode())

    def _inputs(self, stage) -> dict:
        """Checksums of a stage's declared reads, from this run's records of their writers."""
        inputs = {}
        for upstream, rel in stage.reads:
            if upstream not in self.manifest.stages:  # run() leaves out only search
                continue
            written = self.manifest.stages[upstream]["outputs"]
            if rel != "*" and rel not in written:
                raise StageError(f"stage {stage.name}: {upstream} recorded no {rel}")
            inputs.update(written if rel == "*" else {rel: written[rel]})
        return inputs

    def run_stage(self, name, func) -> None:
        """Run one stage unless its cache key matches the previous run and its outputs are intact.

        ``func()`` does the stage's work and returns the paths it wrote. A
        recorded output that is gone re-runs the stage; one whose bytes
        changed raises ChecksumMismatchError.
        """
        stage = _STAGE[name]
        inputs = self._inputs(stage)
        key = self._stage_key(name, stage.sections, inputs)
        prev = (self.previous.stages.get(name) if self.previous else None) or {}
        if prev.get("key") == key:
            for rel, sha in prev.get("outputs", {}).items():
                try:
                    digest = _sha_file(self.out / rel)
                except FileNotFoundError:
                    break
                if digest != sha:
                    raise ChecksumMismatchError(f"stage {name}: cached artifact {rel} is corrupt")
            else:
                self.manifest.stages[name] = prev
                self.cache_hits.append(name)
                return
        out_paths = func()
        self.manifest.stages[name] = {
            "key": key,
            "inputs": inputs,
            "outputs": {str(p.relative_to(self.out)): _sha_file(p) for p in out_paths},
        }


def _cached(work):
    """Make ``stage_<name>(runner)``: ``work(runner)`` behind ``Runner.run_stage``'s cache check."""
    name = work.__name__.removeprefix("stage_")

    @functools.wraps(work)
    def stage(runner: Runner) -> None:
        runner.run_stage(name, lambda: work(runner))

    return stage


def _read_json(path, parse):
    """``parse`` of a JSON artifact's value; a broken file raises InvalidSpecError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (ValueError, KeyError, TypeError) as exc:  # bad UTF-8 or JSON, a missing key, a wrong type
        raise InvalidSpecError(f"{path}: unreadable artifact: {exc!r}") from None


def _best_arch(path) -> tuple:
    """(hidden widths, latent dim) from search's best_arch.json."""
    return _read_json(path, lambda best: (_ints(best["hidden"]), int(best["latent_dim"])))


def _metrics_table(path) -> list:
    """The report's rows (task, variant, F2, F0.5) from classify's metrics.json."""
    return _read_json(path, lambda metrics: [
        f"{r['task']:<13} {r['model_variant']:<13} {r['f2']:.3f}   {r['f05']:.3f}"
        for r in sorted(metrics, key=lambda r: (r["task"], r["model_variant"]))
    ])


@_cached
def stage_synth(runner: Runner) -> list:
    data_dir = runner.out / "data"
    data_dir.mkdir(exist_ok=True)
    snapshots = signals.make_dataset(runner.cfg.dataset)
    records = []
    for i, snap in enumerate(snapshots):
        rel = f"data/snap_{i:05d}.iqf"
        signals.write_iq(runner.out / rel, snap.iq)
        records.append({
            "file": rel,
            "class": snap.waveform,
            "detection": snap.detection_label,
            "scenario_id": snap.scenario_id,
            "seed": snap.seed,
        })
    signals.write_manifest(data_dir / "manifest.jsonl", records)
    return [data_dir / "manifest.jsonl"] + [runner.out / r["file"] for r in records]


def _load_snapshots(runner: Runner):
    records = signals.read_manifest(runner.out / "data" / "manifest.jsonl")
    snaps = []
    for rec in records:
        iq = signals.read_iq(runner.out / rec["file"])
        snaps.append(signals.LabeledSnapshot(
            iq=iq, waveform=rec["class"], detection_label=rec["detection"],
            scenario_id=int(rec["scenario_id"]), seed=int(rec.get("seed", 0)),
        ))
    return snaps


@_cached
def stage_features(runner: Runner) -> list:
    fdir = runner.out / "features"
    fdir.mkdir(exist_ok=True)
    snaps = _load_snapshots(runner)
    data = feat.dataset_features(snaps, window_len=runner.cfg.window_len)
    feat.write_feature_csv(
        fdir / "features.csv", data[feat.DOMAIN_MIXED],
        data["class_labels"], data["detection_labels"],
    )
    return [fdir / "features.csv"]


def _splits(runner: Runner):
    """(data, X of the configured domain, train mask, scenario ids, train ids, test ids)."""
    data = feat.read_feature_csv(runner.out / "features" / "features.csv")
    records = signals.read_manifest(runner.out / "data" / "manifest.jsonl")
    scenario_ids = np.asarray([int(r["scenario_id"]) for r in records], dtype=np.int64)
    if len(scenario_ids) != data[feat.DOMAIN_MIXED].shape[0]:
        raise StageError("feature rows and dataset manifest are out of step")
    test_ids = runner.cfg.test_scenarios
    train_ids = frozenset(scenario_ids.tolist()) - test_ids
    X = data[runner.cfg.domain]
    return data, X, np.isin(scenario_ids, sorted(train_ids)), scenario_ids, train_ids, test_ids


@_cached
def stage_search(runner: Runner) -> list:
    sdir = runner.out / "search"
    cfg = runner.cfg
    sdir.mkdir(exist_ok=True)
    _, X, train_mask, _, _, _ = _splits(runner)
    X_train, _ = _normalized_train(X, train_mask)
    tr, val = _train_val(runner, X_train)
    archs = search.enumerate_archs(cfg.search_space)[: cfg.max_archs]
    ranked = search.screen(archs, tr, val, cfg.budget)
    finalists = search.retrain_topk(ranked, min(cfg.top_k, len(ranked)), tr, val, cfg.budget)
    retrained = frozenset(f.arch.descriptor() for f in finalists)
    search.write_search_report(sdir / "search_report.csv", ranked, retrained=retrained)
    best = min(finalists, key=lambda r: r.val_mse)
    with open(sdir / "best_arch.json", "w", encoding="utf-8") as fh:
        json.dump({
            "hidden": list(best.arch.hidden),
            "latent_dim": best.arch.latent_dim,
            "val_mse": best.val_mse,
        }, fh, sort_keys=True)
    return [sdir / "search_report.csv", sdir / "best_arch.json"]


def _normalized_train(X, train_mask):
    stats = feat.fit_minmax(X[train_mask])
    X_all, _ = feat.apply_minmax(stats, X)
    return X_all[train_mask], stats


def _train_val(runner: Runner, X_train):
    order = signals.derived_rng(runner.cfg.seed, 0x7A1).permutation(X_train.shape[0])
    n_val = max(1, int(len(order) * runner.cfg.val_fraction))
    return X_train[order[n_val:]], X_train[order[:n_val]]


@_cached
def stage_train(runner: Runner) -> list:
    tdir = runner.out / "train"
    tdir.mkdir(exist_ok=True)
    _, X, train_mask, _, train_ids, _ = _splits(runner)
    X_train, stats = _normalized_train(X, train_mask)
    tr, val = _train_val(runner, X_train)

    hidden, latent = runner.cfg.hidden, runner.cfg.latent_dim
    if "search" in runner.manifest.stages:  # search ran in this run
        hidden, latent = _best_arch(runner.out / "search" / "best_arch.json")

    model = nn.build_autoencoder(X.shape[1], hidden, latent, seed=runner.cfg.seed)
    model, history = nn.train_autoencoder(model, tr, val, runner.cfg.budget)
    model.metadata = {
        "train_scenarios": sorted(int(s) for s in train_ids),
        "domain": runner.cfg.domain,
        "norm_stats": {"min": stats.min.tolist(), "max": stats.max.tolist()},
    }
    nn.save_model(tdir / "model.aem", model)
    stats.save(tdir / "normstats.json")
    with open(tdir / "history.json", "w", encoding="utf-8") as fh:
        json.dump(history, fh, sort_keys=True)
    return [tdir / "model.aem", tdir / "normstats.json", tdir / "history.json"]


@_cached
def stage_quantize(runner: Runner) -> list:
    qdir = runner.out / "quantize"
    qdir.mkdir(exist_ok=True)
    model = nn.load_model(runner.out / "train" / "model.aem")
    _, X, train_mask, _, _, _ = _splits(runner)
    stats = feat.NormStats.load(runner.out / "train" / "normstats.json")
    X_norm, _ = feat.apply_minmax(stats, X)
    calib = X_norm[train_mask][: runner.cfg.calib_count]
    cal = quantize.calibrate(model, calib, percentile=runner.cfg.percentile)
    qm = quantize.quantize_model(model, cal)
    quantize.save_quantized(qdir / "model.aeq", qm)
    report = quantize.quant_report(model, qm, X_norm[train_mask])
    with open(qdir / "quant_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
    return [qdir / "model.aeq", qdir / "quant_report.json"]


@_cached
def stage_classify(runner: Runner) -> list:
    cdir = runner.out / "classify"
    cdir.mkdir(exist_ok=True)
    model = nn.load_model(runner.out / "train" / "model.aem")
    qm = quantize.load_quantized(runner.out / "quantize" / "model.aeq")
    data, X, _, scenario_ids, train_ids, test_ids = _splits(runner)
    stats = feat.NormStats.load(runner.out / "train" / "normstats.json")
    X_norm, _ = feat.apply_minmax(stats, X)
    dataset = forest.FeatureDataset(
        X=X_norm,
        class_labels=data["class_labels"],
        detection_labels=data["detection_labels"],
        scenario_ids=scenario_ids,
        train_scenarios=frozenset(train_ids),
        test_scenarios=frozenset(test_ids),
    )
    report = forest.evaluate_protocol(dataset, model, qm, runner.cfg.forest_config)
    forest.write_metrics_json(cdir / "metrics.json", report)
    outputs = [cdir / "metrics.json"]
    for variant, tasks in report.results.items():
        for task, r in tasks.items():
            p = cdir / f"confusion_{variant}_{task}.csv"
            forest.write_confusion_csv(p, r["confusion"])
            outputs.append(p)
    return outputs


@_cached
def stage_energy(runner: Runner) -> list:
    edir = runner.out / "energy"
    edir.mkdir(exist_ok=True)
    rep = energy.savings_report(runner.cfg.power, runner.cfg.traffic)
    with open(edir / "energy.json", "w", encoding="utf-8") as fh:
        fh.write(rep.dumps())
    with open(edir / "energy.txt", "w", encoding="utf-8") as fh:
        fh.write(energy.format_table(rep) + "\n")
    return [edir / "energy.json", edir / "energy.txt"]


@_cached
def stage_report(runner: Runner) -> list:
    rdir = runner.out / "report"
    cdir = runner.out / "classify"
    rdir.mkdir(exist_ok=True)
    lines = ["task          variant       F2      F0.5", "-" * 44] + _metrics_table(cdir / "metrics.json")
    summary = rdir / "summary.txt"
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    outputs = [summary]
    for csv_path in sorted(cdir.glob("confusion_*.csv")):
        with open(csv_path, "r", encoding="utf-8") as fh:
            rows = [r.strip().split(",") for r in fh if r.strip()]
        labels = tuple(rows[0][1:])
        counts = np.asarray([[int(v) for v in r[1:]] for r in rows[1:]], dtype=np.int64)
        cm = forest.ConfusionMatrix(counts, labels)
        svg = rdir / (csv_path.stem + ".svg")
        render.write_confusion_svg(svg, cm, title=csv_path.stem)
        outputs.append(svg)
    return outputs


def run(config_path, until=None) -> RunManifest:
    """Walk STAGES for a config file, through stage ``until`` if given; returns the manifest.

    Search runs when the config enables it or when it is ``until``.
    """
    cfg = ExperimentConfig.from_json(config_path)
    runner = Runner(cfg)
    try:
        for i, stage in enumerate(STAGES):
            if stage.name != "search" or cfg.search_enabled or until == "search":
                globals()[f"stage_{stage.name}"](runner)  # looked up per call, so a wrapper sees it
            if stage.name == until:
                for later in STAGES[i + 1:]:
                    if runner.previous and later.name in runner.previous.stages:
                        runner.manifest.stages[later.name] = runner.previous.stages[later.name]
                break
    finally:
        runner.manifest.save(runner.manifest_path)
    return runner.manifest
