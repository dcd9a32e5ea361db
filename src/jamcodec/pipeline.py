"""Config-driven orchestration: synth -> features -> [search] -> train ->
quantize -> classify -> energy -> report, with reproducible on-disk artifacts.

One table, ``SCHEMA``, maps each config section to its keys and each key to
its (default, reader) pair. ``DEFAULTS`` (those defaults and ``domain``) and
the known sections and keys derive from it. A default that a spec class
holds (TrainBudget, ForestConfig, SearchSpace, PowerModel, TrafficModel) is
taken from that class, so each default is written once.

``ExperimentConfig.from_json`` merges the file over DEFAULTS and validates
the whole config before any stage runs: one loop reads every section's leaves
through their readers, then the specs are built from the values read. An
unreadable file, a section or key that SCHEMA lacks, a wrong type, an
out-of-range value, or a dataset that a stage would refuse raises
InvalidSpecError and nothing is written. One reader per JSON type reads each
leaf: ``_int`` an int, not a bool (>= ``low`` if given); ``_real`` a finite
int or float, as a float; ``_bool`` true or false; ``_array`` a JSON array,
each item through its type's reader (DatasetSpec checks class names). The
specs own the range checks.

One ordered table, ``STAGES``, gives each stage's config subsections and the
files it reads, named by the upstream stage that writes them.
``run(config, until=name)`` walks it, calling ``stage_<name>`` for each; the
CLI's stage subcommands are ``run`` with ``until``.

The model stages (search, train, quantize, classify) see the features only
through ``_split``, which scales them by the training rows and splits them
by scenario; the trained model's metadata records that scaling.

A stage's cache key is the SHA-256 of (stage name, subsection JSON, a digest
of the jamcodec sources, the checksums of its declared reads as recorded by
their writers earlier in this run), so keys change with any source change.
``Runner.run_stage`` is the one artifact check: a rerun with an unchanged key
is skipped when every recorded output is intact, re-runs its stage when an
output is gone, and raises ChecksumMismatchError when one changed or cannot be
read. The run manifest (manifest.json) lists every artifact with its checksum
and contains no timestamps, so identical (config, seed) runs produce
byte-identical manifests; ``run`` does not rewrite an unchanged one, so a
rerun that hits every stage only reads. A run through ``until`` keeps the
previous manifest's records of the stages it did not reach; the next run
checks their keys as usual. An unreadable previous manifest is a lost cache
index, not a stop: Runner prints a ``warning:`` line and every stage runs.

The one environment override: JAMCODEC_OUTPUT_DIR replaces the configured
output directory.
"""

import collections
import contextlib
from dataclasses import dataclass, field, fields
import functools
import hashlib
import json
import math
import os
from pathlib import Path
import sys

import numpy as np

from . import __version__, energy, features as feat, forest, nn, quantize, render, search, signals
from .errors import ChecksumMismatchError, InvalidSpecError, JamcodecError, LeakageError, StageError


@dataclass(frozen=True)
class Stage:
    """One pipeline step: its config subsections and the files it reads.

    ``reads`` holds (upstream stage, path under the output dir) pairs; "*"
    stands for every output of the upstream stage.
    """

    name: str
    sections: tuple
    reads: tuple = ()


_SPLIT_READS = (("features", "features/features.csv"), ("synth", signals.DATASET_MANIFEST))
_MODEL_READS = _SPLIT_READS + (("train", "train/model.aem"),)

STAGES = (
    Stage("synth", ("dataset",)),
    Stage("features", ("features", "dataset"), (("synth", "*"),)),
    Stage("search", ("search", "train", "dataset", "domain"), _SPLIT_READS),
    Stage("train", ("train", "dataset", "domain"),
          _SPLIT_READS + (("search", "search/best_arch.json"),)),
    Stage("quantize", ("quant", "dataset", "domain"), _MODEL_READS),
    Stage("classify", ("forest", "dataset", "domain"),
          _MODEL_READS + (("quantize", "quantize/model.aeq"),)),
    Stage("energy", ("power", "traffic")),
    Stage("report", (), (("classify", "*"),)),
)
_STAGE = {s.name: s for s in STAGES}


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


@contextlib.contextmanager
def _section(name):
    """Report a missing key or a bad value met while reading config section ``name``."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError, JamcodecError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise InvalidSpecError(f"config section {name!r}: {detail}") from None


def _int(value, name, low=None) -> int:
    if type(value) is not int or low is not None and value < low:
        raise InvalidSpecError(f"{name} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")
    return value


def _real(value, name) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise InvalidSpecError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _bool(value, name) -> bool:
    if type(value) is not bool:
        raise InvalidSpecError(f"{name} must be true or false, got {value!r}")
    return value


def _array(value, name, read=None) -> tuple:
    if type(value) is not list:
        raise InvalidSpecError(f"{name} must be an array, got {value!r}")
    return tuple(value if read is None else (read(v, f"{name}[{i}]") for i, v in enumerate(value)))


def _optional(read):
    """``read``, except that null reads as None."""
    return lambda value, name: None if value is None else read(value, name)


def _tap(t, name) -> tuple:
    if type(t) is not list or len(t) != 3:
        raise InvalidSpecError(f"{name} must be an array [delay, real, imag], got {t!r}")
    return _int(t[0], f"{name}[0]"), complex(_real(t[1], f"{name}[1]"), _real(t[2], f"{name}[2]"))


def _scenario(s, name) -> signals.Scenario:
    if unknown := sorted(set(s) - {"scenario_id", "attenuation_db", "jsr_db", "multipath", "noise_seed"}):
        raise InvalidSpecError(f"{name}: unknown keys {unknown}")
    channel = signals.ChannelSpec(_real(s.get("attenuation_db", 0.0), f"{name}.attenuation_db"),
                                  None if s.get("jsr_db") is None else _real(s["jsr_db"], f"{name}.jsr_db"),
                                  _array(s.get("multipath", []), f"{name}.multipath", _tap),
                                  _int(s.get("noise_seed", 0), f"{name}.noise_seed"))
    return signals.Scenario(_int(s["scenario_id"], f"{name}.scenario_id"), channel)


_ints = functools.partial(_array, read=_int)
_positive = functools.partial(_int, low=1)

# section -> key -> (default, reader). A default that a spec class holds is taken from it.
SCHEMA = {
    "dataset": {
        "classes": (["clean", "chirp", "multitone", "pulsed", "hopper", "modulated"], _array),
        "per_class_count": (30, _int),
        "sample_rate_hz": (1_000_000.0, _real),
        "n_samples": (4096, _int),
        "scenarios": ([{"scenario_id": i, "attenuation_db": 20.0, "jsr_db": 10.0, "noise_seed": i}
                       for i in range(5)], functools.partial(_array, read=_scenario)),
        "test_scenarios": ([4], _ints),
    },
    "features": {"window_len": (1024, _int)},
    "search": {
        "enabled": (False, _bool),
        "widths": (list(search.SearchSpace.widths), _ints),
        "depths": (list(search.SearchSpace.depths), _ints),
        "latents": (list(search.SearchSpace.latents), _ints),
        "top_k": (14, _positive),
        "max_archs": (None, _optional(_positive)),
    },
    "train": {
        "hidden": ([128, 128], _ints),
        "latent_dim": (6, _int),
        "screen_epochs": (nn.TrainBudget.screen_epochs, _int),
        "retrain_epochs_max": (nn.TrainBudget.retrain_epochs_max, _int),
        "early_stop_patience": (nn.TrainBudget.early_stop_patience, _int),
        "batch_size": (nn.TrainBudget.batch_size, _int),
        "lr": (nn.TrainBudget.lr, _real),
        "val_fraction": (0.15, _real),
    },
    "quant": {"calib_count": (256, _int), "percentile": (99.9, _real)},
    "forest": {
        "n_trees": (forest.ForestConfig.n_trees, _int),
        "max_depth": (forest.ForestConfig.max_depth, _optional(_int)),
        "min_leaf": (forest.ForestConfig.min_leaf, _int),
    },
    **{name: {f.name: (f.default, _int if f.type is int else _real) for f in fields(model)}
       for name, model in (("power", energy.PowerModel), ("traffic", energy.TrafficModel))},
}
DEFAULTS = {"domain": feat.DOMAIN_MIXED,
            **{name: {key: default for key, (default, _) in rows.items()} for name, rows in SCHEMA.items()}}


def _build(cls, leaves, **extra):
    """A ``cls`` from the read leaves that name its fields, and ``extra``."""
    return cls(**{f.name: leaves[f.name] for f in fields(cls) if f.name in leaves}, **extra)


class ExperimentConfig:
    """An experiment's seed, output dir, merged config sections and the specs built from them.

    Stage keys hash ``sections``; the stages read only the typed fields, which
    the constructor builds and checks, so a bad config fails before any stage.
    """

    def __init__(self, seed, output_dir, sections):
        if unknown := sorted(sections.keys() - DEFAULTS.keys()):
            raise InvalidSpecError(f"unknown config section {unknown[0]!r}")
        self.sections = sections
        self.seed = _int(seed, "seed")
        self.output_dir = Path(output_dir)
        self.domain = sections["domain"]
        if not isinstance(self.domain, str) or self.domain not in _DOMAIN_DIM:
            raise InvalidSpecError(f"unknown domain {self.domain!r}")
        leaves = {}
        for name, rows in SCHEMA.items():
            with _section(name):
                if unknown := sorted(set(sections[name]) - rows.keys()):
                    raise InvalidSpecError(f"unknown keys {unknown}")
                leaves[name] = {key: read(sections[name][key], key) for key, (_, read) in rows.items()}
        d, sc, t, q = leaves["dataset"], leaves["search"], leaves["train"], leaves["quant"]
        with _section("dataset"):
            sample = signals.SampleSpec.from_samples(d["sample_rate_hz"], d["n_samples"])
            self.dataset = _build(signals.DatasetSpec, d, seed=self.seed, sample=sample)
        self.test_scenarios = frozenset(d["test_scenarios"])
        self.window_len = leaves["features"]["window_len"]
        with _section("features"):
            feat.check_window_len(self.window_len)
        self.search_enabled, self.top_k, self.max_archs = sc["enabled"], sc["top_k"], sc["max_archs"]
        with _section("search"):
            self.search_space = _build(search.SearchSpace, sc, input_dim=_DOMAIN_DIM[self.domain])
        self.hidden, self.latent_dim, self.val_fraction = t["hidden"], t["latent_dim"], t["val_fraction"]
        with _section("train"):
            self.budget = _build(nn.TrainBudget, t, seed=self.seed)
            if not 0.0 <= self.val_fraction < 1.0:
                raise InvalidSpecError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
            nn.check_dims(_DOMAIN_DIM[self.domain], self.hidden, self.latent_dim)
        self.calib_count, self.percentile = q["calib_count"], q["percentile"]
        with _section("quant"):
            quantize.check_percentile(self.percentile)
        with _section("forest"):
            self.forest_config = _build(forest.ForestConfig, leaves["forest"], seed=self.seed)
        with _section("power"):
            power = _build(energy.PowerModel, leaves["power"])
        with _section("traffic"):
            traffic = _build(energy.TrafficModel, leaves["traffic"])
        self.energy_report = energy.savings_report(power, traffic)
        self._check_dataset()

    def _check_dataset(self):
        """Reject a dataset that synth or features would refuse, or whose splits a later stage would."""
        w, n = self.window_len, self.dataset.sample.n_samples
        if w % feat.SPECTRAL_DIM or w > n:  # band_power's bins and windows
            raise InvalidSpecError(f"window_len {w} must be a multiple of {feat.SPECTRAL_DIM} <= n_samples {n}")
        if any(d >= n for s in self.dataset.scenarios for d, _ in s.channel.multipath_taps):
            raise InvalidSpecError(f"multipath delays must be below n_samples {n}, as apply_channel requires")
        ids = [s.scenario_id for s in self.dataset.scenarios]
        if not self.test_scenarios <= set(ids):
            raise InvalidSpecError(f"test scenarios {sorted(self.test_scenarios - set(ids))} are not listed")
        reps = [self.dataset.scenario_of(r).scenario_id in self.test_scenarios
                for r in range(self.dataset.per_class_count)]
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
        if not out_dir or type(out_dir) is not str:
            raise InvalidSpecError(f"experiment config must set output_dir to a path, got {out_dir!r}")
        sections = _merge(DEFAULTS, {k: v for k, v in raw.items() if k not in ("seed", "output_dir")})
        return cls(raw["seed"], out_dir, sections)

    def section_hash(self, *names) -> str:
        payload = {"seed": self.seed}
        for n in names:
            payload[n] = self.sections[n]
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
            fh.write(json.dumps(vars(self), sort_keys=True, indent=2))

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a saved manifest; bad JSON, a missing key or a stage record without object
        outputs raises InvalidSpecError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                d = json.load(fh)
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise InvalidSpecError(f"{path}: unreadable run manifest: {exc}") from None
        if (not isinstance(d, dict) or not {"config_hash", "tool_version", "stages"} <= d.keys()
                or not isinstance(d["stages"], dict)
                or not all(isinstance(rec, dict) and isinstance(rec.get("outputs"), dict)
                           for rec in d["stages"].values())):
            raise InvalidSpecError(f"{path}: run manifest needs config_hash, tool_version, "
                                   f"object stages, each with object outputs")
        return cls(config_hash=d["config_hash"], tool_version=d["tool_version"], stages=d["stages"])


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
        hit reads and hashes every recorded output and writes nothing. A
        recorded output that is gone re-runs the stage; one whose bytes
        changed, or that cannot be read, raises ChecksumMismatchError.
        """
        stage = _STAGE[name]
        inputs = self._inputs(stage)
        key = self._stage_key(name, stage.sections, inputs)
        prev = (self.previous.stages.get(name) if self.previous else None) or {}
        if prev.get("key") == key:
            out = os.fspath(self.out)
            for rel, sha in prev["outputs"].items():
                try:
                    digest = _sha_file(os.path.join(out, rel))
                except FileNotFoundError:
                    break
                except OSError as exc:  # a directory in its place, no permission, ...
                    raise ChecksumMismatchError(
                        f"stage {name}: cached artifact {rel} is unreadable: {exc}") from None
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
    except (ValueError, KeyError, TypeError, InvalidSpecError) as exc:  # bad JSON, a missing key, a bad leaf
        raise InvalidSpecError(f"{path}: unreadable artifact: {exc!r}") from None


def _best_arch(path) -> tuple:
    """(hidden widths, latent dim) from search's best_arch.json."""
    return _read_json(path, lambda best: (_array(best["hidden"], "hidden", _int),
                                          _int(best["latent_dim"], "latent_dim")))


def _metrics_table(path) -> list:
    """The report's rows (task, variant, F2, F0.5) from classify's metrics.json."""
    return _read_json(path, lambda metrics: [
        f"{r['task']:<13} {r['model_variant']:<13} {r['f2']:.3f}   {r['f05']:.3f}"
        for r in sorted(metrics, key=lambda r: (r["task"], r["model_variant"]))
    ])


@_cached
def stage_synth(runner: Runner) -> list:
    return signals.write_dataset(runner.out, signals.make_dataset(runner.cfg.dataset))


@_cached
def stage_features(runner: Runner) -> list:
    fdir = runner.out / "features"
    fdir.mkdir(exist_ok=True)
    data = feat.dataset_features(signals.read_dataset(runner.out), window_len=runner.cfg.window_len)
    feat.write_feature_csv(
        fdir / "features.csv", data[feat.DOMAIN_MIXED],
        data["class_labels"], data["detection_labels"],
    )
    return [fdir / "features.csv"]


Split = collections.namedtuple("Split", "X labels train fit val stats train_scenarios")


def _split(runner: Runner) -> Split:
    """The model stages' one view of features.csv and the dataset manifest.

    ``X`` is the configured domain, min-max scaled by ``stats``, the training
    rows' statistics; ``labels`` maps each task, detection first, to its row
    labels; ``train`` marks the rows of the training scenarios (the test rows
    are ``~train``); ``fit`` and ``val`` are the seeded partition of the scaled
    training rows; ``train_scenarios`` lists the training scenario ids.
    """
    data = feat.read_feature_csv(runner.out / "features" / "features.csv")
    records = signals.read_manifest(runner.out / signals.DATASET_MANIFEST)
    scenario_ids = np.asarray([r["scenario_id"] for r in records], dtype=np.int64)
    if len(scenario_ids) != data[feat.DOMAIN_MIXED].shape[0]:
        raise StageError("feature rows and dataset manifest are out of step")
    train = ~np.isin(scenario_ids, sorted(runner.cfg.test_scenarios))
    stats = feat.fit_minmax(data[runner.cfg.domain][train])
    X, _ = feat.apply_minmax(stats, data[runner.cfg.domain])
    order = signals.derived_rng(runner.cfg.seed, 0x7A1).permutation(int(train.sum()))
    n_val = max(1, int(len(order) * runner.cfg.val_fraction))
    labels = {forest.TASK_DETECTION: data["detection_labels"],
              forest.TASK_CLASSIFICATION: data["class_labels"]}
    return Split(X, labels, train, X[train][order[n_val:]], X[train][order[:n_val]], stats,
                 sorted(set(scenario_ids[train].tolist())))


@_cached
def stage_search(runner: Runner) -> list:
    sdir = runner.out / "search"
    cfg = runner.cfg
    sdir.mkdir(exist_ok=True)
    split = _split(runner)
    archs = search.enumerate_archs(cfg.search_space)[: cfg.max_archs]
    ranked = search.screen(archs, split.fit, split.val, cfg.budget)
    finalists = search.retrain_topk(ranked, min(cfg.top_k, len(ranked)), split.fit, split.val, cfg.budget)
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


@_cached
def stage_train(runner: Runner) -> list:
    tdir = runner.out / "train"
    tdir.mkdir(exist_ok=True)
    split = _split(runner)
    hidden, latent = runner.cfg.hidden, runner.cfg.latent_dim
    if "search" in runner.manifest.stages:  # search ran in this run
        hidden, latent = _best_arch(runner.out / "search" / "best_arch.json")

    model = nn.build_autoencoder(split.X.shape[1], hidden, latent, seed=runner.cfg.seed)
    model, history = nn.train_autoencoder(model, split.fit, split.val, runner.cfg.budget)
    model.metadata = {
        "train_scenarios": split.train_scenarios,
        "domain": runner.cfg.domain,
        "norm_stats": {"min": split.stats.min.tolist(), "max": split.stats.max.tolist()},
    }
    nn.save_model(tdir / "model.aem", model)
    with open(tdir / "history.json", "w", encoding="utf-8") as fh:
        json.dump(history, fh, sort_keys=True)
    return [tdir / "model.aem", tdir / "history.json"]


@_cached
def stage_quantize(runner: Runner) -> list:
    qdir = runner.out / "quantize"
    qdir.mkdir(exist_ok=True)
    model = nn.load_model(runner.out / "train" / "model.aem")
    split = _split(runner)
    X_train = split.X[split.train]
    cal = quantize.calibrate(model, X_train[: runner.cfg.calib_count], percentile=runner.cfg.percentile)
    qm = quantize.quantize_model(model, cal)
    quantize.save_quantized(qdir / "model.aeq", qm)
    report = quantize.quant_report(model, qm, X_train)
    with open(qdir / "quant_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
    return [qdir / "model.aeq", qdir / "quant_report.json"]


@_cached
def stage_classify(runner: Runner) -> list:
    cdir = runner.out / "classify"
    cdir.mkdir(exist_ok=True)
    model = nn.load_model(runner.out / "train" / "model.aem")
    qm = quantize.load_quantized(runner.out / "quantize" / "model.aeq")
    leaked = sorted(runner.cfg.test_scenarios.intersection(model.metadata["train_scenarios"]))
    if leaked:
        raise LeakageError(f"AE was trained on test scenarios {leaked}")
    split = _split(runner)
    reps = {forest.RAW: split.X, forest.FLOAT_RECON: nn.forward(model, split.X)[0],
            forest.INT8_RECON: quantize.int8_forward(qm, split.X)}
    results = forest.evaluate_protocol(reps, split.labels, split.train, runner.cfg.forest_config)
    forest.write_metrics_json(cdir / "metrics.json", results)
    outputs = [cdir / "metrics.json"]
    for variant, tasks in results.items():
        for task, r in tasks.items():
            p = cdir / f"confusion_{variant}_{task}.csv"
            forest.write_confusion_csv(p, r["confusion"])
            outputs.append(p)
    return outputs


@_cached
def stage_energy(runner: Runner) -> list:
    edir = runner.out / "energy"
    edir.mkdir(exist_ok=True)
    rep = runner.cfg.energy_report
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
    recorded = runner.manifest.stages["classify"]["outputs"]
    for csv_path in sorted(runner.out / rel for rel in recorded if rel.endswith(".csv")):
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

    Search runs when the config enables it or when it is ``until``. The
    manifest is saved, also after a failed stage, unless it equals the
    previous one: a rerun that hits every stage writes nothing.
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
        if runner.previous is None or vars(runner.manifest) != vars(runner.previous):
            runner.manifest.save(runner.manifest_path)
    return runner.manifest
