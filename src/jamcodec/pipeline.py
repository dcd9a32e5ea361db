"""Config-driven orchestration: synth -> features -> [search] -> train ->
quantize -> classify -> energy -> report, with reproducible on-disk artifacts.

One ordered table, ``STAGES``, gives each stage's config subsections and the
files it reads, named by the upstream stage that writes them.
``run(config, until=name)`` walks it, calling ``stage_<name>`` for each; the
CLI's stage subcommands are ``run`` with ``until``.

A stage's cache key is the SHA-256 of (stage name, subsection JSON, a digest
of the jamcodec sources, the checksums of its declared reads as recorded by
their writers earlier in this run), so keys change with any source change. A
rerun with an unchanged key and intact outputs is skipped. The run manifest
(manifest.json) lists every artifact with its checksum and contains no
timestamps, so identical (config, seed) runs produce byte-identical
manifests. A run through ``until`` keeps the previous manifest's records of
the stages it did not reach; the next run checks their keys as usual.

The one environment override: JAMCODEC_OUTPUT_DIR replaces the configured
output directory.
"""

from dataclasses import dataclass, field
import functools
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from . import __version__, energy, features as feat, forest, nn, quantize, render, search, signals
from .errors import ChecksumMismatchError, InvalidSpecError, StageError


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


@dataclass
class ExperimentConfig:
    seed: int
    output_dir: Path
    sections: dict

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if "seed" not in raw:
            raise InvalidSpecError("experiment config must set a seed")
        out_dir = os.environ.get("JAMCODEC_OUTPUT_DIR") or raw.get("output_dir")
        if not out_dir:
            raise InvalidSpecError("experiment config must set output_dir")
        sections = _merge(DEFAULTS, {k: v for k, v in raw.items() if k not in ("seed", "output_dir")})
        return cls(seed=int(raw["seed"]), output_dir=Path(out_dir), sections=sections)

    def section(self, name):
        return self.sections.get(name, {})

    def section_hash(self, *names) -> str:
        payload = {"seed": self.seed}
        for n in names:
            payload[n] = self.sections.get(n, {})
        return _sha_bytes(json.dumps(payload, sort_keys=True).encode())


def _sha_bytes(b) -> str:
    return hashlib.sha256(b).hexdigest()


def _sha_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()


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

    def to_json(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "stages": {k: self.stages[k] for k in sorted(self.stages)},
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, sort_keys=True, indent=2)

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


def audit(manifest: RunManifest, out_dir) -> list:
    """Verify every recorded artifact checksum; returns mismatch messages."""
    problems = []
    out_dir = Path(out_dir)
    for stage, rec in manifest.stages.items():
        for rel, sha in {**rec.get("inputs", {}), **rec.get("outputs", {})}.items():
            p = out_dir / rel
            if not p.exists():
                problems.append(f"{stage}: missing artifact {rel}")
            elif _sha_file(p) != sha:
                problems.append(f"{stage}: checksum mismatch for {rel}")
    return problems


class Runner:
    """Executes stages with content-addressed caching under one output dir."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.out = Path(cfg.output_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out / "manifest.json"
        self.previous = (
            RunManifest.load(self.manifest_path) if self.manifest_path.exists() else None
        )
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

    def run_stage(self, name, func) -> list:
        """Run one stage unless its cache key matches the previous run."""
        stage = _STAGE[name]
        inputs = self._inputs(stage)
        key = self._stage_key(name, stage.sections, inputs)
        prev = (self.previous.stages.get(name) if self.previous else None) or {}
        if prev.get("key") == key:
            outputs = {}
            for rel, sha in prev.get("outputs", {}).items():
                p = self.out / rel
                if not p.exists():
                    outputs = None
                    break
                if _sha_file(p) != sha:
                    raise ChecksumMismatchError(f"stage {name}: cached artifact {rel} is corrupt")
                outputs[rel] = sha
            if outputs is not None:
                self.manifest.stages[name] = dict(prev)
                self.cache_hits.append(name)
                return [self.out / rel for rel in outputs]
        out_paths = func()
        self.manifest.stages[name] = {
            "key": key,
            "inputs": inputs,
            "outputs": {str(p.relative_to(self.out)): _sha_file(p) for p in out_paths},
        }
        return out_paths


def _cached(work):
    """Make ``stage_<name>(runner)``: ``work(runner)`` behind ``Runner.run_stage``'s cache check."""
    name = work.__name__.removeprefix("stage_")

    @functools.wraps(work)
    def stage(runner: Runner) -> list:
        return runner.run_stage(name, lambda: work(runner))

    return stage


def _dataset_spec(cfg: ExperimentConfig) -> signals.DatasetSpec:
    d = cfg.section("dataset")
    scenarios = tuple(
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
    )
    sample = signals.SampleSpec.from_samples(float(d["sample_rate_hz"]), int(d["n_samples"]))
    return signals.DatasetSpec(
        classes=tuple(d["classes"]),
        per_class_count=int(d["per_class_count"]),
        scenarios=scenarios,
        seed=cfg.seed,
        sample=sample,
    )


@_cached
def stage_synth(runner: Runner) -> list:
    data_dir = runner.out / "data"
    data_dir.mkdir(exist_ok=True)
    snapshots = signals.make_dataset(_dataset_spec(runner.cfg))
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
    window = int(runner.cfg.section("features")["window_len"])
    data = feat.dataset_features(snaps, window_len=window)
    feat.write_feature_csv(
        fdir / "features.csv", data[feat.DOMAIN_MIXED],
        data["class_labels"], data["detection_labels"],
    )
    return [fdir / "features.csv"]


def _domain_matrix(data, domain):
    if domain not in (feat.DOMAIN_SPECTRAL, feat.DOMAIN_TEMPORAL, feat.DOMAIN_MIXED):
        raise InvalidSpecError(f"unknown domain {domain!r}")
    return data[domain]


def _splits(runner: Runner):
    """(data, X of the configured domain, train mask, scenario ids, train ids, test ids)."""
    data = feat.read_feature_csv(runner.out / "features" / "features.csv")
    records = signals.read_manifest(runner.out / "data" / "manifest.jsonl")
    scenario_ids = np.asarray([int(r["scenario_id"]) for r in records], dtype=np.int64)
    if len(scenario_ids) != data[feat.DOMAIN_MIXED].shape[0]:
        raise StageError("feature rows and dataset manifest are out of step")
    test_ids = frozenset(int(s) for s in runner.cfg.section("dataset")["test_scenarios"])
    train_ids = frozenset(scenario_ids.tolist()) - test_ids
    X = _domain_matrix(data, runner.cfg.section("domain"))
    return data, X, np.isin(scenario_ids, sorted(train_ids)), scenario_ids, train_ids, test_ids


def _budget(runner: Runner) -> nn.TrainBudget:
    tcfg = runner.cfg.section("train")
    return nn.TrainBudget(
        screen_epochs=int(tcfg["screen_epochs"]),
        retrain_epochs_max=int(tcfg["retrain_epochs_max"]),
        early_stop_patience=int(tcfg["early_stop_patience"]),
        batch_size=int(tcfg["batch_size"]),
        seed=runner.cfg.seed,
        lr=float(tcfg["lr"]),
    )


@_cached
def stage_search(runner: Runner) -> list:
    sdir = runner.out / "search"
    scfg = runner.cfg.section("search")
    sdir.mkdir(exist_ok=True)
    _, X, train_mask, _, _, _ = _splits(runner)
    X_train, _ = _normalized_train(X, train_mask)
    budget = _budget(runner)
    tr, val = _train_val(runner, X_train, float(runner.cfg.section("train")["val_fraction"]))
    space = search.SearchSpace(
        input_dim=X.shape[1],
        widths=tuple(scfg["widths"]),
        depths=tuple(scfg["depths"]),
        latents=tuple(scfg["latents"]),
    )
    archs = search.enumerate_archs(space)
    if scfg.get("max_archs"):
        archs = archs[: int(scfg["max_archs"])]
    ranked = search.screen(archs, tr, val, budget)
    k = min(int(scfg["top_k"]), len(ranked))
    finalists = search.retrain_topk(ranked, k, tr, val, budget)
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


def _train_val(runner: Runner, X_train, val_fraction):
    order = signals.derived_rng(runner.cfg.seed, 0x7A1).permutation(X_train.shape[0])
    n_val = max(1, int(len(order) * val_fraction))
    return X_train[order[n_val:]], X_train[order[:n_val]]


@_cached
def stage_train(runner: Runner) -> list:
    tdir = runner.out / "train"
    tcfg = runner.cfg.section("train")
    tdir.mkdir(exist_ok=True)
    _, X, train_mask, _, train_ids, _ = _splits(runner)
    X_train, stats = _normalized_train(X, train_mask)
    tr, val = _train_val(runner, X_train, float(tcfg["val_fraction"]))

    hidden = tuple(tcfg["hidden"])
    latent = int(tcfg["latent_dim"])
    if "search" in runner.manifest.stages:  # search ran in this run
        with open(runner.out / "search" / "best_arch.json", "r", encoding="utf-8") as fh:
            best = json.load(fh)
        hidden, latent = tuple(best["hidden"]), int(best["latent_dim"])

    model = nn.build_autoencoder(X.shape[1], hidden, latent, seed=runner.cfg.seed)
    model, history = nn.train_autoencoder(model, tr, val, _budget(runner))
    model.metadata = {
        "train_scenarios": sorted(int(s) for s in train_ids),
        "domain": runner.cfg.section("domain"),
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
    qcfg = runner.cfg.section("quant")
    qdir.mkdir(exist_ok=True)
    model = nn.load_model(runner.out / "train" / "model.aem")
    _, X, train_mask, _, _, _ = _splits(runner)
    stats = feat.NormStats.load(runner.out / "train" / "normstats.json")
    X_norm, _ = feat.apply_minmax(stats, X)
    calib = X_norm[train_mask][: int(qcfg["calib_count"])]
    cal = quantize.calibrate(model, calib, percentile=float(qcfg["percentile"]))
    qm = quantize.quantize_model(model, cal)
    quantize.save_quantized(qdir / "model.aeq", qm)
    report = quantize.quant_report(model, qm, X_norm[train_mask])
    with open(qdir / "quant_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
    return [qdir / "model.aeq", qdir / "quant_report.json"]


@_cached
def stage_classify(runner: Runner) -> list:
    cdir = runner.out / "classify"
    fcfg = runner.cfg.section("forest")
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
    cfg = forest.ForestConfig(
        n_trees=int(fcfg["n_trees"]),
        max_depth=fcfg.get("max_depth"),
        min_leaf=int(fcfg["min_leaf"]),
        seed=runner.cfg.seed,
    )
    report = forest.evaluate_protocol(dataset, model, qm, cfg)
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
    pm = energy.PowerModel(**runner.cfg.section("power"))
    tm = energy.TrafficModel(**runner.cfg.section("traffic"))
    rep = energy.savings_report(pm, tm)
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
    with open(cdir / "metrics.json", "r", encoding="utf-8") as fh:
        metrics = json.load(fh)
    lines = ["task          variant       F2      F0.5", "-" * 44]
    for rec in sorted(metrics, key=lambda r: (r["task"], r["model_variant"])):
        lines.append(
            f"{rec['task']:<13} {rec['model_variant']:<13} "
            f"{rec['f2']:.3f}   {rec['f05']:.3f}"
        )
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
            if stage.name != "search" or cfg.section("search").get("enabled") or until == "search":
                globals()[f"stage_{stage.name}"](runner)  # looked up per call, so a wrapper sees it
            if stage.name == until:
                for later in STAGES[i + 1:]:
                    if runner.previous and later.name in runner.previous.stages:
                        runner.manifest.stages[later.name] = runner.previous.stages[later.name]
                break
    finally:
        runner.manifest.save(runner.manifest_path)
    return runner.manifest
