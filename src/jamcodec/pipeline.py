"""Config-driven orchestration: synth -> features -> train -> quantize ->
classify -> energy -> report, with reproducible on-disk artifacts.

Every stage declares its input files and its config subsection; the cache key
is the SHA-256 of (stage name, input checksums, subsection JSON). A rerun
with an unchanged key and intact outputs is skipped. The run manifest
(manifest.json) lists every artifact with its checksum and contains no
timestamps, so identical (config, seed) runs produce byte-identical
manifests.

The one environment override: JAMCODEC_OUTPUT_DIR replaces the configured
output directory.
"""

from dataclasses import dataclass, field
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from . import __version__, energy, factor, features as feat, forest, nn, quantize, render, search, signals
from .errors import ChecksumMismatchError, InvalidSpecError, NoArtifactsError, StageError

STAGE_ORDER = ("synth", "features", "search", "train", "quantize", "classify", "energy", "report")

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

    def _rel(self, p) -> str:
        return str(Path(p).relative_to(self.out))

    def _stage_key(self, name, input_paths, sections) -> str:
        parts = [name, self.cfg.section_hash(*sections)]
        # a cache hit returns outputs in manifest order, a fresh stage in creation order
        for p in sorted(input_paths, key=self._rel):
            parts.append(self._rel(p))
            parts.append(_sha_file(p))
        return _sha_bytes("\n".join(parts).encode())

    def run_stage(self, name, sections, input_paths, func) -> list:
        """Run one stage unless its cache key matches the previous run."""
        for p in input_paths:
            if not Path(p).exists():
                raise StageError(f"stage {name}: missing input {p}")
        key = self._stage_key(name, input_paths, sections)
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
            "inputs": {self._rel(p): _sha_file(p) for p in input_paths},
            "outputs": {self._rel(p): _sha_file(p) for p in out_paths},
        }
        return out_paths


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


def stage_synth(runner: Runner) -> list:
    data_dir = runner.out / "data"

    def _run():
        data_dir.mkdir(exist_ok=True)
        snapshots = signals.make_dataset(_dataset_spec(runner.cfg))
        records = []
        paths = []
        for i, snap in enumerate(snapshots):
            rel = f"data/snap_{i:05d}.iqf"
            signals.write_iq(runner.out / rel, snap.iq)
            paths.append(runner.out / rel)
            records.append({
                "file": rel,
                "class": snap.waveform,
                "detection": snap.detection_label,
                "scenario_id": snap.scenario_id,
                "seed": snap.seed,
            })
        signals.write_manifest(data_dir / "manifest.jsonl", records)
        return [data_dir / "manifest.jsonl"] + paths

    return runner.run_stage("synth", ["dataset"], [], _run)


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


def stage_features(runner: Runner, synth_outputs) -> list:
    fdir = runner.out / "features"

    def _run():
        fdir.mkdir(exist_ok=True)
        snaps = _load_snapshots(runner)
        window = int(runner.cfg.section("features")["window_len"])
        data = feat.dataset_features(snaps, window_len=window)
        feat.write_feature_csv(
            fdir / "features.csv", data[feat.DOMAIN_MIXED],
            data["class_labels"], data["detection_labels"],
        )
        return [fdir / "features.csv"]

    return runner.run_stage("features", ["features", "dataset"], synth_outputs, _run)


def _domain_matrix(data, domain):
    if domain not in (feat.DOMAIN_SPECTRAL, feat.DOMAIN_TEMPORAL, feat.DOMAIN_MIXED):
        raise InvalidSpecError(f"unknown domain {domain!r}")
    return data[domain]


def _splits(runner: Runner):
    data = feat.read_feature_csv(runner.out / "features" / "features.csv")
    records = signals.read_manifest(runner.out / "data" / "manifest.jsonl")
    scenario_ids = np.asarray([int(r["scenario_id"]) for r in records], dtype=np.int64)
    if len(scenario_ids) != data[feat.DOMAIN_MIXED].shape[0]:
        raise StageError("feature rows and dataset manifest are out of step")
    test_ids = frozenset(int(s) for s in runner.cfg.section("dataset")["test_scenarios"])
    all_ids = frozenset(int(s) for s in scenario_ids.tolist())
    train_ids = all_ids - test_ids
    X = _domain_matrix(data, runner.cfg.section("domain") if isinstance(runner.cfg.section("domain"), str) else "mixed")
    return data, X, scenario_ids, train_ids, test_ids


def stage_search(runner: Runner, feature_outputs) -> list:
    sdir = runner.out / "search"
    scfg = runner.cfg.section("search")

    def _run():
        sdir.mkdir(exist_ok=True)
        data, X, scenario_ids, train_ids, test_ids = _splits(runner)
        train_mask = np.isin(scenario_ids, sorted(train_ids))
        X_train, _ = _normalized_train(runner, X, train_mask)
        tcfg = runner.cfg.section("train")
        budget = nn.TrainBudget(
            screen_epochs=int(tcfg["screen_epochs"]),
            retrain_epochs_max=int(tcfg["retrain_epochs_max"]),
            early_stop_patience=int(tcfg["early_stop_patience"]),
            batch_size=int(tcfg["batch_size"]),
            seed=runner.cfg.seed,
            lr=float(tcfg["lr"]),
        )
        tr, val = _train_val(runner, X_train, float(tcfg["val_fraction"]))
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

    return runner.run_stage("search", ["search", "train", "dataset", "domain"], feature_outputs, _run)


def _normalized_train(runner: Runner, X, train_mask):
    stats = feat.fit_minmax(X[train_mask])
    X_all, _ = feat.apply_minmax(stats, X)
    return X_all[train_mask], stats


def _train_val(runner: Runner, X_train, val_fraction):
    order = signals.derived_rng(runner.cfg.seed, 0x7A1).permutation(X_train.shape[0])
    n_val = max(1, int(len(order) * val_fraction))
    return X_train[order[n_val:]], X_train[order[:n_val]]


def stage_train(runner: Runner, feature_outputs) -> list:
    tdir = runner.out / "train"
    tcfg = runner.cfg.section("train")

    def _run():
        tdir.mkdir(exist_ok=True)
        data, X, scenario_ids, train_ids, test_ids = _splits(runner)
        train_mask = np.isin(scenario_ids, sorted(train_ids))
        X_train_all = X[train_mask]
        stats = feat.fit_minmax(X_train_all)
        X_train, _ = feat.apply_minmax(stats, X_train_all)
        tr, val = _train_val(runner, X_train, float(tcfg["val_fraction"]))

        hidden = tuple(tcfg["hidden"])
        latent = int(tcfg["latent_dim"])
        best_path = runner.out / "search" / "best_arch.json"
        if runner.cfg.section("search").get("enabled") and best_path.exists():
            with open(best_path, "r", encoding="utf-8") as fh:
                best = json.load(fh)
            hidden, latent = tuple(best["hidden"]), int(best["latent_dim"])

        budget = nn.TrainBudget(
            screen_epochs=int(tcfg["screen_epochs"]),
            retrain_epochs_max=int(tcfg["retrain_epochs_max"]),
            early_stop_patience=int(tcfg["early_stop_patience"]),
            batch_size=int(tcfg["batch_size"]),
            seed=runner.cfg.seed,
            lr=float(tcfg["lr"]),
        )
        model = nn.build_autoencoder(X.shape[1], hidden, latent, seed=runner.cfg.seed)
        model, history = nn.train_autoencoder(model, tr, val, budget)
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

    inputs = list(feature_outputs)
    best_path = runner.out / "search" / "best_arch.json"
    if runner.cfg.section("search").get("enabled") and best_path.exists():
        inputs.append(best_path)
    return runner.run_stage("train", ["train", "dataset", "domain", "search"], inputs, _run)


def stage_quantize(runner: Runner, train_outputs) -> list:
    qdir = runner.out / "quantize"
    qcfg = runner.cfg.section("quant")

    def _run():
        qdir.mkdir(exist_ok=True)
        model = nn.load_model(runner.out / "train" / "model.aem")
        data, X, scenario_ids, train_ids, test_ids = _splits(runner)
        stats = feat.NormStats.load(runner.out / "train" / "normstats.json")
        X_norm, _ = feat.apply_minmax(stats, X)
        train_mask = np.isin(scenario_ids, sorted(train_ids))
        calib = X_norm[train_mask][: int(qcfg["calib_count"])]
        cal = quantize.calibrate(model, calib, percentile=float(qcfg["percentile"]))
        qm = quantize.quantize_model(model, cal)
        quantize.save_quantized(qdir / "model.aeq", qm)
        report = quantize.quant_report(model, qm, X_norm[train_mask])
        with open(qdir / "quant_report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
        return [qdir / "model.aeq", qdir / "quant_report.json"]

    return runner.run_stage("quantize", ["quant", "dataset", "domain"], train_outputs, _run)


def stage_classify(runner: Runner, quant_outputs) -> list:
    cdir = runner.out / "classify"
    fcfg = runner.cfg.section("forest")

    def _run():
        cdir.mkdir(exist_ok=True)
        model = nn.load_model(runner.out / "train" / "model.aem")
        qm = quantize.load_quantized(runner.out / "quantize" / "model.aeq")
        data, X, scenario_ids, train_ids, test_ids = _splits(runner)
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

    inputs = list(quant_outputs) + [runner.out / "train" / "model.aem"]
    return runner.run_stage("classify", ["forest", "dataset", "domain"], inputs, _run)


def stage_energy(runner: Runner) -> list:
    edir = runner.out / "energy"

    def _run():
        edir.mkdir(exist_ok=True)
        pm = energy.PowerModel(**runner.cfg.section("power"))
        tm = energy.TrafficModel(**runner.cfg.section("traffic"))
        rep = energy.savings_report(pm, tm)
        with open(edir / "energy.json", "w", encoding="utf-8") as fh:
            fh.write(rep.dumps())
        with open(edir / "energy.txt", "w", encoding="utf-8") as fh:
            fh.write(energy.format_table(rep) + "\n")
        return [edir / "energy.json", edir / "energy.txt"]

    return runner.run_stage("energy", ["power", "traffic"], [], _run)


def stage_report(runner: Runner, classify_outputs) -> list:
    rdir = runner.out / "report"
    cdir = runner.out / "classify"

    def _run():
        if not (cdir / "metrics.json").exists():
            raise NoArtifactsError(f"no classification artifacts under {cdir}")
        rdir.mkdir(exist_ok=True)
        with open(cdir / "metrics.json", "r", encoding="utf-8") as fh:
            metrics = json.load(fh)
        outputs = []
        lines = ["task          variant       F2      F0.5", "-" * 44]
        for rec in sorted(metrics, key=lambda r: (r["task"], r["model_variant"])):
            lines.append(
                f"{rec['task']:<13} {rec['model_variant']:<13} "
                f"{rec['f2']:.3f}   {rec['f05']:.3f}"
            )
        summary = rdir / "summary.txt"
        with open(summary, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        outputs.append(summary)
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

    return runner.run_stage("report", ["forest"], classify_outputs, _run)


def run(config_path) -> RunManifest:
    """Execute the full pipeline for a config file; returns the manifest."""
    cfg = ExperimentConfig.from_json(config_path)
    runner = Runner(cfg)
    try:
        synth_out = stage_synth(runner)
        feat_out = stage_features(runner, synth_out)
        if cfg.section("search").get("enabled"):
            stage_search(runner, feat_out)
        train_out = stage_train(runner, feat_out)
        quant_out = stage_quantize(runner, train_out)
        classify_out = stage_classify(runner, quant_out)
        stage_energy(runner)
        stage_report(runner, classify_out)
    finally:
        runner.manifest.save(runner.manifest_path)
    return runner.manifest
