import builtins
import copy
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
from pathlib import Path
import shutil

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from jamcodec import cli, energy, features, forest, nn, pipeline, search
from jamcodec.errors import ChecksumMismatchError, InvalidSpecError, LeakageError

STAGES = ["synth", "features", "train", "quantize", "classify", "energy", "report"]


@pytest.fixture
def tiny_config(tmp_path, monkeypatch):
    monkeypatch.delenv("JAMCODEC_OUTPUT_DIR", raising=False)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "seed": 0,
        "output_dir": str(tmp_path / "run"),
        "dataset": {"per_class_count": 5},
        "train": {"screen_epochs": 3, "retrain_epochs_max": 3},
        "forest": {"n_trees": 4},
    }))
    return path


def update_config(path, **sections):
    path.write_text(json.dumps({**json.loads(path.read_text()), **sections}))


def recording_runners(monkeypatch):
    runners = []

    class Recording(pipeline.Runner):
        def __init__(self, cfg):
            super().__init__(cfg)
            runners.append(self)

    monkeypatch.setattr(pipeline, "Runner", Recording)
    return runners


def test_rerun_hits_every_stage_and_keeps_manifest(tiny_config, monkeypatch):
    runners = recording_runners(monkeypatch)
    pipeline.run(tiny_config)
    manifest = tiny_config.parent / "run" / "manifest.json"
    first = manifest.read_bytes()
    assert runners[0].cache_hits == []
    pipeline.run(tiny_config)
    assert runners[1].cache_hits == STAGES
    assert manifest.read_bytes() == first


def test_an_all_hit_rerun_leaves_the_manifest_unwritten(tiny_config, monkeypatch):
    runners = recording_runners(monkeypatch)
    pipeline.run(tiny_config)
    manifest = tiny_config.parent / "run" / "manifest.json"
    first = manifest.read_bytes()
    past = 1_000_000_000_000_000_000  # a rewrite would stamp the present instead
    os.utime(manifest, ns=(past, past))
    pipeline.run(tiny_config)
    assert runners[1].cache_hits == STAGES
    assert manifest.read_bytes() == first
    assert manifest.stat().st_mtime_ns == past


def test_a_forest_change_rewrites_the_manifest_and_misses_only_classify_and_report(tiny_config, monkeypatch):
    runners = recording_runners(monkeypatch)
    pipeline.run(tiny_config)
    manifest = tiny_config.parent / "run" / "manifest.json"
    first = manifest.read_bytes()
    update_config(tiny_config, forest={"n_trees": 5})
    second = pipeline.run(tiny_config)
    assert runners[1].cache_hits == [s for s in STAGES if s not in ("classify", "report")]
    assert manifest.read_bytes() != first
    assert pipeline.RunManifest.load(manifest) == second


def test_a_corrupt_previous_manifest_is_replaced_by_a_valid_one(tiny_config, capsys):
    first = pipeline.run(tiny_config)
    manifest = tiny_config.parent / "run" / "manifest.json"
    fresh = manifest.read_bytes()
    manifest.write_bytes(b"\xff\xfe")  # not UTF-8; the CLI tests cover a truncated one
    assert pipeline.run(tiny_config) == first
    assert "warning: " in capsys.readouterr().err
    assert manifest.read_bytes() == fresh


def cli_command(*argv):
    args = cli.build_parser().parse_args(list(argv))
    return args.handler(args)


@pytest.mark.parametrize("command", ["report", "train"])
def test_partial_run_keeps_the_later_stages_cached(tiny_config, monkeypatch, command):
    runners = recording_runners(monkeypatch)
    pipeline.run(tiny_config)
    manifest = tiny_config.parent / "run" / "manifest.json"
    first = manifest.read_bytes()
    assert cli_command(command, "--config", str(tiny_config)) == 0
    assert runners[1].cache_hits == STAGES[: STAGES.index(command) + 1]
    pipeline.run(tiny_config)
    assert runners[2].cache_hits == STAGES
    assert manifest.read_bytes() == first


def test_partial_run_that_retrains_invalidates_the_carried_stages(tiny_config, monkeypatch):
    runners = recording_runners(monkeypatch)
    pipeline.run(tiny_config)
    update_config(tiny_config, train={"screen_epochs": 3, "retrain_epochs_max": 4})
    pipeline.run(tiny_config, until="train")
    assert runners[1].cache_hits == ["synth", "features"]
    pipeline.run(tiny_config)
    assert runners[2].cache_hits == ["synth", "features", "train", "energy"]


def test_a_source_change_misses_every_stage(tiny_config, monkeypatch):
    runners = recording_runners(monkeypatch)
    pipeline.run(tiny_config)
    monkeypatch.setattr(pipeline, "_source_digest", lambda: "0" * 64)
    pipeline.run(tiny_config)
    assert runners[1].cache_hits == []
    pipeline.run(tiny_config)
    assert runners[2].cache_hits == STAGES


TINY_SEARCH = {"enabled": True, "widths": [8], "depths": [2], "latents": [3], "top_k": 1}


def test_search_settings_leave_a_run_without_search_cached(tiny_config, monkeypatch):
    runners = recording_runners(monkeypatch)
    pipeline.run(tiny_config)
    update_config(tiny_config, search={"top_k": 3})
    pipeline.run(tiny_config)
    assert runners[1].cache_hits == STAGES


def test_the_report_renders_only_the_confusion_tables_classify_recorded(tiny_config):
    pipeline.run(tiny_config, until="classify")
    out = tiny_config.parent / "run"
    (out / "classify" / "confusion_stray.csv").write_bytes(
        (out / "classify" / "confusion_raw_detection.csv").read_bytes())
    manifest = pipeline.run(tiny_config)
    tables = {Path(rel).stem for rel in manifest.stages["classify"]["outputs"] if rel.endswith(".csv")}
    assert len(tables) == 6
    assert {p.stem for p in (out / "report").glob("*.svg")} == tables


# One other valid value for the seed, the domain and every SCHEMA leaf
OTHER_VALUES = {
    ("seed",): 1,
    ("domain",): "spectral",
    ("dataset", "classes"): ["clean", "chirp", "multitone", "pulsed", "hopper"],
    ("dataset", "per_class_count"): 6,
    ("dataset", "sample_rate_hz"): 2_000_000.0,
    ("dataset", "n_samples"): 2048,
    ("dataset", "scenarios"): [{"scenario_id": i, "attenuation_db": 20.0 + (i == 0), "noise_seed": i}
                               for i in range(5)],
    ("dataset", "test_scenarios"): [3],
    ("features", "window_len"): 512,
    ("search", "enabled"): False,
    ("search", "widths"): [16],
    ("search", "depths"): [3],
    ("search", "latents"): [5],
    ("search", "top_k"): 2,
    ("search", "max_archs"): 1,
    ("train", "hidden"): [16],
    ("train", "latent_dim"): 4,
    ("train", "screen_epochs"): 2,
    ("train", "retrain_epochs_max"): 4,
    ("train", "early_stop_patience"): 1,
    ("train", "batch_size"): 8,
    ("train", "lr"): 3e-3,
    ("train", "val_fraction"): 0.25,
    ("quant", "calib_count"): 16,
    ("quant", "percentile"): 99.0,
    ("forest", "n_trees"): 5,
    ("forest", "max_depth"): 3,
    ("forest", "min_leaf"): 2,
    ("power", "tpu_watts"): 2.0,
    ("power", "network_mwh_per_period"): 400.0,
    ("power", "cellular_usd_per_gb"): 3.0,
    ("power", "seconds_per_batch"): 0.02,
    ("traffic", "values_per_second"): 260,
    ("traffic", "compressed_block"): 170,
    ("traffic", "latent_values"): 8,
    ("traffic", "bytes_per_value"): 2,
}


def recorded_files(config, out):
    """Run ``config`` into ``out``; returns manifest.json's bytes and every recorded file's bytes."""
    path = out.parent / f"{out.name}.json"
    path.write_text(json.dumps({**config, "output_dir": str(out)}))
    manifest = pipeline.run(path)
    files = {rel: (out / rel).read_bytes() for rec in manifest.stages.values() for rel in rec["outputs"]}
    return (out / "manifest.json").read_bytes(), files


def test_a_cached_rerun_records_what_a_fresh_run_records_for_every_leaf(tiny_config, tmp_path):
    """Cache soundness: with one leaf changed, a rerun over a finished run records the same files
    with the same bytes as a fresh run. The search leaves are changed in a run that searches."""
    assert set(OTHER_VALUES) == {("seed",), ("domain",)} | {
        (name, key) for name, rows in pipeline.SCHEMA.items() for key in rows}
    plain = json.loads(tiny_config.read_text())
    bases = {False: plain, True: {**plain, "search": {**TINY_SEARCH, "latents": [3, 4]}}}
    for searching, config in bases.items():
        recorded_files(config, tmp_path / f"base_{searching}")
    stale = []
    for path, value in OTHER_VALUES.items():
        searching = path[0] == "search"
        config = copy.deepcopy(bases[searching])
        if len(path) == 1:
            config[path[0]] = value
        else:
            config.setdefault(path[0], {})[path[1]] = value
        shutil.copytree(tmp_path / f"base_{searching}", tmp_path / "cached")
        if recorded_files(config, tmp_path / "cached") != recorded_files(config, tmp_path / "fresh"):
            stale.append(path)
        shutil.rmtree(tmp_path / "cached")
        shutil.rmtree(tmp_path / "fresh")
    assert stale == []


@pytest.mark.parametrize("search", [False, True])
def test_each_stage_declares_every_file_it_opens(tiny_config, monkeypatch, search):
    if search:
        update_config(tiny_config, search=TINY_SEARCH)
    out = (tiny_config.parent / "run").resolve()
    current, opened = [], {}
    real_open = builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if current and "r" in mode and isinstance(file, (str, os.PathLike)):
            path = Path(file).resolve()
            if out in path.parents:
                opened.setdefault(current[-1], set()).add(path.relative_to(out).as_posix())
        return real_open(file, mode, *args, **kwargs)

    run_stage = pipeline.Runner.run_stage

    def tracking_run_stage(self, name, *args, **kwargs):
        current.append(name)
        try:
            return run_stage(self, name, *args, **kwargs)
        finally:
            current.pop()

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(pipeline.Runner, "run_stage", tracking_run_stage)
    manifest = pipeline.run(tiny_config)
    assert set(opened) == set(manifest.stages) == set(STAGES) | ({"search"} if search else set())
    assert "data/manifest.jsonl" in opened["classify"]
    assert ("search/best_arch.json" in opened["train"]) == search
    for stage, files in opened.items():
        rec = manifest.stages[stage]
        assert files <= rec["inputs"].keys() | rec["outputs"].keys(), stage
        assert rec["inputs"].keys() <= files, stage


def test_an_autoencoder_trained_on_a_test_scenario_stops_classify(tiny_config, monkeypatch):
    pipeline.run(tiny_config, until="quantize")
    load_model = pipeline.nn.load_model

    def leaky_load_model(path):
        model = load_model(path)
        model.metadata["train_scenarios"].append(4)
        return model

    monkeypatch.setattr(pipeline.nn, "load_model", leaky_load_model)
    with pytest.raises(LeakageError, match=r"\[4\]"):
        pipeline.run(tiny_config)
    assert not (tiny_config.parent / "run" / "classify" / "metrics.json").exists()


def test_non_string_domain_is_rejected(tiny_config):
    update_config(tiny_config, domain=["mixed"])
    with pytest.raises(InvalidSpecError, match="unknown domain"):
        pipeline.run(tiny_config)


@pytest.mark.parametrize("sections, message", [
    ({"forest": {"n_trees": 4, "ntrees": 4}}, r"section 'forest': unknown keys \['ntrees'\]"),
    ({"tarin": {"retrain_epochs_max": 3}}, "unknown config section 'tarin'"),
    ({"search": {"enabled": "false"}}, "section 'search': enabled must be true or false"),
    ({"search": {"enabled": 1}}, "section 'search': enabled must be true or false"),
])
def test_unknown_keys_and_non_bool_enabled_are_rejected(tiny_config, sections, message):
    update_config(tiny_config, **sections)
    with pytest.raises(InvalidSpecError, match=message):
        pipeline.ExperimentConfig.from_json(tiny_config)


@pytest.mark.parametrize("sections, message", [
    ({"train": {"batch_size": "32"}}, "section 'train': batch_size must be an integer, got '32'"),
    ({"search": {"top_k": 2.7}}, "section 'search': top_k must be an integer >= 1, got 2.7"),
    ({"search": {"widths": [32, True]}}, r"widths\[1\] must be an integer, got True"),
    ({"dataset": {"scenarios": [{"scenario_id": 0, "multipath": [[1]]}]}}, r"scenarios\[0\]\.multipath\[0\] must be"),
    ({"dataset": {"classes": "x"}}, "section 'dataset': classes must be an array, got 'x'"),
    ({"traffic": {"values_per_second": math.nan}}, "section 'traffic': values_per_second must be an integer"),
    ({"power": {"tpu_watts": "1.6"}}, "section 'power': tpu_watts must be a finite number, got '1.6'"),
])
def test_a_reader_error_names_the_leaf(tiny_config, sections, message):
    update_config(tiny_config, **sections)
    with pytest.raises(InvalidSpecError, match=message):
        pipeline.ExperimentConfig.from_json(tiny_config)


NOT_INTEGERS = [2.7, "32", True]
PROBES = [0, -1, math.nan, math.inf, "x", [], None] + NOT_INTEGERS


def config_leaves():
    """(path, integer leaf?) for the seed, every DEFAULTS leaf, every scenario key and every
    power and traffic field; a path is the key sequence from the config's top level."""
    yield ("seed",), True
    for section, value in pipeline.DEFAULTS.items():
        leaves = value.items() if isinstance(value, dict) else [(None, value)]
        for key, leaf in leaves:
            path = (section,) if key is None else (section, key)
            yield path, type(leaf) is int or key in ("max_archs", "max_depth")
    for key in ("scenario_id", "attenuation_db", "jsr_db", "noise_seed", "multipath"):
        yield ("dataset", "scenarios", 0, key), key in ("scenario_id", "noise_seed")
    for section, model in (("power", energy.PowerModel), ("traffic", energy.TrafficModel)):
        for f in dataclasses.fields(model):
            yield (section, f.name), f.type is int


def test_every_probe_value_builds_or_raises_invalid_spec(tmp_path):
    """Each leaf takes each probe value in turn: the config builds or raises InvalidSpecError,
    never another exception, and an integer leaf never builds from a fraction, a string or a bool."""
    pipeline.ExperimentConfig(0, tmp_path, copy.deepcopy(pipeline.DEFAULTS))
    wrong = []
    for path, integer in config_leaves():
        for probe in PROBES:
            config = {"seed": 0, "sections": copy.deepcopy(pipeline.DEFAULTS)}
            node = config if path == ("seed",) else config["sections"]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = probe
            try:
                pipeline.ExperimentConfig(config["seed"], tmp_path, config["sections"])
            except InvalidSpecError:
                continue
            except Exception as exc:
                wrong.append((path, probe, repr(exc)))
                continue
            if integer and any(probe is p for p in NOT_INTEGERS):
                wrong.append((path, probe, "built"))
    assert wrong == []


def test_the_spec_classes_default_to_the_pipeline_defaults(tmp_path):
    cfg = pipeline.ExperimentConfig(0, tmp_path, copy.deepcopy(pipeline.DEFAULTS))
    assert cfg.forest_config == forest.ForestConfig(seed=0)
    assert cfg.budget == nn.TrainBudget()
    assert cfg.search_space == search.SearchSpace(features.MIXED_DIM)
    assert cfg.energy_report == energy.savings_report()


def test_optional_scenario_keys_are_accepted(tiny_config):
    scenarios = [{"scenario_id": 0, "multipath": [[1, 0.3, 0.0]]}, {"scenario_id": 1, "jsr_db": None}]
    update_config(tiny_config, dataset={"per_class_count": 40, "scenarios": scenarios, "test_scenarios": [1]})
    cfg = pipeline.ExperimentConfig.from_json(tiny_config)
    assert cfg.dataset.scenarios[0].channel.multipath_taps == ((1, 0.3 + 0j),)


def test_stage_key_ignores_input_order(tiny_config):
    cfg = pipeline.ExperimentConfig.from_json(tiny_config)
    runner = pipeline.Runner(cfg)
    a, b = ("a.bin", "1" * 64), ("b.bin", "2" * 64)
    assert (runner._stage_key("quantize", ["quant"], dict([a, b]))
            == runner._stage_key("quantize", ["quant"], dict([b, a])))


def test_manifest_roundtrip(tmp_path):
    m = pipeline.RunManifest("abc", "0.1.0", {"synth": {"key": "k", "outputs": {}}})
    m.save(tmp_path / "manifest.json")
    assert pipeline.RunManifest.load(tmp_path / "manifest.json") == m


def test_manifest_save_writes_the_bytes_of_an_indented_sorted_json_dump(finished_run, tmp_path):
    manifest = finished_run[0]
    manifest.save(tmp_path / "saved.json")
    with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
        json.dump(vars(manifest), fh, sort_keys=True, indent=2)
    assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()


@pytest.mark.parametrize("content", [
    b'{"config_hash": "abc", "tool_ver',
    b"\xff\xfe",
    b'{"config_hash": "abc", "stages": {}}',
    b'{"config_hash": "abc", "tool_version": "0.1.0", "stages": []}',
    b"[]",
    b'{"config_hash": "abc", "tool_version": "0.1.0", "stages": {"synth": 5}}',
    b'{"config_hash": "abc", "tool_version": "0.1.0", "stages": {"synth": {"key": "k", "outputs": []}}}',
])
def test_bad_manifest_rejected(tmp_path, content):
    path = tmp_path / "manifest.json"
    path.write_bytes(content)
    with pytest.raises(InvalidSpecError):
        pipeline.RunManifest.load(path)


@pytest.fixture
def finished_run(tiny_config):
    """A fresh small run: its manifest and output directory."""
    return pipeline.run(tiny_config), tiny_config.parent / "run"


def test_audit_of_a_fresh_run_is_clean(finished_run):
    manifest, out = finished_run
    recorded = {rel: sha for rec in manifest.stages.values() for rel, sha in rec["outputs"].items()}
    assert recorded
    assert {rel: _sha((out / rel).read_bytes()) for rel in recorded} == recorded


def _flip_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def test_a_flipped_cached_byte_stops_the_rerun(finished_run, tiny_config, monkeypatch, capsys):
    out = finished_run[1]
    _flip_byte(out / "quantize" / "model.aeq")
    manifest = (out / "manifest.json").read_bytes()
    with pytest.raises(ChecksumMismatchError, match="quantize/model.aeq"):
        pipeline.run(tiny_config)
    (out / "manifest.json").write_bytes(manifest)  # the failed run saved only the stages before it
    for var in cli.BLAS_THREAD_VARS:  # main sets these; keep them as they are
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    assert cli.main(["run", "--config", str(tiny_config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "quantize/model.aeq" in err


def test_an_unreadable_cached_output_stops_the_rerun(finished_run, tiny_config, monkeypatch, capsys):
    out = finished_run[1]
    (out / "report" / "summary.txt").unlink()
    (out / "report" / "summary.txt").mkdir()
    manifest = (out / "manifest.json").read_bytes()
    with pytest.raises(ChecksumMismatchError, match="report/summary.txt"):
        pipeline.run(tiny_config)
    (out / "manifest.json").write_bytes(manifest)  # the failed run saved only the stages before it
    for var in cli.BLAS_THREAD_VARS:  # main sets these; keep them as they are
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    assert cli.main(["run", "--config", str(tiny_config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "report/summary.txt" in err


@pytest.mark.parametrize("rel", ["data/snap_00007.iqf", "quantize/model.aeq", "report/summary.txt"])
def test_a_deleted_output_reruns_only_its_stage(finished_run, tiny_config, monkeypatch, rel):
    out = finished_run[1]
    manifest, data = (out / "manifest.json").read_bytes(), (out / rel).read_bytes()
    (out / rel).unlink()
    runners = recording_runners(monkeypatch)
    pipeline.run(tiny_config)
    stage = rel.split("/")[0].replace("data", "synth")
    assert runners[0].cache_hits == [s for s in STAGES if s != stage]
    assert (out / rel).read_bytes() == data
    assert (out / "manifest.json").read_bytes() == manifest


def test_identical_search_runs_write_identical_manifests(tiny_config):
    update_config(tiny_config, search=TINY_SEARCH)
    first = pipeline.run(tiny_config)
    assert "search" in first.stages
    update_config(tiny_config, output_dir=str(tiny_config.parent / "run2"))
    pipeline.run(tiny_config)
    manifests = [(tiny_config.parent / d / "manifest.json").read_bytes() for d in ("run", "run2")]
    assert manifests[0] == manifests[1]


@pytest.fixture(scope="module")
def search_run_files(tmp_path_factory):
    """The bytes of the files each artifact reader opens, from one tiny run with search."""
    root = tmp_path_factory.mktemp("readers")
    config = root / "config.json"
    config.write_text(json.dumps({
        "seed": 0, "output_dir": str(root / "run"), "dataset": {"per_class_count": 5},
        "train": {"screen_epochs": 3, "retrain_epochs_max": 3}, "forest": {"n_trees": 4},
        "search": TINY_SEARCH,
    }))
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("JAMCODEC_OUTPUT_DIR", raising=False)
        pipeline.run(config)
    return root, {rel: (root / "run" / rel).read_bytes() for rel in READERS}


READERS = {
    "features/features.csv": features.read_feature_csv,
    "search/best_arch.json": pipeline._best_arch,
    "classify/metrics.json": pipeline._metrics_table,
}


@pytest.mark.parametrize("rel", sorted(READERS))
@given(data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_readers_raise_invalid_spec_on_truncated_or_flipped_files(search_run_files, rel, data):
    root, originals = search_run_files
    original = originals[rel]
    if data.draw(st.booleans(), label="truncate"):
        broken = original[: data.draw(st.integers(0, len(original) - 1), label="length")]
    else:
        broken = bytearray(original)
        broken[data.draw(st.integers(0, len(original) - 1), label="at")] ^= 1 << data.draw(
            st.integers(0, 7), label="bit")
    path = root / "broken" / rel  # a copy: the run's own files stay as written
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(bytes(broken))
    try:
        READERS[rel](path)
    except InvalidSpecError:
        pass


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def artifact_digests(out):
    """SHA-256 of every artifact but manifest.json; the snapshots as one digest."""
    digests = {str(p.relative_to(out)): _sha(p.read_bytes())
               for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}
    snaps = sorted(rel for rel in digests if rel.startswith("data/snap_"))
    digests["data/snap_*.iqf"] = _sha("".join(digests.pop(rel) for rel in snaps).encode())
    return digests


TINY_GOLDEN = {
    "classify/confusion_float_recon_classification.csv":
        "c73e43f46477fd4e7f20c26ca51819e35a9f4ab92019c2d807d9bf3afc2f960e",
    "classify/confusion_float_recon_detection.csv":
        "21a902fa7d38d06c41bfeaf8a5c66c5503108e8ed669aaa63a2b2ed0e61b8d47",
    "classify/confusion_int8_recon_classification.csv":
        "ea8fc2f5675fa1ac068bb1bdecb68832d90b906306c1e13d34324ba74278703f",
    "classify/confusion_int8_recon_detection.csv":
        "21a902fa7d38d06c41bfeaf8a5c66c5503108e8ed669aaa63a2b2ed0e61b8d47",
    "classify/confusion_raw_classification.csv":
        "416af1745ba5c1525e668af0b2e534dd937b7a40bce1a761d7e38af368c7ef31",
    "classify/confusion_raw_detection.csv":
        "6295f1bec09d5b99e974b55585dfd5181fa14de238db05fefb21494796a9200a",
    "classify/metrics.json":
        "4535bb42c7ceeac4f5296d81e20841a3cebeb5fdfaaff838af8b911357143338",
    "data/manifest.jsonl":
        "fed0f1171e0acaf38caa77f604fcef12cd6eac4dde928a35d0e47f3571242f40",
    "data/snap_*.iqf":
        "620ce95510b1cff0d50c4a52b8a43abb7f27223cd1401f88dc8b52072fb0671a",
    "energy/energy.json":
        "feb5fd135fd0440a924dc1846895aa9ba0bd41df805ec133db204f3658df392b",
    "energy/energy.txt":
        "f8742626b38ff31e620e5581cd0e80fb953f4f9d1ecd55ae6cacfe495c679c72",
    "features/features.csv":
        "8b3b79015748945713e459d4df203a0a4e55db8ace99a7bb5079e6eb0242d103",
    "quantize/model.aeq":
        "ba37b5e370309a11128270cbd6d54a795a817501109bc9c985a7c120f93212ac",
    "quantize/quant_report.json":
        "5afeb591135d33dbc4af11d6e4dd208e0cba6c499f19f22f05b0497b342066c7",
    "report/confusion_float_recon_classification.svg":
        "acb20a1b4ecf2c063553e3e571f8ad7f0fa26dbca1533e1c789e76e6d0f60275",
    "report/confusion_float_recon_detection.svg":
        "fc3728e37627c0c1bec6f1534704ccaf9130d27b9e09c83edd8f6aca3d0ae007",
    "report/confusion_int8_recon_classification.svg":
        "3979528b1f08458162a97bef380e28499490453e1927c98a9aa2a4c3577c4549",
    "report/confusion_int8_recon_detection.svg":
        "9ecc12efa2fad7425521f2038f7b42d37bb70c7f19dce8c2cef09fd7f8bfd3ab",
    "report/confusion_raw_classification.svg":
        "a1214e956a7d92cae9d37a95c12ac5954b5809a072ad59f967165f5c5d336329",
    "report/confusion_raw_detection.svg":
        "44e255e89f828ef99a373d8051b056d6b620892e38c010c3641f84a63e9f1d6f",
    "report/summary.txt":
        "c2da64c2333053046f3ac5005e749177c36de34c00c02232c087572fd6f4c738",
    "train/history.json":
        "9511df728f91c023e40f48542e30106d71748ce6c3d13afbf5d07957e7b3ffad",
    "train/model.aem":
        "bd64cf9c10ea624c51b69f7c51b0e3d33d2a344d498bae3a7bf10f22556f7d79",
}


def test_tiny_run_artifacts_are_pinned(finished_run):
    assert artifact_digests(finished_run[1]) == TINY_GOLDEN


def test_both_paths_give_the_pinned_tiny_run(cpus, tiny_config):
    pipeline.run(tiny_config)
    assert artifact_digests(tiny_config.parent / "run") == TINY_GOLDEN


def test_a_cached_rerun_forks_nothing(tiny_config, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    contexts = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: contexts.append(method) or get_context(method))
    runners = recording_runners(monkeypatch)
    pipeline.run(tiny_config)
    assert contexts  # a fresh run forks
    contexts.clear()
    pipeline.run(tiny_config)
    assert runners[1].cache_hits == STAGES
    assert contexts == []


def test_replaced_stage_functions_and_run_stage_see_every_call(tiny_config, monkeypatch):
    """What a tracer sees: the stage functions and run_stage replaced after import."""
    events = []

    def traced_stage(name, func):
        def wrapper(*args, **kwargs):
            events.append(("enter", name))
            result = func(*args, **kwargs)
            events.append(("exit", name))
            return result
        return wrapper

    for s in STAGES:
        monkeypatch.setattr(pipeline, f"stage_{s}", traced_stage(s, getattr(pipeline, f"stage_{s}")))
    run_stage = pipeline.Runner.run_stage

    def traced_run_stage(self, name, *args, **kwargs):
        events.append(("run_stage", name))
        return run_stage(self, name, *args, **kwargs)

    monkeypatch.setattr(pipeline.Runner, "run_stage", traced_run_stage)
    expected = [e for s in STAGES for e in (("enter", s), ("run_stage", s), ("exit", s))]
    for _ in range(2):  # a fresh run, then a cached rerun
        events.clear()
        pipeline.run(tiny_config)
        assert events == expected
