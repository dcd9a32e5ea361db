import json

import pytest

from jamcodec import pipeline
from jamcodec.errors import InvalidSpecError

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


def test_stage_key_ignores_input_order(tiny_config):
    cfg = pipeline.ExperimentConfig.from_json(tiny_config)
    runner = pipeline.Runner(cfg)
    a, b = runner.out / "a.bin", runner.out / "b.bin"
    a.write_bytes(b"alpha")
    b.write_bytes(b"beta")
    assert (runner._stage_key("quantize", [a, b], ["quant"])
            == runner._stage_key("quantize", [b, a], ["quant"]))


def test_manifest_roundtrip(tmp_path):
    m = pipeline.RunManifest("abc", "0.1.0", {"synth": {"key": "k", "outputs": {}}})
    m.save(tmp_path / "manifest.json")
    assert pipeline.RunManifest.load(tmp_path / "manifest.json") == m


@pytest.mark.parametrize("content", [
    b'{"config_hash": "abc", "tool_ver',
    b"\xff\xfe",
    b'{"config_hash": "abc", "stages": {}}',
    b'{"config_hash": "abc", "tool_version": "0.1.0", "stages": []}',
    b"[]",
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


def _quantize_output(manifest):
    return sorted(manifest.stages["quantize"]["outputs"])[0]


def test_audit_of_a_fresh_run_is_clean(finished_run):
    manifest, out = finished_run
    assert sum(len(rec["outputs"]) for rec in manifest.stages.values()) > 0
    assert pipeline.audit(manifest, out) == []


def test_audit_reports_a_flipped_byte(finished_run):
    manifest, out = finished_run
    rel = _quantize_output(manifest)
    data = bytearray((out / rel).read_bytes())
    data[len(data) // 2] ^= 0x01
    (out / rel).write_bytes(bytes(data))
    problems = pipeline.audit(manifest, out)
    assert f"quantize: checksum mismatch for {rel}" in problems
    assert all(p.endswith(f"checksum mismatch for {rel}") for p in problems)


def test_audit_reports_a_missing_artifact(finished_run):
    manifest, out = finished_run
    rel = _quantize_output(manifest)
    (out / rel).unlink()
    problems = pipeline.audit(manifest, out)
    assert f"quantize: missing artifact {rel}" in problems
    assert all(p.endswith(f"missing artifact {rel}") for p in problems)
