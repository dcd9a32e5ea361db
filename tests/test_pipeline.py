import json

import pytest

from jamcodec import pipeline

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
