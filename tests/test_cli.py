import json
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from jamcodec import cli, pipeline

SRC = Path(__file__).resolve().parents[1] / "src"


def jamcodec(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env.pop("JAMCODEC_OUTPUT_DIR", None)
    return subprocess.run([sys.executable, "-m", "jamcodec.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_energy_exits_zero():
    done = jamcodec("energy")
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.strip()


def test_truncated_run_manifest_is_a_cache_miss_with_a_warning(tmp_path, monkeypatch, capsys):
    """manifest.json is only the cache index: losing it re-runs every stage and rebuilds it."""
    monkeypatch.delenv("JAMCODEC_OUTPUT_DIR", raising=False)
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "output_dir": str(out), "dataset": {"per_class_count": 5},
                                  "train": {"screen_epochs": 3, "retrain_epochs_max": 3},
                                  "forest": {"n_trees": 4}}))
    assert cli.main(["run", "--config", str(config)]) == 0
    fresh = (out / "manifest.json").read_bytes()
    (out / "manifest.json").write_bytes(fresh[: len(fresh) // 2])
    capsys.readouterr()

    runners = []

    class Recording(pipeline.Runner):
        def __init__(self, cfg):
            super().__init__(cfg)
            runners.append(self)

    monkeypatch.setattr(pipeline, "Runner", Recording)
    assert cli.main(["run", "--config", str(config)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert str(out / "manifest.json") in err and "Traceback" not in err
    assert runners[0].cache_hits == []
    assert (out / "manifest.json").read_bytes() == fresh


def test_missing_config_is_a_usage_error():
    done = jamcodec("train")
    assert done.returncode == 2
    assert "--config" in done.stderr


TWO_SCENARIOS = [{"scenario_id": i, "noise_seed": i} for i in range(2)]


@pytest.mark.parametrize("config", [
    pytest.param('{"seed": 0, "output_dir": "OUT", "forest": {"n_tr', id="truncated"),
    pytest.param({"forest": {"n_trees": "many"}}, id="n_trees_many"),
    pytest.param(None, id="missing_file"),
    pytest.param({"dataset": {"per_class_count": 1, "scenarios": TWO_SCENARIOS, "test_scenarios": [1]}},
                 id="one_training_scenario_no_test_rows"),
    pytest.param({"dataset": {"per_class_count": 2, "scenarios": TWO_SCENARIOS, "test_scenarios": [1]}},
                 id="too_few_calibration_vectors"),
    pytest.param({"dataset": {"test_scenarios": [7]}}, id="test_scenario_not_listed"),
    pytest.param({"power": {"watts": 2.0}}, id="unknown_power_key"),
    pytest.param({"forest": {"ntrees": 4}}, id="misspelled_forest_key"),
    pytest.param({"tarin": {"retrain_epochs_max": 3}}, id="misspelled_section"),
    pytest.param({"search": {"enabled": "false"}}, id="enabled_not_a_bool"),
    pytest.param({"power": {"tpu_watts": 0}}, id="tpu_watts_zero"),
    pytest.param({"train": {"batch_size": 0}}, id="batch_size_zero"),
    pytest.param({"train": {"lr": 0}}, id="lr_zero"),
    pytest.param({"train": {"val_fraction": 1.5}}, id="val_fraction_above_one"),
    pytest.param({"quant": {"percentile": 10}}, id="percentile_below_fifty"),
    pytest.param({"quant": {"percentile": math.nan}}, id="percentile_nan"),
    pytest.param({"quant": {"percentile": 200}}, id="percentile_above_hundred"),
    pytest.param({"search": {"enabled": True, "top_k": 0}}, id="top_k_zero"),
    pytest.param({"features": {"window_len": 1000}}, id="window_len_not_a_power_of_two"),
    pytest.param({"train": {"latent_dim": 0}}, id="latent_dim_zero"),
    pytest.param({"train": {"hidden": []}}, id="hidden_empty"),
    pytest.param({"train": {"hidden": [-4]}}, id="hidden_negative"),
    pytest.param({"forest": {"max_depth": 0}}, id="max_depth_zero"),
    pytest.param({"forest": {"max_depth": -3}}, id="max_depth_negative"),
    pytest.param({"dataset": {"scenarios": [{"scenario_id": 0, "attenuation_db": math.nan}, TWO_SCENARIOS[1]],
                              "test_scenarios": [1]}}, id="attenuation_nan"),
])
def test_bad_config_exits_one_before_writing(tmp_path, config):
    out = tmp_path / "run"
    path = tmp_path / "config.json"
    if isinstance(config, str):
        path.write_text(config.replace("OUT", str(out)))
    elif config is not None:
        path.write_text(json.dumps({"seed": 0, "output_dir": str(out), **config}))
    done = jamcodec("run", "--config", str(path))
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    pytest.param(["--tpu-watts", "0"], id="tpu_watts_zero"),
    pytest.param(["--tpu-watts", "nan"], id="tpu_watts_nan"),
    pytest.param(["--latent-values", "500"], id="latent_values_above_block"),
    pytest.param(["--rate-mb-per-s", "0"], id="rate_zero"),
])
def test_bad_energy_value_exits_one_without_traceback(args):
    done = jamcodec("energy", *args)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert done.stdout == ""


TINY_INTERPOLATE = ["--per-class", "2", "--epochs", "1", "--steps", "2", "--strips", "1"]


def test_interpolate_writes_one_pgm(tmp_path):
    prefix = tmp_path / "strip"
    done = jamcodec("interpolate", *TINY_INTERPOLATE, "--output-prefix", str(prefix))
    assert done.returncode == 0, done.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["strip_0.pgm"]
    assert (tmp_path / "strip_0.pgm").read_bytes().startswith(b"P5\n")
    assert done.stdout.splitlines()[0] == f"{prefix}_0.pgm"


@pytest.mark.parametrize("flag, value", [
    ("--epochs", "0"),
    ("--per-class", "0"),
    ("--strips", "7"),  # 6 classes x 2 images hold 6 disjoint pairs
    ("--strips", "0"),
    ("--steps", "1"),
    ("--lr", "-1"),
    ("--tc-weight", "nan"),
])
def test_bad_interpolate_argument_exits_one_before_writing(tmp_path, flag, value):
    args = TINY_INTERPOLATE + [flag, value]  # argparse keeps the last value of a repeated flag
    done = jamcodec("interpolate", *args, "--output-prefix", str(tmp_path / "strip"))
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def python_c(code, *flags, **env_overrides):
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env.update(env_overrides)
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


PIN_PROBE = """
import json, os, sys
import jamcodec.cli as cli
numpy_at_import = "numpy" in sys.modules
cli.main(["energy"])
print(json.dumps([numpy_at_import, [os.environ.get(v) for v in cli.BLAS_THREAD_VARS]]))
"""


def test_import_leaves_numpy_unloaded_and_main_pins_blas_threads():
    numpy_at_import, values = python_c(PIN_PROBE)
    assert numpy_at_import is False
    assert values == ["1", "1", "1"]


def test_user_blas_thread_setting_wins():
    _, values = python_c(PIN_PROBE, OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="3")
    assert values == ["2", "1", "3"]


RUNTIME_IMPORTS_PROBE = """
import importlib, json, pkgutil, sys
import jamcodec
for module in pkgutil.iter_modules(jamcodec.__path__):
    importlib.import_module(f"jamcodec.{module.name}")
jamcodec.cli.main(["energy"])
print(json.dumps(sorted({name.split(".")[0] for name in sys.modules})))
"""


def test_runtime_imports_only_numpy_and_the_standard_library():
    """Every jamcodec module, and a run of `jamcodec energy`, loads nothing beyond numpy and the
    standard library. -S keeps site hooks (.pth files) from loading packages of their own, so
    numpy's directory goes on the path by hand."""
    numpy_dir = Path(np.__file__).resolve().parents[1]
    top_level = python_c(RUNTIME_IMPORTS_PROBE, "-S", PYTHONPATH=os.pathsep.join([str(SRC), str(numpy_dir)]))
    allowed = set(sys.stdlib_module_names) | {"__main__", "jamcodec", "numpy"}
    assert "numpy" in top_level
    assert [name for name in top_level if name not in allowed] == []
