import dataclasses
import hashlib
import importlib
import json
import math
import os
from pathlib import Path
import re
import subprocess
import sys

import numpy as np
import pytest

from jamcodec import cli, energy, pipeline

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


def test_energy_flags_are_the_model_fields():
    done = jamcodec("energy", "--help")
    assert done.returncode == 0
    fields = {"--" + f.name.replace("_", "-") for cls in (energy.PowerModel, energy.TrafficModel)
              for f in dataclasses.fields(cls)}
    assert set(re.findall(r"--[a-z][a-z-]*", done.stdout)) == fields | {"--help", "--rate-mb-per-s", "--json"}


def test_removed_batch_size_flag_is_a_usage_error():
    done = jamcodec("energy", "--batch-size", "1000")
    assert done.returncode == 2
    assert done.stdout == ""


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


def tiny_run_config(tmp_path):
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "output_dir": str(out), "dataset": {"per_class_count": 5},
                                  "train": {"screen_epochs": 3, "retrain_epochs_max": 3},
                                  "forest": {"n_trees": 4}}))
    return config, out


def test_a_stage_record_that_is_not_an_object_is_a_cache_miss_with_a_warning(tmp_path):
    config, out = tiny_run_config(tmp_path)
    assert jamcodec("run", "--config", str(config)).returncode == 0
    fresh = (out / "manifest.json").read_bytes()
    manifest = json.loads(fresh)
    manifest["stages"]["synth"] = 5
    (out / "manifest.json").write_text(json.dumps(manifest))
    done = jamcodec("run", "--config", str(config))
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("warning: ") and done.stderr.count("\n") == 1
    assert (out / "manifest.json").read_bytes() == fresh


def test_a_directory_at_a_recorded_output_ends_every_rerun_with_an_error_line(tmp_path):
    """The first rerun finds the output unreadable; the second, which re-runs its stage because the
    first saved no record of it, cannot write it."""
    config, out = tiny_run_config(tmp_path)
    assert jamcodec("run", "--config", str(config)).returncode == 0
    (out / "report" / "summary.txt").unlink()
    (out / "report" / "summary.txt").mkdir()
    for _ in range(2):
        done = jamcodec("run", "--config", str(config))
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "report/summary.txt" in done.stderr and "Traceback" not in done.stderr


def test_version_names_the_package_and_file_formats():
    done = jamcodec("--version")
    assert done.returncode == 0
    assert done.stdout == "jamcodec 0.1.0 (formats: iq=IQF1, model=AEM1, quantized=AEQ1)\n"


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11; the floor is 3.10
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["jamcodec"]
    module, _, name = target.partition(":")
    assert (module, name) == ("jamcodec.cli", "main")
    assert getattr(importlib.import_module(module), name) is cli.main


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
    pytest.param({"power": {"batch_size": 1000}}, id="removed_power_batch_size"),
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
    pytest.param({"search": {"max_archs": -1}}, id="max_archs_negative"),
    pytest.param({"search": {"max_archs": 0}}, id="max_archs_zero"),
    pytest.param({"search": {"max_archs": 2.7}}, id="max_archs_fraction"),
    pytest.param({"search": {"max_archs": True}}, id="max_archs_bool"),
    pytest.param({"features": {"window_len": 1000}}, id="window_len_not_a_power_of_two"),
    pytest.param({"train": {"latent_dim": 0}}, id="latent_dim_zero"),
    pytest.param({"train": {"hidden": []}}, id="hidden_empty"),
    pytest.param({"train": {"hidden": [-4]}}, id="hidden_negative"),
    pytest.param({"forest": {"max_depth": 0}}, id="max_depth_zero"),
    pytest.param({"forest": {"max_depth": -3}}, id="max_depth_negative"),
    pytest.param({"dataset": {"scenarios": [{"scenario_id": 0, "attenuation_db": math.nan}, TWO_SCENARIOS[1]],
                              "test_scenarios": [1]}}, id="attenuation_nan"),
    pytest.param({"dataset": {"scenarios": [{"scenario_id": 0, "attenuaton_db": 20}, TWO_SCENARIOS[1]],
                              "test_scenarios": [1]}}, id="misspelled_scenario_key"),
    pytest.param({"forest": {"n_trees": math.inf}}, id="n_trees_infinity"),
    pytest.param({"train": {"batch_size": math.inf}}, id="batch_size_infinity"),
    pytest.param({"dataset": {"sample_rate_hz": 0}}, id="sample_rate_zero"),
    pytest.param({"features": {"window_len": 64}}, id="window_len_not_a_multiple_of_128"),
    pytest.param({"dataset": {"n_samples": 512}}, id="n_samples_below_window_len"),
    pytest.param({"dataset": {"scenarios": [{"scenario_id": 0, "multipath": [[4096, 0.3, 0.0]]}, TWO_SCENARIOS[1]],
                              "test_scenarios": [1]}}, id="multipath_delay_at_n_samples"),
    pytest.param({"dataset": {"scenarios": [{"scenario_id": 0, "multipath": "32"}, TWO_SCENARIOS[1]],
                              "test_scenarios": [1]}}, id="multipath_string"),
    pytest.param({"dataset": {"scenarios": [{"scenario_id": 0, "multipath": [[1]]}, TWO_SCENARIOS[1]],
                              "test_scenarios": [1]}}, id="multipath_short_tap"),
    pytest.param({"dataset": {"classes": "x"}}, id="classes_string"),
    pytest.param({"search": {"top_k": 2.7}}, id="top_k_fraction"),
    pytest.param({"train": {"batch_size": "32"}}, id="batch_size_string"),
    pytest.param({"forest": {"n_trees": True}}, id="n_trees_true"),
    pytest.param({"power": {"tpu_watts": "1.6"}}, id="tpu_watts_string"),
    pytest.param({"traffic": {"values_per_second": math.nan}}, id="values_per_second_nan"),
    pytest.param({"power": {"tpu_watts": 1e308, "seconds_per_batch": 1e308}}, id="tpu_energy_beyond_float_range"),
    pytest.param({"power": {"tpu_watts": 1e-200, "seconds_per_batch": 1e-200, "network_mwh_per_period": 1e-300}},
                 id="tpu_energy_below_float_range"),
    pytest.param({"traffic": {"values_per_second": int("9" * 400)}}, id="values_per_second_400_digits"),
    pytest.param({"output_dir": 5}, id="output_dir_number"),
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
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    pytest.param(["--tpu-watts", "0"], id="tpu_watts_zero"),
    pytest.param(["--tpu-watts", "nan"], id="tpu_watts_nan"),
    pytest.param(["--latent-values", "500"], id="latent_values_above_block"),
    pytest.param(["--rate-mb-per-s", "0"], id="rate_zero"),
    pytest.param(["--network-mwh-per-period", "0"], id="network_mwh_per_period_zero"),
    pytest.param(["--tpu-watts", "1e308", "--seconds-per-batch", "1e308"], id="tpu_energy_beyond_float_range"),
    pytest.param(["--tpu-watts", "1e-300", "--seconds-per-batch", "1e-300"], id="ratio_beyond_float_range"),
    pytest.param(["--rate-mb-per-s", "1e308"], id="daily_traffic_beyond_float_range"),
    pytest.param(["--tpu-watts", "1e-200", "--seconds-per-batch", "1e-200", "--network-mwh-per-period", "1e-300"],
                 id="tpu_energy_below_float_range"),
    pytest.param(["--values-per-second", "9" * 400], id="values_per_second_400_digits"),
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
    pgm = (tmp_path / "strip_0.pgm").read_bytes()
    assert pgm.startswith(b"P5\n")
    assert hashlib.sha256(pgm).hexdigest() == "c1001031e08505827661d7b0e953860e5740da6d9ba4dcebc1088e2301926b76"
    assert done.stdout.splitlines()[0] == f"{prefix}_0.pgm"


def test_interpolate_takes_a_negative_seed(tmp_path):
    """The strip pairs are drawn like every other draw, through derived_rng, which masks the seed."""
    done = jamcodec("interpolate", *TINY_INTERPOLATE, "--seed", "-1", "--output-prefix", str(tmp_path / "strip"))
    assert done.returncode == 0, done.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["strip_0.pgm"]


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
