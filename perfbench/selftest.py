"""Fast self-tests of the benchmark's checks, tracer and metric printer.

    python3 perfbench/selftest.py

Each correctness check must pass on a good output and reject a perturbed
one: a wrong F2, an off-grid int8 value, a changed artifact byte, a perturbed
band power, a wrong energy figure. The printer must emit every metric named
in BENCHMARK.json.
"""

import contextlib
import io
import json
from pathlib import Path
import sys
import tempfile
from types import SimpleNamespace
import unittest

import run  # sets the BLAS thread count before numpy loads

run.import_program()

import numpy as np

from jamcodec import energy, features, nn, quantize

import checks
from tracing import Tracer
import workloads


def _raises(test, fn, *args):
    with test.assertRaises(checks.CheckFailed):
        fn(*args)


class TestClassifyCheck(unittest.TestCase):
    counts = [[2, 1], [0, 3]]

    def test_macro_fbeta_by_hand(self):
        # class 0: p = 1, r = 2/3 -> F2 = 10/14; class 1: p = 3/4, r = 1 -> F2 = 15/16
        self.assertAlmostEqual(checks.macro_fbeta(self.counts, 2.0), (10 / 14 + 15 / 16) / 2, places=15)
        self.assertAlmostEqual(checks.macro_fbeta([[0, 0], [0, 4]], 2.0), 1.0)  # absent class skipped

    def _run_dir(self, tmp, f2_shift=0.0):
        cdir = Path(tmp) / "classify"
        cdir.mkdir()
        records = []
        for variant in ("raw", "float_recon", "int8_recon"):
            for task in ("detection", "classification"):
                with open(cdir / f"confusion_{variant}_{task}.csv", "w", encoding="utf-8") as fh:
                    fh.write("true\\pred,a,b\na,2,1\nb,0,3\n")
                records.append({"task": task, "model_variant": variant,
                                "f2": checks.macro_fbeta(self.counts, 2.0) + f2_shift,
                                "f05": checks.macro_fbeta(self.counts, 0.5)})
        (cdir / "metrics.json").write_text(json.dumps(records))
        return tmp

    def test_accepts_consistent_metrics(self):
        with tempfile.TemporaryDirectory() as tmp:
            f2 = checks.check_classify(self._run_dir(tmp), n_test=6)
            self.assertAlmostEqual(f2, checks.macro_fbeta(self.counts, 2.0))

    def test_rejects_wrong_f2(self):
        with tempfile.TemporaryDirectory() as tmp:
            _raises(self, checks.check_classify, self._run_dir(tmp, f2_shift=1e-6), 6)

    def test_rejects_wrong_test_count(self):
        with tempfile.TemporaryDirectory() as tmp:
            _raises(self, checks.check_classify, self._run_dir(tmp), 7)


class TestArtifactChecks(unittest.TestCase):
    def _run_dir(self, tmp):
        out = Path(tmp)
        (out / "data").mkdir()
        (out / "data" / "a.bin").write_bytes(b"\x00\x01\x02\x03")
        manifest = {"stages": {"synth": {"inputs": {}, "outputs": {
            "data/a.bin": checks.sha256_file(out / "data" / "a.bin")}}}}
        (out / "manifest.json").write_text(json.dumps(manifest))
        return out

    def test_changed_byte_is_caught(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = self._run_dir(tmp)
            artifacts = checks.check_manifest_hashes(out)
            reference = checks.snapshot_bytes(out, artifacts)
            checks.check_unchanged(out, reference)
            (out / "data" / "a.bin").write_bytes(b"\x00\x01\x02\x04")
            _raises(self, checks.check_unchanged, out, reference)
            _raises(self, checks.check_manifest_hashes, out)

    def test_energy(self):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "energy").mkdir()
            path = Path(tmp) / "energy" / "energy.json"
            rep = energy.savings_report()
            path.write_text(rep.dumps())
            checks.check_energy(tmp)
            bad = rep.to_json()
            bad["tpu"]["uwh"] = 444.4  # the "1.6 Ws" reading of the published figure
            path.write_text(json.dumps(bad))
            _raises(self, checks.check_energy, tmp)


class TestBandPower(unittest.TestCase):
    def test_matches_numpy_and_rejects_perturbation(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        actual = features.band_power(x)
        checks.check_band_power(actual, x)
        bad = actual.copy()
        bad[17] *= 1 + 1e-6
        _raises(self, checks.check_band_power, bad, x)


class TestInt8Checks(unittest.TestCase):
    @staticmethod
    def _qm(conv_front=()):
        rng = np.random.default_rng(3)
        model = nn.build_autoencoder(12, (8,), 3, seed=1, conv_front=conv_front)
        x = rng.uniform(0.0, 1.0, size=(40, 12))
        return quantize.quantize_model(model, quantize.calibrate(model, x)), x

    def test_oracle_matches_dense_and_conv(self):
        for conv_front in ((), ((2, 4, 3, 2),), ((3, 2, 3, 1),)):
            qm, x = self._qm(conv_front)
            out = quantize.int8_forward(qm, x[:3])
            checks.check_int8_rows(qm, x[:3].tolist(), out)
            checks.check_on_grid(qm, out)
            bad = out.copy()
            bad[1, 4] += qm.layers[-1].out_qp.scale  # still on the grid, but wrong
            _raises(self, checks.check_int8_rows, qm, x[:3].tolist(), bad)

    def test_off_grid_value_is_caught(self):
        qm = SimpleNamespace(layers=[SimpleNamespace(out_qp=SimpleNamespace(scale=0.1, zero_point=3))])
        out = (np.array([[-128, 0, 5, 127]]) - 3) * 0.1
        checks.check_on_grid(qm, out)
        bad = out.copy()
        bad[0, 2] += 0.03
        _raises(self, checks.check_on_grid, qm, bad)
        _raises(self, checks.check_on_grid, qm, out + 0.1 * 200)  # beyond int8

    def test_val_mse_oracle(self):
        model = nn.build_autoencoder(12, (8,), 3, seed=2)
        x = np.random.default_rng(4).uniform(size=(10, 12))
        recon, _ = nn.forward(model, x)
        mse = nn.mse_loss(x, recon)
        checks.check_val_mse(model, x, mse)
        _raises(self, checks.check_val_mse, model, x, mse * (1 + 1e-6))


class TestTracer(unittest.TestCase):
    def test_spans_nest_and_missing_names_do_not_crash(self):
        owner = SimpleNamespace(f=lambda v: v + 1)
        tracer = Tracer()
        tracer.add(owner, "f", "owner.f", lambda a, k, r: {"n": r})
        tracer.add(owner, "gone", "owner.gone")
        self.assertEqual(len(tracer.missing), 1)
        self.assertTrue(tracer.missing[0].endswith(".gone"))
        tracer.enable()
        with tracer.span("root"):
            self.assertEqual(owner.f(1), 2)
        tracer.disable()
        owner.f(5)  # untraced
        (root,) = tracer.select("root")
        (call,) = tracer.select("owner.f")
        self.assertEqual(call["parent"], root["id"])
        self.assertEqual(tracer.count("owner.f", "n", tracer.traces_of("root")), 2)


class TestPrinter(unittest.TestCase):
    def test_emits_every_declared_name(self):
        spec, units = run.load_units()
        for kind in ("end_to_end", "per_layer"):
            names = run.declared(spec, kind)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                run.emit("x", {k: 1.5 for k in names}, names, units, 1, 0)
            res = json.loads(buf.getvalue().strip().splitlines()[-1])
            self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(set(res["metrics"]), {m["name"] for m in spec[kind]}, kind)
            self.assertEqual({v["unit"] for v in res["metrics"].values()} - set(units.values()), set())

    def test_layer_metrics_cover_every_per_layer_name(self):
        spec, _ = run.load_units()
        tracer = Tracer()
        with tracer.span("work"):
            pass
        self.assertEqual(set(workloads.layer_metrics(tracer, 0.5)), set(run.declared(spec, "per_layer")))

    def test_rejects_undeclared_metric(self):
        with self.assertRaises(RuntimeError):
            run.emit("x", {"setup_s": 1.0}, ("setup_s", "work_s"), {"setup_s": "s"}, 1, 0)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + sys.argv[1:])
