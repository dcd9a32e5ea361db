"""Correctness checks computed apart from the program.

Every check raises ``CheckFailed`` with a message that names what differed.
The oracles here share no code with ``jamcodec``: they read its files or its
model parameters and recompute the result with plain numpy or pure Python.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---- files --------------------------------------------------------------

def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_manifest_hashes(run_dir):
    """Every artifact in manifest.json matches its SHA-256; returns the artifact map."""
    run_dir = Path(run_dir)
    with open(run_dir / "manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    artifacts = {}
    for stage, rec in manifest["stages"].items():
        for rel, sha in {**rec.get("inputs", {}), **rec.get("outputs", {})}.items():
            path = run_dir / rel
            require(path.is_file(), f"{stage}: artifact {rel} is missing")
            actual = sha256_file(path)
            require(actual == sha, f"{stage}: {rel} hashes to {actual[:12]}, manifest says {sha[:12]}")
            artifacts[rel] = actual
    require(artifacts, "manifest.json lists no artifacts")
    return artifacts


def snapshot_bytes(run_dir, rels):
    return {rel: (Path(run_dir) / rel).read_bytes() for rel in rels}


def check_unchanged(run_dir, reference):
    """Every artifact in ``reference`` (rel -> bytes) is byte-identical on disk."""
    for rel, data in reference.items():
        path = Path(run_dir) / rel
        require(path.is_file(), f"rerun removed {rel}")
        require(path.read_bytes() == data, f"rerun changed the bytes of {rel}")


# ---- classification scores ----------------------------------------------

def read_confusion_csv(path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    labels = rows[0][1:]
    counts = [[int(v) for v in r[1:]] for r in rows[1:]]
    require([r[0] for r in rows[1:]] == labels, f"{path}: row and column labels differ")
    return labels, counts


def macro_fbeta(counts, beta):
    """One-vs-rest F-beta per class, averaged over classes present in the truth."""
    n = len(counts)
    b2 = beta * beta
    scores = []
    for c in range(n):
        tp = counts[c][c]
        predicted = sum(counts[r][c] for r in range(n))
        actual = sum(counts[c])
        if actual == 0:
            continue
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual
        denom = b2 * precision + recall
        scores.append((1 + b2) * precision * recall / denom if denom > 0 else 0.0)
    return sum(scores) / len(scores) if scores else 0.0


def check_classify(run_dir, n_test):
    """metrics.json F2/F0.5 equal F-beta recomputed from the confusion CSVs.

    Returns the macro F2 of classification on int8 reconstructions.
    """
    cdir = Path(run_dir) / "classify"
    with open(cdir / "metrics.json", "r", encoding="utf-8") as fh:
        records = json.load(fh)
    require(len(records) == 6, f"metrics.json holds {len(records)} records, expected 6")
    f2_int8 = None
    for rec in records:
        name = f"{rec['model_variant']}/{rec['task']}"
        _, counts = read_confusion_csv(cdir / f"confusion_{rec['model_variant']}_{rec['task']}.csv")
        total = sum(map(sum, counts))
        require(total == n_test, f"{name}: confusion sums to {total}, there are {n_test} test snapshots")
        for key, beta in (("f2", 2.0), ("f05", 0.5)):
            own = macro_fbeta(counts, beta)
            require(math.isclose(rec[key], own, rel_tol=1e-12, abs_tol=1e-15),
                    f"{name}: metrics.json {key}={rec[key]!r}, confusion matrix gives {own!r}")
        if rec["model_variant"] == "int8_recon" and rec["task"] == "classification":
            f2_int8 = rec["f2"]
    require(f2_int8 is not None, "metrics.json has no int8_recon/classification record")
    return f2_int8


def check_energy(run_dir):
    """energy.json against hand arithmetic of the published figures.

    1.6 W for 0.01 s per 1000-input batch is 0.016 Ws = 4.44 uWh; 394 mWh of
    networking at a 67 % reduction leaves 263.98 mWh and saves 130.02 mWh,
    about 29,000 times the per-batch compressor energy.
    """
    with open(Path(run_dir) / "energy" / "energy.json", "r", encoding="utf-8") as fh:
        rep = json.load(fh)
    uwh = 1.6 * 0.01 / 3600 * 1e6
    require(math.isclose(rep["tpu"]["watt_seconds"], 0.016, rel_tol=1e-12), "TPU energy is not 0.016 Ws")
    require(math.isclose(rep["tpu"]["uwh"], uwh, rel_tol=1e-9), f"TPU energy {rep['tpu']['uwh']} uWh, expected {uwh}")
    require(round(rep["tpu"]["uwh"], 2) == 4.44, "TPU energy does not read 4.44 uWh")
    net = rep["network_rounded_residual"]
    require(math.isclose(net["new_mwh"], 394 * 0.67, rel_tol=1e-12), f"remaining budget {net['new_mwh']} mWh")
    require(math.isclose(net["saved_mwh"], 394 * 0.33, rel_tol=1e-12), f"saving {net['saved_mwh']} mWh")
    ratio = 394 * 0.33 * 1000 / uwh
    require(math.isclose(net["saved_over_tpu_ratio"], ratio, rel_tol=1e-9), f"saving/TPU ratio {net['saved_over_tpu_ratio']}")
    require(28_000 < ratio < 30_000, "saving/TPU ratio is not about 29,000")


# ---- features -----------------------------------------------------------

def band_power_oracle(samples, window_len=1024, n_bins=128):
    """Hann-windowed periodogram with np.fft, averaged over windows, folded to n_bins."""
    x = np.asarray(samples, dtype=np.complex128)
    n_win = len(x) // window_len
    frames = x[: n_win * window_len].reshape(n_win, window_len)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window_len) / window_len)
    p = np.mean(np.abs(np.fft.fft(frames * hann, axis=1)) ** 2, axis=0) / window_len**2
    return p.reshape(n_bins, -1).sum(axis=1)


def check_band_power(actual, samples, rel=1e-9):
    expected = band_power_oracle(samples, n_bins=len(actual))
    err = np.abs(np.asarray(actual) - expected)
    worst = int(np.argmax(err / np.maximum(expected, 1e-300)))
    require(np.all(err <= rel * np.abs(expected) + 1e-15 * expected.max()),
            f"band_power bin {worst}: {actual[worst]!r} vs np.fft {expected[worst]!r}")


# ---- neural network -----------------------------------------------------

def dense_forward(layers, x):
    """Plain-numpy forward through Dense layers (relu or linear) from their parameters."""
    h = np.asarray(x, dtype=np.float64)
    for layer in layers:
        spec = layer.spec()
        require(spec["kind"] == "dense", f"dense oracle got a {spec['kind']} layer")
        w, b = layer.params
        h = h @ w + b
        if spec["activation"] == "relu":
            h = np.maximum(h, 0.0)
        else:
            require(spec["activation"] == "linear", f"unexpected activation {spec['activation']}")
    return h


def check_val_mse(model, val_x, val_mse):
    recon = dense_forward(list(model.encoder) + list(model.decoder), val_x)
    own = float(np.mean((np.asarray(val_x) - recon) ** 2))
    require(math.isclose(own, val_mse, rel_tol=1e-9), f"val_mse {val_mse!r}, plain forward gives {own!r}")


# ---- int8 inference -----------------------------------------------------

def _round_half_away(v):
    return math.copysign(math.floor(abs(v) + 0.5), v)


def _rshift_round(t, shift):
    if shift <= 0:
        return t << -shift
    mag = (abs(t) + (1 << (shift - 1))) >> shift
    return mag if t >= 0 else -mag


def _same_pad(length, kernel, stride):
    out_len = -(-length // stride)
    total = max(0, (out_len - 1) * stride + kernel - length)
    return out_len, total // 2


def int8_row_oracle(qm, x):
    """Scalar pure-Python integer inference of one input vector.

    Int32 accumulate of zero-point-centred int8 values, saturation, the
    fixed-point multiplier with a round-half-away right shift, output zero
    point, clamp and ReLU, then dequantization of the last layer.
    Returns (outputs, saturations).
    """
    s_in, zp_in = qm.input_qp.scale, qm.input_qp.zero_point
    h = [int(min(127, max(-128, _round_half_away(v / s_in) + zp_in))) for v in x]
    shape = (len(h),)
    saturations = 0
    last = None
    for ql in qm.layers:
        if ql.kind == "reshape":
            shape = tuple(ql.geometry["out_shape"])  # row-major: values keep their order
            continue
        zp = ql.in_qp.zero_point
        c = [v - zp for v in h]
        w = ql.w_q.astype(int).tolist()
        b = ql.b_q.astype(int).tolist()
        if ql.kind == "dense":
            n_in, n_out = len(w), len(b)
            acc = [b[o] + sum(c[i] * w[i][o] for i in range(n_in)) for o in range(n_out)]
            shape = (n_out,)
        elif ql.kind == "conv1d":
            length, ch = shape
            kernel, stride = ql.geometry["kernel"], ql.geometry["stride"]
            n_out = len(b)
            out_len, pad_left = _same_pad(length, kernel, stride)
            acc = []
            for t in range(out_len):
                for o in range(n_out):
                    s = b[o]
                    for j in range(kernel):
                        p = t * stride + j - pad_left
                        if 0 <= p < length:
                            s += sum(c[p * ch + i] * w[j][i][o] for i in range(ch))
                    acc.append(s)
            shape = (out_len, n_out)
        elif ql.kind == "conv1d_t":
            in_len, ch = shape
            kernel, stride = ql.geometry["kernel"], ql.geometry["stride"]
            out_len = ql.geometry["output_len"]
            n_out = len(b)
            _, pad_left = _same_pad(out_len, kernel, stride)
            acc = [b[o] for _ in range(out_len) for o in range(n_out)]
            for t in range(in_len):
                for j in range(kernel):
                    p = t * stride + j - pad_left
                    if 0 <= p < out_len:
                        for o in range(n_out):
                            acc[p * n_out + o] += sum(c[t * ch + i] * w[j][i][o] for i in range(ch))
            shape = (out_len, n_out)
        else:
            raise CheckFailed(f"oracle does not know layer kind {ql.kind!r}")
        out = []
        zp_out = ql.out_qp.zero_point
        for a in acc:
            if a > 2**31 - 1 or a < -(2**31):
                saturations += 1
                a = min(2**31 - 1, max(-(2**31), a))
            y = min(127, max(-128, _rshift_round(a * ql.multiplier, ql.shift) + zp_out))
            if ql.activation == "relu":
                y = max(y, zp_out)
            out.append(y)
        h = out
        last = ql
    scale, zp = last.out_qp.scale, last.out_qp.zero_point
    return [(v - zp) * scale for v in h], saturations


def check_int8_rows(qm, x_rows, outputs):
    for r, (x, y) in enumerate(zip(x_rows, outputs)):
        expected, sat = int8_row_oracle(qm, x)
        require(sat == 0, f"oracle row {r}: {sat} int32 saturations")
        diff = [i for i, (a, e) in enumerate(zip(y.tolist(), expected)) if a != e]
        require(not diff, f"int8 row {r} differs from the scalar oracle at {len(diff)} outputs, first {diff[:3]}")


def check_on_grid(qm, outputs):
    """Every output is (q - zp) * scale for an integer q in [-128, 127]."""
    qp = qm.layers[-1].out_qp
    q = np.asarray(outputs) / qp.scale + qp.zero_point
    nearest = np.round(q)
    require(np.all(np.abs(q - nearest) <= 1e-6), "an int8 output lies off the dequantization grid")
    require(nearest.min() >= -128 and nearest.max() <= 127, "an int8 output lies outside [-128, 127]")


def snr_db(reference, approx):
    reference = np.asarray(reference)
    noise = float(np.sum((np.asarray(approx) - reference) ** 2))
    return math.inf if noise == 0 else 10.0 * math.log10(float(np.sum(reference**2)) / noise)
