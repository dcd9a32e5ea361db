"""Post-training 8-bit quantization and an integer-only inference path.

Weights are quantized symmetrically per tensor (zero point 0), activations
asymmetrically from calibration ranges, biases as int32 at the combined
input*weight scale. Inference follows Jacob et al. 2018 (arXiv:1712.05877):
exact int32 accumulation with saturation counted, then requantization through
a 32-bit fixed-point multiplier and a right shift rounding half away from zero.
The dot products run as BLAS matmuls on integer-valued floats and stay exact:
the operands are integers (centred activations |c| <= 255, int8 weights
|w| <= 128), so for a layer of fan-in F (kernel * in channels for either
convolution; a transposed one's overlap-add sums no more terms) every partial
sum is an integer of magnitude at most F * 32640, in any summation order.
That is exact in float32 for F <= 514, which each such layer uses
(``QuantLayer.w_acc``), and in float64 for any F below 2^53 / 32640. The
accumulator is converted to int64 once, the int32 bias added there, and one
in-place pass requantizes it, so results are bit-identical across platforms.

Every output row depends on its input row alone, so ``int8_forward`` runs a
batch through all the layers ``_CHUNK_ROWS`` rows at a time, which keeps the
working arrays cache-sized; the result is that of one pass over the batch.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from . import FORMAT_VERSIONS, nn
from .errors import InvalidSpecError, ShapeError

QUANT_MAGIC = FORMAT_VERSIONS["quantized"].encode()
QMIN, QMAX = -128, 127
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
SCALE_FLOOR = 1e-8
_MAX_PRODUCT = (QMAX - QMIN) * -QMIN  # bound on |centred activation * int8 weight|
# int8_forward rows per pass through the layers: 128 to 512 time alike, 64 or 1000 slower
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class QuantParams:
    scale: float
    zero_point: int

    def __post_init__(self):
        if self.scale <= 0:
            raise InvalidSpecError("scale must be positive")
        if not (QMIN <= self.zero_point <= QMAX):
            raise InvalidSpecError(f"zero point {self.zero_point} outside int8 range")


def _round_half_away(x):
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def activation_qparams(lo: float, hi: float) -> QuantParams:
    """Asymmetric int8 parameters covering [lo, hi] and the real value 0."""
    lo = min(float(lo), 0.0)
    hi = max(float(hi), 0.0)
    scale = max((hi - lo) / (QMAX - QMIN), SCALE_FLOOR)
    zp = int(np.clip(_round_half_away(QMIN - lo / scale), QMIN, QMAX))
    return QuantParams(scale, zp)


def weight_qparams(w) -> QuantParams:
    """Symmetric int8 parameters (zero point 0)."""
    peak = float(np.max(np.abs(w))) if np.asarray(w).size else 0.0
    return QuantParams(max(peak / QMAX, SCALE_FLOOR), 0)


def quantize_tensor(x, params: QuantParams) -> np.ndarray:
    """q = clamp(round(x / scale) + zero_point, -128, 127) as int8."""
    q = _round_half_away(np.asarray(x, dtype=np.float64) / params.scale) + params.zero_point
    return np.clip(q, QMIN, QMAX).astype(np.int8)


def dequantize(q, params: QuantParams) -> np.ndarray:
    return (np.asarray(q, dtype=np.float64) - params.zero_point) * params.scale


def check_percentile(percentile: float) -> float:
    """percentile, unchanged; NaN or one outside [50, 100] (below 50 _range inverts) is rejected."""
    if not 50.0 <= percentile <= 100.0:
        raise InvalidSpecError(f"percentile must lie in [50, 100], got {percentile}")
    return percentile


def _range(values, percentile):
    v = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))
    if percentile >= 100.0:
        return float(v[0]), float(v[-1])
    n = len(v)
    k = min(n - 1, max(0, math.ceil(percentile / 100.0 * n) - 1))
    return float(v[max(0, n - 1 - k)]), float(v[k])


def calibrate(model: nn.AeModel, calib_x, percentile=99.9) -> list:
    """Percentile-clipped (lo, hi) activation ranges over a calibration set.

    Returns ``[input range, range after each layer of model.path]``, so
    ``len(model.path) + 1`` pairs in path order. Percentile 100 gives min/max,
    and one outside [50, 100] is rejected. Needs at least 16 vectors. Weights
    need no calibration: quantize_model takes their exact peak.
    """
    percentile = check_percentile(percentile)
    calib_x = np.atleast_2d(np.asarray(calib_x, dtype=np.float64))
    if calib_x.shape[0] < 16:
        raise InvalidSpecError(f"calibration needs >= 16 vectors, got {calib_x.shape[0]}")
    if calib_x.shape[-1] != model.input_dim:
        raise ShapeError(f"calibration vectors must have {model.input_dim} dims")

    ranges = [_range(calib_x, percentile)]
    h = calib_x
    for layer in model.path:
        h = layer.forward(h)
        ranges.append(_range(h, percentile))
    return ranges


def _fixed_point_multiplier(m_real: float) -> tuple:
    """m_real ~= m * 2^-shift with m an int32 in [2^30, 2^31)."""
    if m_real <= 0.0:
        return 0, 0
    shift = 0
    while m_real < 2**30:
        m_real *= 2.0
        shift += 1
    while m_real >= 2**31:
        m_real /= 2.0
        shift -= 1
    m = int(_round_half_away(m_real))
    if m == 2**31:
        m //= 2
        shift -= 1
    return m, shift


@dataclass
class QuantLayer:
    kind: str
    w_q: np.ndarray  # int8
    b_q: np.ndarray  # int32
    in_qp: QuantParams
    out_qp: QuantParams
    w_scale: float
    multiplier: int
    shift: int
    activation: str
    geometry: dict
    # w_q in the shape its matmul takes, as float32 where float32 sums every dot
    # product exactly, else as float64; derived here, never serialized
    w_acc: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fan_in = self.w_q.size // max(self.w_q.shape[-1], 1)  # kernel * in for both convs
        w = self.w_q.astype(np.float32 if fan_in * _MAX_PRODUCT <= 2**24 else np.float64)
        if self.kind == "conv1d":  # (kernel, in, out) -> (kernel * in, out)
            w = w.reshape(-1, w.shape[2])
        elif self.kind == "conv1d_t":  # (kernel, in, out) -> (in, kernel * out)
            w = np.ascontiguousarray(w.transpose(1, 0, 2)).reshape(w.shape[1], -1)
        self.w_acc = w


@dataclass
class QuantizedModel:
    layers: list
    input_qp: QuantParams
    arch: dict
    latent_dim: int
    input_dim: int

    def memory_bytes(self) -> int:
        blobs = sum(l.w_q.size + 4 * l.b_q.size for l in self.layers if l.kind != "reshape")
        meta = 5 * sum(2 for l in self.layers if l.kind != "reshape")
        return int(blobs + meta)


def quantize_model(model: nn.AeModel, ranges) -> QuantizedModel:
    """Freeze an autoencoder's model.path into int8 tensors plus requantization constants.

    ``ranges`` is ``calibrate``'s list for this model: the input range, then
    each path layer's output range, which sets that layer's output parameters.
    A list of another length raises InvalidSpecError.
    """
    if len(ranges) != len(model.path) + 1:
        raise InvalidSpecError(f"calibration holds {len(ranges)} ranges; this model's path "
                               f"needs {len(model.path) + 1}")
    input_qp = in_qp = activation_qparams(*ranges[0])
    layers = []
    for layer, out_range in zip(model.path, ranges[1:]):
        if layer.kind == "reshape":
            # reshape does not change values; the next layer keeps the previous boundary's parameters
            layers.append(QuantLayer("reshape", np.zeros(0, np.int8), np.zeros(0, np.int32),
                                     in_qp, in_qp, 1.0, 0, 0, "linear",
                                     {"out_shape": list(layer.out_shape)}))
            continue
        out_qp = activation_qparams(*out_range)
        if layer.activation not in ("relu", "linear"):
            raise InvalidSpecError(f"int8 path supports relu/linear only, got {layer.activation}")
        w = layer.params[0].astype(np.float64)
        b = layer.params[1].astype(np.float64)
        w_qp = weight_qparams(w)
        w_q = quantize_tensor(w, w_qp)
        bias_scale = w_qp.scale * in_qp.scale
        b_q = np.clip(_round_half_away(b / bias_scale), INT32_MIN, INT32_MAX).astype(np.int32)
        m, shift = _fixed_point_multiplier(bias_scale / out_qp.scale)
        geometry = {k: v for k, v in layer.spec().items() if k not in ("kind", "activation")}
        layers.append(QuantLayer(layer.kind, w_q, b_q, in_qp, out_qp, w_qp.scale, m, shift,
                                 layer.activation, geometry))
        in_qp = out_qp
    return QuantizedModel(layers=layers, input_qp=input_qp, arch=dict(model.arch or {}),
                          latent_dim=model.latent_dim, input_dim=model.input_dim)


def _requantize(ql: QuantLayer, acc: np.ndarray) -> int:
    """Requantize an int64 accumulator in place; returns its int32-saturation count.

    Saturate to int32, multiply by the fixed-point multiplier, shift right
    rounding half away from zero as ``(t + 2^(shift-1) - (t < 0)) >> shift``,
    add the output zero point and clamp to int8 (to [zero point, 127] for ReLU).
    Saturations are counted and clipped only when the extremes leave int32.
    """
    over = 0
    if acc.min() < INT32_MIN or acc.max() > INT32_MAX:
        over = int(np.count_nonzero((acc > INT32_MAX) | (acc < INT32_MIN)))
        np.clip(acc, INT32_MIN, INT32_MAX, out=acc)
    acc *= ql.multiplier
    if ql.shift > 0:
        negative = acc < 0
        acc += np.int64(1) << np.int64(ql.shift - 1)
        acc -= negative
        acc >>= ql.shift
    else:
        acc <<= -ql.shift
    acc += ql.out_qp.zero_point
    np.clip(acc, ql.out_qp.zero_point if ql.activation == "relu" else QMIN, QMAX, out=acc)
    return over


def _accumulate(ql: QuantLayer, h: np.ndarray) -> np.ndarray:
    """One layer's exact int64 accumulator, bias included, for the int8 codes ``h``."""
    w, zero_point, batch = ql.w_acc, ql.in_qp.zero_point, h.shape[0]
    if ql.kind == "dense":
        acc = np.subtract(h, zero_point, dtype=w.dtype) @ w
    elif ql.kind == "conv1d":
        geometry = [nn._conv1d_geometry(h.shape[1], ql.geometry["kernel"], ql.geometry["stride"])]
        acc = nn._im2col(nn._pad(np.subtract(h, zero_point, dtype=w.dtype), geometry), geometry) @ w
    elif ql.kind == "conv1d_t":
        centered = np.subtract(h, zero_point, dtype=w.dtype)
        _, in_len, in_ch = centered.shape
        kernel, stride, out_len = ql.geometry["kernel"], ql.geometry["stride"], ql.geometry["output_len"]
        expected, pad_left, total_pad, _ = nn._conv1d_geometry(out_len, kernel, stride)
        if expected != in_len:
            raise ShapeError(f"conv1d_t expects input length {expected}, got {in_len}")
        n_out = ql.w_q.shape[2]
        contrib = centered @ w  # (batch, in_len, kernel * n_out)
        zpad = np.zeros((batch, out_len + total_pad, n_out), w.dtype)
        flat, taps = zpad.reshape(batch, -1), kernel * n_out
        for t in range(in_len):  # overlap-add: input step t feeds output rows t*stride .. + kernel - 1
            flat[:, t * stride * n_out : t * stride * n_out + taps] += contrib[:, t]
        acc = zpad[:, pad_left : pad_left + out_len]
    else:
        raise InvalidSpecError(f"unsupported quantized layer kind {ql.kind!r}")
    acc = acc.astype(np.int64)
    # a conv's bias goes in as one flat row per sample: a broadcast over few channels is slow
    rows = acc.reshape(batch, -1)
    rows += ql.b_q if rows.shape[1] == ql.b_q.size else np.tile(ql.b_q, rows.shape[1] // ql.b_q.size)
    return acc


def int8_forward(qm: QuantizedModel, x, return_info=False):
    """Reconstruction through the integer path; float only at the ends.

    Accepts one vector or a batch; a NaN or infinite input raises
    InvalidSpecError, as the int8 cast would make it a finite code. With
    ``return_info`` also returns a dict holding the int32-saturation count.
    Each layer's matmul gives the exact integer accumulator (see above),
    converted to int64 once.

    The batch runs through the layers ``_CHUNK_ROWS`` rows at a time, and each
    chunk's dequantized rows fill one preallocated output. This cannot change
    a byte: every accumulator is exact, the overlap-add and the
    requantization act row by row, and the saturation count is a sum.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise InvalidSpecError("int8_forward input must be finite")
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[-1] != qm.input_dim:
        raise ShapeError(f"quantized model expects {qm.input_dim} inputs, got {x.shape[-1]}")
    out = np.empty((x.shape[0], qm.input_dim))
    overflows = 0
    for start in range(0, x.shape[0], _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        h = quantize_tensor(x[rows], qm.input_qp)
        for ql in qm.layers:
            if ql.kind == "reshape":
                h = h.reshape(h.shape[0], *ql.geometry["out_shape"])
                continue
            h = _accumulate(ql, h)
            overflows += _requantize(ql, h)
            last = ql
        out[rows] = dequantize(h.reshape(h.shape[0], -1), last.out_qp)
    out = out[0] if single else out
    if return_info:
        return out, {"int32_saturations": overflows}
    return out


def quant_report(model: nn.AeModel, qm: QuantizedModel, eval_x) -> dict:
    """Float vs int8 reconstruction quality plus size accounting."""
    eval_x = np.atleast_2d(np.asarray(eval_x, dtype=np.float64))
    recon_f, _ = nn.forward(model, eval_x)
    recon_q, info = int8_forward(qm, eval_x, return_info=True)
    per_layer = {}
    for i, (layer, ql) in enumerate(zip(
        (l for l in model.path if l.params),
        (l for l in qm.layers if l.kind != "reshape"),
    )):
        w = layer.params[0].astype(np.float64)
        err = np.max(np.abs(w - ql.w_q.astype(np.float64) * ql.w_scale))
        per_layer[f"L{i}"] = {"weight_max_abs_error": float(err), "weight_scale": ql.w_scale}
    noise = recon_q - recon_f
    denom = float(np.sum(recon_f**2))
    snr_db = 10.0 * math.log10(denom / float(np.sum(noise**2))) if np.any(noise) and denom > 0 else math.inf
    return {
        "recon_mse_float": nn.mse_loss(eval_x, recon_f),
        "recon_mse_int8": nn.mse_loss(eval_x, recon_q),
        "int8_vs_float_snr_db": snr_db,
        "per_layer": per_layer,
        "size_bytes_float": 4 * model.n_params(),
        "size_bytes_int8": qm.memory_bytes(),
        "int32_saturations": info["int32_saturations"],
    }


def save_quantized(path, qm: QuantizedModel) -> None:
    """AEQ1 binary: magic, JSON descriptor, per-tensor int8/int32 blobs."""
    descriptor = {
        "format": "AEQ1",
        "version": 1,
        "arch": qm.arch,
        "input_dim": qm.input_dim,
        "latent_dim": qm.latent_dim,
        "input_qp": [qm.input_qp.scale, qm.input_qp.zero_point],
        "layers": [
            {
                "kind": l.kind,
                "w_shape": list(l.w_q.shape),
                "b_shape": list(l.b_q.shape),
                "in_qp": [l.in_qp.scale, l.in_qp.zero_point],
                "out_qp": [l.out_qp.scale, l.out_qp.zero_point],
                "w_scale": l.w_scale,
                "multiplier": l.multiplier,
                "shift": l.shift,
                "activation": l.activation,
                "geometry": l.geometry,
            }
            for l in qm.layers
        ],
    }
    with open(path, "wb") as fh:
        nn._write_descriptor(fh, QUANT_MAGIC, descriptor)
        for l in qm.layers:
            fh.write(np.ascontiguousarray(l.w_q, dtype="<i1").tobytes())
            fh.write(np.ascontiguousarray(l.b_q, dtype="<i4").tobytes())


def load_quantized(path) -> QuantizedModel:
    """Read an AEQ1 file; a short read, trailing bytes or a malformed descriptor raise InvalidSpecError."""
    with open(path, "rb") as fh:
        descriptor = nn._read_descriptor(fh, path, QUANT_MAGIC)
        try:
            layers = []
            for spec in descriptor["layers"]:
                w_size = int(np.prod(spec["w_shape"])) if spec["w_shape"] else 0
                b_size = int(np.prod(spec["b_shape"])) if spec["b_shape"] else 0
                w_q = np.frombuffer(nn._read_exact(fh, w_size, path, f"{spec['kind']} weights"),
                                    dtype="<i1").reshape(spec["w_shape"])
                b_q = np.frombuffer(nn._read_exact(fh, 4 * b_size, path, f"{spec['kind']} biases"),
                                    dtype="<i4").reshape(spec["b_shape"])
                layers.append(QuantLayer(
                    spec["kind"], w_q.astype(np.int8), b_q.astype(np.int32),
                    QuantParams(*spec["in_qp"]), QuantParams(*spec["out_qp"]),
                    spec["w_scale"], spec["multiplier"], spec["shift"], spec["activation"],
                    spec["geometry"],
                ))
            qm = QuantizedModel(layers=layers, input_qp=QuantParams(*descriptor["input_qp"]),
                                arch=descriptor["arch"], latent_dim=descriptor["latent_dim"],
                                input_dim=descriptor["input_dim"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidSpecError(f"{path}: malformed descriptor: {exc!r}") from None
        if fh.read(1):
            raise InvalidSpecError(f"{path}: trailing bytes after the last tensor")
    return qm
