"""Compression, traffic, energy, and cost arithmetic for the edge deployment.

Every quantity is exact (``fractions.Fraction`` over the decimal reading of
each input): the functions below return Fractions, and ``savings_report``
keeps them exact, its exact residual included, until it converts each leaf of
the report to float once. A value beyond float range (one that overflows, or a
nonzero one whose float is 0.0) raises InvalidSpecError naming it, never
OverflowError, and recomputation is bit-stable.

Two readings of the transmission saving are always reported side by side:
the side-channel reading (only the 177-value block is compressed, the other
76 values per second still go out) and the whole-budget reading, which
applies the rounded percentage reduction to the entire networking budget.
The published downstream figures (264 mWh remaining, 130 mWh saved, the
~29,000x ratio) follow the whole-budget reading at a rounded 67% reduction.
"""

from dataclasses import asdict, dataclass, fields
from fractions import Fraction
import json

from .errors import InvalidSpecError


def _frac(x) -> Fraction:
    """Exact decimal reading of a finite number (floats go through repr)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    try:
        return Fraction(str(x))
    except ValueError:  # nan, inf or not a number
        raise InvalidSpecError(f"not a finite number: {x!r}") from None


SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86_400


@dataclass(frozen=True)
class PowerModel:
    tpu_watts: float = 1.6
    network_mwh_per_period: float = 394.0
    cellular_usd_per_gb: float = 2.6
    # Effective TPU duty per 1,000-input batch that yields the published 4.44 uWh
    # at 1.6 W (the published "1.6 Ws" would be 444 uWh; the uWh figure is the one
    # every downstream ratio uses, so it wins).
    seconds_per_batch: float = 0.01

    def __post_init__(self):
        for f in fields(self):
            if _frac(getattr(self, f.name)) <= 0:
                raise InvalidSpecError(f"{f.name} must be positive")

    def tpu_uwh(self) -> Fraction:
        """Exact TPU energy of one batch in uWh: watts times duty time (1 Wh = 3600 Ws)."""
        return _frac(self.tpu_watts) * _frac(self.seconds_per_batch) * 1_000_000 / SECONDS_PER_HOUR


@dataclass(frozen=True)
class TrafficModel:
    values_per_second: int = 253
    compressed_block: int = 177
    latent_values: int = 6
    bytes_per_value: int = 4

    def __post_init__(self):
        if self.compressed_block > self.values_per_second:
            raise InvalidSpecError("compressed block cannot exceed the values collected per second")
        if not (0 < self.latent_values < self.compressed_block):
            raise InvalidSpecError("latent count must be positive and below the compressed block")
        if self.bytes_per_value <= 0:
            raise InvalidSpecError("bytes_per_value must be positive")


def tpu_energy(pm: PowerModel) -> dict:
    """The compressor's energy for one batch (PowerModel.tpu_uwh) in Ws, uWh and mWh."""
    uwh = pm.tpu_uwh()
    return {"watt_seconds": uwh * SECONDS_PER_HOUR / 1_000_000, "uwh": uwh, "mwh": uwh / 1_000}


def traffic_reduction(tm: TrafficModel) -> dict:
    """Transmitted values per second and the derived compression figures.

    ``transmitted_values`` keeps the uncompressed side channel
    (values_per_second - compressed_block) and replaces the compressed block
    by its latent values. The end-to-end factor assumes the side channel is
    suppressed too.
    """
    total, block, latent = map(_frac, (tm.values_per_second, tm.compressed_block, tm.latent_values))
    transmitted = total - block + latent
    residual = transmitted / total
    return {
        "values_per_second": total,
        "transmitted_values": transmitted,
        "residual_fraction": residual,
        "reduction_percent": (1 - residual) * 100,
        "compression_factor_block": block / latent,
        "compression_factor_end_to_end": total / latent,
        "compression_rate_percent_end_to_end": (1 - latent / total) * 100,
        "bytes_per_second_raw": total * tm.bytes_per_value,
        "bytes_per_second_compressed": transmitted * tm.bytes_per_value,
    }


def network_energy(pm: PowerModel, residual_fraction) -> dict:
    """Networking budget after compression, the saving, and the TPU ratio.

    ``residual_fraction`` is taken as given so both the exact side-channel
    residual and the published rounded reading are computable.
    """
    residual = _frac(residual_fraction)
    if not (0 <= residual <= 1):
        raise InvalidSpecError("residual fraction must lie in [0, 1]")
    budget = _frac(pm.network_mwh_per_period)
    new = budget * residual
    saved = budget - new
    tpu_uwh = pm.tpu_uwh()
    return {"new_mwh": new, "saved_mwh": saved, "tpu_uwh": tpu_uwh,
            "saved_over_tpu_ratio": saved * 1000 / tpu_uwh}


def daily_traffic_cost(rate_mb_per_s, usd_per_gb) -> dict:
    """GB/day at a constant byte rate and its cellular cost (1 GB = 1000 MB)."""
    rate, price = _frac(rate_mb_per_s), _frac(usd_per_gb)
    if rate <= 0 or price <= 0:
        raise InvalidSpecError("rate and price must be positive")
    gb_per_day = rate * SECONDS_PER_DAY / 1000
    return {"gb_per_day": gb_per_day, "usd_per_day": gb_per_day * price}


def _floats(exact, name=""):
    """``exact`` as a float, or its nested dicts as dicts of floats; a value that overflows,
    or a nonzero one whose float is 0.0, raises InvalidSpecError naming its key path."""
    if isinstance(exact, dict):
        return {k: _floats(v, f"{name}.{k}" if name else k) for k, v in exact.items()}
    try:
        if (value := float(exact)) or not exact:  # an exact zero is the one 0.0
            return value
    except OverflowError:
        pass
    raise InvalidSpecError(f"energy report value {name} is beyond float range")


@dataclass
class EnergyReport:
    """Bundle of every published figure, under both residual readings, as floats."""

    tpu: dict
    traffic: dict
    network_exact_residual: dict
    network_rounded_residual: dict
    daily_cost: dict
    one_percent_saving_mwh: float
    one_percent_over_tpu_ratio: float

    def to_json(self) -> dict:
        return asdict(self)  # a deep copy: callers may change it

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def savings_report(pm: PowerModel = PowerModel(), tm: TrafficModel = TrafficModel(),
                   rate_mb_per_s=4.0) -> EnergyReport:
    """Full accounting with defaults that reproduce the published numbers.

    The rounded reading follows the published arithmetic: the reduction
    percentage is truncated to a whole percent and applied directly as the
    multiplier on the networking budget (394 mWh * 0.67 = 264 mWh remaining,
    130 mWh saved). Every figure stays exact until ``_floats`` converts the
    report once.
    """
    traffic = traffic_reduction(tm)
    rounded_residual = Fraction(int(traffic["reduction_percent"]), 100)
    one_percent = _frac(pm.network_mwh_per_period) / 100
    return EnergyReport(**_floats({
        "tpu": tpu_energy(pm),
        "traffic": traffic,
        "network_exact_residual": network_energy(pm, traffic["residual_fraction"]),
        "network_rounded_residual": network_energy(pm, rounded_residual),
        "daily_cost": daily_traffic_cost(rate_mb_per_s, pm.cellular_usd_per_gb),
        "one_percent_saving_mwh": one_percent,
        "one_percent_over_tpu_ratio": one_percent * 1000 / pm.tpu_uwh(),
    }))


def format_table(report: EnergyReport) -> str:
    """Human-readable summary of an EnergyReport."""
    t = report.traffic
    lines = [
        "Energy / traffic accounting",
        "---------------------------",
        f"TPU energy per batch:        {report.tpu['watt_seconds']:.4g} Ws "
        f"({report.tpu['uwh']:.3g} uWh)",
        f"Values per second:           {t['values_per_second']:.0f} -> "
        f"{t['transmitted_values']:.0f} transmitted",
        f"Block compression:           {t['compression_factor_block']:.3g}x "
        f"({t['reduction_percent']:.1f}% lower transmission)",
        f"End-to-end compression:      {t['compression_factor_end_to_end']:.3g}x "
        f"({t['compression_rate_percent_end_to_end']:.1f}%)",
        f"Network budget (exact):      {report.network_exact_residual['new_mwh']:.1f} mWh, "
        f"saves {report.network_exact_residual['saved_mwh']:.1f} mWh",
        f"Network budget (rounded):    {report.network_rounded_residual['new_mwh']:.1f} mWh, "
        f"saves {report.network_rounded_residual['saved_mwh']:.1f} mWh "
        f"({report.network_rounded_residual['saved_over_tpu_ratio']:,.0f}x TPU energy)",
        f"1% of network budget:        {report.one_percent_saving_mwh:.3g} mWh "
        f"(~{report.one_percent_over_tpu_ratio:,.0f}x the TPU energy of one 1,000-input batch)",
        f"Uncompressed daily traffic:  {report.daily_cost['gb_per_day']:.1f} GB/day "
        f"-> {report.daily_cost['usd_per_day']:,.0f} USD/day",
    ]
    return "\n".join(lines)
