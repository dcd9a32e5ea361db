import dataclasses
from fractions import Fraction
import math
import random

import pytest

from jamcodec import energy
from jamcodec.errors import InvalidSpecError


@pytest.fixture(scope="module")
def report():
    return energy.savings_report().to_json()


def test_tpu_energy_per_batch(report):
    # 1.6 W for 0.01 s per 1000-vector batch = 0.016 W s = 40/9 uWh
    assert report["tpu"]["uwh"] == pytest.approx(40 / 9, rel=1e-12)


def test_end_to_end_compression_factor(report):
    # 253 values per second in, 6 latent values out
    assert report["traffic"]["compression_factor_end_to_end"] == pytest.approx(253 / 6, rel=1e-12)


def test_network_saving_with_rounded_residual(report):
    rounded = report["network_rounded_residual"]
    assert rounded["new_mwh"] == pytest.approx(263.98, rel=1e-12)
    assert rounded["saved_mwh"] == pytest.approx(130.02, rel=1e-12)
    assert rounded["saved_over_tpu_ratio"] == pytest.approx(29_254.5, rel=1e-12)


def test_one_percent_ratio_is_exact():
    # 3.94 mWh over the 40/9 uWh of one batch is 886.5 exactly
    assert energy.savings_report().one_percent_over_tpu_ratio == 886.5


def test_network_and_tpu_energy_read_one_batch_energy():
    pm = energy.PowerModel()
    assert energy.network_energy(pm, 0.5)["tpu_uwh"] == energy.tpu_energy(pm)["uwh"]


def test_exact_residual_ratio_is_exact():
    # 394 mWh * 171/253 saved, over the 40/9 uWh of one batch, rounded once
    ratio = Fraction(394) * Fraction(171, 253) * 1000 / Fraction(40, 9)
    assert energy.savings_report().network_exact_residual["saved_over_tpu_ratio"] == float(ratio)
    assert float(ratio) == 59917.58893280633


def test_an_exact_zero_is_zero_and_a_nonzero_figure_below_float_range_raises():
    tm = energy.TrafficModel(compressed_block=2, latent_values=1)  # a 0.4% reduction truncates to 0%
    assert energy.savings_report(tm=tm).network_rounded_residual["new_mwh"] == 0.0
    with pytest.raises(InvalidSpecError, match="tpu.watt_seconds is beyond float range"):
        energy.savings_report(energy.PowerModel(tpu_watts=1e-200, seconds_per_batch=1e-200))


def random_models(seed):
    """Positive PowerModel and TrafficModel values and a byte rate, drawn from a seeded generator."""
    rng = random.Random(seed)
    power = {f.name: 10 ** rng.uniform(-3, 3) for f in dataclasses.fields(energy.PowerModel)}
    total = rng.randint(3, 10_000)
    block = rng.randint(2, total)
    traffic = {"values_per_second": total, "compressed_block": block,
               "latent_values": rng.randint(1, block - 1), "bytes_per_value": rng.randint(1, 8)}
    return power, traffic, 10 ** rng.uniform(-2, 2)


def oracle(power, traffic, rate):
    """Every figure of the report as the Fraction of the inputs' decimal readings, rounded once."""
    watts, mwh_budget, usd_per_gb, seconds = (Fraction(repr(power[k])) for k in (
        "tpu_watts", "network_mwh_per_period", "cellular_usd_per_gb", "seconds_per_batch"))
    total, block, latent, width = (Fraction(traffic[k]) for k in (
        "values_per_second", "compressed_block", "latent_values", "bytes_per_value"))
    uwh = watts * seconds * 10**6 / 3600
    sent = total - block + latent
    reduction = 100 - 100 * sent / total

    def network(residual):
        new = mwh_budget * residual
        return {"new_mwh": new, "saved_mwh": mwh_budget - new, "tpu_uwh": uwh,
                "saved_over_tpu_ratio": (mwh_budget - new) * 1000 / uwh}

    gb_per_day = Fraction(repr(rate)) * 86_400 / 1000
    exact = {
        "tpu": {"watt_seconds": watts * seconds, "uwh": uwh, "mwh": uwh / 1000},
        "traffic": {"values_per_second": total, "transmitted_values": sent, "residual_fraction": sent / total,
                    "reduction_percent": reduction, "compression_factor_block": block / latent,
                    "compression_factor_end_to_end": total / latent,
                    "compression_rate_percent_end_to_end": 100 - 100 * latent / total,
                    "bytes_per_second_raw": total * width, "bytes_per_second_compressed": sent * width},
        "network_exact_residual": network(sent / total),
        "network_rounded_residual": network(Fraction(math.floor(reduction), 100)),
        "daily_cost": {"gb_per_day": gb_per_day, "usd_per_day": gb_per_day * usd_per_gb},
        "one_percent_saving_mwh": mwh_budget / 100,
        "one_percent_over_tpu_ratio": mwh_budget * 10 / uwh,
    }
    return {k: {m: float(x) for m, x in v.items()} if isinstance(v, dict) else float(v)
            for k, v in exact.items()}


@pytest.mark.parametrize("seed", range(6))
def test_every_report_float_is_the_exact_value_rounded_once(seed):
    power, traffic, rate = random_models(seed)
    report = energy.savings_report(energy.PowerModel(**power), energy.TrafficModel(**traffic), rate)
    assert report.to_json() == oracle(power, traffic, rate)
