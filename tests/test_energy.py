import pytest

from jamcodec import energy


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
