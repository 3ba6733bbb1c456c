"""Unit conversions, derived power densities, efficiency arithmetic."""
import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from saturee import cli
from saturee.sysmodel import (SystemConfig, dbm_to_watt, derive_power_model,
                              load_config, total_power,
                              transmit_power_from_dbm, transmit_power_to_dbm,
                              watt_to_dbm)

from oracles import energy_efficiency, normalized_config


def test_dbm_anchors():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert watt_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)
    assert watt_to_dbm(10.0) == pytest.approx(40.0, abs=1e-12)
    assert dbm_to_watt(4000.0) == math.inf


def test_watt_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watt_to_dbm(0.0)
    with pytest.raises(ValueError):
        watt_to_dbm(-1.0)


@given(st.floats(min_value=-120.0, max_value=80.0))
def test_dbm_round_trip(dbm):
    assert watt_to_dbm(dbm_to_watt(dbm)) == pytest.approx(dbm, abs=1e-10)


def test_derived_densities_reference_cell(cfg3):
    pm = derive_power_model(cfg3)
    # 10^(-19.7), 1 W / 20 MHz and 10 W / 20 MHz, evaluated independently
    # at 50-digit precision with mpmath and rounded once to double.
    assert pm.n0 == pytest.approx(1.9952623149688795e-20, rel=1e-14)
    assert pm.Pc == pytest.approx(5e-8, rel=1e-14)
    assert pm.Po == pytest.approx(5e-7, rel=1e-14)
    assert pm.Pconst == pytest.approx(6.5e-7, rel=1e-14)


def test_noise_figure_shifts_noise_density(cfg3):
    quiet = SystemConfig(M=3, N=3, noise_figure_db=0.0)
    assert derive_power_model(cfg3).n0 == pytest.approx(
        derive_power_model(quiet).n0 * 10.0 ** 0.7, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(M=0, N=3)
    with pytest.raises(ValueError):
        SystemConfig(M=3, N=0)
    with pytest.raises(ValueError):
        SystemConfig(M=3.0, N=3)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        SystemConfig(M=3, N=3, W=0.0)
    with pytest.raises(ValueError):
        SystemConfig(M=3, N=3, W=math.inf)
    with pytest.raises(ValueError):
        SystemConfig(M=3, N=3, xi=0.5)
    with pytest.raises(ValueError):
        SystemConfig(M=3, N=3, noise_figure_db=-1.0)
    assert SystemConfig(M=3, N=3).beta == 1.3
    # Both circuit figures underflow: nothing is consumed before radiating.
    with pytest.raises(ValueError, match="Pc_prime_dbm, Po_prime_dbm"):
        SystemConfig(M=3, N=3, Pc_prime_dbm=-4000.0, Po_prime_dbm=-4000.0)
    assert SystemConfig(M=3, N=3, Po_prime_dbm=-4000.0).Po_prime_dbm == -4000.0
    for bad in (0.0, -1.0, math.inf, math.nan, True, "1.3", None):
        with pytest.raises(ValueError, match="beta"):
            SystemConfig(M=3, N=3, beta=bad)


def test_total_power_examples():
    pm = derive_power_model(SystemConfig(M=3, N=3))
    assert total_power(0.0, pm, 1.0) == pm.Pconst
    assert total_power(pm.Pconst, pm, 1.0) == pytest.approx(2.0 * pm.Pconst,
                                                            rel=1e-15)
    # normalized bookkeeping: three unit circuit densities plus ten static
    pm13 = derive_power_model(normalized_config(3, 3, 13.0))
    assert pm13.Pconst == pytest.approx(13.0, rel=1e-12)
    assert total_power(1.0, pm13, 2.0) == pytest.approx(15.0, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1e3),
       st.floats(min_value=0.0, max_value=1e3),
       st.floats(min_value=1.0, max_value=4.0))
@example(pa=869.4375, pb=869.4136459992163, xi=3.0)
def test_total_power_affine_increasing(pa, pb, xi):
    pm = derive_power_model(SystemConfig(M=2, N=2))
    lo, hi = sorted((pa, pb))
    top = total_power(hi, pm, xi)
    assert top >= total_power(lo, pm, xi)
    # affine: the increment is xi times the power increment, up to the
    # rounding of the two totals it is the difference of (a few ulps of
    # the larger one, which dwarfs a small increment)
    assert top - total_power(lo, pm, xi) == pytest.approx(
        xi * (hi - lo), rel=1e-12, abs=4 * sys.float_info.epsilon * top)


def test_energy_efficiency_examples():
    assert energy_efficiency(0.0, 5.0) == 0.0
    assert energy_efficiency(1.0, 2.0) == 0.5
    assert energy_efficiency(3.0, 7.0) == energy_efficiency(6.0, 14.0)


@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-9, max_value=1e3))
def test_energy_efficiency_decreasing_in_power(rate, p, dp):
    pm = derive_power_model(SystemConfig(M=2, N=2))
    ee_lo = energy_efficiency(rate, total_power(p, pm, 1.0))
    ee_hi = energy_efficiency(rate, total_power(p + dp, pm, 1.0))
    assert ee_hi < ee_lo


def test_transmit_power_dbm_round_trip(cfg3):
    p = transmit_power_from_dbm(30.0, cfg3)
    assert p == pytest.approx(1.0 / 20e6, rel=1e-15)
    assert transmit_power_to_dbm(p, cfg3) == pytest.approx(30.0, abs=1e-12)


def test_normalized_config_units():
    cfg = normalized_config(3, 3, 13.0)
    pm = derive_power_model(cfg)
    assert pm.n0 == pytest.approx(1.0, rel=1e-12)
    assert cfg.W == 1.0
    assert pm.Pconst == pytest.approx(13.0, rel=1e-12)
    with pytest.raises(ValueError):
        normalized_config(3, 3, 3.0)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cell.json"
    path.write_text('{"M": 4, "N": 2, "xi": 2.0, "beta": 1.5}')
    cfg = load_config(path)
    assert cfg == SystemConfig(M=4, N=2, xi=2.0, beta=1.5)


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"M": 3, "N": 3, "banana": 1}')
    with pytest.raises(ValueError, match="banana"):
        load_config(bad)
    bad.write_text('{"M": 3.5, "N": 3}')
    with pytest.raises(ValueError, match="integer"):
        load_config(bad)
    bad.write_text('{"M": 3}')
    with pytest.raises(ValueError, match="must set M and N"):
        load_config(bad)
    bad.write_text('[1, 2]')
    with pytest.raises(ValueError, match="JSON object"):
        load_config(bad)
    bad.write_text('{not json')
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(bad)
    with pytest.raises(ValueError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_load_config_rejects_toy_static_power(tmp_path, capsys):
    # The toy model reads its static power from --pstatic alone, so the
    # key in a config file would be silently ignored.
    path = tmp_path / "cell.json"
    path.write_text('{"M": 3, "N": 3, "p_static": 2.0}')
    with pytest.raises(ValueError, match="p_static"):
        load_config(path)
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert "p_static" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    '"xi": "2"', '"beta": "1.3"', '"beta": null', '"W": true', '"M": true',
    '"Pc_prime_dbm": [30]', '"beta": Infinity', '"beta": NaN',
    '"beta": 0', '"beta": -1.3', '"rzf_alpha": 0.1',
    '"Pc_prime_dbm": 4000', '"noise_figure_db": 1e308',
    '"noise_psd_dbm_per_hz": -4000', '"W": 1e-320'])
def test_load_config_rejects_bad_values(tmp_path, capsys, entry):
    # Wrong types, a non-finite or non-positive beta and finite figures
    # whose power densities overflow or underflow are config errors
    # (exit 2), never a traceback or a silently clamped operating power.
    # The calibration loading has no key: it comes from the band itself.
    path = tmp_path / "cell.json"
    path.write_text('{"M": 3, "N": 3, ' + entry + '}')
    key = entry.split('"')[1]
    with pytest.raises(ValueError, match=key):
        load_config(path)
    assert cli.main(["saturation", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err
