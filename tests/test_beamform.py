"""Beamformers and the exact SINR / rate / efficiency evaluation."""
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saturee import beamform, channel
from saturee.beamform import BeamformingSolution
from saturee.sysmodel import SystemConfig, derive_power_model


def _fixed(h):
    return channel.ChannelRealization(h=np.asarray(h, dtype=complex),
                                      seed=0, trial_index=0)


def test_mrt_normalizes():
    ch = _fixed([[2.0, 0.0, 0.0]])
    v = beamform.mrt(ch)
    assert np.allclose(v, [[1.0, 0.0, 0.0]])


def test_mrt_alignment(cfg3):
    ch = channel.generate(cfg3, 1, 0)
    v = beamform.mrt(ch)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    # Cauchy-Schwarz equality: |h_k^H v_k|^2 = ||h_k||^2
    inner = np.abs(np.sum(ch.h.conj() * v, axis=1)) ** 2
    assert np.allclose(inner, np.sum(np.abs(ch.h) ** 2, axis=1), rtol=1e-12)


def test_mrt_single_antenna():
    ch = _fixed([[1.0 - 1.0j]])
    v = beamform.mrt(ch)
    assert abs(abs(v[0, 0]) - 1.0) < 1e-12


def test_mrt_rejects_zero_vector():
    with pytest.raises(ValueError):
        beamform.mrt(_fixed([[0.0, 0.0]]))


def test_mrt_maximizes_beam_gain(cfg3):
    """No unit vector beats the matched direction on its own channel."""
    ch = channel.generate(cfg3, 4, 0)
    v = beamform.mrt(ch)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u /= np.linalg.norm(u)
        for k in range(3):
            assert (np.abs(ch.h[k].conj() @ u) ** 2
                    <= np.abs(ch.h[k].conj() @ v[k]) ** 2 * (1.0 + 1e-12))


def test_rzf_unit_rows_and_positive_alpha(cfg3):
    ch = channel.generate(cfg3, 2, 0)
    v = beamform.rzf(ch, 0.37)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        beamform.rzf(ch, 0.0)
    with pytest.raises(ValueError):
        beamform.rzf(ch, -1.0)


@pytest.mark.parametrize("alpha", [0.3, 1e4])
@pytest.mark.parametrize("n, m", [(16, 64), (3, 3), (8, 2), (2, 8), (64, 64)])
def test_rzf_matches_antenna_dimension_inverse(n, m, alpha):
    """The user-dimension solve gives the directions of the M x M form."""
    ch = channel.generate(SystemConfig(M=m, N=n), 21, 0)
    h = ch.h
    raw = np.linalg.solve(h.T @ h.conj() + m * alpha * np.eye(m), h.T).T
    direct = raw / np.linalg.norm(raw, axis=1)[:, None]
    assert np.allclose(beamform.rzf(ch, alpha), direct, rtol=0.0, atol=1e-12)


def test_cli_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (f"import sys; sys.path.insert(0, {src!r}); import saturee.cli; "
             "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_rzf_large_loading_degenerates_to_mrt(cfg3):
    ch = channel.generate(cfg3, 2, 1)
    v = beamform.rzf(ch, 1e9)
    m = beamform.mrt(ch)
    align = np.abs(np.sum(m.conj() * v, axis=1))
    assert np.all(align >= 1.0 - 1e-6)


def test_rzf_single_user_is_mrt():
    ch = _fixed([[1.0, 2.0j, -1.0]])
    for alpha in (1e-6, 1.0, 1e6):
        v = beamform.rzf(ch, alpha)
        m = beamform.mrt(ch)
        assert abs(abs(np.sum(m.conj() * v)) - 1.0) < 1e-10


def test_rzf_orthogonal_channels_are_fixed_points():
    h = np.diag([2.0, 3.0, 0.5]).astype(complex)
    ch = _fixed(h)
    v = beamform.rzf(ch, 0.8)
    m = beamform.mrt(ch)
    assert np.allclose(np.abs(np.sum(m.conj() * v, axis=1)), 1.0, atol=1e-10)


def test_mmse_loading_value(cfg3):
    pm = derive_power_model(cfg3)
    assert beamform.mmse_loading_alpha(cfg3, 1e-9) == pytest.approx(
        3 * pm.n0 / (3 * 1e-9), rel=1e-12)
    with pytest.raises(ValueError):
        beamform.mmse_loading_alpha(cfg3, 0.0)


def test_equal_power():
    p = beamform.equal_power(4, 2.0)
    assert np.allclose(p, 0.5)
    assert float(np.sum(p)) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        beamform.equal_power(3, -1.0)


def test_sinr_zero_power(cfg3):
    ch = channel.generate(cfg3, 1, 0)
    sol = BeamformingSolution(v=beamform.mrt(ch), p=np.zeros(3))
    assert np.allclose(beamform.sinr(ch, sol, 1e-20), 0.0)


def test_sinr_single_user_closed_form():
    ch = _fixed([[1.0, 2.0, 2.0]])
    n0 = 0.5
    sol = BeamformingSolution(v=beamform.mrt(ch), p=np.array([0.25]))
    # no interference: ||h||^2 p / n0 = 9 * 0.25 / 0.5
    assert beamform.sinr(ch, sol, n0)[0] == pytest.approx(4.5, rel=1e-12)


def test_sinr_orthogonal_channels_no_interference():
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    ch = _fixed(h)
    sol = BeamformingSolution(v=beamform.mrt(ch), p=np.array([1.0, 1.0, 1.0]))
    got = beamform.sinr(ch, sol, 2.0)
    assert np.allclose(got, np.array([1.0, 4.0, 9.0]) / 2.0, rtol=1e-12)


def test_sinr_interference_hand_case():
    # both users share the same direction: full leakage
    h = np.array([[1.0, 0.0], [1.0, 0.0]]).astype(complex)
    ch = _fixed(h)
    sol = BeamformingSolution(v=beamform.mrt(ch), p=np.array([2.0, 3.0]))
    got = beamform.sinr(ch, sol, 1.0)
    assert got[0] == pytest.approx(2.0 / (3.0 + 1.0), rel=1e-12)
    assert got[1] == pytest.approx(3.0 / (2.0 + 1.0), rel=1e-12)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=1000),
       st.floats(min_value=0.0, max_value=2 * math.pi),
       st.integers(min_value=0, max_value=2))
def test_sinr_phase_invariance(trial, theta, k):
    cfg = SystemConfig(M=3, N=3)
    ch = channel.generate(cfg, 11, trial)
    v = beamform.mrt(ch)
    p = beamform.equal_power(3, 1e-8)
    base = beamform.sinr(ch, BeamformingSolution(v=v, p=p), 1e-20)
    rotated = v.copy()
    rotated[k] = rotated[k] * np.exp(1j * theta)
    got = beamform.sinr(ch, BeamformingSolution(v=rotated, p=p), 1e-20)
    assert np.allclose(got, base, rtol=1e-9)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=1000))
def test_sinr_nonnegative_finite(trial):
    cfg = SystemConfig(M=2, N=4)
    ch = channel.generate(cfg, 13, trial)
    sol = BeamformingSolution(v=beamform.mrt(ch), p=beamform.equal_power(4, 1e-9))
    s = beamform.sinr(ch, sol, derive_power_model(cfg).n0)
    assert np.all(s >= 0.0) and np.all(np.isfinite(s))


def test_sum_rate_examples():
    assert beamform.sum_rate(np.zeros(4)) == 0.0
    assert beamform.sum_rate(np.array([math.e - 1.0])) == pytest.approx(
        1.0, rel=1e-12)
    low = beamform.sum_rate(np.array([1.0, 2.0]))
    assert beamform.sum_rate(np.array([1.0, 2.5])) > low


def test_instantaneous_ee_consistency(cfg3):
    ch = channel.generate(cfg3, 3, 0)
    pm = derive_power_model(cfg3)
    p = beamform.equal_power(3, 1e-8)
    sol = BeamformingSolution(v=beamform.mrt(ch), p=p)
    rate = beamform.sum_rate(beamform.sinr(ch, sol, pm.n0))
    consumed = cfg3.xi * 1e-8 + pm.Pconst
    assert beamform.instantaneous_ee(ch, sol, cfg3) == pytest.approx(
        rate / consumed, rel=1e-12)


def test_rzf_beats_mrt_when_interference_dominates(cfg3):
    """Interference suppression pays off at high power on most draws."""
    pm = derive_power_model(cfg3)
    p = 2.4e-8
    pvec = beamform.equal_power(3, p)
    alpha = beamform.mmse_loading_alpha(cfg3, p)
    wins = 0
    for t in range(100):
        ch = channel.generate(cfg3, 5, t)
        r_m = beamform.sum_rate(beamform.sinr(
            ch, BeamformingSolution(v=beamform.mrt(ch), p=pvec), pm.n0))
        r_z = beamform.sum_rate(beamform.sinr(
            ch, BeamformingSolution(v=beamform.rzf(ch, alpha), p=pvec), pm.n0))
        wins += r_z >= r_m
    assert wins >= 90
