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
from saturee.sysmodel import SystemConfig, derive_power_model

import oracles
from oracles import instantaneous_ee


def test_mrt_normalizes():
    h = np.array([[2.0, 0.0, 0.0]], dtype=complex)
    v = beamform.mrt(h)
    assert np.allclose(v, [[1.0, 0.0, 0.0]])


def test_mrt_alignment(cfg3):
    h = channel.generate(cfg3, 1, 0)
    v = beamform.mrt(h)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    # Cauchy-Schwarz equality: |h_k^H v_k|^2 = ||h_k||^2
    inner = np.abs(np.sum(h.conj() * v, axis=1)) ** 2
    assert np.allclose(inner, np.sum(np.abs(h) ** 2, axis=1), rtol=1e-12)


def test_mrt_single_antenna():
    h = np.array([[1.0 - 1.0j]], dtype=complex)
    v = beamform.mrt(h)
    assert abs(abs(v[0, 0]) - 1.0) < 1e-12


def test_mrt_rejects_zero_vector():
    with pytest.raises(ValueError):
        beamform.mrt(np.array([[0.0, 0.0]], dtype=complex))


def test_mrt_maximizes_beam_gain(cfg3):
    """No unit vector beats the matched direction on its own channel."""
    h = channel.generate(cfg3, 4, 0)
    v = beamform.mrt(h)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u /= np.linalg.norm(u)
        for k in range(3):
            assert (np.abs(h[k].conj() @ u) ** 2
                    <= np.abs(h[k].conj() @ v[k]) ** 2 * (1.0 + 1e-12))


def test_rzf_unit_rows_and_positive_alpha(cfg3):
    h = channel.generate(cfg3, 2, 0)
    v = beamform.rzf(h, 0.37)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        beamform.rzf(h, 0.0)
    with pytest.raises(ValueError):
        beamform.rzf(h, -1.0)


@pytest.mark.parametrize("alpha", [0.3, 1e4])
@pytest.mark.parametrize("n, m", [(16, 64), (3, 3), (8, 2), (2, 8), (64, 64)])
def test_rzf_matches_antenna_dimension_inverse(n, m, alpha):
    """The user-dimension solve gives the directions of the M x M form."""
    h = channel.generate(SystemConfig(M=m, N=n), 21, 0)
    raw = np.linalg.solve(h.T @ h.conj() + m * alpha * np.eye(m), h.T).T
    direct = raw / np.linalg.norm(raw, axis=1)[:, None]
    assert np.allclose(beamform.rzf(h, alpha), direct, rtol=0.0, atol=1e-12)


def test_cli_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (f"import sys; sys.path.insert(0, {src!r}); import saturee.cli; "
             "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_rzf_large_loading_degenerates_to_mrt(cfg3):
    h = channel.generate(cfg3, 2, 1)
    v = beamform.rzf(h, 1e9)
    m = beamform.mrt(h)
    align = np.abs(np.sum(m.conj() * v, axis=1))
    assert np.all(align >= 1.0 - 1e-6)


def test_rzf_single_user_is_mrt():
    h = np.array([[1.0, 2.0j, -1.0]], dtype=complex)
    for alpha in (1e-6, 1.0, 1e6):
        v = beamform.rzf(h, alpha)
        m = beamform.mrt(h)
        assert abs(abs(np.sum(m.conj() * v)) - 1.0) < 1e-10


def test_rzf_orthogonal_channels_are_fixed_points():
    h = np.diag([2.0, 3.0, 0.5]).astype(complex)
    v = beamform.rzf(h, 0.8)
    m = beamform.mrt(h)
    assert np.allclose(np.abs(np.sum(m.conj() * v, axis=1)), 1.0, atol=1e-10)


@pytest.mark.parametrize("n, m", [(1, 1), (3, 3), (2, 8), (16, 64)])
def test_served_users_keeps_every_user_up_to_m(n, m):
    """With no more users than antennas every user is served, in index
    order, for one draw and for a stack of them."""
    h = np.stack([channel.generate(SystemConfig(M=m, N=n), 4, t)
                  for t in range(5)])
    assert np.array_equal(beamform.served_users(h[0]), np.arange(n))
    assert np.array_equal(beamform.served_users(h),
                          np.tile(np.arange(n), (5, 1)))


@pytest.mark.parametrize("n, m", [(4, 1), (6, 3), (8, 2), (8, 4), (16, 8)])
def test_served_users_matches_gram_schmidt_oracle(n, m):
    """Past M users the stacked selection picks, on every draw, the M
    users the float-loop Gram-Schmidt selection of tests/oracles.py
    does."""
    h = np.stack([channel.generate(SystemConfig(M=m, N=n), 12, t)
                  for t in range(40)])
    served = beamform.served_users(h)
    assert served.shape == (40, m)
    for e in range(40):
        assert served[e].tolist() == oracles.served_users(h[e])


def test_served_users_ties_go_to_the_lowest_index():
    """Equal orthogonal parts, from duplicate channels or from channels
    that lie in the span already picked, go to the lowest index, also
    when nothing is left to pick from (a rank-1 and a zero cell), and no
    division warns there."""
    a, b = [3.0, 1.0j], [0.5, -0.5j]
    cases = {
        # user 0 first; users 1 and 2 then keep all of e2
        ((2.0, 0.0), (0.0, 1.0), (0.0, 1.0)): [0, 1],
        # the duplicate largest channel goes to user 1, not 2
        (tuple(b), tuple(a), tuple(a), (0.2, 0.1)): None,
        # rank 1: after user 0 every part is zero or rounding-equal
        (tuple(a), tuple(a), tuple(a)): [0, 1],
        ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)): [0, 1],
    }
    for rows, want in cases.items():
        h = np.array(rows, dtype=complex)
        got = beamform.served_users(h).tolist()
        assert got == oracles.served_users(h)
        if want is None:
            assert 1 in got and 2 not in got
        else:
            assert got == want


def test_served_users_of_an_entry_ignore_its_stack():
    """Each draw's picks are the same alone, as a one-entry stack, and
    anywhere in a shuffled stack with extra leading axes."""
    h = np.stack([channel.generate(SystemConfig(M=3, N=7), 2, t)
                  for t in range(24)])
    served = beamform.served_users(h)
    for e in range(len(h)):
        assert np.array_equal(beamform.served_users(h[e]), served[e])
        assert np.array_equal(beamform.served_users(h[e:e + 1]),
                              served[e:e + 1])
    order = np.random.default_rng(1).permutation(len(h))
    shuffled = beamform.served_users(h[order].reshape(4, 6, 7, 3))
    assert np.array_equal(shuffled.reshape(24, 3), served[order])


def test_mmse_loading_value(cfg3):
    pm = derive_power_model(cfg3)
    assert beamform.mmse_loading_alpha(cfg3, 1e-9) == pytest.approx(
        3 * pm.n0 / (3 * 1e-9), rel=1e-12)
    with pytest.raises(ValueError):
        beamform.mmse_loading_alpha(cfg3, 0.0)


def _direction_power_sinr(h, v, p, n0):
    """SINR of unit directions v under per-user powers p, as the package
    computed it when it carried beamformers in that form."""
    cross = h.conj() @ v.T
    gains = np.abs(cross) ** 2
    signal = np.diagonal(gains) * p
    leak = gains.copy()
    np.fill_diagonal(leak, 0.0)
    interference = leak @ p
    return signal / (interference + n0)


# name: (M, N, RZF loading or None for MRT, n0, per-user power draw,
# bound on leakage over signal or None)
_SINR_CASES = {
    "mrt": (3, 3, None, 2e-20, lambda rng, n: rng.uniform(0.0, 1e-8, n),
            None),
    "rzf": (2, 8, 0.3, 0.5, lambda rng, n: rng.uniform(0.0, 1.0, n), None),
    "zero-power-user": (16, 4, 1e-3, 1e-3, lambda rng, n: rng.uniform(
        0.5, 2.0, n) * (np.arange(n) != 1), None),
    # Noise far below a leakage typically ten orders below the signal
    # (seven on the worst draw).  Powers of four keep sqrt(p) exact, so
    # both forms see the same cross products and only the summing of the
    # interference can differ.
    "near-zf": (4, 4, 1e-8, 1e-30, lambda rng, n: 4.0 ** rng.integers(
        -3, 4, n), 1e-7),
}


@pytest.mark.parametrize("case", _SINR_CASES.values(), ids=_SINR_CASES.keys())
def test_sinr_matches_direction_power_form(case):
    """Unit directions scaled by sqrt(p) give the SINR of the
    (directions, powers) form."""
    m, n, alpha, n0, powers, leak_bound = case
    cfg = SystemConfig(M=m, N=n)
    rng = np.random.default_rng(6)
    for trial in range(20):
        h = channel.generate(cfg, 8, trial)
        v = beamform.mrt(h) if alpha is None else beamform.rzf(h, alpha)
        p = powers(rng, n)
        b = v * np.sqrt(p)[:, None]
        ref = _direction_power_sinr(h, v, p, n0)
        np.testing.assert_allclose(beamform.sinr(h, b, n0), ref, rtol=1e-12,
                                   atol=0.0)
        if leak_bound is not None:
            _, sig, inter = beamform.link_gains(h, b)
            assert np.all(inter <= leak_bound * sig) and np.all(inter > n0)


def test_sinr_zero_power(cfg3):
    h = channel.generate(cfg3, 1, 0)
    assert np.allclose(beamform.sinr(h, beamform.mrt(h) * 0.0, 1e-20), 0.0)


def test_sinr_single_user_closed_form():
    h = np.array([[1.0, 2.0, 2.0]], dtype=complex)
    n0 = 0.5
    b = beamform.mrt(h) * math.sqrt(0.25)
    # no interference: ||h||^2 p / n0 = 9 * 0.25 / 0.5
    assert beamform.sinr(h, b, n0)[0] == pytest.approx(4.5, rel=1e-12)


def test_sinr_orthogonal_channels_no_interference():
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    got = beamform.sinr(h, beamform.mrt(h), 2.0)
    assert np.allclose(got, np.array([1.0, 4.0, 9.0]) / 2.0, rtol=1e-12)


def test_sinr_interference_hand_case():
    # both users share the same direction: full leakage
    h = np.array([[1.0, 0.0], [1.0, 0.0]]).astype(complex)
    b = beamform.mrt(h) * np.sqrt([2.0, 3.0])[:, None]
    got = beamform.sinr(h, b, 1.0)
    assert got[0] == pytest.approx(2.0 / (3.0 + 1.0), rel=1e-12)
    assert got[1] == pytest.approx(3.0 / (2.0 + 1.0), rel=1e-12)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=1000),
       st.floats(min_value=0.0, max_value=2 * math.pi),
       st.integers(min_value=0, max_value=2))
def test_sinr_phase_invariance(trial, theta, k):
    cfg = SystemConfig(M=3, N=3)
    h = channel.generate(cfg, 11, trial)
    b = beamform.mrt(h) * math.sqrt(1e-8 / 3)
    base = beamform.sinr(h, b, 1e-20)
    rotated = b.copy()
    rotated[k] = rotated[k] * np.exp(1j * theta)
    got = beamform.sinr(h, rotated, 1e-20)
    assert np.allclose(got, base, rtol=1e-9)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=1000))
def test_sinr_nonnegative_finite(trial):
    cfg = SystemConfig(M=2, N=4)
    h = channel.generate(cfg, 13, trial)
    b = beamform.mrt(h) * math.sqrt(1e-9 / 4)
    s = beamform.sinr(h, b, derive_power_model(cfg).n0)
    assert np.all(s >= 0.0) and np.all(np.isfinite(s))


def test_sum_rate_examples():
    assert beamform.sum_rate(np.zeros(4)) == 0.0
    assert beamform.sum_rate(np.array([math.e - 1.0])) == pytest.approx(
        1.0, rel=1e-12)
    low = beamform.sum_rate(np.array([1.0, 2.0]))
    assert beamform.sum_rate(np.array([1.0, 2.5])) > low


def test_instantaneous_ee_consistency(cfg3):
    h = channel.generate(cfg3, 3, 0)
    pm = derive_power_model(cfg3)
    b = beamform.mrt(h) * math.sqrt(1e-8 / 3)
    rate = beamform.sum_rate(beamform.sinr(h, b, pm.n0))
    consumed = cfg3.xi * 1e-8 + pm.Pconst
    assert instantaneous_ee(h, b, cfg3) == pytest.approx(
        rate / consumed, rel=1e-12)


def test_rzf_beats_mrt_when_interference_dominates(cfg3):
    """Interference suppression pays off at high power on most draws."""
    pm = derive_power_model(cfg3)
    p = 2.4e-8
    scale = math.sqrt(p / 3)
    alpha = beamform.mmse_loading_alpha(cfg3, p)
    wins = 0
    for t in range(100):
        h = channel.generate(cfg3, 5, t)
        r_m = beamform.sum_rate(beamform.sinr(
            h, beamform.mrt(h) * scale, pm.n0))
        r_z = beamform.sum_rate(beamform.sinr(
            h, beamform.rzf(h, alpha) * scale, pm.n0))
        wins += r_z >= r_m
    assert wins >= 90
