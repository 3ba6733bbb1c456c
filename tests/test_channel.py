"""Reproducible channel generation: determinism, statistics, independence."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saturee import channel
from saturee.sysmodel import SystemConfig


def test_shape_and_dtype(cfg3):
    h = channel.generate(cfg3, seed=1, trial_index=0)
    assert h.shape == (3, 3)
    assert np.iscomplexobj(h)
    assert np.all(np.isfinite(h))


def test_smallest_case():
    cfg = SystemConfig(M=1, N=1)
    h = channel.generate(cfg, seed=0, trial_index=0)
    assert h.shape == (1, 1)


def test_determinism(cfg3):
    a = channel.generate(cfg3, seed=1, trial_index=0)
    b = channel.generate(cfg3, seed=1, trial_index=0)
    assert np.array_equal(a, b)


def test_distinct_trials_and_seeds_differ(cfg3):
    base = channel.generate(cfg3, seed=1, trial_index=0)
    assert not np.array_equal(base, channel.generate(cfg3, 1, 1))
    assert not np.array_equal(base, channel.generate(cfg3, 2, 0))


def test_order_independence(cfg3):
    """Drawing trial 5 directly equals drawing it after other trials."""
    direct = channel.generate(cfg3, seed=9, trial_index=5)
    for t in (3, 1, 4):
        channel.generate(cfg3, seed=9, trial_index=t)
    again = channel.generate(cfg3, seed=9, trial_index=5)
    assert np.array_equal(direct, again)


def test_negative_trial_rejected(cfg3):
    with pytest.raises(ValueError):
        channel.generate(cfg3, seed=1, trial_index=-1)


def test_mean_squared_norm():
    """E ||h_k||^2 = M for unit-variance entries; 10^4-trial Monte Carlo."""
    cfg = SystemConfig(M=3, N=1)
    acc = 0.0
    trials = 10_000
    for t in range(trials):
        h = channel.generate(cfg, seed=2, trial_index=t)
        acc += float(np.sum(np.abs(h) ** 2))
    assert acc / trials == pytest.approx(3.0, rel=0.03)


def test_per_entry_variance_split():
    """Real and imaginary parts each carry variance 1/2."""
    cfg = SystemConfig(M=8, N=8)
    h = np.concatenate([channel.generate(cfg, 3, t).ravel()
                        for t in range(200)])
    assert float(np.var(h.real)) == pytest.approx(0.5, rel=0.05)
    assert float(np.var(h.imag)) == pytest.approx(0.5, rel=0.05)
    assert float(np.abs(np.mean(h))) < 0.02


def test_cross_user_decorrelation():
    """Sample correlations between distinct users shrink like 1/sqrt(T)."""
    cfg = SystemConfig(M=3, N=3)
    trials = 2000
    acc = np.zeros((3, 3), dtype=complex)
    for t in range(trials):
        h = channel.generate(cfg, 7, t)
        acc += h @ h.conj().T
    corr = np.abs(acc / trials)
    off = corr[~np.eye(3, dtype=bool)]
    # each off-diagonal mean is a sum of M unit-variance products
    assert float(off.max()) < 4.5 * np.sqrt(3.0 / trials)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**63 - 1),
       st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=8))
def test_generate_properties(seed, trial, m, n):
    cfg = SystemConfig(M=m, N=n)
    h = channel.generate(cfg, seed, trial)
    assert h.shape == (n, m)
    assert np.all(np.isfinite(h))
    assert np.array_equal(h, channel.generate(cfg, seed, trial))
