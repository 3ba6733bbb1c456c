"""Lambert W principal branch: anchors, residual certification, cross-checks."""
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from saturee.errors import NumericalError
from saturee.specfun import lambert_w0

_BRANCH = -1.0 / math.e


def _w0(xs):
    """lambert_w0 over an array of arguments, one float at a time."""
    return np.array([lambert_w0(float(x)) for x in xs])


def test_anchors():
    assert abs(lambert_w0(0.0)) <= 1e-10
    assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-10)
    assert lambert_w0(_BRANCH) == pytest.approx(-1.0, abs=1e-10)


def test_pinned_values():
    # frozen from mpmath.lambertw at 50-digit precision
    assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, rel=1e-13)
    assert lambert_w0(10.0) == pytest.approx(1.7455280027406994, rel=1e-13)
    assert lambert_w0(1e12) == pytest.approx(24.43500440493491, rel=1e-13)
    assert lambert_w0(-0.3) == pytest.approx(-0.4894022271802149, rel=1e-13)


def test_matches_scipy_off_branch_point():
    # scipy.special.lambertw as the independent reference; the exact
    # branch point is excluded because scipy returns nan there
    xs = np.concatenate([
        -np.logspace(np.log10(0.3678), -8, 50),
        np.logspace(-8, 12, 100),
    ])
    ours = _w0(xs)
    ref = scipy.special.lambertw(xs).real
    assert np.allclose(ours, ref, rtol=1e-10, atol=1e-12)


def test_identity_residual_on_log_grid():
    offsets = np.logspace(-9.0, np.log10(1e12 - _BRANCH), 1000)
    xs = _BRANCH + offsets
    w = _w0(xs)
    residual = np.abs(w * np.exp(w) - xs)
    assert np.all(residual <= 1e-12 * np.maximum(1.0, np.abs(xs)))


def test_principal_branch_and_monotone():
    xs = _BRANCH + np.logspace(-12, 12, 400)
    w = _w0(xs)
    assert np.all(w >= -1.0 - 1e-12)
    assert np.all(np.diff(w) >= 0.0)
    big = xs[xs > math.e]
    assert np.all(_w0(big) <= np.log(big))


def test_domain_errors():
    with pytest.raises(ValueError):
        lambert_w0(_BRANCH - 1e-6)
    with pytest.raises(ValueError):
        lambert_w0(math.nan)


def test_nan_residual_raises():
    # With numpy's invalid-value warning silenced, as in library use, an
    # infinite argument runs the iteration into NaN; the residual check
    # must still refuse it.
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        lambert_w0(math.inf)


def test_shapes():
    assert isinstance(lambert_w0(2.0), float)
    assert isinstance(lambert_w0(-0.3), float)
    assert isinstance(lambert_w0(np.float64(2.0)), float)


@given(st.floats(min_value=_BRANCH + 1e-12, max_value=1e15,
                 allow_nan=False, allow_infinity=False))
def test_residual_property(x):
    w = lambert_w0(x)
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
    assert w >= -1.0 - 1e-12
