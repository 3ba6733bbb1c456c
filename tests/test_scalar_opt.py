"""Golden-section maximization and log-space bisection."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from saturee.errors import NumericalError
from saturee.scalar_opt import bisect_root_log, golden_section_max


def test_golden_section_known_peak():
    # -(ln x - 1)^2 peaks exactly at e
    arg = golden_section_max(lambda x: -(math.log(x) - 1.0) ** 2, 1e-6, 1e6,
                             rel_tol=1e-8)
    assert arg == pytest.approx(math.e, rel=1e-7)


def test_golden_section_bad_bracket():
    with pytest.raises(ValueError):
        golden_section_max(lambda x: x, 1.0, 1.0, rel_tol=1e-8)
    with pytest.raises(ValueError):
        golden_section_max(lambda x: x, -1.0, 1.0, rel_tol=1e-8)


def test_golden_section_narrow_bracket_needs_no_evaluation():
    """A bracket already within rel_tol gives its geometric midpoint
    without calling f."""
    def f(x):
        raise AssertionError("evaluated")
    lo, hi = 2.0, 2.0 * (1.0 + 1e-9)
    arg = golden_section_max(f, lo, hi, rel_tol=1e-8)
    assert arg == math.exp(0.5 * (math.log(lo) + math.log(hi)))
    assert lo < arg < hi


@given(st.floats(min_value=-5.0, max_value=5.0))
def test_golden_section_recovers_log_quadratic_peak(mu):
    arg = golden_section_max(lambda x: -(math.log(x) - mu) ** 2,
                             1e-8, 1e8, rel_tol=1e-10)
    assert math.log(arg) == pytest.approx(mu, abs=1e-7)


def test_bisect_root():
    root = bisect_root_log(lambda x: math.log(x) - 2.0, 1.0, 1e6,
                           rel_tol=1e-10, f_tol=1e-10)
    assert root == pytest.approx(math.e ** 2, rel=1e-9)


def test_bisect_requires_bracket():
    with pytest.raises(ValueError):
        bisect_root_log(lambda x: x, 1.0, 2.0, rel_tol=1e-8,
                        f_tol=1e-8)  # f > 0 at both ends
    with pytest.raises(ValueError):
        bisect_root_log(lambda x: -x, 1.0, 2.0, rel_tol=1e-8,
                        f_tol=1e-8)  # f < 0 at both ends


def test_bisect_reports_unreachable_f_tol():
    # a jump discontinuity crossing zero: the bracket tightens but |f|
    # never drops below the requested tolerance
    f = lambda x: -1.0 if x < 2.0 else 1.0
    with pytest.raises(NumericalError):
        bisect_root_log(f, 1.0, 4.0, rel_tol=1e-12, f_tol=1e-6)


@given(st.floats(min_value=-4.0, max_value=4.0))
def test_bisect_root_property(c):
    # ln(x) - c has its root at e^c
    root = bisect_root_log(lambda x: math.log(x) - c, 1e-6, 1e6,
                           rel_tol=1e-10, f_tol=1e-9)
    assert root == pytest.approx(math.exp(c), rel=1e-8)
