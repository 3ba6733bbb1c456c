"""Small derivative-free 1-D searches used for roots and oracle maxima.

Power variables in this package span many decades, so both routines work
on the logarithm of the argument; tolerances are therefore relative.
"""
from __future__ import annotations

import math

from .errors import NumericalError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_BISECT_MAX_ITER = 400


def golden_section_max(f, lo: float, hi: float, rel_tol: float) -> float:
    """Argmax of a unimodal f over [lo, hi], 0 < lo < hi.

    Classic golden-section search carried out in log space; rel_tol is
    the relative tolerance on the returned argument.  A bracket already
    that narrow gives its geometric midpoint without evaluating f.
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    a, b = math.log(lo), math.log(hi)
    if b - a <= rel_tol:
        return math.exp(0.5 * (a + b))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(math.exp(c))
    fd = f(math.exp(d))
    while b - a > rel_tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(math.exp(d))
    return math.exp(0.5 * (a + b))


def bisect_root_log(f, lo: float, hi: float, rel_tol: float,
                    f_tol: float) -> float:
    """Root of f on [lo, hi] with f(lo) <= 0 <= f(hi), geometric midpoints.

    Stops once the bracket is relatively tighter than rel_tol and |f| at
    the returned point is below f_tol; raises :class:`NumericalError`
    when _BISECT_MAX_ITER steps do not meet both.
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if flo > 0.0 or fhi < 0.0:
        raise ValueError(f"root not bracketed: f({lo})={flo}, f({hi})={fhi}")
    for _ in range(_BISECT_MAX_ITER):
        mid = math.sqrt(lo * hi)
        fm = f(mid)
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * mid and abs(fm) <= f_tol:
            return mid
    raise NumericalError(
        f"bisection left |f({mid})| = {abs(fm):.3e} above {f_tol}")
