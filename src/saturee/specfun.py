"""Principal branch of the Lambert W function.

Self-contained double-precision implementation, since the closed-form
saturation powers in this package all hinge on it and the solver must
certify its own residual.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

_BRANCH = -1.0 / math.e
_MAX_ITER = 50
_RESIDUAL_RTOL = 1e-12


def lambert_w0(x: float) -> float:
    """Principal branch W0 of w * exp(w) = x, for x >= -1/e.

    Strategy: a region-dependent starting guess followed by Halley
    iterations, which converge cubically away from the branch point.

    * near the branch point x = -1/e the expansion in
      p = sqrt(2 (e x + 1)) is used, W = -1 + p - p**2/3 + 11 p**3/72;
      within p < ~1e-4 the series itself is already below double
      rounding and the (ill-conditioned) iteration is skipped;
    * elsewhere the guess L (1 - log1p(L) / (2 + L)) with L = log1p(x)
      tracks the true branch to a few percent all the way from small
      arguments to x ~ 1e12 and beyond.

    The result must satisfy |w exp(w) - x| <= 1e-12 max(1, |x|); any
    other residual, NaN included, raises :class:`NumericalError`.
    Arguments below -1/e raise ValueError.  numpy's exp and log1p are
    used on purpose: results are pinned to their rounding, not math's.
    """
    if not x >= _BRANCH:
        raise ValueError(f"lambert_w0 needs x >= -1/e, got {x}")
    ex1 = max(math.e * x + 1.0, 0.0)
    if x < -0.25:
        p = math.sqrt(2.0 * ex1)
        w = -1.0 + p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0)))
    else:
        L = np.log1p(x)
        w = L * (1.0 - np.log1p(L) / (2.0 + L))

    # Halley refinement; skipped close to the branch point where the
    # series is certified and the derivative vanishes.
    if ex1 > 1e-8:
        for _ in range(_MAX_ITER):
            ew = np.exp(w)
            f = w * ew - x
            dw = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
            w -= dw
            if not abs(dw) > 1e-16 * (1.0 + abs(w)):
                break

    residual = abs(w * np.exp(w) - x)
    if not residual <= _RESIDUAL_RTOL * max(1.0, abs(x)):
        raise NumericalError(f"lambert_w0 residual {residual:.3e} at x = {x}")
    return float(w)
