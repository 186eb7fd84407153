"""Special functions and complex-valued quadrature for the radiation integrals.

Only what the field models actually need lives here: the first-order Bessel
function J1 and a composite Gauss-Legendre integrator for complex kernels,
both vectorized over numpy arrays. Both are deterministic, and each element
of a batch gets bit-identical results to the same element evaluated alone.
It also holds the range rule for the model's numbers and the config's bounds.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable

import numpy as np

# Crossover between the ascending power series and the large-argument
# (Hankel) expansion. The two branches agree to about 1e-13 here, which the
# test suite checks directly on both sides of the seam.
_SERIES_CUTOFF = 12.0
_THREE_QUARTER_PI = 2.356194490192345

# J1(x) = (x/2) * sum_m (-1)^m (x^2/4)^m / (m! (m+1)!); 30 terms bring the
# last one below 1e-17 relative for every |x| <= 12. Every coefficient table
# here runs from the highest power down, as np.polyval takes it.
_SERIES_COEFFS = [(-1) ** m / (math.factorial(m) * math.factorial(m + 1)) for m in reversed(range(30))]


def _hankel_coefficients(terms: int) -> tuple[list, list]:
    # Hankel expansion J1(x) ~ sqrt(2/(pi x)) (P cos w - Q sin w) with
    # w = x - 3pi/4 and coefficients c_k = c_{k-1} (4 - (2k-1)^2) / (8k) of
    # x^-k: P takes the even k, Q the odd, with signs alternating in pairs.
    p, q, c = [1.0], [], 1.0
    for k in range(1, terms + 1):
        c *= (4.0 - (2.0 * k - 1.0) ** 2) / (8.0 * k)
        (q if k % 2 else p).append(-c if (k // 2) % 2 else c)
    return p[::-1], q[::-1]


# Truncated after k = 25: at |x| = 12 that is the smallest term, the usual
# optimal cut for an asymptotic series, and for larger x the terms still
# shrink through k = 25.
_HANKEL_P, _HANKEL_Q = _hankel_coefficients(25)

# 16-point Gauss-Legendre rule on [-1, 1] (Golub & Welsch, Math. Comp. 23,
# 1969), tabulated so that importing the package loads no numpy.polynomial.
# The rule is symmetric; the tests check it against numpy's leggauss(16).
_GL_HALF_NODES = np.array([0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
                           0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499])
_GL_HALF_WEIGHTS = np.array([0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
                             0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176])
_GL_NODES = np.concatenate((-_GL_HALF_NODES[::-1], _GL_HALF_NODES))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))

_BOUNDS = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1}


def require(owner: str, **checks: tuple) -> None:
    """Range rule for the model's numbers; each keyword maps a name to (value, bound).

    Raises ValueError "<owner>: <name> must be <bound>" for the first value
    outside its bound ("> 0", ">= 0" or ">= 1"; NaN and -inf fail each), and
    only when all pass, "<owner>: <name> must be finite" for the first +inf.
    """
    for name, (value, bound) in checks.items():
        if not _BOUNDS[bound](value):
            raise ValueError(f"{owner}: {name} must be {bound}")
    for name, (value, _) in checks.items():
        if value == math.inf:
            raise ValueError(f"{owner}: {name} must be finite")


def _scalar_or_array(value: np.ndarray):
    return value.item() if value.ndim == 0 else value


# Work done since the last clear, counted and never timed: integrate_complex
# calls, panels, kernel calls and kernel values, J1 values, and the geometries
# radiators sets up. tests/golden_work.json holds them for each golden CLI run.
WORK = Counter()

# integrate_complex accepts a value once its n-panel and 2n-panel estimates
# differ by at most max(_ABS_TOL, _REL_TOL * |2n-panel estimate|), and gives
# up when the finer estimate would need more than _MAX_PANELS panels.
_ABS_TOL = 1e-10
_REL_TOL = 1e-9
_MAX_PANELS = 4000


class ConvergenceError(ArithmeticError):
    """Panel budget ran out before the tolerance was met.

    Carries the name of the failing operation, the best estimate of the
    worst-converged value, an estimated bound on its error, and that value's
    index within the kernel's leading (batch) axes.
    """

    def __init__(self, operation: str, estimate: complex, error_bound: float, index: tuple = ()):
        self.operation = operation
        self.estimate = estimate
        self.error_bound = error_bound
        self.index = index
        super().__init__(
            f"{operation}: subdivision budget exhausted; "
            f"best estimate {estimate:.6e}, estimated error bound {error_bound:.3e}"
        )


def bessel_j1(x):
    """First-order Bessel function of the first kind, J1(x), elementwise.

    Ascending power series up to |x| = 12 and the Hankel asymptotic
    expansion above, each called only on its own arguments, so every
    element is computed alike. Odd in x by construction, so parity is
    exact. A scalar argument gives a float.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("bessel_j1: argument must be finite")
    WORK["j1_values"] += x.size
    ax = np.abs(x)
    val = np.piecewise(ax, [ax <= _SERIES_CUTOFF], [_j1_series, _j1_asymptotic])
    val = np.where(x < 0.0, -val, val)
    return _scalar_or_array(val)


def _j1_series(ax: np.ndarray) -> np.ndarray:
    return 0.5 * ax * np.polyval(_SERIES_COEFFS, 0.25 * ax * ax)


def _j1_asymptotic(ax: np.ndarray) -> np.ndarray:
    # In powers of r = 1/x, which underflow quietly, so no finite x overflows.
    r = 1.0 / ax
    y, w = r * r, ax - _THREE_QUARTER_PI
    p, q = np.polyval(_HANKEL_P, y), r * np.polyval(_HANKEL_Q, y)
    return np.sqrt(2.0 / math.pi * r) * (p * np.cos(w) - q * np.sin(w))


def _composite(f, a: float, b: float, panels: int) -> np.ndarray:
    # Panel-by-panel sum, so working memory is one panel's kernel values.
    half = 0.5 * (b - a) / panels
    total = 0j
    for i in range(panels):
        mid = a + (2 * i + 1) * half
        total = total + half * (f(mid + half * _GL_NODES) * _GL_WEIGHTS).sum(axis=-1)
    # one kernel call per panel, each of np.size(total) values at every node
    WORK.update(panels=panels, kernel_calls=panels, kernel_values=panels * np.size(total) * _GL_NODES.size)
    return np.asarray(total, dtype=complex)


def integrate_complex(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Composite 16-point Gauss-Legendre integral of a complex kernel over [a, b].

    f maps a 1-d array of abscissae to values whose last axis runs over
    them; leading axes (angles, say) are integrated together. Starting near
    one panel per pi of width, the panel count doubles until each value's
    n- and 2n-panel estimates agree within max(1e-10, 1e-9 * |estimate|);
    each value keeps its first passing estimate, independent of the rest of
    the batch. Raises ConvergenceError past 4000 panels. Returns a complex,
    or an array of the leading shape.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_complex: bounds must be finite")
    if a > b:
        raise ValueError("integrate_complex: requires a <= b")
    WORK["integrate_calls"] += 1

    n = max(1, min(math.ceil((b - a) / math.pi), _MAX_PANELS // 2))
    coarse = _composite(f, a, b, n)
    result = np.zeros_like(coarse)
    done = np.zeros(coarse.shape, dtype=bool)
    while True:
        fine = _composite(f, a, b, 2 * n)
        err = np.abs(fine - coarse)
        passed = ~done & (err <= np.maximum(_ABS_TOL, _REL_TOL * np.abs(fine)))
        result[passed] = fine[passed]
        done |= passed
        if done.all():
            return _scalar_or_array(result)
        n *= 2
        if 2 * n > _MAX_PANELS:
            worst = np.unravel_index(np.argmax(np.where(done, -1.0, err)), err.shape)
            raise ConvergenceError("integrate_complex", complex(fine[worst]), float(err[worst]), worst)
        coarse = fine
