"""Special functions and complex-valued quadrature for the radiation integrals.

Only what the field models actually need lives here: the first-order Bessel
function J1 and a composite Gauss-Kronrod integrator for complex kernels,
both vectorized over numpy arrays. Both are deterministic, and each element
of a batch gets bit-identical results to the same element evaluated alone.
It also holds the range rule for the model's numbers and the config's bounds, and stepped_grid.
"""

from __future__ import annotations

import math
import sys
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
# here runs from the highest power down, as np.polyval and _horner take it.
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

# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21; Piessens et al., 1983),
# from the centre node out, as floats of scipy's 33-digit table. Its weights:
# Kronrod, then the embedded 10-point Gauss rule, zero on Kronrod-only nodes.
_GK_HALF_NODES = np.array([0.0, 0.14887433898163122, 0.2943928627014602, 0.4333953941292472, 0.5627571346686047,
                           0.6794095682990244, 0.7808177265864169, 0.8650633666889845, 0.9301574913557082,
                           0.9739065285171717, 0.9956571630258081])
_GK_HALF_WEIGHTS = np.array([[0.1494455540029169, 0.14773910490133849, 0.14277593857706009, 0.13470921731147334,
                              0.12349197626206584, 0.10938715880229764, 0.0931254545836976, 0.07503967481091996,
                              0.054755896574351995, 0.032558162307964725, 0.011694638867371874],
                             [0.0, 0.29552422471475287, 0.0, 0.26926671930999635, 0.0, 0.21908636251598204, 0.0,
                              0.1494513491505806, 0.0, 0.06667134430868814, 0.0]])
_GK_NODES = np.concatenate((-_GK_HALF_NODES[:0:-1], _GK_HALF_NODES))
_GK_WEIGHTS = np.concatenate((_GK_HALF_WEIGHTS[:, :0:-1], _GK_HALF_WEIGHTS), axis=1)

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


# Most points a theta or frequency grid may expand to.
MAX_GRID_POINTS = 100_000


def stepped_grid(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... through stop; a last point rounded past stop is stop.

    After require (step > 0, stop - start >= 0), a grid of more than MAX_GRID_POINTS
    points, then a step below the float spacing at stop, is refused before any point
    exists. The bound lies past stop even when 1e-9 * step is below that spacing, so
    the grid holds start; capped at the largest float, it gives a grid for any finite stop.
    """
    start, stop, step = float(start), float(stop), float(step)  # Python floats overflow without a warning
    require("stepped_grid", step=(step, "> 0"), stop_minus_start=(stop - start, ">= 0"))
    if (stop - start) / step + 1 > MAX_GRID_POINTS:  # before np.arange allocates them
        raise ValueError(f"grid must have at most {MAX_GRID_POINTS} points")
    if step < math.nextafter(abs(stop), math.inf) - abs(stop):  # the spacing above the largest float is inf
        raise ValueError("step must be at least the float spacing at stop")
    bound = min(max(stop + 1e-9 * step, math.nextafter(stop, math.inf)), sys.float_info.max)
    if bound - start == math.inf:  # np.arange counts from bound - start; halved, each point is exact
        return 2.0 * stepped_grid(0.5 * start, 0.5 * stop, 0.5 * step)
    return np.minimum(np.arange(start, bound, step), stop)


def _scalar_or_array(value: np.ndarray):
    return value.item() if value.ndim == 0 else value


# Work done since the last clear, counted and never timed: integrate_complex
# calls, panels, kernel calls and kernel values, J1 values, and the geometries
# radiators sets up. tests/golden_work.json holds them for each golden CLI run.
WORK = Counter()

# integrate_complex accepts a value once its Kronrod and Gauss estimates K
# and G differ by at most max(_ABS_TOL, _REL_TOL * |K|), and gives up when
# the next level would need more than _MAX_PANELS panels.
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
    expansion above, each called only on its own signed arguments, so every
    element is computed alike. Each is odd in x by construction, so parity
    is exact and J1(-0.0) is -0.0. A scalar argument gives a float.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("bessel_j1: argument must be finite")
    WORK["j1_values"] += x.size
    series = np.abs(x) <= _SERIES_CUTOFF
    if series.all():
        return _scalar_or_array(_j1_series(x))
    out = np.empty_like(x)
    if series.any():
        out[series] = _j1_series(x[series])
    out[~series] = _j1_asymptotic(x[~series])
    return _scalar_or_array(out)


def _horner(coeffs: list, z: np.ndarray) -> np.ndarray:
    y = np.full_like(z, coeffs[0])  # then np.polyval's y * z + c, in place
    for c in coeffs[1:]:
        y *= z
        y += c
    return y


def _j1_series(x: np.ndarray) -> np.ndarray:
    y = _horner(_SERIES_COEFFS, 0.25 * x * x)
    return np.multiply(y, 0.5 * x, out=y)


def _j1_asymptotic(x: np.ndarray) -> np.ndarray:
    # In powers of r = 1/|x|, which underflow quietly, so no finite x overflows.
    # J1 is odd: the sign of x goes on the finished value, in place.
    r = 1.0 / np.abs(x)
    w = np.abs(x) - _THREE_QUARTER_PI
    p, q = _horner(_HANKEL_P, r * r), _horner(_HANKEL_Q, r * r)
    q *= r
    p *= np.cos(w)
    q *= np.sin(w)
    p -= q
    p *= np.sqrt(np.multiply(r, 2.0 / math.pi, out=r))
    return np.multiply(p, np.sign(x), out=p)


# Most kernel values one call takes in a block of panels: one panel of the
# 361-angle normalization grid at 21 nodes, so the grid keeps its memory.
_BLOCK_VALUES = 361 * 21


def _composite(f, a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    # Kronrod and Gauss sums of the same values, one rule at a time (one product
    # temporary). Panel 0 alone, then blocks sized by its value count; each
    # panel's sums join the totals in order, as a panel-by-panel loop adds them.
    half = 0.5 * (b - a) / panels
    total, start, block, calls = 0j, 0, 1, 0
    while start < panels:
        stop = min(start + block, panels)
        # Python floats, not an integer np.arange: that path alone added 0.1 MB
        # of numpy's code pages to a cold run's peak RSS
        mids = np.array([a + (2 * i + 1) * half for i in range(start, stop)])
        values = f((mids[:, None] + half * _GK_NODES).ravel())
        values = values.reshape(*values.shape[:-1], stop - start, _GK_NODES.size)
        sums = np.stack([(values * w).sum(axis=-1) for w in _GK_WEIGHTS], axis=-1)
        del values  # before the next block's call
        for j in range(stop - start):
            total = total + half * sums[..., j, :]
        block = max(1, _BLOCK_VALUES // (total[..., 0].size * _GK_NODES.size or 1))
        start, calls = stop, calls + 1
    # total[..., 0].size values at every node of every panel
    WORK.update(panels=panels, kernel_calls=calls, kernel_values=panels * total[..., 0].size * _GK_NODES.size)
    return total[..., 0], total[..., 1]


def integrate_complex(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Composite 21-point Gauss-Kronrod integral of a complex kernel over [a, b].

    f maps a 1-d array of abscissae (the nodes of a block of panels) to
    values whose last axis runs over them, each from its own abscissa;
    leading axes (angles, say) are integrated together. Starting near one
    panel per pi of width, the panel count doubles until each value's
    Kronrod estimate K and embedded 10-point Gauss estimate agree within
    max(1e-10, 1e-9 * |K|); each value keeps its first passing K,
    independent of the rest of the batch. Raises ConvergenceError past 4000
    panels. Returns a complex, or an array of the leading shape.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_complex: bounds must be finite")
    if a > b:
        raise ValueError("integrate_complex: requires a <= b")
    WORK["integrate_calls"] += 1

    n = max(1, min(math.ceil((b - a) / math.pi), _MAX_PANELS))
    result, done = 0j, False
    while True:
        kronrod, gauss = _composite(f, a, b, n)
        err = np.abs(kronrod - gauss)
        result = np.where(done, result, kronrod)
        done = done | (err <= np.maximum(_ABS_TOL, _REL_TOL * np.abs(kronrod)))
        if done.all():
            return _scalar_or_array(result)
        n *= 2
        if n > _MAX_PANELS:
            worst = np.unravel_index(np.argmax(np.where(done, -1.0, err)), err.shape)
            raise ConvergenceError("integrate_complex", complex(kronrod[worst]), float(err[worst]), worst)
