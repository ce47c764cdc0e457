"""Independent numerical oracles used to freeze expected test values.

Everything here deliberately avoids the package's quadrature engine:
composite Simpson on a uniform log grid, direct scans, and a brute-force
split grid and the optimal truncation split for weighted-ℓ¹ sequences.
Windows for improper integrals are chosen per call site with a hand-bounded
tail.
"""

import numpy as np

from kinterp import WeightedSeq

_ORACLE_MAX_N = 8


def simpson_log(fn, x_lo, x_hi, n=40001):
    """Composite Simpson for ∫ fn(x) dx on a finite window (n odd)."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(x_lo, x_hi, n)
    ys = np.asarray(fn(xs), dtype=float)
    h = xs[1] - xs[0]
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum()
                      + 2.0 * ys[2:-1:2].sum())


def ratio_bracket(values_a, values_b):
    """(inf, sup) of values_a / values_b over a grid."""
    r = np.asarray(values_a, dtype=float) / np.asarray(values_b, dtype=float)
    return float(np.min(r)), float(np.max(r))


def is_monotone(values, direction, rel_tol=1e-12):
    v = np.asarray(values, dtype=float)
    d = np.diff(v)
    scale = np.maximum(np.abs(v[1:]), np.abs(v[:-1]))
    if direction == "nondecreasing":
        return bool(np.all(d >= -rel_tol * scale))
    if direction == "nonincreasing":
        return bool(np.all(d <= rel_tol * scale))
    raise ValueError(direction)


def k_oracle_bruteforce(e: WeightedSeq, t: float, steps: int) -> float:
    """Grid-search the decomposition infimum over coordinate-wise splits.

    Minimizes ||f0||_{ℓ¹(w0)} + t ||f1||_{ℓ¹(w1)} over f0_i = a_i c_i with
    each a_i on a uniform grid in [0, 1].  The objective is separable in the
    a_i, so scanning each coordinate's grid exhaustively yields exactly the
    minimum over the full cartesian grid while staying feasible for n = 8.
    """
    if e.n > _ORACLE_MAX_N:
        raise ValueError(f"brute-force oracle limited to n <= {_ORACLE_MAX_N}")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not t > 0.0:
        raise ValueError("t must be positive")
    alphas = np.linspace(0.0, 1.0, steps)
    mins = np.empty(e.n)
    for i in range(e.n):
        ci = abs(e.coeffs[i])
        costs = alphas * (ci * e.w0[i]) + t * ((1.0 - alphas) * (ci * e.w1[i]))
        mins[i] = costs.min()
    return float(np.sum(mins))


def optimal_split(e: WeightedSeq, s: float):
    """Decomposition attaining k_weighted_l1(e, s): keep cheap-in-A0 coordinates."""
    if not s > 0.0:
        raise ValueError("s must be positive")
    keep = [w0 <= s * w1 for w0, w1 in zip(e.w0, e.w1)]
    f0 = tuple(c if k else 0.0 for c, k in zip(e.coeffs, keep))
    f1 = tuple(0.0 if k else c for c, k in zip(e.coeffs, keep))
    return (WeightedSeq(f0, e.w0, e.w1), WeightedSeq(f1, e.w0, e.w1))
