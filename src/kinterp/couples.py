"""Concrete compatible couples with exactly computable K-functionals.

Two couples are provided:

* weighted-ℓ¹ sequences: for the couple (ℓ¹(w0), ℓ¹(w1)) the K-functional
  of a finite sequence is exactly Σ |c_i| min(w0_i, t w1_i);
* nonnegative step functions for (L¹, L∞), where K(t, f) = ∫_0^t f*(s) ds
  with f* the decreasing rearrangement.

Both give closed-form quasi-concave K-profiles, so downstream equivalence
tests measure formula error rather than K-computation error.  A brute-force
split-grid oracle over coordinate-wise decompositions double-checks the
weighted-ℓ¹ closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InvariantViolation
from .quadrature import LogGrid

_ORACLE_MAX_N = 8
#: slack of validate_kprofile: absolute for K >= 0, relative for the orders
_PROFILE_RTOL = 1e-12


def _as_tuple(v, name):
    arr = tuple(float(x) for x in v)
    if not all(math.isfinite(x) for x in arr):
        raise ValueError(f"{name} must contain finite reals")
    return arr


@dataclass(frozen=True)
class WeightedSeq:
    """Finite sequence in the weighted-ℓ¹ couple (ℓ¹(w0), ℓ¹(w1))."""

    coeffs: tuple
    w0: tuple
    w1: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_tuple(self.coeffs, "coeffs"))
        object.__setattr__(self, "w0", _as_tuple(self.w0, "w0"))
        object.__setattr__(self, "w1", _as_tuple(self.w1, "w1"))
        n = len(self.coeffs)
        if n < 1 or len(self.w0) != n or len(self.w1) != n:
            raise ValueError("coeffs, w0, w1 must share a length n >= 1")
        if not all(w > 0.0 for w in self.w0 + self.w1):
            raise ValueError("weights must be strictly positive")

    @property
    def n(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class StepFn:
    """Nonnegative step function: values[i] on [breakpoints[i], breakpoints[i+1])."""

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "breakpoints",
                           _as_tuple(self.breakpoints, "breakpoints"))
        object.__setattr__(self, "values", _as_tuple(self.values, "values"))
        br = self.breakpoints
        if len(br) != len(self.values) + 1:
            raise ValueError("need len(breakpoints) == len(values) + 1")
        if br[0] < 0.0 or any(b1 <= b0 for b0, b1 in zip(br, br[1:])):
            raise ValueError("breakpoints must be nonnegative and increasing")
        if any(v < 0.0 for v in self.values):
            raise ValueError("values must be nonnegative")

    def rearrangement(self):
        """(lengths, values) of the decreasing rearrangement, value-sorted."""
        lengths = np.diff(np.asarray(self.breakpoints))
        values = np.asarray(self.values)
        order = np.argsort(-values, kind="stable")
        return lengths[order], values[order]


def k_weighted_l1(e: WeightedSeq, t: float) -> float:
    """K(t, e; ℓ¹(w0), ℓ¹(w1)) = Σ |c_i| min(w0_i, t w1_i)."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    c = np.abs(np.asarray(e.coeffs))
    return float(np.sum(c * np.minimum(np.asarray(e.w0), t * np.asarray(e.w1))))


def _k_weighted_log(c, w0, w1, x):
    """Σ c_i min(w0_i, e^x w1_i) at every x.

    ``c`` is one coefficient vector (n,), or one per row (r, n) of an
    (r, m) array x.
    """
    with np.errstate(over="ignore", under="ignore"):
        t = np.exp(x)
        # one (..., n) temporary, formed in place
        m = np.multiply.outer(t, w1)
    return _dot_last(np.minimum(w0, m, out=m), c)


def _k_weighted_slope_log(c, w0, w1, x):
    # K(t)/t = Σ c_i min(w0_i / t, w1_i), stable for arbitrarily deep x
    with np.errstate(over="ignore", under="ignore"):
        inv_t = np.exp(-x)
        # one (..., n) temporary, formed in place
        m = np.multiply.outer(inv_t, w0)
    return _dot_last(np.minimum(m, w1, out=m), c)


def _weighted_arrays(e: WeightedSeq):
    return np.abs(np.asarray(e.coeffs)), np.asarray(e.w0), np.asarray(e.w1)


def _dot_last(m, c):
    return m @ c if c.ndim == 1 else (m @ c[:, :, None])[..., 0]


def _weighted_log_kinks(w0, w1):
    return tuple(math.log(a / b) for a, b in zip(w0, w1))


def k_step_l1_linf(e: StepFn, t: float) -> float:
    """K(t, e; L¹, L∞) = ∫_0^t e*(s) ds via the decreasing rearrangement."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    lengths, values = e.rearrangement()
    cum = np.cumsum(lengths)
    full = cum <= t
    k = float(np.sum(values[full] * lengths[full]))
    idx = int(np.sum(full))
    if idx < len(values):
        prev = cum[idx - 1] if idx > 0 else 0.0
        k += values[idx] * (t - prev)
    return k


def k_oracle_bruteforce(e: WeightedSeq, t: float, steps: int) -> float:
    """Grid-search the decomposition infimum over coordinate-wise splits.

    Minimizes ||f0||_{ℓ¹(w0)} + t ||f1||_{ℓ¹(w1)} over f0_i = a_i c_i with
    each a_i on a uniform grid in [0, 1].  The objective is separable in the
    a_i, so scanning each coordinate's grid exhaustively yields exactly the
    minimum over the full cartesian grid while staying feasible for n = 8.
    """
    if e.n > _ORACLE_MAX_N:
        raise GuardError(f"brute-force oracle limited to n <= {_ORACLE_MAX_N}")
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


@dataclass(frozen=True, eq=False)
class KProfile:
    """The map t ↦ K(t, f), exact from an element or interpolated samples.

    Synthetic profiles interpolate linearly in t between samples (the chord
    of a quasi-concave function keeps K nondecreasing and K/t nonincreasing
    whenever the samples do, which interpolation linear in ln t does not),
    and are extended by K(t) = K(t_min) t/t_min below the sample range and
    K(t) = K(t_max) above it, the extremal quasi-concave extension.
    """

    element: object = None
    sample_t: tuple = ()
    sample_k: tuple = ()

    @classmethod
    def from_element(cls, element):
        if not isinstance(element, (WeightedSeq, StepFn)):
            raise TypeError("element must be a WeightedSeq or StepFn")
        return cls(element=element)

    @classmethod
    def from_samples(cls, samples):
        pts = sorted((float(t), float(k)) for t, k in samples)
        if len(pts) < 2:
            raise ValueError("synthetic profile needs at least two samples")
        ts = tuple(t for t, _ in pts)
        ks = tuple(k for _, k in pts)
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])) or ts[0] <= 0.0:
            raise ValueError("sample abscissae must be positive and distinct")
        return cls(sample_t=ts, sample_k=ks)

    @property
    def synthetic(self) -> bool:
        return self.element is None

    def value_log(self, x, rows=None):
        """K(e^x), vectorized (``rows`` is ignored: see WeightedProfiles)."""
        x = np.asarray(x, dtype=float)
        if isinstance(self.element, WeightedSeq):
            return _k_weighted_log(*_weighted_arrays(self.element), x)
        if isinstance(self.element, StepFn):
            with np.errstate(over="ignore", under="ignore"):
                t = np.exp(x)
            return self._step_value(t)
        xs = np.log(self.sample_t)
        ks = np.asarray(self.sample_k)
        out = np.empty(x.shape, dtype=float)
        below = x < xs[0]
        inside = ~below
        with np.errstate(under="ignore"):
            out[below] = ks[0] * np.exp(x[below] - xs[0])
        out[inside] = np.interp(np.exp(np.minimum(x[inside], xs[-1])),
                                np.asarray(self.sample_t), ks)
        return out

    def slope_log(self, x, rows=None):
        """K(e^x)/e^x, computed in a form stable for deep negative x."""
        x = np.asarray(x, dtype=float)
        if isinstance(self.element, WeightedSeq):
            return _k_weighted_slope_log(*_weighted_arrays(self.element), x)
        out = np.empty(x.shape, dtype=float)
        if isinstance(self.element, StepFn):
            lengths, values = self.element.rearrangement()
            top = values[0] if len(values) else 0.0
            first = math.log(lengths[0]) if len(lengths) else -math.inf
            flat = x <= first
            out[flat] = top
            with np.errstate(under="ignore"):
                out[~flat] = (self._step_value(np.exp(x[~flat]))
                              * np.exp(-x[~flat]))
            return out
        xs = np.log(self.sample_t)
        below = x < xs[0]
        out[below] = self.sample_k[0] / self.sample_t[0]
        with np.errstate(under="ignore"):
            out[~below] = self.value_log(x[~below]) * np.exp(-x[~below])
        return out

    def _step_value(self, t):
        lengths, values = self.element.rearrangement()
        cum = np.cumsum(lengths)
        edges = np.concatenate([[0.0], cum])
        kcum = np.concatenate([[0.0], np.cumsum(values * lengths)])
        t = np.minimum(np.nan_to_num(np.asarray(t, dtype=float),
                                     posinf=cum[-1] if len(cum) else 0.0),
                       cum[-1] if len(cum) else 0.0)
        i = np.searchsorted(cum, t, side="left")
        i = np.minimum(i, len(values) - 1) if len(values) else i
        return kcum[i] + values[i] * (t - edges[i])

    def log_kinks(self):
        """Log-abscissae where the profile is non-smooth (panel boundaries)."""
        if isinstance(self.element, WeightedSeq):
            return _weighted_log_kinks(self.element.w0, self.element.w1)
        if isinstance(self.element, StepFn):
            lengths, _ = self.element.rearrangement()
            cum = np.cumsum(lengths)
            return tuple(math.log(c) for c in cum if c > 0.0)
        return tuple(math.log(t) for t in self.sample_t)


@dataclass(frozen=True, eq=False)
class WeightedProfiles:
    """The K-profiles of weighted sequences with common weights, one per row.

    ``value_log(x, rows)`` and ``slope_log(x, rows)`` evaluate, for each i,
    the profile of sequence ``rows[i]`` at the points ``x[i]`` of an (r, m)
    array, as ``KProfile`` does for one sequence; every row has the same
    kinks.  A batched quadrature plan with one row per sequence integrates
    all of them at once.
    """

    coeffs: np.ndarray  # (sequences, n), absolute values
    w0: np.ndarray
    w1: np.ndarray

    def value_log(self, x, rows):
        return _k_weighted_log(self.coeffs[rows], self.w0, self.w1,
                               np.asarray(x, dtype=float))

    def slope_log(self, x, rows):
        return _k_weighted_slope_log(self.coeffs[rows], self.w0, self.w1,
                                     np.asarray(x, dtype=float))

    def log_kinks(self):
        return _weighted_log_kinks(self.w0, self.w1)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    ok: bool
    failures: tuple  # (t, check-name) pairs

    def summary(self) -> dict:
        return {"ok": self.ok,
                "failures": [{"t": t, "check": c} for t, c in self.failures]}


def validate_kprofile(profile: KProfile, grid: LogGrid) -> ValidationReport:
    """Check nonnegativity, monotonicity of K, and monotonicity of K(t)/t."""
    xs = grid.log_points()
    ts = grid.points()
    k = np.asarray(profile.value_log(xs), dtype=float)
    slope = np.asarray(profile.slope_log(xs), dtype=float)
    failures = []
    for i, (t, v) in enumerate(zip(ts, k)):
        if not (math.isfinite(v) and v >= -_PROFILE_RTOL):
            failures.append((float(t), "nonnegative"))
    for i in range(1, len(ts)):
        scale = max(abs(k[i]), abs(k[i - 1]))
        if k[i] < k[i - 1] - _PROFILE_RTOL * scale:
            failures.append((float(ts[i]), "K nondecreasing"))
        sscale = max(abs(slope[i]), abs(slope[i - 1]))
        if slope[i] > slope[i - 1] + _PROFILE_RTOL * sscale:
            failures.append((float(ts[i]), "K/t nonincreasing"))
    return ValidationReport(ok=not failures, failures=tuple(failures))


def ensure_valid_kprofile(profile: KProfile, grid: LogGrid) -> KProfile:
    rep = validate_kprofile(profile, grid)
    if not rep.ok:
        raise InvariantViolation(
            f"K-profile violates quasi-concavity at {len(rep.failures)} grid "
            f"points (first: t={rep.failures[0][0]:g}, {rep.failures[0][1]})",
            rep.failures)
    return profile


def element_to_json(e) -> dict:
    if isinstance(e, WeightedSeq):
        return {"kind": "WeightedSeq", "coeffs": list(e.coeffs),
                "w0": list(e.w0), "w1": list(e.w1)}
    if isinstance(e, StepFn):
        return {"kind": "StepFn", "breaks": list(e.breakpoints),
                "values": list(e.values)}
    if isinstance(e, KProfile) and e.synthetic:
        return {"kind": "SyntheticK", "t": list(e.sample_t),
                "K": list(e.sample_k)}
    raise TypeError(f"cannot serialize {type(e).__name__}")


#: element kind -> its list fields, in constructor order
_ELEMENT_LISTS = {"WeightedSeq": ("coeffs", "w0", "w1"),
                  "StepFn": ("breaks", "values"),
                  "SyntheticK": ("t", "K")}


def element_from_json(obj: dict, path: str = "element"):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"{path}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if not (isinstance(kind, str) and kind in _ELEMENT_LISTS):
        raise ValueError(f"{path}: unknown element kind {kind!r}")
    lists = []
    for name in _ELEMENT_LISTS[kind]:
        if name not in obj:
            raise ValueError(f"{path}: missing field {name!r}")
        # tuple() would read a string as its characters
        if not isinstance(obj[name], (list, tuple)):
            raise ValueError(f"{path}.{name}: expected a list, got "
                             f"{obj[name]!r}")
        lists.append(tuple(obj[name]))
    try:
        if kind == "WeightedSeq":
            return WeightedSeq(*lists)
        if kind == "StepFn":
            return StepFn(*lists)
        return KProfile.from_samples(zip(*lists))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
