"""Concrete compatible couples with exactly computable K-functionals.

Two couples are provided:

* weighted-ℓ¹ sequences: for the couple (ℓ¹(w0), ℓ¹(w1)) the K-functional
  of a finite sequence is exactly Σ |c_i| min(w0_i, t w1_i);
* nonnegative step functions for (L¹, L∞), where K(t, f) = ∫_0^t f*(s) ds
  with f* the decreasing rearrangement.

Both K-functionals are piecewise linear in t, and so is the chord through
synthetic samples, so one type holds every profile: ``KProfile(knots,
values)``, each row's K at the knots, linear in t between them.  An
element's profile is ``coeffs @ basis`` over its atoms (``atoms``), and a
candidate decomposition f = f0 + f1 over the same atoms is one more row, so
a batch of candidates is one ``KProfile``.  The profiles are exact, so
downstream equivalence tests measure formula error rather than
K-computation error.  A brute-force split-grid oracle over coordinate-wise
decompositions double-checks the weighted-ℓ¹ closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InvariantViolation
from .quadrature import LogGrid, distinct

_ORACLE_MAX_N = 8
#: slack of validate_kprofile: absolute for K >= 0, relative for the orders
_PROFILE_RTOL = 1e-12
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


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
        if len(br) != len(self.values) + 1 or not self.values:
            raise ValueError("need len(breakpoints) == len(values) + 1 >= 2")
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
    """Piecewise-linear K-profiles t ↦ K(t), one per row.

    ``knots`` (k,) are the t > 0 where K may bend, increasing; ``values``
    (r, k) holds each row's K at the knots.  Between knots K is linear in t,
    below the first it is values[i, 0] t/knots[0] and past the last it is
    values[i, -1].  Every profile of this package has that form: an
    element's exactly (``from_element``), synthetic samples by their chord,
    which keeps K nondecreasing and K/t nonincreasing whenever the samples
    do, with the extremal quasi-concave extension beyond them.

    ``value_log(x, rows)`` and ``slope_log(x, rows)`` evaluate row
    ``rows[i]`` at the points ``x[i]`` of an (r, m) array (row ``rows`` at
    the points x for an integer); a one-row profile serves every row.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if knots.ndim != 1 or values.shape[1:] != knots.shape:
            raise ValueError("values must hold one K per knot in each row")
        # on segment j = searchsorted(ln knots, x, "right"), between knots
        # (0 and +inf at the ends), K = at_left[j] + slope[j] (t - left[j])
        left = np.concatenate(([0.0], knots))
        at_left = np.hstack([np.zeros((len(values), 1)), values])
        slope = np.hstack([np.diff(at_left) / np.diff(left),
                           np.zeros((len(values), 1))])
        for name, v in (("knots", knots), ("values", values),
                        ("_log_knots", np.log(knots)), ("_left", left),
                        ("_at_left", at_left), ("_slope", slope)):
            object.__setattr__(self, name, v)

    @classmethod
    def from_element(cls, element):
        """The exact profile of a WeightedSeq or StepFn, ``coeffs @ basis``
        over its atoms (see ``atoms``)."""
        coeffs, knots, basis = atoms(element)
        return cls(knots, coeffs @ basis)

    @classmethod
    def from_samples(cls, samples):
        pts = sorted((float(t), float(k)) for t, k in samples)
        if len(pts) < 2:
            raise ValueError("synthetic profile needs at least two samples")
        ts, ks = np.array(pts).T
        if not np.all(np.isfinite(pts)):
            raise ValueError("samples must be finite reals")
        if np.any(ts[1:] <= ts[:-1]) or ts[0] <= 0.0:
            raise ValueError("sample abscissae must be positive and distinct")
        return cls(ts, ks)

    def _eval(self, x, rows):
        """(K(e^x), its segment's slope, the segment) at every x."""
        x = np.asarray(x, dtype=float)
        j = np.searchsorted(self._log_knots, x, side="right")
        if len(self.values) == 1:
            rows = 0

        def pick(a):
            a = a[rows]
            return a[j] if a.ndim == 1 else np.take_along_axis(a, j, axis=-1)

        s = pick(self._slope)
        with np.errstate(under="ignore"):
            t = np.exp(np.minimum(x, self._log_knots[-1]))
        return pick(self._at_left) + s * (t - self._left[j]), s, j

    def value_log(self, x, rows=None):
        """K(e^x), vectorized."""
        return self._eval(x, rows)[0]

    def slope_log(self, x, rows=None):
        """K(e^x)/e^x, stable for arbitrarily deep x of either sign."""
        k, s, j = self._eval(x, rows)
        with np.errstate(over="ignore", under="ignore", divide="ignore",
                         invalid="ignore"):
            return np.where(j == 0, s, k / np.exp(x))

    def log_kinks(self):
        """Log-abscissae where the profile is non-smooth (panel boundaries)."""
        return tuple(self._log_knots.tolist())


def atoms(element):
    """(coeffs, knots, basis) of a couple element: K(knots[j]) of the
    element with nonnegative atom coefficients F is (F @ basis)[j].

    * WeightedSeq: the atoms are the coordinates, coeffs = |c|, the knots
      the distinct w0/w1 and basis[i, j] = min(w0_i, knot_j w1_i);
    * StepFn: the atoms are the pieces of the decreasing rearrangement,
      coeffs their values, the knots their cumulative lengths and
      basis[i, j] = clip(knot_j - start_i, 0, length_i).  A truncation that
      keeps the order of the values, (v - c)+ or min(v, c), has the same
      rearrangement, so its K is F @ basis too.
    """
    if isinstance(element, WeightedSeq):
        w0, w1 = np.asarray(element.w0), np.asarray(element.w1)
        with np.errstate(over="ignore", under="ignore"):
            # a ratio beyond double range bends K where no t is a double
            knots = distinct([np.clip(w0 / w1, _TINY, _HUGE)])
            basis = np.minimum(w0[:, None], knots * w1[:, None])
        return np.abs(np.asarray(element.coeffs)), knots, basis
    if isinstance(element, StepFn):
        lengths, values = element.rearrangement()
        knots = np.cumsum(lengths)
        start = np.concatenate(([0.0], knots[:-1]))
        return values, knots, np.clip(knots - start[:, None], 0.0,
                                      lengths[:, None])
    raise TypeError("element must be a WeightedSeq or StepFn")


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
    if isinstance(e, KProfile) and len(e.values) == 1:
        return {"kind": "SyntheticK", "t": e.knots.tolist(),
                "K": e.values[0].tolist()}
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
    if kind == "SyntheticK":
        _check_samples(*lists, path)
    try:
        if kind == "WeightedSeq":
            return WeightedSeq(*lists)
        if kind == "StepFn":
            return StepFn(*lists)
        return KProfile.from_samples(zip(*lists))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _check_samples(t, k, path):
    """Name the field of a SyntheticK sample list that is not one finite
    real per abscissa."""
    if len(k) != len(t):
        raise ValueError(f"{path}.K: expected {len(t)} values, one per "
                         f"{path}.t entry, got {len(k)}")
    for name, vals in (("t", t), ("K", k)):
        try:
            ok = all(math.isfinite(float(v)) for v in vals)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"{path}.{name}: expected finite reals")
