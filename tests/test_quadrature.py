import math

import numpy as np
import pytest

from kinterp.quadrature import (GL_ORDER, LogGrid, _GL_W, _GL_X, decay_product,
                                integral_log, sup_log)

from helpers import simpson_log


def test_log_grid_points_geometric():
    g = LogGrid(1e-2, 1e2, 4)
    pts = g.points()
    assert len(pts) == 17
    assert pts[0] == pytest.approx(1e-2)
    assert pts[-1] == pytest.approx(1e2)
    ratios = pts[1:] / pts[:-1]
    assert np.allclose(ratios, ratios[0])


def test_log_grid_validation():
    with pytest.raises(ValueError):
        LogGrid(1.0, 1.0)
    with pytest.raises(ValueError):
        LogGrid(-1.0, 1.0)
    with pytest.raises(ValueError):
        LogGrid(1.0, 2.0, 0)


def test_finite_interval_matches_simpson():
    fn = lambda x: np.exp(0.3 * x) * (1.0 + np.abs(x)) ** -1.5
    got = integral_log(fn, -3.0, 2.0)
    ref = simpson_log(fn, -3.0, 2.0)
    assert not got.diverged
    assert got.value == pytest.approx(ref, rel=1e-10)


def test_exponential_half_line_exact():
    # ∫_{-inf}^{ln 2} e^x dx = 2
    r = integral_log(lambda x: np.exp(np.minimum(x, 700.0)), -math.inf, math.log(2.0))
    assert not r.diverged
    assert r.value == pytest.approx(2.0, rel=1e-12)


def test_log_power_tail_estimate():
    # ∫_0^inf (1+|x|)^{-2} dx (both halves) = 2
    fn = lambda x: (1.0 + np.abs(x)) ** -2.0
    r = integral_log(fn, -math.inf, math.inf)
    assert not r.diverged
    assert r.value == pytest.approx(2.0, rel=1e-9)


def test_far_finite_bound_uses_substitution():
    # huge finite bound: ∫_{-1e9}^{0} (1+|x|)^{-2} dx = 1 - 1/(1+1e9)
    fn = lambda x: (1.0 + np.abs(x)) ** -2.0
    r = integral_log(fn, -1.0e9, 0.0)
    assert not r.diverged
    assert r.value == pytest.approx(1.0 - 1.0 / (1.0 + 1.0e9), rel=1e-8)


def test_divergence_flagged_for_log_divergent():
    r = integral_log(lambda x: np.ones_like(np.asarray(x)), 0.0, math.inf)
    assert r.diverged
    assert r.or_inf() == math.inf


def test_divergence_flagged_for_slow_power():
    fn = lambda x: np.where(np.asarray(x) >= 0, (1.0 + np.abs(x)) ** -0.5, 0.0)
    r = integral_log(fn, 0.0, math.inf)
    assert r.diverged


def test_kink_is_resolved():
    # |x| kink at 0: ∫_{-1}^{1} |x| dx = 1 to machine precision
    r = integral_log(lambda x: np.abs(x), -1.0, 1.0, kinks=(0.0,))
    assert r.value == pytest.approx(1.0, rel=1e-14)


def test_determinism_same_bits():
    fn = lambda x: np.exp(-np.abs(x)) * (1.0 + np.abs(x))
    a = integral_log(fn, -math.inf, 0.3)
    b = integral_log(fn, -math.inf, 0.3)
    assert a.value == b.value


def test_sup_log_interior_kink():
    fn = lambda x: np.exp(-0.5 * np.abs(x - math.log(4.0)))
    r = sup_log(fn, -math.inf, math.inf, anchors=(math.log(4.0),))
    assert not r.diverged
    assert r.value == pytest.approx(1.0, rel=1e-9)


def test_sup_log_respects_finite_bounds():
    r = sup_log(lambda x: np.exp(np.asarray(x, dtype=float)), -math.inf, 0.0)
    assert not r.diverged
    assert r.value == pytest.approx(1.0, rel=1e-9)


def _overflowing_exp(x):
    with np.errstate(over="ignore"):
        return np.exp(x)


def test_sup_log_flags_growth():
    # unbounded on [0, inf): still growing far out, or not finite
    for fn in (lambda x: 1.0 + x, lambda x: (1.0 + x) ** 0.01,
               _overflowing_exp):
        r = sup_log(fn, 0.0, math.inf)
        assert r.diverged


def test_sup_log_takes_a_bounded_rise():
    # e^{min(x, 700)} rises to e^700 and stays there: bounded, so its
    # supremum is a value, not a divergence
    r = sup_log(lambda x: np.exp(np.minimum(np.asarray(x, float), 700.0)),
                0.0, math.inf)
    assert not r.diverged
    assert r.value == pytest.approx(math.exp(700.0), rel=1e-12)


def test_sup_log_samples_only_inside_deep_bounds():
    # bounds past DEEP_LOG_RANGE put the rule's tail-fit probes at 2e12
    r = sup_log(lambda x: np.asarray(x, dtype=float), 1e12, 1.5e12)
    assert not r.diverged
    assert r.value == 1.5e12


def test_decay_product_masks_joint_decay():
    out = decay_product(np.array([-1e6, 0.0, 1.0]), np.array([1e300, 2.0, 0.0]))
    assert out[0] == 0.0
    assert out[1] == pytest.approx(2.0)
    assert out[2] == 0.0


def test_gauss_legendre_literals_are_leggauss():
    # written out so that importing the package loads no numpy.polynomial
    x, w = np.polynomial.legendre.leggauss(GL_ORDER)
    assert np.array_equal(_GL_X, x) and np.array_equal(_GL_W, w)
    assert np.array_equal(_GL_X, -_GL_X[::-1])
    assert np.array_equal(_GL_W, _GL_W[::-1])
