import math

import numpy as np
import pytest

from ghcs import quadrature as qd
from ghcs.errors import ConvergenceError


def counted(f):
    """f with a call counter in .calls (one call per panel) and the shapes of
    the node arrays it was handed in .shapes."""
    def wrapper(x):
        wrapper.calls += 1
        wrapper.shapes.append(np.shape(x))
        return f(x)
    wrapper.calls = 0
    wrapper.shapes = []
    return wrapper


def meets_rule(val, err, rel_tol, abs_tol):
    return bool(np.all(err <= np.maximum(abs_tol, rel_tol * np.abs(val))))


def columns(*cols):
    """(m, k) integrand rows from k functions of the node array."""
    return lambda x: np.stack([c(x) for c in cols], axis=1)


# ------------------------------------------------------------ vector values

def test_vector_matches_scalar_integrations():
    ks = np.arange(6)
    val, err = qd.integrate(lambda x: x[:, None] ** ks * np.exp(-x)[:, None], 0.0, 3.0,
                            rel_tol=1e-12)
    assert val.shape == err.shape == (6,)
    assert meets_rule(val, err, 1e-12, 1e-14)
    for k in ks:
        ref, _ = qd.integrate(lambda x: x**k * np.exp(-x), 0.0, 3.0, rel_tol=1e-12)
        assert val[k] == pytest.approx(ref, rel=1e-12)
        # lower incomplete gamma(k+1, 3)
        exact = math.factorial(k) * (1.0 - math.exp(-3.0) * sum(3.0**j / math.factorial(j)
                                                               for j in range(k + 1)))
        assert val[k] == pytest.approx(exact, rel=1e-12)


def test_complex_vector_integrand():
    ks = np.array([1.0, 2.0, 3.5])
    val, err = qd.integrate(lambda x: np.exp(1j * np.multiply.outer(x, ks)), 0.0, math.pi,
                            rel_tol=1e-12)
    exact = (np.exp(1j * ks * math.pi) - 1.0) / (1j * ks)
    assert val.dtype == complex
    assert np.max(np.abs(val - exact)) <= 1e-12
    assert meets_rule(val, err, 1e-12, 1e-14)


def test_scalar_zero_broadcasts_against_arrays():
    # zero rows (x > 0.5) beside nonzero rows in one panel's (15, 2) values
    f = lambda x: np.where((x > 0.5)[:, None], 0.0, columns(np.ones_like, lambda x: x)(x))
    val, err = qd.integrate(f, 0.0, 1.0, rel_tol=1e-12)
    assert val.shape == (2,)
    assert val == pytest.approx([0.5, 0.125], rel=1e-12)
    # through the half-line map, whose t -> 1 rows are zero rows it fills in
    val, _ = qd.integrate_half_line(columns(lambda x: np.exp(-x), lambda x: x * np.exp(-x)))
    assert val == pytest.approx([1.0, 1.0], rel=1e-10)


def test_interval_budget_raises_for_any_component():
    f = columns(np.ones_like, lambda x: np.abs(x - 1.0 / 3.0) ** -0.5)
    with pytest.raises(ConvergenceError, match="10 intervals"):
        qd.integrate(f, 0.0, 1.0, rel_tol=1e-12, max_intervals=10)


def test_near_zero_component_meets_abs_tol():
    # the second integral is 0: rel_tol * |I| is out of reach, abs_tol decides,
    # and it is the second component's own target, not one scaled by the first
    f = columns(np.exp, lambda x: np.sin(20.0 * math.pi * x + 0.3))
    val, err = qd.integrate(f, 0.0, 1.0, rel_tol=1e-6, abs_tol=1e-12)
    assert val[0] == pytest.approx(math.e - 1.0, rel=1e-6)
    assert abs(val[1]) <= 1e-12
    assert err[1] <= 1e-12
    assert err[1] > 1e-6 * abs(val[1])


def test_one_call_per_panel_on_fifteen_nodes(monkeypatch):
    panels = []
    gk_panel = qd._gk_panel
    monkeypatch.setattr(qd, "_gk_panel", lambda f, a, b: panels.append((a, b)) or gk_panel(f, a, b))
    f = counted(lambda x: 1.0 / (1e-3 + (x - 0.3) ** 2))
    qd.integrate(f, 0.0, 1.0, rel_tol=1e-12)
    assert f.calls == len(panels) > 1
    assert f.shapes == [(15,)] * f.calls


# ------------------------------------------------------------- heap loop

def _sorted_loop_evals(f, a, b, rel_tol, abs_tol):
    """Reference: integrand calls and value of a plain adaptive loop that
    re-sorts all intervals by error and re-sums them on every bisection."""
    f = counted(f)
    val, err, _ = qd._gk_panel(f, a, b)
    intervals = [(err, a, b, val)]
    while sum(it[0] for it in intervals) > max(abs_tol, rel_tol * abs(sum(it[3] for it in intervals))):
        intervals.sort(key=lambda it: it[0])
        _, lo, hi, _ = intervals.pop()
        mid = 0.5 * (lo + hi)
        for x0, x1 in ((lo, mid), (mid, hi)):
            v, e, _ = qd._gk_panel(f, x0, x1)
            intervals.append((e, x0, x1, v))
    return f.calls, sum(it[3] for it in intervals)


def test_peaked_integrand_panel_count_not_above_sorted_loop():
    peak = lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2)
    f = counted(peak)
    val, err = qd.integrate(f, 0.0, 1.0, rel_tol=1e-12, abs_tol=1e-14, max_intervals=4000)
    ref_calls, ref_val = _sorted_loop_evals(peak, 0.0, 1.0, 1e-12, 1e-14)
    assert f.calls <= ref_calls
    assert val == pytest.approx(ref_val, rel=1e-12)
    exact = 1e3 * (math.atan(0.7e3) + math.atan(0.3e3))
    assert val == pytest.approx(exact, rel=1e-11)
    assert isinstance(val, float)
