"""Faults put into the mathematics of a certificate suite, or of the
uniqueness check of `widthlab calibrate`, each of which the check must catch.

Each fault is put in through monkeypatch: either it wraps the check a suite
calls, so that the check evaluates a wrong inequality, or it breaks the
solve whose answer the check is about.  The suite must then fail at seed 0,
where it passes intact.
"""
import pytest

from widthlab import certlab as cl
from widthlab import cli
from widthlab import dirichlet as dr


def halve_wirtinger_constant(out):
    """int |f|^2 <= 2 int |f'|^2: the largest int f^2 / (4 int f'^2) over
    the suite's instances is about 0.75, so some instance breaks it."""
    return {**out, "margin": 2.0 * out["int_fp2"] - out["int_f2"]}


def double_ode_bound(out):
    """int f >= 4 sqrt 2 a sinh(ell / sqrt 2): the instances may still meet
    it, but the baseline bound no longer equals its closed form."""
    bound = 2.0 * out["bound"]
    return {**out, "bound": bound, "margin": out["integral"] - bound}


FAULTS = {"wirtinger": ("wirtinger_check", halve_wirtinger_constant),
          "ode-comparison": ("ode_comparison_check", double_ode_bound)}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_suite_fails_on_a_faulty_check(monkeypatch, name):
    check_name, fault = FAULTS[name]
    assert cl.SUITES[name](seed=0).passed
    check = getattr(cl, check_name)
    monkeypatch.setattr(cl, check_name, lambda *a, **kw: fault(check(*a, **kw)))
    assert not cl.SUITES[name](seed=0).passed


def unrelaxed(pairs, s):
    """`relax_balls` that leaves every map as drawn and reports each solve
    converged.  The gap D(u) - D(v) - D(u - v)/2 holds for the minimizer v
    only; the drawn map is not one (worst margin -0.018 at seed 0 with 12
    instances, +8.8e-5 intact)."""
    return [dr.SolveInfo(sweeps=0, converged=True, residual=0.0, energy_drop=0.0)
            for _ in pairs]


def test_convexity_suite_fails_on_unrelaxed_solves(monkeypatch):
    assert cl.convexity_suite(seed=0, instances=12).passed
    monkeypatch.setattr(dr, "relax_balls", unrelaxed)
    assert not cl.convexity_suite(seed=0, instances=12).passed


def unrelaxed_linear_start(solve):
    """`solve_dirichlet` whose "linear" solve returns its start, the
    projected harmonic extension of the boundary data, unrelaxed.  On a ring
    of constant boundary values that start is the solution already."""
    def fault(u, fam, s, init="copy"):
        if init != "linear":
            return solve(u, fam, s, init)
        v = u.copy()
        for b in fam:
            box, interior = dr._ball_block(v.domain, b)
            dr._linear_init(v.values[b.chart][box], interior, s, v.target)
        return v, dr.SolveInfo(sweeps=0, converged=True, residual=0.0, energy_drop=0.0)

    return fault


def test_calibrate_uniqueness_fails_on_unrelaxed_linear_starts(monkeypatch, dom):
    """At eps1 = 0.25 the two solves lie 7.8e-9 apart intact and 1.8e-4
    apart under the fault.  A bump on the solved ball itself, with the
    ball's own radius, gives a constant ring, and there the fault read
    3.9e-9 and passed."""
    worst, ran = cli.uniqueness_check(dom, 0, 0.25)
    assert ran > 0 and worst <= 1e-6
    monkeypatch.setattr(dr, "solve_dirichlet", unrelaxed_linear_start(dr.solve_dirichlet))
    worst, ran = cli.uniqueness_check(dom, 0, 0.25)
    assert ran > 0 and worst > 1e-6
