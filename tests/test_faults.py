"""Faults put into the mathematics of a certificate suite, each of which the
suite must catch.

Each fault wraps the check a suite calls, through monkeypatch, so that the
check evaluates a wrong inequality; the suite must then fail at seed 0,
where it passes intact.
"""
import pytest

from widthlab import certlab as cl


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
