import itertools
import json

import numpy as np
import pytest

from widthlab import certlab as cl
from widthlab import dirichlet as dr
from widthlab import dmap as dm
from widthlab.domains import CylinderDomain, SphereDomain
from widthlab.errors import EnergyTooLarge, NoZero, PreconditionFail
from widthlab.manifold import round_sphere


# ---------------------------------------------------------------------------
# Hardy-type inequality

def test_wente_closed_form_instance():
    out = cl.wente_hardy_check([1.0], [1.0], [0.0])  # zeta = 1, h = 1 - r^2
    assert abs(out["lhs"] - np.pi / 3) <= 1e-12
    assert abs(out["grad_h_sq"] - 2 * np.pi) <= 1e-12
    assert abs(out["zeta_sq"] - np.pi) <= 1e-12
    ratio = out["lhs"] / (out["grad_h_sq"] * out["zeta_sq"])
    assert abs(ratio - 1 / (6 * np.pi)) <= 1e-6


def test_wente_zero_field():
    out = cl.wente_hardy_check([1.0, 0.5], [0.0], [0.0])
    assert out["lhs"] == 0.0
    assert out["margin"] == out["rhs"]


def test_wente_suite_small():
    rep = cl.wente_hardy_suite(seed=5, instances=50)
    assert rep.passed
    assert rep.worst_margin >= -1e-8
    assert json.loads(rep.to_json())["name"] == "wente"


def test_wente_suite_reads_the_quadrature_grid_built_on_import(monkeypatch):
    """The polar grid is built once, on import, and is read-only: a suite
    run asks leggauss for nothing."""
    leggauss = np.polynomial.legendre.leggauss
    calls = []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda deg: calls.append(deg) or leggauss(deg))
    rep = cl.wente_hardy_suite(seed=5, instances=20)
    assert calls == [] and rep.passed and rep.instances == 20
    with pytest.raises(ValueError):
        cl.POLAR_GRID[0][0] = 0.0


def _wente_grid_error(monkeypatch, zeta_degree, trig_mode, draws=4):
    """Largest relative difference of the `wente_hardy_check` integrals on
    POLAR_GRID from those on a 64 x 256 reference grid, over instances drawn
    with zeta of the given degree and h of the given top mode."""
    rng = np.random.default_rng(11)
    x, w = np.polynomial.legendre.leggauss(64)
    reference = (0.5 * (x + 1.0), 0.5 * w, np.arange(256) * (2 * np.pi / 256),
                 2 * np.pi / 256)
    grid = cl.POLAR_GRID
    worst = 0.0
    for _ in range(draws):
        zc = rng.normal(size=zeta_degree + 1) + 1j * rng.normal(size=zeta_degree + 1)
        a = rng.normal(size=trig_mode + 1)
        b = rng.normal(size=trig_mode + 1)
        b[0] = 0.0
        got = cl.wente_hardy_check(zc, a, b)
        monkeypatch.setattr(cl, "POLAR_GRID", reference)
        want = cl.wente_hardy_check(zc, a, b)
        monkeypatch.setattr(cl, "POLAR_GRID", grid)
        worst = max(worst, *(abs(got[k] - want[k]) / abs(want[k])
                             for k in ("lhs", "grad_h_sq", "zeta_sq")))
    return worst


def test_wente_grid_is_exact_within_the_generator_bounds(monkeypatch):
    """At the generator's largest degrees the grid gives the integrals of a
    64 x 256 grid to rounding; past them it does not, so the comparison can
    fail."""
    zeta_degree, trig_mode = cl.WENTE_ZETA_DEGREE, cl.WENTE_TRIG_MODE
    assert _wente_grid_error(monkeypatch, zeta_degree, trig_mode) <= 1e-13
    assert _wente_grid_error(monkeypatch, 20, trig_mode) > 1e-13
    assert _wente_grid_error(monkeypatch, zeta_degree, 12) > 1e-13


# ---------------------------------------------------------------------------
# ODE comparison

def test_ode_closed_form_instance():
    t = np.linspace(-2, 2, 4097)
    out = cl.ode_comparison_check(1.0 + np.cosh(t), 1.0, 1.0)
    exact = 4.0 + 2.0 * np.sinh(2.0)
    assert abs(out["integral"] - exact) <= 1e-6 * exact
    bound = 2 * np.sqrt(2) * np.sinh(1 / np.sqrt(2))
    assert abs(out["bound"] - bound) <= 1e-12
    assert out["margin"] > 9.0


def test_ode_zero_a_trivial():
    t = np.linspace(-2, 2, 1025)
    out = cl.ode_comparison_check(np.cosh(t) + 1e-9, 1e-9, 1.0)
    assert out["integral"] >= 0.0
    assert out["bound"] <= 1e-8


def test_ode_precondition_gate():
    t = np.linspace(-2, 2, 1025)
    with pytest.raises(PreconditionFail):
        cl.ode_comparison_check(np.cos(t) + 5.0, 1.0, 1.0)  # f'' < f - a


def test_ode_suite_small():
    rep = cl.ode_comparison_suite(seed=5, instances=50)
    assert rep.passed
    assert rep.worst_margin >= -1e-6


# ---------------------------------------------------------------------------
# Wirtinger

def test_wirtinger_closed_form():
    th = np.arange(256) * 2 * np.pi / 256
    out = cl.wirtinger_check(np.sin(th))
    assert abs(out["int_f2"] - np.pi) <= 1e-10
    assert abs(out["int_fp2"] - np.pi) <= 1e-10
    assert abs(out["margin"] - 3 * np.pi) <= 1e-10


def test_wirtinger_zero_trace():
    out = cl.wirtinger_check(np.zeros(64))
    assert out["margin"] == 0.0


def test_wirtinger_no_zero():
    th = np.arange(64) * 2 * np.pi / 64
    with pytest.raises(NoZero):
        cl.wirtinger_check(np.sin(th) + 2.0)


def test_wirtinger_suite_small():
    rep = cl.wirtinger_suite(seed=5, instances=100)
    assert rep.passed


# ---------------------------------------------------------------------------
# cylinder machinery

def test_hopf_constancy_radial_map():
    dom = CylinderDomain(-1.0, 1.0, 65, 48)
    tgt = round_sphere(2, 1.0)
    # unit-speed geodesic sweep, independent of theta
    vals = np.zeros((65, 48, 3))
    vals[..., 0] = np.cos(dom.t)[:, None]
    vals[..., 2] = np.sin(dom.t)[:, None]
    u = dm.DiscreteMap(dom, tgt, [vals])
    rep = cl.hopf_constancy(u)
    assert rep["deviation"] <= 1e-12
    assert abs(rep["mean"] - 2 * np.pi) <= 1e-3  # |u_t| = 1 up to stencils


def test_hopf_constant_map():
    dom = CylinderDomain(-1.0, 1.0, 33, 32)
    tgt = round_sphere(2, 1.0)
    vals = np.tile(np.array([0.0, 0.0, 1.0]), (33, 32, 1))
    rep = cl.hopf_constancy(dm.DiscreteMap(dom, tgt, [vals]))
    assert rep["deviation"] == 0.0
    assert rep["mean"] == 0.0


def test_theta_decay_radial_ratio_zero():
    dom = cl.cylinder_domain(1.0, 97, 48)
    tgt = round_sphere(2, 1.0)
    vals = np.zeros((97, 48, 3))
    vals[..., 0] = np.cos(0.1 * dom.t)[:, None]
    vals[..., 2] = np.sin(0.1 * dom.t)[:, None]  # short radial arc, small energy
    u = dm.DiscreteMap(dom, tgt, [vals])
    out = cl.theta_energy_decay_check(u, 1.0, 0.1, eps2=0.25)
    assert out["applicable"]
    assert out["ratio"] <= 1e-20


def test_harmonic_hardy_suite_measures_ratios():
    rep = cl.harmonic_hardy_suite(seed=2, instances=5)
    assert rep.passed
    assert 0 < rep.details["max_ratio"] < np.inf
    assert rep.details["median_ratio"] <= rep.details["max_ratio"]


def test_convexity_answer_does_not_depend_on_the_relaxation(monkeypatch):
    """Gauss-Seidel and the suite's over-relaxed solves give the same
    instances and skips, and worst margins well inside the tolerance."""
    assert cl.BALL_OVERRELAX != 1.0
    sor = cl.convexity_suite(seed=3, instances=8)
    monkeypatch.setattr(cl, "BALL_OVERRELAX", 1.0)
    gs = cl.convexity_suite(seed=3, instances=8)
    assert sor.passed and gs.passed
    assert (sor.instances, sor.skipped) == (gs.instances, gs.skipped)
    assert abs(sor.worst_margin - gs.worst_margin) <= 1e-7 < cl.CONVEXITY_TOL


# the solver-backed suites: instance counts, and the solves they then make
SOLVED_RUNS = {"hopf": ({}, 3), "theta-decay": ({}, 2),
               "convexity": ({"instances": 4}, 4), "harmonic-hardy": ({"instances": 2}, 2)}


@pytest.mark.parametrize("name", sorted(SOLVED_RUNS))
def test_suite_with_an_unconverged_solve_fails(monkeypatch, name):
    """Every solve of a solver-backed suite cut off after three sweeps: the
    suite counts them and fails (hopf and convexity passed so)."""
    kwargs, solves = SOLVED_RUNS[name]
    settings = dr.SolverSettings
    monkeypatch.setattr(dr, "SolverSettings",
                        lambda **kw: settings(**{**kw, "max_sweeps": 3}))
    rep = cl.SUITES[name](seed=0, **kwargs)
    assert not rep.passed
    assert rep.details["unconverged"] == solves


def test_theta_decay_gate_excludes_large_energy():
    s2 = round_sphere(2, 1.0)
    dom = cl.cylinder_domain(1.0, 65, 48)
    th = dom.theta
    trace = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], -1)  # big
    u, _ = cl.solve_cylinder_map(dom, s2, trace, trace)
    out = cl.theta_energy_decay_check(u, 1.0, 0.1, eps2=0.25)
    assert not out["applicable"]


def test_report_json_stable():
    r1 = cl.wirtinger_suite(seed=9, instances=20).to_json()
    r2 = cl.wirtinger_suite(seed=9, instances=20).to_json()
    assert r1 == r2


def _strict_json(s):
    """Parse s, rejecting the NaN and Infinity constants JSON does not have."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(s, parse_constant=reject)


def test_report_json_is_strict():
    rep = cl.harmonic_hardy_suite(seed=0, instances=2)
    assert rep.tolerance == np.inf
    payload = _strict_json(rep.to_json())
    assert payload["tolerance"] is None
    assert payload["worst_margin"] == rep.worst_margin


# ---------------------------------------------------------------------------
# suites that evaluate nothing fail

@pytest.mark.parametrize("suite", [cl.wente_hardy_suite, cl.ode_comparison_suite,
                                   cl.wirtinger_suite, cl.convexity_suite,
                                   cl.harmonic_hardy_suite])
def test_suite_with_no_instances_fails(suite):
    rep = suite(seed=0, instances=0)
    assert not rep.passed
    assert rep.instances == 0
    payload = _strict_json(rep.to_json())
    assert payload["worst_margin"] == (rep.worst_margin
                                       if np.isfinite(rep.worst_margin) else None)


def test_ode_suite_gives_up_when_every_draw_is_rejected(monkeypatch):
    def reject(*args, **kwargs):
        raise PreconditionFail("rejected")

    monkeypatch.setattr(cl, "ode_comparison_check", reject)
    rep = cl.ode_comparison_suite(seed=0, instances=3)
    assert not rep.passed
    assert rep.instances == 0
    assert rep.skipped == 3 * cl.MAX_DRAWS_PER_INSTANCE


def test_convexity_suite_counts_skips(monkeypatch):
    monkeypatch.setattr(dm, "ball_fits_chart", lambda dom, b: False)
    rep = cl.convexity_suite(seed=0, instances=3)
    assert not rep.passed
    assert rep.instances == 0 and rep.skipped == 3


def test_convexity_report_does_not_depend_on_the_group_width(monkeypatch):
    """Groups of 1, of 3 (the last one partial) and of the default width
    give the same report, also when the energy gate skips instances inside
    a group."""
    widths = (1, 3, cl.CONVEXITY_GROUP)
    gate = dr.check_small_energy

    def reports(reject_every=0):
        out = []
        for width in widths:
            monkeypatch.setattr(cl, "CONVEXITY_GROUP", width)
            calls = itertools.count(1)

            def check(u, fam, s):
                if reject_every and next(calls) % reject_every == 0:
                    raise EnergyTooLarge("rejected")
                gate(u, fam, s)

            monkeypatch.setattr(dr, "check_small_energy", check)
            out.append(cl.convexity_suite(seed=3, instances=7).to_json())
        return out

    for reject_every, skipped in ((0, 0), (3, 2)):
        runs = reports(reject_every)
        assert runs == [runs[0]] * len(widths)
        rep = json.loads(runs[0])
        assert rep["pass"] and (rep["instances"], rep["skipped"]) == (7 - skipped, skipped)


def test_convexity_report_does_not_read_the_owner_sync(monkeypatch):
    """The suite builds its maps without the owner sync; maps built with it
    give the same reports bit for bit."""
    def reports():
        return [(r.passed, r.worst_margin.hex(), r.instances, r.skipped, r.details)
                for r in (cl.convexity_suite(seed=seed, instances=12) for seed in range(3))]

    shipped = reports()
    sphere_map, syncs = dm.sphere_map, []

    def synced(dom, target, fn, sync=True):
        syncs.append(sync)
        return sphere_map(dom, target, fn)

    monkeypatch.setattr(dm, "sphere_map", synced)
    assert reports() == shipped
    assert syncs and not any(syncs)


def test_convexity_instances_read_only_nodes_chart_0_owns(monkeypatch):
    """Every ball the suite draws, with every node within two grid steps of
    one of its nodes (the energy density's stencil), lies at chart-0 radius
    below 1, where chart 0 owns the nodes and the owner sync writes none."""
    balls = []

    def record(u, fam, s):
        balls.extend(fam)
        raise EnergyTooLarge("recorded, not solved")

    monkeypatch.setattr(dm, "sphere_map", lambda *args, **kwargs: None)
    monkeypatch.setattr(dr, "check_small_energy", record)
    for seed in range(20):
        assert cl.convexity_suite(seed=seed).instances == 0
    dom = SphereDomain()
    assert len(balls) > 1000
    for b in balls:
        near = dm.ball_mask(dom, b)
        for _ in range(2):
            near = near | dr._boundary_ring(near)
        assert np.max(np.hypot(dom.X[near], dom.Y[near])) < 1.0
        assert not dom.node_owner[0][near].any()


# the suites of the verify run (every suite but hopf), with small instance
# counts; None runs the suite's fixed ladder
SMALL_RUNS = {"wente": 20, "ode-comparison": 20, "wirtinger": 20, "theta-decay": None,
              "harmonic-hardy": 3, "convexity": 4}


def test_suites_give_the_same_report_twice_in_one_process():
    """A suite's report depends on its seed and instance count, not on what
    ran before it in the process."""
    assert set(SMALL_RUNS) == set(cl.SUITES) - {"hopf"}
    runs = [{name: cl.SUITES[name](seed=3, **({} if k is None else {"instances": k}))
             .to_json() for name, k in SMALL_RUNS.items()} for _ in range(2)]
    assert all(json.loads(r)["instances"] >= 1 for r in runs[0].values())
    assert runs[0] == runs[1]
