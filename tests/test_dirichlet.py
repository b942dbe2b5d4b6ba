import numpy as np
import pytest

from widthlab import dirichlet as dr
from widthlab import dmap as dm
from widthlab.dmap import Ball, BallFamily
from widthlab.domains import DiskDomain, bump_weight
from widthlab.errors import BoundaryMismatch, EnergyTooLarge, OverlapViolation
from widthlab.manifold import affine_subspace

BALL = Ball(0, (0.1, -0.05), 0.1)


def _interior(dom):
    m = np.hypot(dom.X, dom.Y) < dom.radius
    m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = False
    return m


# ---------------------------------------------------------------------------
# solve_dirichlet

def test_poisson_oracle_on_unit_disk():
    dom = DiskDomain(1.0, 129)
    tgt = affine_subspace(1, 1)
    exact = (dom.X**2 - dom.Y**2)[..., None]  # discretely harmonic for 5-point
    vals = exact.copy()
    inter = _interior(dom)
    vals[inter] = 0.0
    u0 = dm.DiscreteMap(dom, tgt, [vals])
    s = dr.SolverSettings(residual_tol=1e-12, max_sweeps=40_000)
    sol, info = dr.solve_dirichlet(dr.DirichletProblem(u0, "disk"), s,
                                   return_info=True)
    assert info.converged
    assert np.max(np.abs(sol.values[0][inter] - exact[inter])) <= 1e-4


def test_constant_boundary_gives_constant(dom, s2):
    u = dm.constant_sphere_map(dom, s2, (0.0, 0.0, -1.0))
    sol = dr.solve_dirichlet(dr.DirichletProblem(u, [BALL]))
    assert np.max(np.abs(sol.values[0] - u.values[0])) <= 1e-14


def test_cap_solve_beats_inclusion(dom, s2, identity_map):
    # north-pole cap traversed as itself: the energy minimizer undercuts the
    # cap inclusion (exactly, in the solver's discretization), and the fixed
    # point has tiny tangential residual
    b = Ball(1, (0.0, 0.0), np.tan(0.15))  # angular radius 0.3 cap
    s = dr.SolverSettings(residual_tol=1e-13, max_sweeps=50_000,
                          residual_stop=1e-9)
    sol, info = dr.solve_dirichlet(dr.DirichletProblem(identity_map, [b]), s,
                                   return_info=True)
    box, sub = dr._ball_block(dom, b)
    e_inc = dr.masked_grad_square(identity_map.values[1][box], sub)
    e_sol = dr.masked_grad_square(sol.values[1][box], sub)
    assert e_sol <= e_inc + 1e-12
    assert info.residual <= 1e-8
    # region quadrature has an O(h) staircase rim, hence the 2% tolerance
    e_pub = dm.energy(identity_map, BallFamily([b]))
    exact = 2 * np.pi * (1 - np.cos(0.3))
    assert abs(e_pub - exact) <= 0.02 * exact


def test_uniqueness_across_initializations(dom, s2, bump_map):
    s = dr.SolverSettings(residual_tol=1e-13, max_sweeps=40_000)
    v1 = dr.solve_dirichlet(dr.DirichletProblem(bump_map, [BALL], init="copy"), s)
    v2 = dr.solve_dirichlet(dr.DirichletProblem(bump_map, [BALL], init="linear"), s)
    assert dm.c0_w12_distance(v1, v2) <= 1e-6


def test_energy_too_large_gate(dom, s2, identity_map):
    fat = Ball(0, (0.0, 0.0), 0.9)
    with pytest.raises(EnergyTooLarge):
        dr.solve_dirichlet(dr.DirichletProblem(identity_map, [fat]),
                           dr.SolverSettings(small_energy=0.5))


# ---------------------------------------------------------------------------
# harmonic_replace

def test_replace_constant_noop(dom, s2):
    u = dm.constant_sphere_map(dom, s2, (0.0, 0.0, -1.0))
    r = dr.harmonic_replace(u, [BALL])
    assert r.energy_drop == 0.0
    assert r.converged
    for c in (0, 1):
        assert np.max(np.abs(r.map.values[c] - u.values[c])) <= 1e-14


def test_replace_harmonic_identity_small_drop(identity_map):
    r = dr.harmonic_replace(identity_map, [BALL])
    assert 0.0 <= r.energy_drop <= 1e-6


def test_replace_bump_drops_energy(dom, s2, bump_map):
    e0 = dm.energy(bump_map)
    r = dr.harmonic_replace(bump_map, [BALL])
    e1 = dm.energy(r.map)
    assert r.energy_drop > 1e-3
    # reported (solver-native) drop agrees with the independent functional
    assert abs((e0 - e1) - r.energy_drop) <= 0.05 * r.energy_drop + 1e-8
    assert r.energy_drop >= -1e-8


def test_replace_locality_bit_identical(dom, s2, bump_map):
    rho = 0.7
    r = dr.harmonic_replace(bump_map, [BALL], rho=rho)
    inside0 = dm.ball_mask(dom, BALL.scaled(rho))
    assert np.array_equal(r.map.values[0][~inside0], bump_map.values[0][~inside0])
    axis, theta = BALL.scaled(rho).cap(dom)
    in_cap1 = np.tensordot(dom.points[1], axis, axes=(-1, -1)) >= np.cos(theta)
    assert np.array_equal(r.map.values[1][~in_cap1], bump_map.values[1][~in_cap1])


def test_replace_overlap_violation(dom, s2, identity_map):
    fam = [Ball(0, (0.0, 0.0), 0.1), Ball(0, (0.05, 0.0), 0.1)]
    with pytest.raises(OverlapViolation):
        dr.harmonic_replace(identity_map, fam)


def test_replacement_minimizes_among_competitors(dom, s2, bump_map):
    s = dr.SolverSettings(residual_tol=1e-12, max_sweeps=40_000)
    r = dr.harmonic_replace(bump_map, [BALL], s=s)
    box, sub = dr._ball_block(dom, BALL)
    sol_block = r.map.values[0][box]
    e_sol = dr.masked_grad_square(sol_block, sub)
    rng = np.random.default_rng(21)
    bx, by = np.indices(sub.shape)
    for _ in range(20):
        cx, cy = rng.uniform(3, sub.shape[0] - 3), rng.uniform(3, sub.shape[1] - 3)
        wid = rng.uniform(1.5, 4.0)
        bump = np.exp(-(((bx - cx) / wid) ** 2 + ((by - cy) / wid) ** 2))
        bump[~sub] = 0.0
        w = sol_block + rng.uniform(0.005, 0.05) * bump[..., None] * rng.normal(size=3)
        w = s2.project(w)
        w[~sub] = sol_block[~sub]
        assert dr.masked_grad_square(w, sub) >= e_sol - 1e-10


# ---------------------------------------------------------------------------
# convexity

def test_convexity_gap_zero_for_equal(dom, s2, bump_map):
    v = dr.solve_dirichlet(dr.DirichletProblem(bump_map, [BALL]))
    assert dr.convexity_gap(v, v, [BALL]) == 0.0


def test_convexity_gap_randomized(dom, s2, bump_map):
    s = dr.SolverSettings(residual_tol=1e-12, max_sweeps=40_000)
    v = dr.solve_dirichlet(dr.DirichletProblem(bump_map, [BALL]), s)
    rng = np.random.default_rng(22)
    for trial in range(40):
        h = (0.01, 0.05)[trial % 2]
        pert = v.copy()
        shape = bump_weight(dom.X, dom.Y, (0.1, -0.05), 0.07)
        vec = rng.normal(size=3)
        pert.values[0] = s2.project(v.values[0] + h * shape[..., None] * vec)
        inside = dm.ball_mask(dom, BALL)
        pert.values[0][~inside] = v.values[0][~inside]
        assert dr.convexity_gap(pert, v, [BALL]) >= -1e-6


def test_convexity_gap_affine_exact_identity():
    dom = DiskDomain(1.0, 65)
    tgt = affine_subspace(1, 1)
    exact = (dom.X**2 - dom.Y**2)[..., None]
    u0 = dm.DiscreteMap(dom, tgt, [exact.copy()])
    s = dr.SolverSettings(residual_tol=1e-15, max_sweeps=60_000)
    v = dr.solve_dirichlet(dr.DirichletProblem(u0, "disk"), s)
    inter = _interior(dom)
    pert = v.copy()
    pert.values[0] = v.values[0] + 0.1 * (np.sin(np.pi * dom.X) *
                                          np.sin(np.pi * dom.Y))[..., None]
    pert.values[0][~inter] = v.values[0][~inter]
    gap = dr.convexity_gap(pert, v, "disk")
    half_dd = 0.5 * dr.masked_grad_square(pert.values[0] - v.values[0], inter)
    assert abs(gap - half_dd) <= 1e-10 * max(half_dd, 1.0)


def test_convexity_boundary_mismatch(dom, s2, bump_map):
    v = dr.solve_dirichlet(dr.DirichletProblem(bump_map, [BALL]))
    w = v.copy()
    w.values[0] = w.values[0] + 1e-3
    with pytest.raises(BoundaryMismatch):
        dr.convexity_gap(w, v, [BALL])


# ---------------------------------------------------------------------------
# replacement gap report

def test_gap_report_harmonic_degenerate(dom, s2):
    u = dm.constant_sphere_map(dom, s2, (0.0, 0.0, -1.0))
    f1 = BallFamily([Ball(0, (0.0, 0.0), 0.1)])
    rep = dr.replacement_gap_report(u, f1, f1)
    assert rep["degenerate"]
    assert np.isnan(rep["kappa_hat"])
    assert rep["lhs_nonnegative"]


def test_gap_report_same_family(dom, s2, bump_map):
    f = BallFamily([BALL])
    rep = dr.replacement_gap_report(bump_map, f, f)
    assert rep["lhs_nonnegative"]
    assert np.isfinite(rep["kappa_hat"])
    # replacement on the full ball gains at least the half-ball gain (the
    # half-replaced map is a competitor), exactly in the solver energy
    full = dr.harmonic_replace(bump_map, f)
    half = dr.harmonic_replace(bump_map, f.scaled(0.5))
    assert full.energy_drop >= half.energy_drop - 1e-10
    assert rep["lhs_drop"] >= 0.9 * half.energy_drop


def test_gap_report_distinct_families(dom, s2, bump_map):
    f1 = BallFamily([Ball(0, (0.07, -0.02), 0.09)])
    f2 = BallFamily([BALL])
    rep = dr.replacement_gap_report(bump_map, f1, f2)
    assert rep["lhs_drop"] > 0
    assert np.isfinite(rep["kappa_hat"])
    assert len(rep["mu_cases"]) == 3
    for case in rep["mu_cases"]:
        assert case["gain_after_first"] >= -1e-8


# ---------------------------------------------------------------------------
# Schwarz alternating

def test_schwarz_single_ball_matches_solve(dom, s2, bump_map):
    s = dr.SolverSettings(residual_tol=1e-11, max_sweeps=40_000,
                          residual_stop=1e-10)
    direct = dr.solve_dirichlet(dr.DirichletProblem(bump_map, [BALL]), s)
    alt = dr.schwarz_alternating(bump_map, [BALL], s)
    assert dm.c0_w12_distance(direct, alt) <= 1e-6


def test_schwarz_two_disks_affine_exact():
    dom = DiskDomain(1.0, 97)
    tgt = affine_subspace(1, 1)
    exact = dom.X[..., None]  # Re(z): discretely harmonic
    vals = exact.copy()
    cover = [Ball(0, (-0.25, 0.0), 0.45), Ball(0, (0.25, 0.0), 0.45)]
    union = np.zeros_like(dom.X, bool)
    for b in cover:
        union |= dm.ball_mask(dom, b)
    vals[union] = 0.0
    u0 = dm.DiscreteMap(dom, tgt, [vals])
    s = dr.SolverSettings(residual_tol=1e-12, max_sweeps=60_000,
                          residual_stop=1e-11)
    out, hist = dr.schwarz_alternating(u0, cover, s, return_history=True)
    assert np.max(np.abs(out.values[0][union] - exact[union])) <= 1e-8
    # geometric convergence of the cycle residuals
    hist = np.array(hist)
    hist = hist[hist > 1e-13]
    if len(hist) >= 3:
        ratios = hist[1:] / hist[:-1]
        assert np.median(ratios) < 0.9
    # agrees with the direct union relaxation
    direct = dr.direct_union_solve(u0, cover, s)
    assert np.max(np.abs(direct.values[0][union] - out.values[0][union])) <= 1e-6


# ---------------------------------------------------------------------------
# energy improvement sampler

def test_improvement_constant_zero(dom, s2):
    u = dm.constant_sphere_map(dom, s2, (0.0, 0.0, -1.0))
    assert dr.energy_improvement(u, 0.5) == 0.0


def test_improvement_identity_tolerance(identity_map):
    assert dr.energy_improvement(identity_map, 0.5) <= 1e-6


def test_improvement_bump_positive_and_budget_monotone(dom, s2, bump_map):
    small = dr.SamplerBudget(center_stride=24, radii=(0.16, 0.11), max_families=3,
                             excess_seeds=1)
    big = dr.SamplerBudget(center_stride=12, radii=(0.22, 0.16, 0.11, 0.08),
                           max_families=10, excess_seeds=3)
    e_small = dr.energy_improvement(bump_map, 0.5, small)
    e_big = dr.energy_improvement(bump_map, 0.5, big)
    assert e_small > 0
    assert e_big >= e_small - 1e-12


def test_improvement_monotone_in_eps(dom, s2, bump_map):
    budget = dr.SamplerBudget(max_families=10**9)  # no cap: same sample set
    lo = dr.energy_improvement(bump_map, 0.25, budget)
    hi = dr.energy_improvement(bump_map, 0.5, budget)
    assert hi >= lo - 1e-12
