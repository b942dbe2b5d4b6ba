from dataclasses import astuple

import numpy as np
import pytest

from conftest import (chart0_bump_map, constant_sphere_map, edge_energy,
                      reference_catmullrom)
from widthlab import dirichlet as dr
from widthlab import dmap as dm
from widthlab import sweepout as sw
from widthlab.dmap import Ball, BallFamily
from widthlab.domains import CylinderDomain, SphereDomain, bump_weight
from widthlab.errors import BoundaryMismatch, EnergyTooLarge, OverlapViolation
from widthlab.manifold import affine_subspace, round_sphere

BALL = Ball(0, (0.1, -0.05), 0.1)


# ---------------------------------------------------------------------------
# solve_dirichlet

def test_poisson_oracle_on_unit_disk(dom):
    # X^2 - Y^2 is discretely harmonic for the 5-point stencil, so the
    # solve on a chart disk with zeroed interior must recover it
    b = Ball(0, (0.0, 0.0), 0.8)
    tgt = affine_subspace(1, 1)
    exact = (dom.X**2 - dom.Y**2)[..., None]
    box, inter = dr._ball_block(dom, b)
    vals = exact.copy()
    vals[box][inter] = 0.0
    u0 = dm.DiscreteMap(dom, tgt, [vals, exact.copy()])
    s = dr.SolverSettings(residual_target=1e-9, max_sweeps=40_000)
    sol, info = dr.solve_dirichlet(u0, [b], s)
    assert info.converged
    assert np.max(np.abs(sol.values[0][box][inter] - exact[box][inter])) <= 1e-4


def test_constant_boundary_gives_constant(dom, s2):
    u = constant_sphere_map(dom, s2, (0.0, 0.0, -1.0))
    sol, _ = dr.solve_dirichlet(u, [BALL])
    assert np.max(np.abs(sol.values[0] - u.values[0])) <= 1e-14


def test_cap_solve_beats_inclusion(dom, s2, identity_map):
    # north-pole cap traversed as itself: the energy minimizer undercuts the
    # cap inclusion (exactly, in the solver's discretization), and the fixed
    # point has tiny tangential residual
    b = Ball(1, (0.0, 0.0), np.tan(0.15))  # angular radius 0.3 cap
    s = dr.SolverSettings(residual_target=1e-9, max_sweeps=50_000)
    sol, info = dr.solve_dirichlet(identity_map, [b], s)
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
    s = dr.SolverSettings(residual_target=1e-10, max_sweeps=40_000)
    v1, _ = dr.solve_dirichlet(bump_map, [BALL], s, init="copy")
    v2, _ = dr.solve_dirichlet(bump_map, [BALL], s, init="linear")
    assert dm.c0_w12_distance(v1, v2) <= 1e-6


def test_energy_too_large_gate(dom, s2, identity_map):
    fat = Ball(0, (0.0, 0.0), 0.9)
    with pytest.raises(EnergyTooLarge):
        dr.solve_dirichlet(identity_map, [fat],
                           dr.SolverSettings(small_energy=0.5))


# ---------------------------------------------------------------------------
# harmonic_replace

def test_replace_constant_noop(dom, s2):
    u = constant_sphere_map(dom, s2, (0.0, 0.0, -1.0))
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


def test_full_ball_replacement_drops_at_least_the_half_ball(bump_map):
    """Replacement on the full ball gains at least the half-ball gain (the
    half-replaced map is a competitor), exactly in the solver energy."""
    f = BallFamily([BALL])
    full = dr.harmonic_replace(bump_map, f)
    half = dr.harmonic_replace(bump_map, f.scaled(0.5))
    assert half.energy_drop > 0
    assert full.energy_drop >= half.energy_drop - 1e-10


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
    s = dr.SolverSettings(residual_target=1e-9, max_sweeps=40_000)
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
    v, _ = dr.solve_dirichlet(bump_map, [BALL])
    assert dr.convexity_gap(v, v, [BALL]) == 0.0


def test_convexity_gap_randomized(dom, s2, bump_map):
    s = dr.SolverSettings(residual_target=1e-8, max_sweeps=40_000)
    v, _ = dr.solve_dirichlet(bump_map, [BALL], s)
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


def test_convexity_gap_affine_exact_identity(dom):
    b = Ball(0, (0.0, 0.0), 0.5)
    tgt = affine_subspace(1, 1)
    exact = (dom.X**2 - dom.Y**2)[..., None]
    u0 = dm.DiscreteMap(dom, tgt, [exact.copy(), exact.copy()])
    s = dr.SolverSettings(residual_target=1e-13, max_sweeps=60_000)
    v, _ = dr.solve_dirichlet(u0, [b], s)
    box, inter = dr._ball_block(dom, b)
    bump = 0.1 * (np.sin(np.pi * dom.X) * np.sin(np.pi * dom.Y))[box][..., None]
    pert = v.copy()
    pert.values[0][box] += np.where(inter[..., None], bump, 0.0)
    gap = dr.convexity_gap(pert, v, [b])
    half_dd = 0.5 * dr.masked_grad_square(pert.values[0][box] - v.values[0][box], inter)
    assert abs(gap - half_dd) <= 1e-10 * max(half_dd, 1.0)


def test_convexity_boundary_mismatch(dom, s2, bump_map):
    v, _ = dr.solve_dirichlet(bump_map, [BALL])
    w = v.copy()
    w.values[0] = w.values[0] + 1e-3
    with pytest.raises(BoundaryMismatch):
        dr.convexity_gap(w, v, [BALL])


# ---------------------------------------------------------------------------
# energy improvement sampler

def test_improvement_constant_zero(dom, s2):
    u = constant_sphere_map(dom, s2, (0.0, 0.0, -1.0))
    assert dr.energy_improvement([(u, dm.measure(u))], 0.5)[0][0] == 0.0


def test_improvement_identity_tolerance(identity_map):
    assert dr.energy_improvement([(identity_map, dm.measure(identity_map))], 0.5)[0][0] \
        <= 1e-6


def test_improvement_bump_positive_and_budget_monotone(dom, s2, bump_map):
    small = dr.SamplerBudget(center_stride=24, radii=(0.16, 0.11), max_families=3,
                             excess_seeds=1)
    big = dr.SamplerBudget(center_stride=12, radii=(0.22, 0.16, 0.11, 0.08),
                           max_families=10, excess_seeds=3)
    m = dm.measure(bump_map)
    [(e_small, _, _)] = dr.energy_improvement([(bump_map, m)], 0.5, small)
    [(e_big, _, _)] = dr.energy_improvement([(bump_map, m)], 0.5, big)
    assert e_small > 0
    assert e_big >= e_small - 1e-12


def test_improvement_monotone_in_eps(dom, s2, bump_map):
    budget = dr.SamplerBudget(max_families=10**9)  # no cap: same sample set
    m = dm.measure(bump_map)
    [(lo, _, _)] = dr.energy_improvement([(bump_map, m)], 0.25, budget)
    [(hi, _, _)] = dr.energy_improvement([(bump_map, m)], 0.5, budget)
    assert hi >= lo - 1e-12


# ---------------------------------------------------------------------------
# oracles: the precomputed lattice and the slice kernel against reference
# copies of the per-ball candidate loop and the np.roll relaxation kernel,
# compared bit for bit

def _reference_candidate_balls(u, budget):
    dom = u.domain
    cands = []
    for c in (0, 1):
        dens = dm.energy_density(*dm.chart_differential(u, c)) * dom.h**2
        excess = dens - dm.jacobian_density(*dm.chart_differential(u, c)) * dom.h**2
        idx = np.arange(0, dom.n, budget.center_stride)
        centers = [(int(i), int(j)) for i in idx for j in idx]
        order = np.argsort(-excess, axis=None)
        hot = np.unravel_index(order[: budget.excess_seeds], excess.shape)
        centers += list(zip(hot[0].tolist(), hot[1].tolist()))
        seen = set()
        for (i, j) in centers:
            if (i, j) in seen:
                continue
            seen.add((i, j))
            cx, cy = float(dom.axis[i]), float(dom.axis[j])
            for r in budget.radii:
                b = Ball(c, (cx, cy), float(r))
                if not dm.ball_fits_chart(dom, b):
                    continue
                if not dm.ball_in_pure_region(dom, b):
                    continue
                box, m = dm.ball_box(dom, b)
                cands.append((float(np.sum(excess[box][m])),
                              float(np.sum(dens[box][m])), b))
    cands.sort(key=lambda t: (-t[0], t[2].chart, t[2].center, -t[2].radius))
    return cands


def _roll_neighbor_sums(v, wx, wy):
    return (wx * (np.roll(v, 1, 0) + np.roll(v, -1, 0))
            + wy * (np.roll(v, 1, 1) + np.roll(v, -1, 1)))


def _reference_residual(v, interior, target, wx=1.0, wy=1.0):
    if not np.any(interior):
        return 0.0
    lap = _roll_neighbor_sums(v, wx, wy) - 2.0 * (wx + wy) * v
    l_int = lap[interior]
    pn = target.normal_space_projector(v[interior])
    tang = l_int - np.einsum("kij,kj->ki", pn, l_int)
    return float(np.max(np.linalg.norm(tang, axis=-1)))


def _reference_relax(v, interior, target, settings, wx=1.0, wy=1.0, periodic_y=False):
    """The kernel's stopping rule on one block, with np.roll sums: after
    each sweep in which no component of a node moved by more than
    residual_target * overrelax / (2 (wx + wy) sqrt(N)), take the
    residual, and stop, converged, when it meets the target; a miss sweeps
    on, and a block cut off by max_sweeps is not converged."""
    ii, jj = np.nonzero(interior)
    red = ((ii + jj) % 2) == 0
    colors = [(ii[red], jj[red]), (ii[~red], jj[~red])]
    denom = 2.0 * (wx + wy)
    om = settings.overrelax
    small = settings.residual_target * om / (denom * np.sqrt(v.shape[-1]))
    e0 = edge_energy(v, wx, wy, periodic_y)
    sweeps = 0
    converged = len(ii) == 0
    res = 0.0
    while sweeps < settings.max_sweeps and not converged:
        moved = 0.0
        for ci, cj in colors:
            if len(ci) == 0:
                continue
            upd = _roll_neighbor_sums(v, wx, wy)[ci, cj] / denom
            if om != 1.0:
                upd = (1.0 - om) * v[ci, cj] + om * upd
            new = target.project(upd)
            moved = max(moved, np.max(np.abs(new - v[ci, cj])))
            v[ci, cj] = new
        sweeps += 1
        if moved <= small:
            res = _reference_residual(v, interior, target, wx, wy)
            converged = res <= settings.residual_target
    if not converged:
        res = _reference_residual(v, interior, target, wx, wy)
    return dr.SolveInfo(sweeps, converged, res,
                        float(e0 - edge_energy(v, wx, wy, periodic_y)))


def _bits(x):
    """repr keeps every bit of a float, and tells -0.0 from 0.0; a
    SolveInfo, alone or inside a container, shows every field's repr."""
    return repr(astuple(x) if isinstance(x, dr.SolveInfo) else x)


def _lattice_peak_map(dom, s2, stride):
    """Identity map whose non-conformal excess peaks on a lattice centre:
    the chart-0 neighbours at rows i -/+ 1 of lattice node (i, j) move by
    -/+ d, which makes the x-derivative jump twice as much at (i, j) as at
    any other node."""
    i = j = stride * max(round((dom.n // 2) / stride), 1)
    vals = [p.copy() for p in dom.points]
    d = np.array([0.0, 0.05, 0.0])
    vals[0][i - 1, j] -= d
    vals[0][i + 1, j] += d
    return dm.DiscreteMap(dom, s2, [s2.project(v) for v in vals]), (i, j)


BUDGETS = [dr.SamplerBudget(), dr.SamplerBudget(center_stride=24, radii=(0.16, 0.11))]


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("budget", BUDGETS, ids=["default", "stride24"])
def test_candidate_balls_equal_the_per_ball_loop(n, budget, s2):
    dom = SphereDomain(n=n)
    bump = chart0_bump_map(dom, s2)
    peak, node = _lattice_peak_map(dom, s2, budget.center_stride)
    du = dm.chart_differential(peak, 0)
    excess = dm.energy_density(*du) - dm.jacobian_density(*du)
    assert np.unravel_index(np.argmax(excess), excess.shape) == node
    assert dr.candidate_balls(bump, dm.measure(bump), budget)
    for u in (bump, peak):
        got = dr.candidate_balls(u, dm.measure(u), budget)
        assert _bits(got) == _bits(_reference_candidate_balls(u, budget))
    # an equal domain built apart gives the same list
    twin = dm.DiscreteMap(SphereDomain(n=n), s2, [v.copy() for v in bump.values])
    assert twin.domain is not dom
    assert _bits(dr.candidate_balls(twin, dm.measure(twin), budget)) == \
        _bits(dr.candidate_balls(bump, dm.measure(bump), budget))


def _cylinder_map(n_t=17, n_theta=12, seed=0):
    dom = CylinderDomain(0.0, 1.5, n_t, n_theta)
    s2 = round_sphere(2, 1.0)
    rng = np.random.default_rng(seed)
    th = dom.theta[None, :]
    base = np.stack([np.cos(th) + 0 * dom.t[:, None], np.sin(th) + 0 * dom.t[:, None],
                     0.3 * dom.t[:, None] + 0 * th], axis=-1)
    vals = s2.project(base + 0.2 * rng.standard_normal(base.shape))
    interior = np.ones((n_t, n_theta), bool)
    interior[0, :] = interior[-1, :] = False
    return dom, s2, vals, interior


CYLINDER_SETTINGS = {
    "gauss-seidel": dr.SolverSettings(residual_target=1e-3, max_sweeps=400),
    "sor-1.9": dr.SolverSettings(residual_target=1e-3, max_sweeps=400, overrelax=1.9),
    # a tight residual target: three to five times the sweeps of the others
    "residual-stop": dr.SolverSettings(residual_target=1e-9, max_sweeps=2000),
}


@pytest.mark.parametrize("name", sorted(CYLINDER_SETTINGS))
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "walled"])
def test_relax_weighted_cylinder_equals_roll_kernel(name, periodic):
    dom, s2, vals, interior = _cylinder_map()
    if not periodic:
        interior[:, 0] = interior[:, -1] = False
    wx, wy = 1.0 / dom.h_t**2, 1.0 / dom.h_theta**2
    assert wx != wy
    s = CYLINDER_SETTINGS[name]
    got, ref = vals.copy(), vals.copy()
    info = dr.relax(got, interior, s2, s, wx, wy, periodic)
    ref_info = _reference_relax(ref, interior, s2, s, wx, wy, periodic)
    assert 1 < info.sweeps
    assert not np.array_equal(got, vals)
    assert np.array_equal(got, ref)
    assert _bits(info) == _bits(ref_info)


@pytest.mark.parametrize("settings", [
    dr.SolverSettings(),
    dr.SolverSettings(overrelax=1.9, max_sweeps=300),
    dr.SolverSettings(residual_target=1e-9, max_sweeps=5000),
], ids=["default", "sor-1.9", "residual-stop"])
def test_relax_ball_view_equals_roll_kernel(dom, bump_map, settings):
    box, sub = dr._ball_block(dom, BALL)
    got, ref = bump_map.values[0].copy(), bump_map.values[0].copy()
    info = dr.relax(got[box], sub, bump_map.target, settings)
    ref_info = _reference_relax(ref[box], sub, bump_map.target, settings)
    assert info.sweeps > 1
    outside = ~dm.ball_mask(dom, BALL)
    assert np.array_equal(got[outside], bump_map.values[0][outside])
    assert not np.array_equal(got[box][sub], bump_map.values[0][box][sub])
    assert np.array_equal(got, ref)
    assert _bits(info) == _bits(ref_info)


def test_converged_means_the_residual_target_is_met(s2):
    """A ball block that a stop on a stalled edge energy (relative change
    1e-8 per sweep) called converged at a tangential residual of 9.5e-5:
    at the default target of 5e-5 a converged solve has its residual at or
    under the target, and a solve cut off by max_sweeps is not converged."""
    dom = SphereDomain(n=33)
    u = chart0_bump_map(dom, s2, width=0.15, amp=0.25)
    box, sub = dr._ball_block(dom, Ball(0, (0.1, -0.05), 0.2))
    s = dr.SolverSettings()
    assert s.residual_target == 5e-5
    info = dr.relax(u.values[0][box].copy(), sub, s2, s)
    assert info.converged and info.residual <= 5e-5
    cut = dr.SolverSettings(max_sweeps=info.sweeps - 1)
    capped = dr.relax(u.values[0][box].copy(), sub, s2, cut)
    assert capped.sweeps == cut.max_sweeps and not capped.converged
    assert capped.residual > 0.0


def test_a_missed_stop_sweeps_on_to_the_target(s2):
    """An SOR-1.9 block whose first displacement stop reads a residual of
    1.69e-7 against a target of 1.3e-7 (it was given up there, unconverged,
    after 84 sweeps): it sweeps on and meets the target, and lock step with
    a block that converges early changes none of its bits."""
    dom = SphereDomain(n=33)
    u = dm.identity_sphere_map(dom, s2)
    box, sub = dr._ball_block(dom, Ball(0, (0.0, 0.25), 0.219))
    s = dr.SolverSettings(residual_target=1.3e-7, overrelax=1.9)
    alone = u.values[0][box].copy()
    info = dr.relax(alone, sub, s2, s)
    assert info.converged and info.residual <= 1.3e-7
    assert 84 < info.sweeps < s.max_sweeps
    ref = u.values[0][box].copy()
    assert _bits(_reference_relax(ref, sub, s2, s)) == _bits(info)
    assert np.array_equal(ref, alone)
    other_box, other_sub = dr._ball_block(dom, Ball(0, (0.1, -0.05), 0.12))
    blocks = [(u.values[0][other_box].copy(), dr.block_stencil(other_sub, False)),
              (u.values[0][box].copy(), dr.block_stencil(sub, False))]
    early, late = dr.relax_blocks(blocks, s2, s, 1.0, 1.0)
    assert early.sweeps < late.sweeps
    assert _bits(late) == _bits(info) and np.array_equal(blocks[1][0], alone)


def test_a_block_cut_off_on_a_missed_stop_takes_its_residual_once(s2, monkeypatch):
    """The block above, cut off by max_sweeps on the sweep of its missed
    stop (84): the residual that stop took is the one it reports, and no
    second one is taken at the cut."""
    dom = SphereDomain(n=33)
    u = dm.identity_sphere_map(dom, s2)
    box, sub = dr._ball_block(dom, Ball(0, (0.0, 0.25), 0.219))
    s = dr.SolverSettings(residual_target=1.3e-7, overrelax=1.9, max_sweeps=84)
    taken = []
    residuals = dr._Layout.residuals
    monkeypatch.setattr(dr._Layout, "residuals",
                        lambda self, f, blocks, *a: taken.append(len(blocks))
                        or residuals(self, f, blocks, *a))
    v = u.values[0][box].copy()
    info = dr.relax(v, sub, s2, s)
    assert taken == [1]
    assert info.sweeps == 84 and not info.converged and info.residual > 1.3e-7
    ref = u.values[0][box].copy()
    assert _bits(_reference_relax(ref, sub, s2, s)) == _bits(info)
    assert np.array_equal(ref, v)


def test_relax_rejects_interior_on_a_non_periodic_edge():
    tgt = affine_subspace(1, 1)
    s = dr.SolverSettings(max_sweeps=5)
    for k, periodic in ((0, False), (0, True), (-1, True)):
        inter = np.zeros((6, 5), bool)
        inter[2:4, 2:4] = True
        inter[k, 2] = True
        with pytest.raises(ValueError):
            dr.relax(np.zeros((6, 5, 1)), inter, tgt, s, periodic_y=periodic)
    for k in (0, -1):
        inter = np.zeros((6, 5), bool)
        inter[2, k] = True
        with pytest.raises(ValueError):
            dr.relax(np.zeros((6, 5, 1)), inter, tgt, s)
        # the y axis of a periodic block has no edge
        info = dr.relax(np.zeros((6, 5, 1)), inter, tgt, s, periodic_y=True)
        assert info.converged


# ---------------------------------------------------------------------------
# oracles: the per-domain memo of ball caps and refresh sets against
# reference copies of the unmemoized cap, the full-grid refresh mask and the
# per-call Catmull-Rom sampling, compared bit for bit

def _reference_cap(b, dom):
    cx, cy = b.center
    ang = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    ring = dom.chart_to_sphere(b.chart, cx + b.radius * np.cos(ang),
                               cy + b.radius * np.sin(ang))
    nrm = np.cross(ring[1] - ring[0], ring[2] - ring[0])
    nrm /= np.linalg.norm(nrm)
    d = float(nrm @ ring[0])
    inside = dom.chart_to_sphere(b.chart, np.array(cx), np.array(cy))
    if float(nrm @ inside) < d:
        nrm, d = -nrm, -d
    return nrm, float(np.arccos(np.clip(d, -1.0, 1.0)))


def _reference_sync_cap(u, b):
    dom = u.domain
    other = 1 - b.chart
    axis, theta = _reference_cap(b, dom)
    reach = dom.node_owner[other] == b.chart
    for coord, s in zip(dom.cross_coords[other], dm.ball_box(dom, b)[0]):
        f = (coord - dom.axis[0]) / dom.h
        reach &= (f >= s.start - 2) & (f < s.stop + 1)
    refresh = reach | (np.tensordot(dom.points[other], axis, axes=(-1, -1))
                       >= np.cos(theta))
    Xs, Ys = dom.cross_coords[other]
    m = dom.cross_safe[other] & refresh
    if np.any(m):
        vals = reference_catmullrom(u.values[b.chart], dom.axis[0], dom.h, Xs[m], Ys[m])
        u.values[other][m] = u.target.project(vals)


def _cap_bits(cap):
    return cap[0].tobytes(), repr(cap[1])


# both charts; balls in the overlap band, near a pole, and clipped at the
# grid edge
MEMO_BALLS = [Ball(0, (0.1, -0.05), 0.1), Ball(0, (0.75, 0.5), 0.2),
              Ball(1, (-0.6, 0.7), 0.15), Ball(0, (1.2, -1.15), 0.2),
              Ball(1, (-1.25, 0.0), 0.1)]


def _noisy_map(dom, s2, seed):
    """A map whose charts disagree on the overlap, so refreshes show."""
    rng = np.random.default_rng(seed)
    u = chart0_bump_map(dom, s2)
    u.values = [s2.project(v + 0.01 * rng.standard_normal(v.shape)) for v in u.values]
    return u


@pytest.mark.parametrize("n", [33, 65])
def test_memoized_cap_and_refresh_equal_the_full_grid_code(n, s2):
    dom = SphereDomain(n=n)
    assert any(s.start == 0 or s.stop == n
               for b in MEMO_BALLS for s in dm.ball_box(dom, b)[0])
    u = _noisy_map(dom, s2, n)
    refreshed = 0
    for b in MEMO_BALLS:
        cap = b.cap(dom)
        assert _cap_bits(cap) == _cap_bits(_reference_cap(b, dom))
        assert b.cap(dom) is cap  # a hit returns the stored pair
        ref = u.copy()
        _reference_sync_cap(ref, b)
        for _ in range(2):  # the second call reads the stored refresh set
            got = u.copy()
            dr._sync_cap(got, b)
            assert [v.tobytes() for v in got.values] == [v.tobytes() for v in ref.values]
        refreshed += not np.array_equal(ref.values[1 - b.chart], u.values[1 - b.chart])
    assert refreshed >= 2
    assert set(dom.memo) == {(kind, b) for kind in ("cap", "refresh")
                               for b in MEMO_BALLS}


def test_memo_is_per_domain_and_read_only(s2, s3):
    one, two = SphereDomain(n=33), SphereDomain(n=33)
    b = MEMO_BALLS[1]
    cap = b.cap(one)
    assert list(one.memo) == [("cap", b)] and two.memo == {}
    twin = b.cap(two)
    assert twin[0] is not cap[0] and _cap_bits(twin) == _cap_bits(cap)
    u = _noisy_map(one, s2, 0)
    dr._sync_cap(u, b)
    budget = dr.SamplerBudget()
    bump = chart0_bump_map(one, s2)
    m = dm.measure(bump)
    first = dr.candidate_balls(bump, m, budget)
    key = ("lattice", budget.center_stride, tuple(budget.radii))
    assert [k for k in one.memo if k[0] == "lattice"] == [key]
    assert not any(k[0] == "lattice" for k in two.memo)
    lattice = one.memo[key]
    with pytest.MonkeyPatch.context() as mp:  # a second call reads the store
        mp.setattr(dr, "_candidate_lattice", lambda *a: pytest.fail("rebuilt"))
        assert dr.candidate_balls(bump, m, budget) == first
    assert one.memo[key] is lattice
    hot = [idx for k, balls in one.memo.items() if k[0] == "centre"
           for _, idx in balls]
    assert hot and all(lattice)
    blk = dr._block(one, b)
    assert dr._block(one, b) is blk and ("block", b) not in two.memo
    box, interior = dr._ball_block(one, b)
    assert blk.box == box
    assert _bits([a.tolist() for a in blk.stencil[:4]]) == \
        _bits([a.tolist() for a in dr.block_stencil(interior, False)[:4]])
    assert blk.stencil[2] is dr._block(one, Ball(0, (-0.4, 0.3), 0.2)).stencil[2]
    for arr in (cap[0], *one.memo[("refresh", b)], *hot,
                *(idx for chart in lattice for _, idx in chart),
                *blk.stencil[:4]):
        with pytest.raises(ValueError):
            arr[0] = 0
    # nothing is stored ahead of use
    dom = SphereDomain(n=33)
    sw.standard_sweepout("perturbed-latitude-s3", s3, dom, n_slices=4, amp=0.3)
    assert dom.memo == {}


# ---------------------------------------------------------------------------
# oracles: the lock-step kernel against the np.roll relaxation of each block
# alone, and the batched sampler against a loop of harmonic replacements,
# compared bit for bit

@pytest.mark.parametrize("settings", [
    dr.SolverSettings(),
    dr.SolverSettings(overrelax=1.9, max_sweeps=300),
    dr.SolverSettings(residual_target=1e-9, max_sweeps=5000),
], ids=["default", "sor-1.9", "residual-stop"])
def test_relax_blocks_equals_each_block_alone(dom, bump_map, settings):
    balls = [BALL, Ball(0, (0.12, -0.02), 0.05), Ball(0, (0.06, -0.1), 0.03),
             Ball(1, (0.4, 0.3), 0.08)]
    entries = [(bump_map.values[b.chart][dr._ball_block(dom, b)[0]],
                dr._ball_block(dom, b)[1]) for b in balls]
    empty = np.zeros((5, 7), bool)
    entries.insert(2, (bump_map.values[0][:5, :7], empty))
    assert len({v.shape for v, _ in entries}) == len(entries)
    blocks = [(v.copy(), dr.block_stencil(m, False)) for v, m in entries]
    infos = dr.relax_blocks(blocks, bump_map.target, settings, 1.0, 1.0)
    for (v, m), (got, _), info in zip(entries, blocks, infos):
        ref = v.copy()
        ref_info = _reference_relax(ref, m, bump_map.target, settings)
        assert np.array_equal(got, ref)
        assert _bits(info) == _bits(ref_info)
    assert infos[2].sweeps == 0 and infos[2].converged
    # the blocks stop at different sweeps, so the running set shrinks
    assert len({i.sweeps for i in infos}) >= 3


@pytest.mark.parametrize("name", sorted(CYLINDER_SETTINGS))
def test_relax_blocks_periodic_equals_each_cylinder_alone(name):
    s = CYLINDER_SETTINGS[name]
    dom, s2, vals, interior = _cylinder_map()
    _, _, wide, wide_interior = _cylinder_map(n_t=11, n_theta=16, seed=1)
    wx, wy = 1.0 / dom.h_t**2, 1.0 / dom.h_theta**2
    entries = [(vals, interior), (wide, wide_interior)]
    blocks = [(v.copy(), dr.block_stencil(m, True)) for v, m in entries]
    infos = dr.relax_blocks(blocks, s2, s, wx, wy)
    for (v, m), (got, _), info in zip(entries, blocks, infos):
        ref = v.copy()
        ref_info = _reference_relax(ref, m, s2, s, wx, wy, True)
        assert info.sweeps > 1
        assert np.array_equal(got, ref)
        assert _bits(info) == _bits(ref_info)


def _row_scatter_relax_blocks(blocks, target, settings, wx, wy):
    """`relax_blocks` as it was before its half-sweep wrote a colour through
    flat indices: the same layout bookkeeping, with the row-fancy scatter
    `f[c[0]] = new`."""
    layout = dr._Layout(blocks)
    f = np.concatenate([np.reshape(v, (-1, v.shape[-1])) for v, _ in blocks])
    n = len(blocks)
    edges = layout.edges(range(n))
    e0 = layout.energies(f, edges, wx, wy)
    converged = np.array([st[0].shape[1] + st[1].shape[1] == 0 for _, st in blocks])
    residual = np.zeros(n)
    sweeps = np.zeros(n, dtype=int)
    running = np.flatnonzero(~converged)
    om = settings.overrelax
    denom = 2.0 * (wx + wy)
    small = settings.residual_target * om / (denom * np.sqrt(f.shape[1]))
    sweep = 0
    while len(running):
        colours = [(c, split) for c, _, split in layout.colours(running, f.shape[1])]
        done = np.zeros(len(running), dtype=bool)
        stop = running[:0]
        while sweep < settings.max_sweeps and not done.any():
            moved = np.zeros(len(running))
            for c, split in colours:
                if c.shape[1] == 0:
                    continue
                g = f.take(c, axis=0)
                upd = (wx * (g[1] + g[2]) + wy * (g[3] + g[4])) / denom
                if om != 1.0:
                    upd = (1.0 - om) * g[0] + om * upd
                new = target.project(upd)
                f[c[0]] = new
                new = np.abs(new - g[0])
                if split is None:
                    moved[0] = max(moved[0], new.max())
                else:
                    has, starts = split
                    moved[has] = np.maximum(
                        moved[has], np.maximum.reduceat(new, starts).max(axis=1))
            sweep += 1
            stop = running[moved <= small]
            if len(stop):
                residual[stop] = layout.residuals(f, stop, target, wx, wy)
                converged[stop] = residual[stop] <= settings.residual_target
                done = converged[running]
        if sweep >= settings.max_sweeps:
            cut = running[~done & ~np.isin(running, stop)]
            if len(cut):
                residual[cut] = layout.residuals(f, cut, target, wx, wy)
            done[:] = True
        sweeps[running[done]] = sweep
        running = running[~done]
    drop = e0 - layout.energies(f, edges, wx, wy)
    for (v, _), o in zip(blocks, layout.offsets):
        v[...] = f[o:o + v.shape[0] * v.shape[1]].reshape(v.shape)
    return [dr.SolveInfo(int(sweeps[k]), bool(converged[k]), float(residual[k]),
                         float(drop[k])) for k in range(n)]


@pytest.mark.parametrize("overrelax", [1.0, 1.8])
def test_flat_scatter_equals_the_row_scatter(dom, bump_map, overrelax):
    """The half-sweep's flat-index scatter gives the bytes and SolveInfos
    of the row-fancy one, on ball blocks with one that has no interior and
    on periodic cylinders, by Gauss-Seidel and over-relaxed."""
    s = dr.SolverSettings(overrelax=overrelax, max_sweeps=400)
    balls = [BALL, Ball(0, (0.06, -0.1), 0.03), Ball(1, (0.4, 0.3), 0.08)]
    entries = [(bump_map.values[b.chart][dr._ball_block(dom, b)[0]],
                dr._ball_block(dom, b)[1]) for b in balls]
    entries.insert(1, (bump_map.values[0][:5, :7], np.zeros((5, 7), bool)))
    cyl, s2, vals, interior = _cylinder_map()
    _, _, wide, wide_interior = _cylinder_map(n_t=11, n_theta=16, seed=1)
    cases = [(entries, False, bump_map.target, 1.0, 1.0),
             ([(vals, interior), (wide, wide_interior)], True, s2,
              1.0 / cyl.h_t**2, 1.0 / cyl.h_theta**2)]
    for group, periodic, target, wx, wy in cases:
        got = [(v.copy(), dr.block_stencil(m, periodic)) for v, m in group]
        want = [(v.copy(), dr.block_stencil(m, periodic)) for v, m in group]
        infos = dr.relax_blocks(got, target, s, wx, wy)
        assert _bits(infos) == _bits(_row_scatter_relax_blocks(want, target, s, wx, wy))
        assert all(g.tobytes() == w.tobytes() for (g, _), (w, _) in zip(got, want))
        if not periodic:  # the empty block leaves at once, the others apart
            assert infos[1].sweeps == 0 and len({i.sweeps for i in infos}) >= 3


def test_row_sums_of_a_gather_equal_np_sum_of_each_row():
    """What `_by_count` rests on: `.sum(axis=1)` of a gathered (balls,
    count) array is, row by row, the np.sum of that row's gather alone, at
    every node count a candidate ball of the flagship grid can have."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4096) * np.exp(rng.uniform(-20, 20, 4096))
    for count in range(1, 1538):
        idx = rng.integers(0, len(x), (3, count))
        assert x[idx].sum(axis=1).tolist() == [float(np.sum(x[i])) for i in idx]


def test_relax_balls_equals_solve_dirichlet_on_each_pair(dom, s3, bump_map):
    """Balls with boxes of distinct shapes, one on chart 1 and one with no
    interior node, each on its own map, relaxed in lock step: every map's
    two charts and every SolveInfo are those `solve_dirichlet` gives the
    pair alone, bit for bit."""
    s = dr.SolverSettings(residual_target=1e-9, max_sweeps=5000)
    # centred between nodes, too small to hold one
    empty = Ball(0, (float(dom.axis[70] + dom.h / 2), float(dom.axis[60] + dom.h / 2)),
                 0.3 * dom.h)
    balls = [BALL, Ball(1, (0.4, 0.3), 0.08), empty, Ball(0, (0.06, -0.1), 0.05)]
    masks = [dr._ball_block(dom, b)[1] for b in balls]
    assert not masks[2].any() and len({m.shape for m in masks}) == len(balls)
    maps = [bump_map.copy() for _ in balls]
    infos = dr.relax_balls(list(zip(maps, balls)), s)
    for u, b, info in zip(maps, balls, infos):
        want, want_info = dr.solve_dirichlet(bump_map, [b], s)
        assert all(np.array_equal(g, w) for g, w in zip(u.values, want.values))
        assert _bits(info) == _bits(want_info)
    assert infos[2].sweeps == 0 and len({i.sweeps for i in infos}) >= 3
    assert dr.relax_balls([], s) == []
    other = constant_sphere_map(dom, s3, (0.0, 0.0, 0.0, -1.0))
    with pytest.raises(ValueError):
        dr.relax_balls([(bump_map.copy(), BALL), (other, BALL)], s)


def _reference_improvement(u, eps, budget, s):
    """The sampler as a loop of harmonic replacements, one per family: the
    best drop, its family and the replacements' solves, the count of
    families the energy gate skipped, and the half-scaled ball of each
    solve."""
    best, best_fam, solves, gated, balls = 0.0, None, [], 0, []
    for _, fam in dr.propose_families(u, dm.measure(u), eps, budget):
        try:
            r = dr.harmonic_replace(u, fam, 0.5, s)
        except EnergyTooLarge:
            gated += 1
            continue
        solves += r.solves
        balls += BallFamily(fam).scaled(0.5)
        if r.energy_drop > best:
            best, best_fam = float(r.energy_drop), fam
    return (best, best_fam, solves), gated, balls


@pytest.mark.parametrize("n, gate", [(33, True), (33, False), (65, False)])
@pytest.mark.parametrize("overrelax", [1.0, 1.5], ids=["gs", "sor-1.5"])
def test_energy_improvement_equals_the_replacement_loop(s3, n, gate, overrelax):
    dom = SphereDomain(n=n)
    u = sw.standard_sweepout("perturbed-latitude-s3", s3, dom, n_slices=8,
                             amp=0.3).slices[4 if n == 65 else 2]
    eps, budget = 0.5, dr.SamplerBudget()
    fams = [f for _, f in dr.propose_families(u, dm.measure(u), eps, budget)]
    multi = sorted(dm.energy(u, f.scaled(0.5)) for f in fams if len(f) > 1)
    assert len(multi) >= 2 and max(len(f) for f in fams) >= 3
    # with the gate, the half-scale energy bound falls between the two
    # lowest multi-ball families, so one is measured and one is skipped
    small = 1.5 * (multi[0] + multi[1]) if gate else 2.0
    s = dr.SolverSettings(small_energy=small, overrelax=overrelax)
    [got] = dr.energy_improvement([(u, dm.measure(u))], eps, budget, s)
    want, gated, balls = _reference_improvement(u, eps, budget, s)
    assert (gated > 0) == gate
    assert got[1] is not None and got[0] > 0.0
    # a ball solved again for another family gets the bits of its first
    # solve: the replacements before it in its family do not reach it
    first = {}
    for b, info in zip(balls, want[2]):
        assert _bits(info) == _bits(first.setdefault(b, info))
    assert len(first) < len(balls)
    assert _bits(got) == _bits(want[:2] + (list(first.values()),))
    assert len(want[2]) > len(fams) - gated  # multi-ball families were measured


def test_energy_improvement_leaves_out_a_dependent_family(monkeypatch, s2):
    """A family whose second ball straddles the equator on chart 1 next to
    its first ball on chart 0: the second ball reads chart-1 nodes that the
    first ball's refresh rewrites, so the pair is not independent, and the
    sampler measures only the two single-ball families."""
    dom = SphereDomain(n=65)
    u = chart0_bump_map(dom, s2, center=(0.85, 0.0), width=0.12, amp=0.3)
    first, second = Ball(0, (0.85, 0.0), 0.08), Ball(1, (0.98, 0.0), 0.05)
    singles = [(0.0, BallFamily([second])), (0.0, BallFamily([first]))]
    pair = BallFamily([first, second])
    assert not dr._independent(dom, pair.scaled(0.5))
    s = dr.SolverSettings()
    unsynced = u.copy()  # the pair without the refresh in between
    skipped = sum(dr.relax(unsynced.values[b.chart][dr._ball_block(dom, b)[0]],
                           dr._ball_block(dom, b)[1], s2, s).energy_drop
                  for b in pair.scaled(0.5))
    assert dr.harmonic_replace(u, pair, 0.5, s).energy_drop != skipped
    budget = dr.SamplerBudget()
    monkeypatch.setattr(dr, "propose_families", lambda *a: singles)
    want, _, _ = _reference_improvement(u, 0.5, budget, s)
    monkeypatch.setattr(dr, "propose_families",
                        lambda *a: [singles[0], (0.0, pair), singles[1]])
    [got] = dr.energy_improvement([(u, dm.measure(u))], 0.5, budget, s)
    assert _bits(got) == _bits(want) and len(got[2]) == 2


def test_energy_improvement_sums_independent_balls_solved_alone(monkeypatch, s2):
    """Two balls far apart on one chart: the family's drop is the sum of
    each ball relaxed alone on a copy of u's block, and the drop of the
    replacement, bit for bit."""
    dom = SphereDomain(n=65)
    u = _noisy_map(dom, s2, 3)
    fam = BallFamily([Ball(0, (0.1, -0.05), 0.2), Ball(0, (-0.5, 0.4), 0.2)])
    half = fam.scaled(0.5)
    assert dr._independent(dom, half)
    monkeypatch.setattr(dr, "propose_families", lambda *a: [(0.0, fam)])
    s = dr.SolverSettings()
    [(drop, best, solves)] = dr.energy_improvement([(u, dm.measure(u))], 0.5,
                                                   dr.SamplerBudget(), s)
    alone = []
    for b in half:
        box, sub = dr._ball_block(dom, b)
        alone.append(dr.relax(u.values[b.chart][box].copy(), sub, s2, s))
    assert best is fam and all(i.energy_drop > 0.0 for i in alone)
    assert _bits(solves) == _bits(alone)
    assert _bits(drop) == _bits(sum(i.energy_drop for i in alone))
    assert _bits(drop) == _bits(dr.harmonic_replace(u, fam, 0.5, s).energy_drop)


def test_trial_replacements_take_maps_into_one_target(dom, s2, s3):
    """The trial balls of all maps relax in one call, which projects to one
    target: maps into two targets are refused, and no map gives no pair."""
    s = dr.SolverSettings()
    round2 = constant_sphere_map(dom, s2, (0.0, 0.0, -1.0))
    round3 = constant_sphere_map(dom, s3, (0.0, 0.0, 0.0, -1.0))
    assert dr.trial_replacements([], 0.5, s) == []
    assert dr.trial_replacements([(round2, None, []), (round2, None, [])], 0.5, s) == \
        [([], {}), ([], {})]
    with pytest.raises(ValueError):
        dr.trial_replacements([(round2, None, []), (round3, None, [])], 0.5, s)


def test_energy_improvement_solves_each_distinct_ball_in_one_call(monkeypatch, s3):
    """One `relax_blocks` call, with one block per distinct half-scaled
    ball of the measured families; no map is copied and no cap refreshed."""
    dom = SphereDomain(n=33)
    u = sw.standard_sweepout("perturbed-latitude-s3", s3, dom, n_slices=8,
                             amp=0.3).slices[2]
    m, budget = dm.measure(u), dr.SamplerBudget()
    balls = [b for _, f in dr.propose_families(u, m, 0.5, budget)
             for b in BallFamily(f).scaled(0.5)]
    relax_blocks = dr.relax_blocks
    calls = []

    def counting(blocks, *args):
        calls.append(len(blocks))
        return relax_blocks(blocks, *args)

    monkeypatch.setattr(dr, "relax_blocks", counting)
    monkeypatch.setattr(dr, "_sync_cap", lambda *a: pytest.fail("refreshed a cap"))
    monkeypatch.setattr(dm.DiscreteMap, "copy", lambda *a: pytest.fail("copied u"))
    [(_, _, solves)] = dr.energy_improvement([(u, m)], 0.5, budget, dr.SolverSettings())
    assert calls == [len(set(balls))] and len(solves) == len(set(balls)) < len(balls)
