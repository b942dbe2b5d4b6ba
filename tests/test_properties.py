"""Property tests of the invariants tightening rests on, on a coarse domain."""
from dataclasses import astuple

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import chart0_bump_map, edge_energy
from widthlab import dirichlet as dr
from widthlab import dmap as dm
from widthlab import sweepout as sw
from widthlab.dmap import Ball, BallFamily
from widthlab.domains import SphereDomain
from widthlab.errors import EnergyTooLarge
from widthlab.manifold import round_sphere

DOM = SphereDomain(n=33)
S2 = round_sphere(2, 1.0)
S3 = round_sphere(3, 1.0)
PROPERTY = settings(max_examples=10, deadline=None)

coord = st.floats(-0.4, 0.4)
# every such ball fits its chart; most stay under the replacement energy gate
chart_ball = st.builds(Ball, st.integers(0, 1), st.tuples(coord, coord),
                       st.floats(0.12, 0.22))


@PROPERTY
@given(center=st.tuples(coord, coord), width=st.floats(0.1, 0.5),
       amp=st.floats(0.0, 0.3), ball=chart_ball)
def test_replacement_never_raises_solver_energy(center, width, amp, ball):
    u = chart0_bump_map(DOM, S2, center=center, width=width, amp=amp)
    try:
        res = dr.harmonic_replace(u, ball, s=dr.SolverSettings())
    except EnergyTooLarge:
        assume(False)
    assert res.energy_drop >= -1e-12
    c = ball.chart
    assert (edge_energy(res.map.values[c])
            <= edge_energy(u.values[c]) + 1e-12)


@PROPERTY
@given(ball=chart_ball, ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       plateau=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_tighten_once_leaves_unscheduled_slices_alone(ball, ends, plateau):
    s0, a, b, s1 = sorted(ends + plateau)
    sched = sw.BallSchedule([BallFamily([ball])],
                            [sw.Envelope(support=(s0, s1), plateau=(a, b))], [0.0], [])
    swp = sw.standard_sweepout("perturbed-latitude-s3", S3, DOM, n_slices=8)
    out, _, _, _ = sw.tighten_once(swp, sched)
    for t, before, after in zip(swp.times, swp.slices, out.slices):
        if sched.envelopes[0](t) == 0.0:
            assert all(np.array_equal(x, y)
                       for x, y in zip(before.values, after.values))


@settings(max_examples=50, deadline=None)
@given(center=st.tuples(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6)),
       radius=st.floats(0.0, 0.8), chart=st.integers(0, 1))
def test_ball_mask_is_the_direct_grid_test(center, radius, chart):
    # centres reach past the chart edge at 1.25, so balls get clipped
    cx, cy = center
    direct = (DOM.X - cx) ** 2 + (DOM.Y - cy) ** 2 <= radius * radius
    assert np.array_equal(dm.ball_mask(DOM, Ball(chart, center, radius)), direct)


@settings(max_examples=25, deadline=None)
@given(center=st.tuples(coord, coord), width=st.floats(0.1, 0.5),
       amp=st.floats(0.0, 0.3), ball=chart_ball)
@example(center=(0.0, 0.0), width=0.5, amp=0.0, ball=Ball(0, (0.25, 0.375), 0.1875))
def test_replacement_keeps_owner_charts_authoritative(center, width, amp, ball):
    u = chart0_bump_map(DOM, S2, center=center, width=width, amp=amp)
    try:
        res = dr.harmonic_replace(u, ball, s=dr.SolverSettings())
    except EnergyTooLarge:
        assume(False)
    assert dm.overlap_disagreement(res.map) <= dm.overlap_disagreement(u)


@PROPERTY
@given(center=st.tuples(coord, coord), width=st.floats(0.1, 0.5),
       amp=st.floats(0.0, 0.3), balls=st.lists(chart_ball, min_size=1, max_size=3),
       target=st.floats(-8.0, -3.0).map(lambda e: 10.0**e),
       overrelax=st.sampled_from([1.0, 1.9]))
@example(center=(0.0, 0.0), width=0.1, amp=0.0, balls=[Ball(0, (0.0, 0.25), 0.219)],
         target=1.3e-7, overrelax=1.9)  # an SOR stop that misses its target
def test_converged_solves_meet_their_residual_target(center, width, amp, balls,
                                                     target, overrelax):
    """Ball blocks relaxed in lock step: every converged solve has its
    residual at or under the target, a solve that stopped before max_sweeps
    is converged, and Gauss-Seidel never raises the solver energy."""
    u = chart0_bump_map(DOM, S2, center=center, width=width, amp=amp)
    blocks = []
    for b in balls:
        box, sub = dr._ball_block(DOM, b)
        blocks.append((u.values[b.chart][box].copy(), dr.block_stencil(sub, False)))
    s = dr.SolverSettings(residual_target=target, overrelax=overrelax)
    for info in dr.relax_blocks(blocks, S2, s, 1.0, 1.0):
        assert info.residual <= target or not info.converged
        assert info.converged or info.sweeps == s.max_sweeps
        if overrelax == 1.0:
            assert info.energy_drop >= 0.0


@PROPERTY
@given(amp=st.floats(0.05, 0.35), center=st.tuples(coord, coord),
       index=st.integers(0, 8))
def test_independent_families_replace_ball_by_ball_as_alone(amp, center, index):
    """A proposed family that is independent at half scale gets, from its
    replacement at half scale, each ball's solve on u alone, bit for bit:
    the sampler's one solve per distinct ball rests on this."""
    u = sw.standard_sweepout("perturbed-latitude-s3", S3, DOM, n_slices=8, amp=amp,
                             bump_center=center).slices[index]
    s = dr.SolverSettings()
    for _, fam in dr.propose_families(u, dm.measure(u), 0.5, dr.SamplerBudget()):
        half = BallFamily(fam).scaled(0.5)
        if not dr._independent(DOM, half):
            continue
        alone = []
        for b in half:
            box, sub = dr._ball_block(DOM, b)
            alone.append(astuple(dr.relax(u.values[b.chart][box].copy(), sub, S3, s)))
        assert [astuple(i) for i in dr.harmonic_replace(u, fam, 0.5, s).solves] == alone
