from dataclasses import astuple

import numpy as np
import pytest

from conftest import constant_sphere_map
from widthlab import dirichlet as dr
from widthlab import dmap as dm
from widthlab import sweepout as sw
from widthlab.domains import SphereDomain
from widthlab.errors import EnergyTooLarge, KindUnknown
from widthlab.manifold import affine_subspace, ellipsoid

FOUR_PI = 4 * np.pi

BUDGET = dr.SamplerBudget()
SETTINGS = dr.SolverSettings(small_energy=2.0)


@pytest.fixture(scope="module")
def latitude(dom, s3):
    return sw.standard_sweepout("latitude-s3", s3, dom, n_slices=64)


@pytest.fixture(scope="module")
def perturbed(dom, s3):
    return sw.standard_sweepout("perturbed-latitude-s3", s3, dom, n_slices=32,
                                amp=0.3)


# ---------------------------------------------------------------------------
# fixtures and width

def test_latitude_slice_energies_closed_form(latitude):
    west = sw.width_estimate(latitude)
    ts = latitude.times
    expect = FOUR_PI * np.sin(np.pi * ts) ** 2
    assert np.max(np.abs(west.per_slice_energy - expect)) <= 1e-4
    assert abs(west.w_energy - FOUR_PI) <= 0.005 * FOUR_PI
    assert abs(west.w_area - FOUR_PI) <= 0.005 * FOUR_PI
    assert west.argmax_t == 32


def test_latitude_endpoints_constant(latitude):
    for idx in (0, -1):
        for c in (0, 1):
            v = latitude.slices[idx].values[c].reshape(-1, 4)
            assert np.max(np.ptp(v, axis=0)) <= 1e-12


def test_latitude_degree(latitude):
    deg = sw.numerical_degree(latitude)
    assert abs(deg - 1.0) <= 0.01


def test_constant_sweepout_width(dom, s3):
    const = sw.Sweepout([constant_sphere_map(
        dom, s3, (0.0, 0.0, 0.0, 1.0)) for _ in range(9)], s3, degree=0)
    west = sw.width_estimate(const)
    assert west.w_energy == 0.0
    assert west.w_area == 0.0


def test_spheroid_fixtures_lie_on_it_with_the_round_degree(s3):
    """The fixtures carried onto the spheroid (1, 1, 1, 1.3) lie on it, and
    their chart overlaps disagree no more than the round fixtures' do, times
    the largest semi-axis: at n = 33 interpolation leaves the round ones
    2.4e-5 to 6.6e-5 apart, over `validate`'s bound.  The latitude family's
    degree reads the round family's: det(F, F_X, F_Y, F_t) and the enclosed
    volume both scale by the product of the semi-axes."""
    small = SphereDomain(n=33)
    spheroid = ellipsoid((1.0, 1.0, 1.0, 1.3))
    built = {kind: [sw.standard_sweepout(kind, t, small, n_slices=16, amp=0.3)
                    for t in (spheroid, s3)]
             for kind in ("latitude-s3", "perturbed-latitude-s3")}
    for oval, ball in built.values():
        for u, v in zip(oval.slices, ball.slices):
            assert max(np.max(spheroid.distance(x)) for x in u.values) <= dm.ON_TOL
            assert dm.overlap_disagreement(u) <= 1.3 * dm.overlap_disagreement(v) + 1e-15
    oval, ball = (sw.numerical_degree(s) for s in built["latitude-s3"])
    assert abs(oval - ball) <= 1e-12 * abs(ball)


def test_a_target_with_no_semi_axes_gets_no_map(dom):
    flat = affine_subspace(3, 4)
    with pytest.raises(KindUnknown):
        dm.equator_map(dom, flat)
    with pytest.raises(KindUnknown):
        dm.identity_sphere_map(dom, affine_subspace(2, 3))
    with pytest.raises(KindUnknown):
        sw.standard_sweepout("latitude-s3", flat, dom, n_slices=4)


def test_tightening_on_a_spheroid():
    """The perturbed fixture on the spheroid (1, 1, 1, 1.3) tightens as on
    the round 3-sphere: no flagged solve, a non-increasing width, and every
    slice on the spheroid."""
    spheroid = ellipsoid((1.0, 1.0, 1.0, 1.3))
    swp = sw.standard_sweepout("perturbed-latitude-s3", spheroid, SphereDomain(n=33),
                               n_slices=8, amp=0.3)
    w0 = sw.width_estimate(swp).w_energy
    out, report = sw.tighten(swp, max_iters=4, eps1=2.0, budget=BUDGET, settings=SETTINGS)
    assert max(np.max(spheroid.distance(v)) for u in out.slices for v in u.values) \
        <= dm.ON_TOL
    series = report.w_energy_series()
    assert len(series) == 4 and series[-1] < w0
    assert np.all(np.diff(series) <= 1e-6 * w0)
    assert sum(r.flagged for r in report.rows) == 0


def test_unknown_kind(dom, s3):
    with pytest.raises(KindUnknown):
        sw.standard_sweepout("spiral-s3", s3, dom)


def test_perturbed_width_exceeds_4pi(perturbed):
    west = sw.width_estimate(perturbed)
    assert west.w_energy > FOUR_PI * 1.01
    assert west.w_area <= west.w_energy
    assert abs(sw.numerical_degree(perturbed) - 1.0) <= 0.01


def test_continuity_proxy(perturbed):
    # T=32 fixture: consecutive slices are twice as far apart as at the
    # default T=64 (where the gap measures ~0.35 against the 0.5 budget)
    assert sw.continuity_gap(perturbed) <= 0.8


# ---------------------------------------------------------------------------
# schedules

def test_schedule_latitude_trivial(dom, s3, latitude):
    # every slice is conformal and the max slice is harmonic: improvements
    # sit at solver tolerance, so the schedule is empty or trivial
    sched = sw.select_ball_schedule(latitude, 2.0, BUDGET, SETTINGS)
    assert sched.families == [] or max(sched.improvements) <= 1e-3


def test_schedule_perturbed_properties(perturbed):
    sched = sw.select_ball_schedule(perturbed, 2.0, BUDGET, SETTINGS)
    assert len(sched.families) >= 1
    ts = np.linspace(0, 1, 10 * (perturbed.n_slices - 1) + 1)
    active = np.array([[env(t) > 0 for env in sched.envelopes] for t in ts])
    assert active.sum(axis=1).max() <= 2
    # the family energy constraint holds wherever its envelope is positive
    for fam, env in zip(sched.families, sched.envelopes):
        for i, t in enumerate(perturbed.times):
            r = env(t)
            if r > 0:
                e = dm.energy(perturbed.slices[i], fam.scaled(r))
                assert e < 2.0 / 3.0 + 1e-9


def test_schedule_localized_bump_covers_midpoint(dom, s3):
    local = sw.standard_sweepout("perturbed-latitude-s3", s3, dom, n_slices=32,
                                 amp=0.3, t_profile="local")
    sched = sw.select_ball_schedule(local, 2.0, BUDGET, SETTINGS)
    covering = [env for env in sched.envelopes
                if env.plateau[0] <= 0.5 <= env.plateau[1]]
    assert len(covering) == 1


def test_schedule_empty_for_constant(dom, s3):
    const = sw.Sweepout([constant_sphere_map(
        dom, s3, (0.0, 0.0, 0.0, 1.0)) for _ in range(9)], s3, degree=0)
    sched = sw.select_ball_schedule(const, 2.0, BUDGET, SETTINGS)
    assert sched.families == [] and sched.envelopes == []
    assert len(sched.solves) > 0  # the trials ran and report their solves


# ---------------------------------------------------------------------------
# tightening

def test_tighten_once_empty_schedule_is_identity(perturbed):
    sched = sw.BallSchedule([], [], [], [])
    out, drop, flagged, solves = sw.tighten_once(perturbed, sched, SETTINGS)
    assert drop == 0.0 and flagged == 0 and solves == []
    for a, b in zip(out.slices, perturbed.slices):
        assert a is b


def test_tighten_once_monotone_and_endpoint_invariant(perturbed):
    sched = sw.select_ball_schedule(perturbed, 2.0, BUDGET, SETTINGS)
    before = sw.width_estimate(perturbed)
    out, drop, flagged, _ = sw.tighten_once(perturbed, sched, SETTINGS)
    after = sw.width_estimate(out)
    assert drop > 0
    assert flagged == 0
    assert np.all(after.per_slice_energy
                  <= before.per_slice_energy + 1e-7 * before.w_energy)
    for idx in (0, -1):
        for c in (0, 1):
            assert np.array_equal(out.slices[idx].values[c],
                                  perturbed.slices[idx].values[c])


def test_tighten_loop_reduces_width(dom, s3):
    pert = sw.standard_sweepout("perturbed-latitude-s3", s3, dom, n_slices=16,
                                amp=0.25)
    w0 = sw.width_estimate(pert).w_energy
    deg0 = sw.numerical_degree(pert)
    out, report = sw.tighten(pert, max_iters=6, eps1=2.0, budget=BUDGET,
                             settings=SETTINGS)
    series = report.w_energy_series()
    assert series[-1] < w0
    assert np.all(np.diff(series) <= 1e-6 * w0)
    for row in report.rows:
        assert row.w_area <= row.w_energy + 1e-9
    for idx in (0, -1):
        for c in (0, 1):
            assert np.array_equal(out.slices[idx].values[c],
                                  pert.slices[idx].values[c])
    # the degree proxy is invariant under tightening
    assert abs(sw.numerical_degree(out) - deg0) <= 0.01


def test_tighten_changes_slices_only_by_replacement(monkeypatch, s3):
    """Each iteration hands tighten_once exactly what the previous one
    returned, so slices no replacement touches stay bit-identical across the
    whole loop."""
    swp = sw.standard_sweepout("perturbed-latitude-s3", s3, SphereDomain(n=33),
                               n_slices=8, amp=0.3)
    expected = [swp.copy()]
    handed_over_intact = []
    tighten_once = sw.tighten_once

    def spy(cur, *args, **kwargs):
        handed_over_intact.append(all(
            np.array_equal(x, y)
            for a, b in zip(cur.slices, expected[-1].slices)
            for x, y in zip(a.values, b.values)))
        res = tighten_once(cur, *args, **kwargs)
        expected.append(res[0].copy())
        return res

    monkeypatch.setattr(sw, "tighten_once", spy)
    sw.tighten(swp, max_iters=3, eps1=2.0, budget=BUDGET, settings=SETTINGS)
    assert handed_over_intact == [True, True, True]


def test_tighten_leaves_its_input_intact_and_shares_untouched_slices(s3):
    """tighten copies nothing up front: its input stays bit-identical, and
    slices no stage replaced are the input's own objects."""
    swp = sw.standard_sweepout("perturbed-latitude-s3", s3, SphereDomain(n=33),
                               n_slices=8, amp=0.3)
    before = swp.copy()
    out, report = sw.tighten(swp, max_iters=2, eps1=2.0, budget=BUDGET,
                             settings=SETTINGS)
    assert report.rows
    for u, v in zip(swp.slices, before.slices):
        for x, y in zip(u.values, v.values):
            assert np.array_equal(x, y)
    assert out.slices[0] is swp.slices[0] and out.slices[-1] is swp.slices[-1]
    assert any(a is not b for a, b in zip(out.slices, swp.slices))


def test_tighten_runs_no_almost_harmonic_pass(monkeypatch, s3):
    """The almost-harmonic diagnostic is on demand: tighten never calls it
    and its report has no field for it."""
    swp = sw.standard_sweepout("perturbed-latitude-s3", s3, SphereDomain(n=33),
                               n_slices=8, amp=0.3)
    calls = []
    monkeypatch.setattr(sw, "almost_harmonic_check",
                        lambda *a, **k: calls.append(a))
    _, report = sw.tighten(swp, max_iters=2, eps1=2.0, budget=BUDGET,
                           settings=SETTINGS)
    assert len(report.rows) == 2
    assert calls == []
    assert not hasattr(report, "harmonic_checks")


def test_tighten_runs_in_one_thread(s3):
    swp = sw.standard_sweepout("perturbed-latitude-s3", s3, SphereDomain(n=33),
                               n_slices=4, amp=0.3)
    with pytest.raises(ValueError, match="jobs=2"):
        sw.tighten(swp, max_iters=1, budget=BUDGET, settings=SETTINGS, jobs=2)
    _, report = sw.tighten(swp, max_iters=1, budget=BUDGET, settings=SETTINGS,
                           jobs=1)
    assert report.stopped


def test_tighten_constant_sweepout_trivial(dom, s3):
    const = sw.Sweepout([constant_sphere_map(
        dom, s3, (0.0, 0.0, 0.0, 1.0)) for _ in range(9)], s3, degree=0)
    out, report = sw.tighten(const, max_iters=3, eps1=2.0, budget=BUDGET,
                             settings=SETTINGS)
    assert report.stopped == "schedule-empty"
    assert report.final_width.w_energy == 0.0
    assert not report.rows


def test_tighten_reports_the_solves_of_an_empty_schedule(monkeypatch, s3):
    """A run that stops at an empty schedule still reports the trial solves
    that found it empty: every SolveInfo relax_blocks returned, once."""
    dom = SphereDomain(n=33)
    const = sw.Sweepout([constant_sphere_map(dom, s3, (0.0, 0.0, 0.0, 1.0))
                         for _ in range(5)], s3, degree=0)
    relax_blocks = dr.relax_blocks
    returned = []

    def counting(*args):
        infos = relax_blocks(*args)
        returned.extend(infos)
        return infos

    monkeypatch.setattr(dr, "relax_blocks", counting)
    _, report = sw.tighten(const, max_iters=3, eps1=2.0, budget=BUDGET,
                           settings=SETTINGS)
    assert report.stopped == "schedule-empty" and not report.rows
    assert len(returned) > 0
    assert len(report.solves) == len(returned)
    assert {id(i) for i in report.solves} == {id(i) for i in returned}


@pytest.mark.parametrize("stop", ["plateau", "max-iters", "schedule-empty"])
def test_tighten_final_width_is_the_last_estimate(monkeypatch, s3, stop):
    """tighten measures each sweepout it produces once, and the input only
    when no iteration ran; the final width is that last measurement."""
    dom = SphereDomain(n=33)
    if stop == "schedule-empty":
        swp = sw.Sweepout([constant_sphere_map(dom, s3, (0.0, 0.0, 0.0, 1.0))
                           for _ in range(9)], s3, degree=0)
    else:
        kind = "latitude-s3" if stop == "plateau" else "perturbed-latitude-s3"
        swp = sw.standard_sweepout(kind, s3, dom, n_slices=8, amp=0.3)
    width_estimate = sw.width_estimate
    measured = []

    def spy(s):
        measured.append(s)
        return width_estimate(s)

    monkeypatch.setattr(sw, "width_estimate", spy)
    out, report = sw.tighten(swp, max_iters=4 if stop == "max-iters" else 8,
                             eps1=2.0, budget=BUDGET, settings=SETTINGS)
    assert report.stopped == stop
    assert len(measured) == max(len(report.rows), 1)
    got, fresh = report.final_width, width_estimate(out)
    assert (got.w_energy, got.w_area, got.argmax_t) == \
        (fresh.w_energy, fresh.w_area, fresh.argmax_t)
    assert got.per_slice_energy.tobytes() == fresh.per_slice_energy.tobytes()
    assert got.per_slice_area.tobytes() == fresh.per_slice_area.tobytes()


def _fresh_width_rows(swp, iters):
    """tighten's loop with a width estimate measured afresh every iteration."""
    cur, rows = swp.copy(), []
    for it in range(1, iters + 1):
        sched = sw.select_ball_schedule(cur, 2.0, BUDGET, SETTINGS)
        cur, drop, flagged, _ = sw.tighten_once(cur, sched, SETTINGS)
        west = sw.width_estimate(cur)
        rows.append(sw.IterationRow(it, west.w_energy, west.w_area, west.argmax_t,
                                    float(drop), float(max(sched.improvements)),
                                    len(sched.families), 0, flagged))
    return rows, west


def test_tighten_measures_only_the_replaced_slices(monkeypatch, s3):
    """Each slice object is measured once: the first iteration measures
    every input slice, and each iteration, right after tighten_once, the
    slices it replaced.  Every chart differential belongs to one of those
    measurements: the energy gate of a replacement differentiates only the
    windows of its balls and takes none.  The rows are those of fresh
    estimates, bit for bit."""
    swp = sw.standard_sweepout("perturbed-latitude-s3", s3, SphereDomain(n=33),
                               n_slices=8, amp=0.3)
    want_rows, want_west = _fresh_width_rows(swp, 3)
    measure, energy, differential = dm.measure, dm.energy, dm.chart_differential
    once = sw.tighten_once
    events, inside, diffs, gates = [], [None], [], []

    def within(label, fn, *args):
        inside[0] = label
        try:
            return fn(*args)
        finally:
            inside[0] = None

    def spy_measure(u):
        events.append(u)
        return within("measure", measure, u)

    def spy_energy(u, region=None):
        if region is None:
            return within("energy", energy, u)
        gates.append(region)
        return within("gate", energy, u, region)

    def spy_differential(u, c):
        diffs.append(inside[0])
        return differential(u, c)

    def spy_once(s, *args, **kwargs):
        res = once(s, *args, **kwargs)
        events.append((s.slices, res[0].slices))
        return res

    monkeypatch.setattr(dm, "measure", spy_measure)
    monkeypatch.setattr(dm, "energy", spy_energy)
    monkeypatch.setattr(dm, "chart_differential", spy_differential)
    monkeypatch.setattr(sw, "tighten_once", spy_once)
    _, report = sw.tighten(swp, max_iters=3, eps1=2.0, budget=BUDGET,
                           settings=SETTINGS)
    assert repr(report.rows) == repr(want_rows)
    for field_ in ("per_slice_energy", "per_slice_area"):
        assert getattr(report.final_width, field_).tobytes() == \
            getattr(want_west, field_).tobytes()
    marks = [k for k, e in enumerate(events) if isinstance(e, tuple)]
    assert len(marks) == 3
    assert len(events[:marks[0]]) == swp.n_slices
    assert all(a is b for a, b in zip(events, swp.slices))
    for k, at in enumerate(marks):
        before, after = events[at]
        replaced = [v for u, v in zip(before, after) if u is not v]
        assert 0 < len(replaced) < swp.n_slices
        got = events[at + 1:(marks + [len(events)])[k + 1]]
        assert len(got) == len(replaced)
        assert all(g is w for g, w in zip(got, replaced))
    assert diffs.count("measure") == 2 * (len(events) - len(marks))
    assert len(gates) > 0
    assert set(diffs) == {"measure"}


def test_measure_follows_a_slice_assigned_after_it_was_measured(s3):
    """A record belongs to the slice object it was taken of: a map assigned
    into slices[i] after slice i was measured gets a record of its own,
    taken once."""
    swp = sw.standard_sweepout("latitude-s3", s3, SphereDomain(n=17), n_slices=4)
    old = swp.measure(1)
    assert swp.measure(1) is old
    swp.slices[1] = swp.slices[2].copy()
    new = swp.measure(1)
    assert new.energy == dm.energy(swp.slices[2]) != old.energy
    assert swp.measure(1) is new


def test_tighten_latitude_plateaus_immediately(dom, s3):
    lat = sw.standard_sweepout("latitude-s3", s3, dom, n_slices=16)
    w0 = sw.width_estimate(lat).w_energy
    out, report = sw.tighten(lat, max_iters=4, eps1=2.0, budget=BUDGET,
                             settings=SETTINGS)
    w1 = report.final_width.w_energy
    assert abs(w1 - w0) <= 2e-3 * w0
    assert len(report.rows) <= 1 or report.stopped in ("plateau", "schedule-empty")


def test_almost_harmonic_check_cases(dom, s2, identity_map):
    rep = sw.almost_harmonic_check(identity_map)
    assert rep.max_gap <= 1e-6
    assert abs(rep.energy_minus_area) <= 1e-3
    const = constant_sphere_map(dom, s2, (0.0, 0.0, 1.0))
    rep0 = sw.almost_harmonic_check(const)
    assert rep0.max_gap == 0.0
    assert rep0.energy_minus_area == 0.0


def _reference_check(u):
    """The almost-harmonic check as a loop of harmonic replacements, one
    per family, each on its own copy of u."""
    dom, m = u.domain, dm.measure(u)
    worst, witness, pairs = 0.0, None, []
    for _, fam in dr.propose_families(u, m, sw.ALMOST_HARMONIC_EPS0,
                                      dr.SamplerBudget()):
        try:
            res = dr.harmonic_replace(u, fam, rho=0.125)
        except EnergyTooLarge:
            continue
        gap = 0.0
        for b in fam.scaled(0.125):
            box, sub = dm.ball_box(dom, b)
            diff = u.values[b.chart][box] - res.map.values[b.chart][box]
            gap += dr.masked_grad_square(diff, sub)
        pairs.append((float(res.energy_drop), float(gap)))
        if gap > worst:
            worst, witness = float(gap), fam
    return sw.AlmostHarmonicReport(worst, witness, float(m.energy - m.area),
                                   len(pairs), pairs)


@pytest.mark.parametrize("n, n_slices", [(33, 8), (65, 16)])
def test_almost_harmonic_check_equals_the_replacement_loop(s3, n, n_slices):
    """On every interior slice of the perturbed fixture the report is, bit
    for bit (repr keeps every bit of a float), the one a harmonic
    replacement per family gives."""
    swp = sw.standard_sweepout("perturbed-latitude-s3", s3, SphereDomain(n=n),
                               n_slices=n_slices, amp=0.3)
    multi = 0
    for u in swp.slices[1:-1]:
        got = sw.almost_harmonic_check(u)
        assert repr(got) == repr(_reference_check(u))
        assert got.families_checked > 0 and got.max_gap > 0.0
        multi += len(got.witness) > 1
    assert multi > 0  # some witness is a family of several balls


def test_almost_harmonic_check_solves_each_distinct_ball_in_one_call(monkeypatch, s3):
    """One `relax_blocks` call, with one block per distinct eighth-scaled
    ball of the measured families; no replacement runs, no map is copied
    and no cap refreshed."""
    u = sw.standard_sweepout("perturbed-latitude-s3", s3, SphereDomain(n=33),
                             n_slices=8, amp=0.3).slices[2]
    balls = {b for _, f in dr.propose_families(u, dm.measure(u),
                                               sw.ALMOST_HARMONIC_EPS0,
                                               dr.SamplerBudget())
             for b in f.scaled(0.125)}
    relax_blocks = dr.relax_blocks
    calls = []

    def counting(blocks, *args):
        calls.append(len(blocks))
        return relax_blocks(blocks, *args)

    monkeypatch.setattr(dr, "relax_blocks", counting)
    monkeypatch.setattr(dr, "harmonic_replace", lambda *a, **k: pytest.fail("replaced"))
    monkeypatch.setattr(dr, "_sync_cap", lambda *a: pytest.fail("refreshed a cap"))
    monkeypatch.setattr(dm.DiscreteMap, "copy", lambda *a: pytest.fail("copied u"))
    rep = sw.almost_harmonic_check(u)
    assert calls == [len(balls)] and rep.families_checked > 0


# ---------------------------------------------------------------------------
# curve mode

def test_curve_latitude_lengths():
    cs = sw.curve_latitude_sweepout(n_slices=32, n_vertices=96)
    lengths = [sw.curve_length(v) for v in cs.slices]
    assert lengths[0] <= 1e-9  # point curves at the ends
    assert lengths[-1] <= 1e-9
    # vertices on a great circle: the geodesic arcs add up to the full 2 pi
    mid = lengths[len(lengths) // 2]
    assert abs(mid - 2 * np.pi) <= 1e-9


def test_birkhoff_latitude(dom):
    cs = sw.curve_latitude_sweepout(n_slices=32, n_vertices=96)
    out = sw.birkhoff_tighten(cs, max_iters=60)
    assert out["monotone"]
    assert abs(out["final_max_length"] - 2 * np.pi) <= 0.01 * 2 * np.pi


def test_birkhoff_constant_curves():
    cs = sw.CurveSweepout([np.tile(np.array([0.0, 0.0, 1.0]), (16, 1))
                           for _ in range(5)])
    out = sw.birkhoff_tighten(cs, max_iters=5)
    assert out["final_max_length"] == 0.0


def test_birkhoff_perturbed_monotone():
    rng = np.random.default_rng(41)
    cs = sw.curve_latitude_sweepout(n_slices=24, n_vertices=64)
    bumped = []
    for v in cs.slices:
        w = v + 0.05 * rng.normal(size=v.shape)
        nrm = np.linalg.norm(w, axis=-1, keepdims=True)
        bumped.append(np.where(nrm > 1e-9, w / np.maximum(nrm, 1e-9), v))
    out = sw.birkhoff_tighten(sw.CurveSweepout(bumped), max_iters=40)
    assert out["monotone"]


def test_sweepout_serialization_roundtrip(tmp_path, dom, s3):
    from widthlab import io as wio
    s = sw.standard_sweepout("latitude-s3", s3, dom, n_slices=4)
    path = tmp_path / "s.sweepout"
    wio.save_sweepout(path, s)
    back = wio.load_sweepout(path)
    assert back.n_slices == s.n_slices
    assert back.degree == s.degree
    assert all(u.domain is back.slices[0].domain for u in back.slices)
    assert back.slices[0].domain.descriptor() == dom.descriptor()
    for a, b in zip(s.slices, back.slices):
        for va, vb in zip(a.values, b.values):
            assert va.tobytes() == vb.tobytes()
    # a record on another domain is rejected
    small = SphereDomain(n=17)
    mixed = sw.Sweepout([s.slices[0], sw.standard_sweepout(
        "latitude-s3", s3, small, n_slices=4).slices[1]], s3, degree=1)
    wio.save_sweepout(path, mixed)
    with pytest.raises(ValueError, match="differs"):
        wio.load_sweepout(path)
    # a container that declares no slices is rejected by name
    wio.save_sweepout(path, sw.Sweepout([], s3, degree=1))
    with pytest.raises(ValueError, match="holds no slices"):
        wio.load_sweepout(path)


def test_tighten_gives_the_same_rows_cold_and_warm(s3):
    """The second run on one domain reads the geometry store the first run
    filled, and gives the same rows and slices, bit for bit."""
    dom = SphereDomain(n=33)
    swp = sw.standard_sweepout("perturbed-latitude-s3", s3, dom, n_slices=8, amp=0.3)
    runs = []
    for _ in range(2):
        cold = len(dom.memo)
        out, report = sw.tighten(swp, max_iters=3, eps1=2.0, budget=BUDGET,
                                 settings=SETTINGS)
        runs.append((cold, [repr(astuple(r)) for r in report.rows],
                     [v.tobytes() for u in out.slices for v in u.values]))
    assert runs[0][0] == 0 and runs[1][0] > 0
    assert len(runs[0][1]) == 3 and runs[0][1:] == runs[1][1:]
