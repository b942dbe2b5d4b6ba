import numpy as np
import pytest

from widthlab import dirichlet as dr
from widthlab import dmap as dm
from widthlab import sweepout as sw
from widthlab.domains import SphereDomain
from widthlab.errors import KindUnknown, ScheduleEmpty

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
    const = sw.Sweepout([dm.constant_sphere_map(
        dom, s3, (0.0, 0.0, 0.0, 1.0)) for _ in range(9)], s3, degree=0)
    west = sw.width_estimate(const)
    assert west.w_energy == 0.0
    assert west.w_area == 0.0


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
    try:
        sched = sw.select_ball_schedule(latitude, 2.0, BUDGET, SETTINGS)
        assert max(sched.improvements) <= 1e-3
    except ScheduleEmpty:
        pass


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
    const = sw.Sweepout([dm.constant_sphere_map(
        dom, s3, (0.0, 0.0, 0.0, 1.0)) for _ in range(9)], s3, degree=0)
    with pytest.raises(ScheduleEmpty):
        sw.select_ball_schedule(const, 2.0, BUDGET, SETTINGS)


# ---------------------------------------------------------------------------
# tightening

def test_tighten_once_empty_schedule_is_identity(perturbed):
    sched = sw.BallSchedule([], [], [])
    out, drop, flagged = sw.tighten_once(perturbed, sched, SETTINGS)
    assert drop == 0.0 and flagged == 0
    for a, b in zip(out.slices, perturbed.slices):
        assert a is b


def test_tighten_once_monotone_and_endpoint_invariant(perturbed):
    sched = sw.select_ball_schedule(perturbed, 2.0, BUDGET, SETTINGS)
    before = sw.width_estimate(perturbed)
    out, drop, flagged = sw.tighten_once(perturbed, sched, SETTINGS)
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


def test_tighten_once_parallel_matches_serial(dom, s3):
    pert = sw.standard_sweepout("perturbed-latitude-s3", s3, dom, n_slices=16,
                                amp=0.25)
    sched = sw.select_ball_schedule(pert, 2.0, BUDGET, SETTINGS)
    ser, drop_s, _ = sw.tighten_once(pert, sched, SETTINGS, jobs=1)
    par, drop_p, _ = sw.tighten_once(pert, sched, SETTINGS, jobs=4)
    assert drop_s == drop_p
    for a, b in zip(ser.slices, par.slices):
        for va, vb in zip(a.values, b.values):
            assert np.array_equal(va, vb)


def test_tighten_constant_sweepout_trivial(dom, s3):
    const = sw.Sweepout([dm.constant_sphere_map(
        dom, s3, (0.0, 0.0, 0.0, 1.0)) for _ in range(9)], s3, degree=0)
    out, report = sw.tighten(const, max_iters=3, eps1=2.0, budget=BUDGET,
                             settings=SETTINGS)
    assert report.stopped == "schedule-empty"
    assert report.final_width.w_energy == 0.0
    assert not report.rows


def test_tighten_latitude_plateaus_immediately(dom, s3):
    lat = sw.standard_sweepout("latitude-s3", s3, dom, n_slices=16)
    w0 = sw.width_estimate(lat).w_energy
    out, report = sw.tighten(lat, max_iters=4, eps1=2.0, budget=BUDGET,
                             settings=SETTINGS)
    w1 = report.final_width.w_energy
    assert abs(w1 - w0) <= 2e-3 * w0
    assert len(report.rows) <= 1 or report.stopped in ("plateau", "schedule-empty")


def test_almost_harmonic_check_cases(dom, s2, identity_map):
    rep = sw.almost_harmonic_check(identity_map, eps0=0.25, budget=BUDGET,
                                   settings=dr.SolverSettings())
    assert rep.max_gap <= 1e-6
    assert abs(rep.energy_minus_area) <= 1e-3
    const = dm.constant_sphere_map(dom, s2, (0.0, 0.0, 1.0))
    rep0 = sw.almost_harmonic_check(const, eps0=0.25, budget=BUDGET,
                                    settings=dr.SolverSettings())
    assert rep0.max_gap == 0.0
    assert rep0.energy_minus_area == 0.0


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
    for a, b in zip(s.slices, back.slices):
        for va, vb in zip(a.values, b.values):
            assert np.array_equal(va, vb)
