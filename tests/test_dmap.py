import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (chart0_bump_map, conformality_defect, constant_sphere_map,
                      reference_catmullrom)
from widthlab import dmap as dm
from widthlab import io as wio
from widthlab import varifold as vf
from widthlab.domains import CylinderDomain, SphereDomain, d_axis
from widthlab.errors import (DomainMismatch, NoCommonPoint, TraceTooFar,
                             TubeEscape)
from widthlab.manifold import affine_subspace, round_sphere

FOUR_PI = 4 * np.pi


# ---------------------------------------------------------------------------
# energy / area / defect

def test_identity_energy_and_area(identity_map):
    e = dm.energy(identity_map)
    a = dm.area(identity_map)
    assert abs(e - FOUR_PI) <= 0.005 * FOUR_PI
    assert abs(a - FOUR_PI) <= 0.005 * FOUR_PI
    assert conformality_defect(identity_map) <= 1e-3 * e


def test_constant_map_functionals(dom, s2):
    u = constant_sphere_map(dom, s2, (0.0, 0.0, 1.0))
    assert dm.energy(u) == 0.0
    assert dm.area(u) == 0.0
    assert conformality_defect(u) == 0.0


def test_equator_collapse_area_shrinks(dom, s2):
    # Project to the equator circle, coning the polar caps off to a point.
    # The cap boundaries carry the full degree-one circle, so by the disk
    # Plateau bound each cap must sweep area at least pi: the map areas
    # decrease to the 2 pi floor (not to zero) as the caps shrink.
    plane3 = affine_subspace(3, 3)

    def collapse(band):
        def fn(p):
            x, y, z = p[..., 0], p[..., 1], p[..., 2]
            rho = np.maximum(np.hypot(x, y), 1e-12)
            w = np.clip((np.abs(z) - (1.0 - band)) / band, 0.0, 1.0)
            w = w * w * (3.0 - 2.0 * w)
            eq = np.stack([x / rho, y / rho, np.zeros_like(z)], -1)
            return (1.0 - w[..., None]) * eq + w[..., None] * np.array([1.0, 0.0, 0.0])
        vals = [np.asarray(fn(dom.points[c]), float) for c in (0, 1)]
        return dm.DiscreteMap(dom, plane3, vals)

    maps = {b: collapse(b) for b in (0.8, 0.4, 0.2)}
    for u in maps.values():
        a = dm.area(u)
        assert 0.98 * 2 * np.pi <= a <= 1.02 * 2 * np.pi
    # the Jacobian support concentrates on the shrinking caps: J -> 0 a.e.
    mass = {}
    for b, u in maps.items():
        num = den = 0.0
        for c in (0, 1):
            j = dm.jacobian_density(*dm.chart_differential(u, c))
            w = dom.flat_weights[c]
            num += float(np.sum(w * (j > 0.01)))
            den += float(np.sum(w))
        mass[b] = num / den
    assert mass[0.8] > mass[0.4] > mass[0.2]
    assert mass[0.2] < 0.15


def test_anisotropic_defect_closed_form(dom):
    # (X, Y) -> (2X, Y) on both charts: the differential is the same
    # constant anisotropic matrix at every node
    plane = affine_subspace(2, 2)
    vals = np.stack([2.0 * dom.X, dom.Y], axis=-1)
    u = dm.DiscreteMap(dom, plane, [vals, vals.copy()])
    defect = conformality_defect(u)
    area_quad = float(sum(w.sum() for w in dom.flat_weights))
    assert abs(defect - 1.5 * area_quad) <= 1e-9
    assert abs((dm.energy(u) - dm.area(u)) - 0.5 * area_quad) <= 1e-9


def test_area_le_energy_random_suite(dom, s2):
    rng = np.random.default_rng(11)
    for _ in range(1000):
        coef = rng.normal(size=(3, 3)) * 0.2

        def fn(p):
            w = (coef[0] * p + coef[1] * np.roll(p, 1, -1)
                 + coef[2] * p * p[..., [2, 0, 1]])
            return p + w
        u = dm.sphere_map(dom, s2, fn, sync=False)
        e = dm.energy(u)
        a = dm.area(u)
        assert a <= e + 1e-6 * e
        # equality detection: the gap is controlled by the defect
        defect = conformality_defect(u)
        assert e - a <= 2.0 * defect * np.sqrt(e) + 1e-12


def test_defect_zero_implies_equality(identity_map):
    e = dm.energy(identity_map)
    a = dm.area(identity_map)
    d = conformality_defect(identity_map)
    assert e - a <= d + 1e-9


# ---------------------------------------------------------------------------
# jacobian density and distances between maps

def test_jacobian_density_nodewise_difference_bound(dom, s2, identity_map, bump_map):
    for c in (0, 1):
        ux, uy = dm.chart_differential(identity_map, c)
        vx, vy = dm.chart_differential(bump_map, c)
        ju = dm.jacobian_density(ux, uy)
        jv = dm.jacobian_density(vx, vy)
        gu = np.sqrt(np.sum(ux**2 + uy**2, -1))
        gv = np.sqrt(np.sum(vx**2 + vy**2, -1))
        gd = np.sqrt(np.sum((ux - vx) ** 2 + (uy - vy) ** 2, -1))
        lhs = np.abs(ju - jv)
        rhs = np.sqrt(2.0) * np.sqrt(gd) * np.maximum(gu, gv) ** 1.5
        assert np.all(lhs <= rhs + 1e-10)


def test_c0_w12_distance_domain_mismatch(identity_map, s2):
    other = SphereDomain(n=65)
    v = dm.identity_sphere_map(other, s2)
    with pytest.raises(DomainMismatch):
        dm.c0_w12_distance(identity_map, v)


@pytest.mark.parametrize("caller", [dm.measure, vf.varifold_of_map],
                         ids=["measure", "varifold_of_map"])
def test_both_densities_from_one_differential_per_chart(monkeypatch, bump_map,
                                                        caller):
    calls = []
    chart_differential = dm.chart_differential

    def spy(u, c):
        calls.append(c)
        return chart_differential(u, c)

    monkeypatch.setattr(dm, "chart_differential", spy)
    caller(bump_map)
    assert sorted(calls) == [0, 1]


# ---------------------------------------------------------------------------
# the measurement record and the one formula of a family's energy

def _region_energy(u, fam):
    """A family's energy differentiated on each ball's box widened by two
    nodes, so every ball node gets the stencil it gets on the whole chart:
    the reference `family_energy` must equal bit for bit."""
    dom = u.domain
    n = len(dom.axis)
    total = 0.0
    for b in fam:
        box, mask = dm.ball_box(dom, b)
        if not mask.any():
            continue
        wide = tuple(slice(max(s.start - 2, 0), min(s.stop + 2, n)) for s in box)
        v = u.values[b.chart][wide]
        dens = dm.energy_density(d_axis(v, dom.h, 0), d_axis(v, dom.h, 1))
        inner = tuple(slice(s.start - w.start, s.stop - w.start)
                      for s, w in zip(box, wide))
        total += float(np.sum(dens[inner][mask])) * dom.h**2
    return total


_S2 = round_sphere(2, 1.0)
_MAPS = {n: chart0_bump_map(SphereDomain(n=n), _S2, width=0.3) for n in (9, 33, 65)}
# centres reach past the chart square (half-width 1.25), so boxes are
# clipped at the chart edge or lie wholly outside it; on n=9 a widened box
# can span the whole grid
_ball = st.builds(dm.Ball, st.integers(0, 1),
                  st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                  st.floats(0.0, 0.5))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(sorted(_MAPS)), fam=st.lists(_ball, min_size=1, max_size=3))
@example(n=33, fam=[dm.Ball(0, (1.5, 1.5), 0.1)])        # clipped box, no node
@example(n=33, fam=[dm.Ball(1, (0.01, 0.01), 0.001)])    # inner box, no node
@example(n=33, fam=[dm.Ball(0, (1.46, 0.0), 0.05)])       # empty box, two-row window
@example(n=65, fam=[dm.Ball(0, (1.2, -1.2), 0.3), dm.Ball(1, (-1.25, 0.0), 0.2)])
@example(n=9, fam=[dm.Ball(0, (0.0, 0.0), 0.5)])         # widened box clipped on both sides
def test_family_energy_equals_the_widened_box_energy(n, fam):
    u = _MAPS[n]
    want = _region_energy(u, fam).hex()
    assert dm.family_energy(u.domain, dm.measure(u).energy_density, fam).hex() == want
    assert dm.energy(u, fam).hex() == want


@pytest.mark.parametrize("n", [33, 65])
def test_measure_equals_energy_and_area_bit_for_bit(n, s2):
    for u in (dm.identity_sphere_map(SphereDomain(n=n), s2),
              chart0_bump_map(SphereDomain(n=n), s2)):
        m = dm.measure(u)
        assert m.energy.hex() == dm.energy(u).hex()
        assert m.area.hex() == dm.area(u).hex()
        for c in (0, 1):
            du = dm.chart_differential(u, c)
            assert np.array_equal(m.energy_density[c], dm.energy_density(*du))
            assert np.array_equal(m.jacobian_density[c], dm.jacobian_density(*du))


def test_matrix_determinant_perturbation_bound():
    rng = np.random.default_rng(12)
    s = rng.normal(size=(100_000, 4, 2))
    t = s + 0.3 * rng.normal(size=(100_000, 4, 2))
    det = lambda m: np.linalg.det(np.einsum("kij,kil->kjl", m, m))
    lhs = np.abs(det(s) - det(t))
    fro = lambda m: np.sqrt(np.sum(m * m, axis=(1, 2)))
    rhs = 2.0 * fro(t - s) * np.maximum(fro(s), fro(t)) ** 3
    assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)


# ---------------------------------------------------------------------------
# mollify

def test_mollify_constant_exact(dom, s2):
    u = constant_sphere_map(dom, s2, (0.0, 0.0, -1.0))
    for r in (0.3, 0.1):
        m = dm.mollify(u, r)
        for c in (0, 1):
            assert np.max(np.abs(m.values[c] - u.values[c])) <= 1e-12


def test_mollify_identity_small_radius(identity_map):
    m = dm.mollify(identity_map, 0.05)
    assert abs(dm.energy(m) - FOUR_PI) <= 0.01 * FOUR_PI
    sup = max(np.max(np.linalg.norm(m.values[c] - identity_map.values[c], axis=-1))
              for c in (0, 1))
    assert sup < 0.01


def test_mollify_distance_monotone_in_radius(dom, s2):
    rough = chart0_bump_map(dom, s2, width=0.15, amp=0.35)
    dists = [dm.c0_w12_distance(dm.mollify(rough, r), rough)
             for r in (0.2, 0.1, 0.05)]
    assert dists[0] > dists[1] > dists[2]


def test_mollify_tube_escape(dom, s2):
    def two_cap(p):
        return np.where(p[..., 2:3] >= 0, p, -p)  # values jump between poles
    u = dm.sphere_map(dom, s2, lambda p: two_cap(p) * 0 + np.where(
        p[..., 2:3] >= 0, 1.0, -1.0) * np.array([0.0, 0.0, 1.0]), sync=False)
    with pytest.raises(TubeEscape):
        dm.mollify(u, 0.9)


# ---------------------------------------------------------------------------
# collar interpolation

def _great_circle(m):
    th = np.arange(m) * 2 * np.pi / m
    return np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], -1)


def test_collar_equal_traces(s2):
    f = _great_circle(128)
    res = dm.collar_interpolate(f, f.copy(), 1.0, s2)
    assert res.rho == 0.0
    assert res.gradient_integral == 0.0
    assert np.array_equal(res.values[0], f)
    assert np.array_equal(res.values[-1], f)


def test_collar_rotated_circle(s2):
    m = 256
    f = _great_circle(m)
    alpha = 0.01
    rot = np.array([[1, 0, 0],
                    [0, np.cos(alpha), -np.sin(alpha)],
                    [0, np.sin(alpha), np.cos(alpha)]])
    g = f @ rot.T
    assert np.allclose(f[0], g[0])  # agree at theta = 0
    res = dm.collar_interpolate(f, g, 1.0, s2)
    assert np.array_equal(res.values[0], f)
    assert np.array_equal(res.values[-1], g)
    assert 0 < res.rho <= 0.5
    assert res.ratio < 1.0  # measured energy well under the bound
    assert res.gradient_integral <= res.bound


def test_collar_trace_too_far(s2):
    f = _great_circle(128)
    g = -f
    g[0] = f[0]  # force one common point so the distance gate is what trips
    with pytest.raises(TraceTooFar):
        dm.collar_interpolate(f, g, 1.0, s2)


def test_collar_no_common_point(s2):
    f = _great_circle(128)
    rot = np.array([[np.cos(0.3), -np.sin(0.3), 0],
                    [np.sin(0.3), np.cos(0.3), 0], [0, 0, 1]])
    tilt = np.array([[1, 0, 0],
                     [0, np.cos(0.2), -np.sin(0.2)],
                     [0, np.sin(0.2), np.cos(0.2)]])
    g = f @ (tilt @ rot).T
    with pytest.raises(NoCommonPoint):
        dm.collar_interpolate(f, g, 1.0, s2)


# ---------------------------------------------------------------------------
# conformal dilations

def test_dilation_conformal_invariance_of_energy(dom, s2, identity_map):
    # resolved regime at the default grid is lam <= 16 (decisions ledger);
    # the defect envelope 1e-3 holds through lam = 8
    e0 = dm.energy(identity_map)
    for lam in (2.0, 4.0, 8.0, 16.0):
        mob = dm.Mobius(np.array([[lam, 0.0], [0.0, 1.0]], dtype=complex))
        m = dm.mobius_as_map(dom, mob, s2)
        assert abs(dm.energy(m) - e0) <= 0.01 * e0
        assert conformality_defect(m) <= (1e-3 if lam <= 8 else 1e-2) * e0


# ---------------------------------------------------------------------------
# validation and serialization

def test_overlap_agreement_invariant(identity_map, bump_map):
    assert dm.overlap_disagreement(identity_map) <= 1e-6
    assert dm.overlap_disagreement(bump_map) <= 1e-6
    identity_map.validate()
    bump_map.validate()


def _reference_refresh(u, c, mask):
    """Refresh from chart c, per call as first written, the chart 1 - c
    nodes of mask that chart c can interpolate safely."""
    dom = u.domain
    m = dom.cross_safe[1 - c] & mask
    X, Y = dom.cross_coords[1 - c]
    vals = reference_catmullrom(u.values[c], dom.axis[0], dom.h, X[m], Y[m])
    u.values[1 - c][m] = u.target.project(vals)


def _reference_sync_owner(u):
    for c in (0, 1):
        _reference_refresh(u, c, u.domain.node_owner[1 - c] == c)
    return u


def _reference_overlap_disagreement(u):
    dom = u.domain
    worst = 0.0
    for c in (0, 1):
        other = 1 - c
        m = (dom.node_owner[c] == other) & dom.cross_safe[c]
        X, Y = dom.cross_coords[c]
        ref = u.target.project(
            reference_catmullrom(u.values[other], dom.axis[0], dom.h, X[m], Y[m]))
        worst = max(worst, float(np.max(np.linalg.norm(u.values[c][m] - ref, axis=-1))))
    return worst


@pytest.mark.parametrize("n", [17, 33, 129])
def test_owner_refresh_equals_the_per_call_formula(n, s2):
    """sync_owner, through the owner stencils the domain prepared once,
    writes the bytes of the per-call refresh, and overlap_disagreement reads
    the same value; sync_overlap refuses a mask other than the owner mask."""
    dom = SphereDomain(n=n)
    rng = np.random.default_rng(n)
    u = chart0_bump_map(dom, s2, width=0.3, sync=False)
    u.values = [s2.project(v + 0.01 * rng.standard_normal(v.shape)) for v in u.values]
    assert dm.overlap_disagreement(u) == _reference_overlap_disagreement(u) > 1e-3
    synced = dm.sync_owner(u.copy())
    assert [v.tobytes() for v in synced.values] == \
        [v.tobytes() for v in _reference_sync_owner(u.copy()).values]
    assert dm.overlap_disagreement(synced) == _reference_overlap_disagreement(synced)
    for c in (0, 1):
        with pytest.raises(ValueError, match="owns"):
            dm.sync_overlap(u, c, (dom.node_owner[1 - c] == c) & (dom.X < 0.3))


def test_ball_family_disjointness(dom):
    fam = dm.BallFamily([dm.Ball(0, (0.0, 0.0), 0.2), dm.Ball(0, (0.5, 0.0), 0.2)])
    fam.validate(dom)
    bad = dm.BallFamily([dm.Ball(0, (0.0, 0.0), 0.3), dm.Ball(0, (0.5, 0.0), 0.3)])
    from widthlab.errors import OverlapViolation
    with pytest.raises(OverlapViolation):
        bad.validate(dom)
    # cross-chart overlap is detected through the cap geometry
    b0 = dm.Ball(0, (0.0, 0.9), 0.3)
    x, y = dom.sphere_to_chart(1, dom.chart_to_sphere(0, np.array(0.0), np.array(0.9)))
    b1 = dm.Ball(1, (float(x), float(y)), 0.2)
    with pytest.raises(OverlapViolation):
        dm.BallFamily([b0, b1]).validate(dom)


def test_scaled_ball_convention():
    b = dm.Ball(0, (0.3, -0.2), 0.4)
    half = b.scaled(0.5)
    assert half.center == b.center
    assert half.radius == 0.2


def test_map_serialization_roundtrip(identity_map, bump_map, s2):
    # a record is the only way in for a chart geometry other than the default
    odd_charts = dm.identity_sphere_map(SphereDomain(n=17, half_width=1.3, band=0.1), s2)
    for u in (identity_map, bump_map, odd_charts):
        buf = io.BytesIO()
        wio.write_map(buf, u)
        buf.seek(0)
        v = wio.read_map(buf)
        assert v.domain.descriptor() == u.domain.descriptor()
        assert v.target.descriptor() == u.target.descriptor()
        for a, b in zip(u.values, v.values):
            assert np.array_equal(a, b)


def _record(u, blocks, data):
    header = {"format": wio.MAP_FORMAT, "domain": u.domain.descriptor(),
              "target": u.target.descriptor(), "blocks": blocks}
    return io.BytesIO((json.dumps(header) + "\n").encode() + data)


@pytest.mark.parametrize("case", ["one-block sphere", "block shape",
                                  "cylinder block shape", "disk domain",
                                  "truncated"])
def test_read_map_rejects_records_that_do_not_fit(s2, case):
    u = dm.identity_sphere_map(SphereDomain(n=9), s2)
    if case == "one-block sphere":
        rec = _record(u, [[9, 9, 3]], u.values[0].tobytes())
        match = r"blocks \[\(9, 9, 3\)\] do not fit"
    elif case == "block shape":
        rec = _record(u, [[3, 3, 3]] * 2, bytes(2 * 27 * 8))
        match = r"\(3, 3, 3\)\] do not fit .* expected \[\(9, 9, 3\), \(9, 9, 3\)\]"
    elif case == "cylinder block shape":
        cyl = dm.DiscreteMap(CylinderDomain(0.0, 1.0, 5, 8), s2, [np.zeros((5, 8, 3))])
        rec = _record(cyl, [[8, 5, 3]], bytes(8 * 5 * 3 * 8))
        match = r"expected \[\(5, 8, 3\)\]"
    elif case == "disk domain":
        header = {"format": wio.MAP_FORMAT, "target": s2.descriptor(),
                  "domain": {"kind": "disk", "radius": 1.0, "n": 9},
                  "blocks": [[9, 9, 3]]}
        rec = io.BytesIO((json.dumps(header) + "\n").encode() + bytes(9 * 9 * 3 * 8))
        match = "unknown domain kind 'disk'"
    else:
        buf = io.BytesIO()
        wio.write_map(buf, u)
        rec = io.BytesIO(buf.getvalue()[:-8])
        match = "block 1 is truncated"
    with pytest.raises(ValueError, match=match):
        wio.read_map(rec)
