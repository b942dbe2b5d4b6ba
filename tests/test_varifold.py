import numpy as np
import pytest

from conftest import conformality_defect, constant_sphere_map
from widthlab import dmap as dm
from widthlab import varifold as vf
from widthlab.errors import DimensionMismatch

FOUR_PI = 4 * np.pi


@pytest.fixture(scope="module")
def fam2(s2):
    return vf.TestFunctionFamily.for_manifold(s2)


# ---------------------------------------------------------------------------
# measures

def test_constant_map_empty_measure(dom, s2):
    u = constant_sphere_map(dom, s2, (0.0, 0.0, 1.0))
    v = vf.varifold_of_map(u)
    assert v.weights.sum() == 0.0


def test_identity_measure_weight_and_planes(dom, s2, identity_map):
    v = vf.varifold_of_map(identity_map)
    assert abs(v.weights.sum() - FOUR_PI) <= 0.005 * FOUR_PI
    assert abs(v.weights.sum() - dm.area(identity_map)) <= 1e-9
    # planes are tangent: projector annihilates the position vector
    residual = np.einsum("kij,kj->ki", v.planes, v.points)
    assert np.max(np.linalg.norm(residual, axis=-1)) <= 1e-4
    # projector properties
    sym = np.max(np.abs(v.planes - np.swapaxes(v.planes, 1, 2)))
    idem = np.max(np.abs(np.einsum("kij,kjl->kil", v.planes, v.planes) - v.planes))
    tr = np.max(np.abs(np.einsum("kii->k", v.planes) - 2.0))
    assert max(sym, idem, tr) <= 1e-10


def test_equator_measure_normals(dom, s3):
    eq = dm.equator_map(dom, s3)
    v = vf.varifold_of_map(eq)
    assert abs(v.weights.sum() - FOUR_PI) <= 0.005 * FOUR_PI
    # within the 3-sphere tangent space, the normal to every plane is e4
    pn = s3.normal_space_projector(v.points)
    pt = np.eye(4) - pn
    nproj = pt - v.planes
    e4 = np.zeros(4)
    e4[3] = 1.0
    back = np.einsum("kij,j->ki", nproj, e4)
    assert np.max(np.abs(np.abs(back[:, 3]) - 1.0)) <= 1e-6


# ---------------------------------------------------------------------------
# distances

def test_distance_axioms(dom, s2, identity_map, fam2):
    v = vf.varifold_of_map(identity_map)
    assert vf.varifold_distance(v, v, fam2) == 0.0
    anti = dm.sphere_map(dom, s2, lambda p: -p)
    w = vf.varifold_of_map(anti)
    d1 = vf.varifold_distance(v, w, fam2)
    d2 = vf.varifold_distance(w, v, fam2)
    assert d1 == d2
    assert d1 <= 1e-3  # same unoriented planes and weights


def test_distance_triangle_inequality(s2, fam2):
    rng = np.random.default_rng(31)

    def random_measure():
        m = int(rng.integers(5, 15))
        pts = rng.normal(size=(m, 3))
        pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
        pn = s2.normal_space_projector(pts)
        pt = np.eye(3) - pn
        planes = pt  # the full tangent plane at each point
        return vf.VarifoldMeasure(pts, planes, rng.uniform(0, 1, m), 3)

    for _ in range(1000):
        a, b, c = random_measure(), random_measure(), random_measure()
        dab = vf.varifold_distance(a, b, fam2)
        dbc = vf.varifold_distance(b, c, fam2)
        dac = vf.varifold_distance(a, c, fam2)
        assert dac <= dab + dbc + 1e-12


def test_distance_unoriented(dom, s2, identity_map, fam2):
    # the reflection y -> -y reverses orientation but not the image planes
    flip = dm.sphere_map(dom, s2, lambda p: p @ np.diag([1.0, -1.0, 1.0]))
    d = vf.varifold_distance(vf.varifold_of_map(identity_map),
                             vf.varifold_of_map(flip), fam2)
    assert d <= 1e-12


def test_distance_dimension_mismatch(dom, s2, s3, identity_map, fam2):
    eq = dm.equator_map(dom, s3)
    with pytest.raises(DimensionMismatch):
        vf.varifold_distance(vf.varifold_of_map(identity_map),
                             vf.varifold_of_map(eq), fam2)


def test_family_deterministic(s2):
    f1 = vf.TestFunctionFamily.for_manifold(s2)
    f2 = vf.TestFunctionFamily.for_manifold(s2)
    assert len(f1.terms) == 64
    for (a1, b1, s1), (a2, b2, s2_) in zip(f1.terms, f2.terms):
        assert a1 == a2 and b1 == b2 and s1 == s2_


# ---------------------------------------------------------------------------
# quadratic-form pairing

def test_pairing_zero_form(dom, s3):
    eq = dm.equator_map(dom, s3)
    z = lambda pts: np.zeros(pts.shape[:-1] + (4, 4))
    assert vf.quadratic_form_pairing(eq, z) == 0.0


def test_pairing_metric_and_ricci(dom, s3):
    eq = dm.equator_map(dom, s3)
    metric = lambda pts: np.broadcast_to(np.eye(4), pts.shape[:-1] + (4, 4)) \
        - pts[..., :, None] * pts[..., None, :]
    got = vf.quadratic_form_pairing(eq, metric)
    assert abs(got - 8 * np.pi) <= 0.01 * 8 * np.pi
    ric = lambda pts: 2.0 * metric(pts)
    got = vf.quadratic_form_pairing(eq, ric)
    assert abs(got - 16 * np.pi) <= 0.01 * 16 * np.pi


def test_pairing_requires_3_manifold(dom, s2, identity_map):
    with pytest.raises(DimensionMismatch):
        vf.quadratic_form_pairing(identity_map,
                                  lambda pts: np.zeros(pts.shape[:-1] + (3, 3)))


# ---------------------------------------------------------------------------
# bubbles

def test_bubble_energy_area_8pi(dom):
    for j in (1, 2, 4, 8):
        u = vf.bubble_example(j, dom)
        e = dm.energy(u)
        a = dm.area(u)
        assert abs(e - 8 * np.pi) <= 0.01 * 8 * np.pi
        assert abs(a - 8 * np.pi) <= 0.01 * 8 * np.pi
        assert conformality_defect(u) <= 1e-3 * e


def test_bubble_converges_to_identity_away_from_pole(dom, s2, identity_map):
    # C0 distance on the complement of a chart ball around the concentration
    keep = [(dom.X**2 + dom.Y**2 > 0.3**2), np.ones_like(dom.X, bool)]
    sups = []
    for j in (1, 2, 4, 8):
        u = vf.bubble_example(j, dom)
        sup = 0.0
        for c, mask in enumerate(keep):
            m = mask & (dom.flat_weights[c] > 0)
            sup = max(sup, float(np.max(np.linalg.norm(
                u.values[c][m] - identity_map.values[c][m], axis=-1))))
        sups.append(sup)
    assert sups[0] > sups[1] > sups[2] > sups[3]


def test_bubble_varifold_distance_to_limit(dom, s2, identity_map, fam2):
    union = vf.VarifoldMeasure.union(vf.varifold_of_map(identity_map),
                                     vf.varifold_of_map(vf.inversion_map(dom)))
    assert abs(union.weights.sum() - 8 * np.pi) <= 0.01 * 8 * np.pi
    ds = [vf.varifold_distance(vf.varifold_of_map(vf.bubble_example(j, dom)),
                               union, fam2) for j in (1, 2, 4, 8)]
    # the continuum distance is identically zero (a degree-two conformal map
    # pushes forward to exactly twice the uniform plane measure), so the
    # measured values are pure quadrature error; they stay small but only
    # monotone up to that error scale
    assert all(d <= 0.05 for d in ds)
    for a, b in zip(ds, ds[1:]):
        assert b <= max(a, 0.01)


# ---------------------------------------------------------------------------
# concentration

def test_detect_concentration_bubbles(dom):
    pts = vf.detect_concentration(vf.bubble_example(8, dom), 4.0, (0.1, 0.2, 0.4))
    assert len(pts) == 1
    assert np.linalg.norm(pts[0] - np.array([0.0, 0.0, -1.0])) <= 0.1


def test_detect_concentration_empty_cases(dom, s2, identity_map):
    assert vf.detect_concentration(identity_map, 4.0, (0.1, 0.2, 0.4)) == []
    c = constant_sphere_map(dom, s2, (0.0, 0.0, 1.0))
    assert vf.detect_concentration(c, 4.0, (0.1, 0.2, 0.4)) == []
