import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from widthlab import manifold
from widthlab.errors import KindUnknown, OutsideTube
from widthlab.manifold import (affine_subspace, ellipsoid, from_descriptor, round_sphere,
                               row_dot)


def test_radial_projection_examples(s2):
    assert np.allclose(s2.project(np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0])
    x = np.array([0.5, 0.5, 0.0])
    assert np.allclose(s2.project(x), [np.sqrt(2) / 2, np.sqrt(2) / 2, 0.0])
    on = np.array([0.0, -1.0, 0.0])
    assert np.allclose(s2.project(on), on)


def test_projection_idempotent_in_tube(s2):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10_000, 3))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    x *= 1.0 + rng.uniform(-1, 1, size=(10_000, 1)) * s2.safe_tubular_radius
    p = s2.project(x)
    assert np.max(np.linalg.norm(s2.project(p) - p, axis=-1)) <= 1e-10
    assert np.max(s2.distance(x) - np.linalg.norm(x - p, axis=-1)) <= 1e-12


def test_projection_outside_tube_raises(s2):
    with pytest.raises(OutsideTube):
        s2.project(np.array([0.01, 0.0, 0.0]))


def test_projection_contracts_on_manifold(s2):
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        v = rng.normal(size=3)
        h = 1e-6
        dv = (s2.project(x + h * v) - s2.project(x - h * v)) / (2 * h)
        assert np.linalg.norm(dv) <= np.linalg.norm(v) * (1 + 1e-6)


def test_projection_lipschitz_in_tube(s2):
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        x *= 1 + rng.uniform(-0.4, 0.8)
        d = float(s2.distance(x))
        v = rng.normal(size=3)
        h = 1e-6
        dv = (s2.project(x + h * v) - s2.project(x - h * v)) / (2 * h)
        bound = (1 + 2.0 / s2.radius * d) * np.linalg.norm(v)
        assert np.linalg.norm(dv) <= bound * (1 + 1e-5)


def test_ellipsoid_projection_nearest():
    e = ellipsoid((2.0, 1.0, 1.0))
    x = np.array([3.0, 0.0, 0.0])
    assert np.allclose(e.project(x), [2.0, 0.0, 0.0], atol=1e-9)
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(20, 3))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    pts = e.project(4.0 * raw)
    x = pts + 0.05 * rng.normal(size=(20, 3))
    p = e.project(x)
    d_proj = np.linalg.norm(x - p, axis=-1)
    assert np.all(d_proj <= np.linalg.norm(x - pts, axis=-1) + 1e-9)


def _bisection_projection(m, x):
    """Ellipsoid.project as it was first written, with 90 bisection steps on
    the Lagrange multiplier: the reference the Newton solve must meet."""
    a2 = np.asarray(m.semi_axes) ** 2
    q = np.sum(x * x / a2, axis=-1)
    lo = np.where(q >= 1.0, 0.0, -a2.min() * (1 - 1e-12))
    hi = np.sqrt(a2.max()) * np.linalg.norm(x, axis=-1) + a2.max()
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        f = np.sum(x * x * a2 / (a2 + mid[..., None]) ** 2, axis=-1)
        take_hi = f > 1.0
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    lam = 0.5 * (lo + hi)
    return x * a2 / (a2 + lam[..., None])


def _tube_points(m, count, seed):
    """Points of the ellipsoid moved along its normal by up to the tube
    radius either way; a tenth of them in the innermost tenth of the tube."""
    rng = np.random.default_rng(seed)
    a = np.asarray(m.semi_axes)
    g = rng.normal(size=(count, len(a)))
    p = g / np.linalg.norm(g, axis=-1, keepdims=True) * a
    normal = p / a**2
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    d = rng.uniform(-1.0, 1.0, size=(count, 1))
    d[: count // 10] = -rng.uniform(0.9, 1.0, size=(count // 10, 1))
    return p + d * (1 - 1e-9) * m.tubular_radius * normal


ELLIPSOIDS = [(1, 1, 1, 1.3), (2, 1, 1), (1, 2, 3), (1, 1, 1, 3), (5, 1, 1, 1),
              (1, 1, 1, 0.2), (10, 1, 1), (1, 3, 10), (1, 1, 1, 10)]


@pytest.mark.parametrize("axes", ELLIPSOIDS)
def test_ellipsoid_newton_projection_equals_the_bisection(monkeypatch, axes):
    """Newton meets the bisection, and its distance is |x - p|.  The table
    behind NEWTON_STEPS: 5 steps settle the tube, and 6 the points at twice
    the largest semi-axis from the centre; a point not yet settled raises.
    With 20,000 points each, the steps a point took to settle, in the tube /
    at twice the largest semi-axis, read 4/4 on (1, 1, 1, 1.3), 5/5 on the
    next three, 5/6 on the last five and 1/1 on a sphere."""
    m = ellipsoid(axes)
    inner = _tube_points(m, 2000, 3)
    p = m.project(inner)
    assert np.max(np.abs(m.distance(inner) - np.linalg.norm(inner - p, axis=-1))) <= 1e-14
    assert np.max(m.distance(p)) <= 1e-14
    far = 2 * max(axes) * inner / np.linalg.norm(inner, axis=-1, keepdims=True)
    for x, steps in ((inner, manifold.NEWTON_STEPS), (inner, 5), (far, 6)):
        monkeypatch.setattr(manifold, "NEWTON_STEPS", steps)
        assert np.max(np.abs(m.project(x) - _bisection_projection(m, x))) <= 1e-14


def test_round_ellipsoid_projects_as_the_round_sphere(s3):
    m = ellipsoid((1.0,) * 4)
    x = _tube_points(m, 2000, 5)
    assert np.max(np.abs(m.project(x) - s3.project(x))) <= 1e-14
    assert m.semi_axes == s3.semi_axes == (1.0,) * 4


def test_ellipsoid_projection_raises_off_its_steps(monkeypatch):
    """The residual check: too few Newton steps leave the point off the
    target, and the projection raises rather than return it."""
    m = ellipsoid((5.0, 1.0, 1.0, 1.0))
    x = _tube_points(m, 200, 6)
    monkeypatch.setattr(manifold, "NEWTON_STEPS", 2)
    with pytest.raises(OutsideTube):
        m.project(x)
    with pytest.raises(OutsideTube):
        m.distance(x)


def test_ellipsoid_projection_raises_inside_the_reach_margin():
    m = ellipsoid((2.0, 1.0, 1.0))
    for x in (np.zeros(3), np.array([0.0, 0.5, 0.0])):
        with pytest.raises(OutsideTube):
            m.project(x)


def test_semi_axes_are_the_shape_of_every_kind():
    assert round_sphere(3, 2.0).semi_axes == (2.0,) * 4
    assert ellipsoid((1, 2, 3)).semi_axes == (1.0, 2.0, 3.0)
    with pytest.raises(KindUnknown):
        affine_subspace(2, 3).semi_axes


def test_kind_constants(s2, s3):
    assert np.isclose(s2.sff_bound, np.sqrt(2.0))
    assert np.isclose(s3.sff_bound, np.sqrt(3.0))
    assert affine_subspace(2, 4).sff_bound == 0.0
    assert s2.safe_tubular_radius < s2.tubular_radius


def test_descriptor_roundtrip(s2):
    for m in (s2, ellipsoid((2.0, 1.5, 1.0)), affine_subspace(2, 3)):
        m2 = from_descriptor(m.descriptor())
        assert m2.descriptor() == m.descriptor()


def _norm_form_projection(m, x):
    """RoundSphere.project as it was first written, with np.linalg.norm."""
    x = np.asarray(x, float)
    r = np.linalg.norm(x, axis=-1)
    if np.any(r <= m.radius - m.tubular_radius):
        raise OutsideTube("inside")
    return x * (m.radius / r)[..., None]


@settings(max_examples=200, deadline=None)
@given(x=arrays(np.float64, st.tuples(st.integers(1, 6), st.sampled_from([3, 4])),
                elements=st.floats(-3.0, 3.0)),
       radius=st.sampled_from([0.5, 1.0, 2.5]), at_inner=st.booleans())
@example(x=np.array([[0.0, 1.0, 0.0]]), radius=1.0, at_inner=True)
def test_round_projection_equals_the_norm_form(x, radius, at_inner):
    m = round_sphere(x.shape[-1] - 1, radius)
    if at_inner:  # a point exactly at the inner radius of the tube
        x = x.copy()
        x[0] = 0.0
        x[0, -1] = m.radius - m.tubular_radius
    for pts in (x, x[0]):
        try:
            want = _norm_form_projection(m, pts)
        except OutsideTube:
            with pytest.raises(OutsideTube):
                m.project(pts)
            continue
        assert not at_inner
        assert m.project(pts).tobytes() == want.tobytes()


_ROW_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -3.25, 1e-300, -1e300, 7e15, np.pi])


@settings(max_examples=150, deadline=None)
@given(cols=st.integers(1, 12), rows=st.integers(1, 300),
       layout=st.sampled_from(["contiguous", "gathered", "strided", "fortran"]),
       seed=st.integers(0, 2**32 - 1))
@example(cols=1, rows=1, layout="contiguous", seed=0)
@example(cols=4, rows=256, layout="fortran", seed=1)
@example(cols=7, rows=150, layout="strided", seed=2)
@example(cols=8, rows=200, layout="gathered", seed=3)
def test_row_dot_is_numpy_row_sum_bit_for_bit(cols, rows, layout, seed):
    """row_dot gives the bytes of np.sum(a * b, -1), and its square root
    those of np.linalg.norm, for rows shorter than 8, which it sums by
    columns, and longer ones, which it hands to numpy; on arrays whose rows
    are contiguous, gathered by index, strided or column-major; signed
    zeros included."""
    rng = np.random.default_rng(seed)

    def draw():
        pick = rng.random((rows, 2 * cols)) < 0.3
        v = np.where(pick, rng.choice(_ROW_VALUES, (rows, 2 * cols)),
                     rng.standard_normal((rows, 2 * cols)))
        if layout == "gathered":
            return v[:, :cols][rng.permutation(rows)]
        if layout == "strided":
            return v[:, ::2]
        if layout == "fortran":
            return np.asfortranarray(v[:, :cols])
        return np.ascontiguousarray(v[:, :cols])

    a, b = draw(), draw()
    zeros = np.full_like(a, -0.0)  # every product -0.0: np.sum gives 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        assert row_dot(a, b).tobytes() == np.sum(a * b, -1).tobytes()
        assert row_dot(zeros, b).tobytes() == np.sum(zeros * b, -1).tobytes()
        assert np.sqrt(row_dot(a, a)).tobytes() == np.linalg.norm(a, axis=-1).tobytes()
        stacked = np.stack([a, b])  # a leading axis
        assert row_dot(stacked, stacked).tobytes() == np.sum(stacked * stacked, -1).tobytes()


def _reference_round_projection(m, x):
    return x * (m.radius / np.linalg.norm(x, axis=-1))[..., None]


@pytest.mark.parametrize("shape", [(4,), (0, 4), (193, 4), (33, 33, 4), (0, 5, 4)])
def test_round_projection_keeps_its_bytes_on_every_shape(s3, shape):
    """The in-place square root and reciprocal and the one-pass tube test
    give the bytes of the norm form on one point, on empty arrays, on rows
    and on a chart; a point inside the tube raises, wherever it sits, also
    next to a NaN row, which the tube test passes over as a comparison
    does."""
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape)
    x[..., -1] += 3.0  # every point well off the centre
    got = s3.project(x)
    assert got.shape == shape
    assert got.tobytes() == _reference_round_projection(s3, x).tobytes()
    if not x.size:
        return
    inside = x.copy()
    inside.reshape(-1, 4)[-1] = 0.01
    with pytest.raises(OutsideTube):
        s3.project(inside)
    nan = x.copy()
    nan.reshape(-1, 4)[0] = np.nan
    assert s3.project(nan).tobytes() == _reference_round_projection(s3, nan).tobytes()
    if nan.ndim > 1 and len(nan.reshape(-1, 4)) > 1:
        nan.reshape(-1, 4)[-1] = 0.01
        with pytest.raises(OutsideTube):
            s3.project(nan)
