import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_catmullrom
from widthlab.domains import (CylinderDomain, SphereDomain, catmullrom, catmullrom_stencil,
                              d_axis, d_axis_periodic, interpolate)


def test_total_quadrature_weight(dom):
    total_weight = sum(w.sum() for w in dom.area_weights)
    assert abs(total_weight - 4 * np.pi) <= 1e-3 * 4 * np.pi


def test_overlap_band_width(dom):
    """The band where both charts have valid samples is at least 20 degrees wide."""
    L = dom.interp_safe_radius()
    zmax = (L**2 - 1.0) / (L**2 + 1.0)
    assert float(np.degrees(2 * np.arcsin(zmax))) >= 20.0


def test_chart_transition_is_inversion(dom):
    rng = np.random.default_rng(0)
    w0 = rng.uniform(0.4, 1.2, size=20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
    p = dom.chart_to_sphere(0, w0.real, w0.imag)
    x1, y1 = dom.sphere_to_chart(1, p)
    w1 = x1 + 1j * y1
    assert np.max(np.abs(w1 - 1.0 / w0)) <= 1e-12


def test_chart_roundtrip(dom):
    for c in (0, 1):
        p = dom.chart_to_sphere(c, dom.X, dom.Y)
        assert np.max(np.abs(np.linalg.norm(p, axis=-1) - 1.0)) <= 1e-12
        X, Y = dom.sphere_to_chart(c, p)
        assert np.max(np.abs(X - dom.X)) <= 1e-9
        assert np.max(np.abs(Y - dom.Y)) <= 1e-9


def test_stencils_exact_on_cubics():
    xs = np.linspace(-1, 1, 41)
    h = xs[1] - xs[0]
    f = xs**3 - 2 * xs**2 + xs
    df = 3 * xs**2 - 4 * xs + 1
    got = d_axis(f[:, None], h, 0)[:, 0]
    assert np.max(np.abs(got[2:-2] - df[2:-2])) <= 1e-12
    assert np.max(np.abs(got - df)) <= 6 * h**2  # one-sided edges are 2nd order


def test_periodic_stencil_exact_on_low_modes():
    n = 64
    th = np.arange(n) * 2 * np.pi / n
    f = np.sin(3 * th)
    got = d_axis_periodic(f[:, None], 2 * np.pi / n, 0)[:, 0]
    err = np.max(np.abs(got - 3 * np.cos(3 * th)))
    assert err <= 2e-3


def test_catmullrom_reproduces_smooth_fields(dom):
    g = np.sin(dom.X) * np.cos(dom.Y)
    rng = np.random.default_rng(1)
    px = rng.uniform(-1.0, 1.0, 200)
    py = rng.uniform(-1.0, 1.0, 200)
    got = catmullrom(g[..., None], dom.axis[0], dom.h, px, py)[:, 0]
    assert np.max(np.abs(got - np.sin(px) * np.cos(py))) <= 5e-7


_GRIDS = {n: np.random.default_rng(n).standard_normal((n, n, 3)) for n in (17, 33, 129)}


@st.composite
def _grid_points(draw):
    """A grid size and points in grid units: inside the grid, on the clip
    bounds 1 and n - 2.000001 (and next to them) and beyond the grid."""
    n = draw(st.sampled_from(sorted(_GRIDS)))
    special = [-2.5, 0.0, 1.0, 1.5, n - 2.000001, n - 2.0, n - 1.0, n + 1.5]
    unit = st.one_of(st.floats(-3.0, n + 2.0), st.sampled_from(special))
    size = draw(st.integers(1, 12))
    return n, [draw(st.lists(unit, min_size=size, max_size=size)) for _ in range(2)]


@settings(max_examples=150, deadline=None)
@given(case=_grid_points())
@example(case=(17, [[1.0, 14.999999, -2.5], [15.0, 0.0, 18.5]]))
@example(case=(129, [[64.25], [127.0]]))
def test_prepared_catmullrom_equals_the_per_call_formula(case):
    """A stencil prepared once samples every grid bit for bit as the formula
    that prepares its indices and weights on each call, for points inside
    the grid, on the clip bounds and beyond them."""
    n, (fx, fy) = case
    dom = SphereDomain(n=n)
    x0, h = dom.axis[0], dom.h
    px, py = x0 + h * np.array(fx), x0 + h * np.array(fy)
    stencil = catmullrom_stencil(n, x0, h, px, py)
    g = _GRIDS[n]
    for grid in (g, g[..., 1], g.reshape(n, n, 3, 1), g[:, :, ::2]):
        want = reference_catmullrom(grid, x0, h, px, py).tobytes()
        assert interpolate(grid, stencil).tobytes() == want
        assert catmullrom(grid, x0, h, px, py).tobytes() == want
    assert catmullrom(g, x0, h, px[0], py[0]).tobytes() == \
        reference_catmullrom(g, x0, h, px[0], py[0]).tobytes()
    rows = np.array([px[:1], py[:1]])  # a two-dimensional point array
    assert catmullrom(g, x0, h, rows, rows[::-1]).tobytes() == \
        reference_catmullrom(g, x0, h, rows, rows[::-1]).tobytes()


def test_cylinder_domain_weights():
    c = CylinderDomain(-1.0, 1.0, 65, 48)
    assert abs(c.flat_weights.sum() - 2 * (2 * np.pi)) <= 1e-12


def _moveaxis_d_axis(values, h, axis):
    """The derivative as it was first written: move the axis to the front,
    difference along it, move it back."""
    v = np.moveaxis(np.asarray(values, float), axis, 0)
    n = v.shape[0]
    out = np.empty_like(v)
    if n >= 5:
        out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
        out[1] = (v[2] - v[0]) / (2.0 * h)
        out[-2] = (v[-1] - v[-3]) / (2.0 * h)
    elif n >= 3:
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("n", [3, 4, 5, 9])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_d_axis_equals_the_moveaxis_form(n, axis):
    rng = np.random.default_rng(10 * n + axis)
    shape = [6, 7, 3]
    shape[axis] = n
    v = rng.standard_normal(shape)
    for arr in (v, np.asfortranarray(v), np.concatenate([v, v], axis=1)[:, ::2]):
        got, want = d_axis(arr, 0.37, axis), _moveaxis_d_axis(arr, 0.37, axis)
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()
