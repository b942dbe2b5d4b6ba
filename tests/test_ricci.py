import numpy as np
import pytest

from widthlab import dmap as dm
from widthlab import ricci as rc
from widthlab.errors import DimensionMismatch, NonPositiveC
from widthlab.manifold import round_sphere


def test_scalar_min_bound_examples():
    assert rc.scalar_min_bound(-6.0, 0.0) == -6.0
    assert rc.comparison_constant(-6.0) == 0.25
    for t in (0.0, 1.0, 100.0):
        assert rc.scalar_min_bound(6.0, t) == 6.0
    tail = rc.scalar_min_bound(-6.0, 1e9)
    assert -1e-8 < tail < 0.0


def test_scalar_min_bound_monotone():
    ts = np.linspace(0.0, 50.0, 200)
    vals = [rc.scalar_min_bound(-6.0, t) for t in ts]
    assert np.all(np.diff(vals) > 0)
    # matches the comparison form -3 / (2 (t + C))
    c = rc.comparison_constant(-6.0)
    expect = -3.0 / (2.0 * (ts + c))
    assert np.max(np.abs(np.array(vals) - expect)) <= 1e-12


def test_minimal_sphere_rate_examples():
    assert rc.minimal_sphere_rate(4 * np.pi, 6.0) == -16 * np.pi
    assert rc.minimal_sphere_rate(0.0, 123.0) == -4 * np.pi
    assert rc.minimal_sphere_rate(7.0, 0.0) == -4 * np.pi


def test_round_rate_sharpness():
    rep = rc.round_extinction_demo(1.0)
    assert rep.max_rate_residual <= 1e-10
    assert rep.extinction_true == 0.25
    rep2 = rc.round_extinction_demo(2.0)
    assert rep2.extinction_true == 1.0
    assert abs(rep2.width_true[0] - 16 * np.pi) <= 1e-10


def test_area_rate_via_pairing(dom):
    flow = rc.ModelFlow.round_s3(1.0)
    eq = dm.equator_map(dom, round_sphere(3, 1.0))
    rate = rc.area_rate(eq, flow, 0.0)
    assert abs(rate - (-16 * np.pi)) <= 0.01 * 16 * np.pi
    # scaling: the rate is radius-independent
    flow2 = rc.ModelFlow.round_s3(2.0)
    eq2 = dm.equator_map(dom, round_sphere(3, 2.0))
    rate2 = rc.area_rate(eq2, flow2, 0.0)
    assert abs(rate2 - (-16 * np.pi)) <= 0.01 * 16 * np.pi


def test_area_rate_dimension_gate(identity_map):
    flow = rc.ModelFlow.round_s3(1.0)
    with pytest.raises(DimensionMismatch):
        rc.area_rate(identity_map, flow, 0.0)


def test_flat_curvature_rate_zero(dom):
    # zero quadratic form pairs to zero: flat metric rate is the Gauss floor
    from widthlab import varifold as vf
    eq = dm.equator_map(dom, round_sphere(3, 1.0))
    z = lambda pts: np.zeros(pts.shape[:-1] + (4, 4))
    assert vf.quadratic_form_pairing(eq, z) == 0.0


def test_closed_form_extinction_value():
    t = rc.closed_form_extinction(4 * np.pi, 1.0)
    assert t == 1.25**4 - 1
    assert t == 1.44140625


def test_euler_matches_closed_form():
    traj = rc.width_bound_integrate(4 * np.pi, 1.0, 1e-4)
    rel = abs(traj.extinction_euler - traj.extinction_closed) / traj.extinction_closed
    assert rel <= 1e-3
    # halving dt halves the gap (first-order scheme)
    traj2 = rc.width_bound_integrate(4 * np.pi, 1.0, 5e-5)
    rel2 = abs(traj2.extinction_euler - traj2.extinction_closed) / traj2.extinction_closed
    assert rel2 <= 0.75 * rel


def test_zero_width_extinct_immediately():
    traj = rc.width_bound_integrate(0.0, 1.0, 1e-3)
    assert traj.extinction_euler == 0.0
    assert traj.extinction_closed == 0.0


def test_extinction_finite_and_dominates_true():
    rng = np.random.default_rng(51)
    for _ in range(50):
        w0 = float(rng.uniform(0.0, 100.0))
        c = float(rng.uniform(0.01, 10.0))
        t = rc.closed_form_extinction(w0, c)
        assert np.isfinite(t) and t >= 0.0
    # on the round flow with the sharp min R the bound dominates the truth
    for r0 in (0.5, 1.0, 2.0):
        rep = rc.round_extinction_demo(r0)
        w0 = 4 * np.pi * r0**2
        # with nonnegative min R any positive C yields a valid finite upper
        # bound, so sweep a sample of them
        for c in (0.1, 1.0, 10.0):
            assert rc.closed_form_extinction(w0, c) > 0.0
        assert rep.extinction_true <= rc.closed_form_extinction(w0, 1.0)


def test_non_positive_c_rejected():
    with pytest.raises(NonPositiveC):
        rc.closed_form_extinction(1.0, 0.0)
    with pytest.raises(NonPositiveC):
        rc.width_bound_integrate(1.0, -1.0, 1e-3)


def test_integrating_factor_inequality_along_euler():
    res1 = rc.integrating_factor_residuals(rc.width_bound_integrate(4 * np.pi, 1.0, 1e-4))
    res2 = rc.integrating_factor_residuals(rc.width_bound_integrate(4 * np.pi, 1.0, 5e-5))
    assert np.max(res1) <= 20 * 1e-4   # O(dt) above the exact inequality
    assert np.max(res2) <= 0.6 * np.max(res1)  # first-order in dt


def test_tabulated_flow_interpolation():
    ts = np.linspace(0.0, 0.25, 11)
    flow = rc.ModelFlow.tabulated(ts, 1.0 - 4 * ts, 6.0 / (1.0 - 4 * ts + 1e-12))
    assert abs(flow.radius(0.125) - np.sqrt(0.5)) <= 1e-9
    assert abs(flow.min_scalar_at(0.125) - 6.0 / 0.5) <= 1e-9
    assert flow.t_max == 0.25
    # the closed-form flow: R = 6 / r^2(t) with r^2(t) = r0^2 - 4t
    r0, t = 2.0, 0.5
    assert rc.ModelFlow.round_s3(r0).min_scalar_at(t) == 6.0 / (r0**2 - 4 * t) == 3.0
