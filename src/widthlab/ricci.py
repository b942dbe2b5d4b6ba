"""Width decay under Ricci flow on model geometries: the scalar-minimum
lower bound, the minimal-sphere area rate, the width differential
inequality integrated to a finite extinction bound, and the closed-form
round 3-sphere flow on which the rate bound is attained exactly.

Conventions: on the unit round 3-sphere the Ricci curvature is 2 and the
scalar curvature is 6; the round flow scales as r^2(t) = r0^2 - 4t.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, KindUnknown, NonPositiveC


@dataclass
class ModelFlow:
    """Closed-form or tabulated family of metrics g(t)."""

    kind: str
    r0: float = 1.0
    t_grid: np.ndarray = None
    scale: np.ndarray = None      # metric scale s(t) = r^2(t) for tabulated flows
    min_scalar: np.ndarray = None

    @staticmethod
    def round_s3(r0: float) -> "ModelFlow":
        return ModelFlow(kind="round-s3", r0=float(r0))

    @staticmethod
    def tabulated(t_grid, scale, min_scalar) -> "ModelFlow":
        return ModelFlow(kind="tabulated", t_grid=np.asarray(t_grid, float),
                         scale=np.asarray(scale, float),
                         min_scalar=np.asarray(min_scalar, float))

    @property
    def t_max(self) -> float:
        if self.kind == "round-s3":
            return self.r0**2 / 4.0
        return float(self.t_grid[-1])

    def radius(self, t: float) -> float:
        if self.kind == "round-s3":
            return float(np.sqrt(max(self.r0**2 - 4.0 * t, 0.0)))
        return float(np.sqrt(np.interp(t, self.t_grid, self.scale)))

    def min_scalar_at(self, t: float) -> float:
        if self.kind == "round-s3":
            return 6.0 / (self.r0**2 - 4.0 * t)
        return float(np.interp(t, self.t_grid, self.min_scalar))

    def ricci_field(self, t: float):
        """Ricci as an ambient quadratic form on the radius-r(t) 3-sphere."""
        if self.kind != "round-s3":
            raise KindUnknown("curvature fields are closed form only for round-s3")
        r2 = self.r0**2 - 4.0 * t

        def q(pts):
            pts = np.asarray(pts, float)
            nrm = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
            proj = np.eye(pts.shape[-1]) - nrm[..., :, None] * nrm[..., None, :]
            return (2.0 / r2) * proj

        return q


# ---------------------------------------------------------------------------
# scalar curvature minimum and the area rate of minimal spheres

def scalar_min_bound(min_r0: float, t: float) -> float:
    """Lower bound for min R at time t: the negative case integrates the
    scalar evolution inequality; a nonnegative minimum never decreases."""
    if min_r0 >= 0.0:
        return float(min_r0)
    return float(1.0 / (1.0 / min_r0 - 2.0 * t / 3.0))


def comparison_constant(min_r0: float) -> float:
    """C with min R(t) >= -3 / (2 (t + C)) in the negative case."""
    if min_r0 >= 0:
        raise ValueError("the constant is only pinned down when min R(0) < 0")
    return -3.0 / (2.0 * min_r0)


def minimal_sphere_rate(area: float, min_r: float) -> float:
    """Upper bound for d/dt Area of a branched minimal 2-sphere.

    The branch-point term only lowers the true rate further, so dropping it
    keeps the bound valid."""
    return float(-4.0 * np.pi - 0.5 * area * min_r)


def area_rate(u, flow: ModelFlow, t: float) -> float:
    """Exact first variation of area under the flow, evaluated on the map's
    varifold: -int [R - Ric(n, n)]."""
    from .varifold import quadratic_form_pairing
    if u.target.dim != 3:
        raise DimensionMismatch("area rate requires a 3-dimensional target")
    return -quadratic_form_pairing(u, flow.ricci_field(t))


# ---------------------------------------------------------------------------
# the width upper bound and its integration

def width_bound_rhs(t: float, w: float, c: float) -> float:
    return -4.0 * np.pi + 3.0 / (4.0 * (t + c)) * w


def closed_form_extinction(w0: float, c: float) -> float:
    """First T at which the integrated bound
    (T+C)^{-3/4} W <= C^{-3/4} W0 - 16 pi [(T+C)^{1/4} - C^{1/4}]
    forces W to zero."""
    if c <= 0:
        raise NonPositiveC("the comparison constant must be positive")
    return float((c**0.25 + w0 / (16.0 * np.pi * c**0.75)) ** 4 - c)


@dataclass
class WidthTrajectory:
    t: np.ndarray
    w_euler: np.ndarray
    w_closed: np.ndarray
    extinction_euler: float
    extinction_closed: float
    c: float


def width_bound_integrate(w0: float, c: float, dt: float) -> WidthTrajectory:
    """Forward-Euler and integrating-factor trajectories of the width upper
    bound up to 1.25 times the closed-form extinction time, with both
    extinction estimates."""
    if c <= 0:
        raise NonPositiveC("the comparison constant must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if w0 < 0:
        raise ValueError("the initial width must be nonnegative")
    t_star = closed_form_extinction(w0, c)
    horizon = 1.25 * t_star + dt
    ts = [0.0]
    ws = [w0]
    t, w = 0.0, w0
    ext_euler = 0.0 if w0 == 0 else None
    while t < horizon:
        w = w + dt * width_bound_rhs(t, w, c)
        t = t + dt
        ts.append(t)
        ws.append(w)
        if ext_euler is None and w <= 0.0:
            ext_euler = t
            break
    ts = np.array(ts)
    ws = np.array(ws)
    closed = (ts + c) ** 0.75 * (c**-0.75 * w0
                                 - 16 * np.pi * ((ts + c) ** 0.25 - c**0.25))
    return WidthTrajectory(ts, ws, closed,
                           float(ext_euler) if ext_euler is not None else float("inf"),
                           t_star, c)


def integrating_factor_residuals(traj: WidthTrajectory) -> np.ndarray:
    """Forward differences of W (t+C)^{-3/4} against -4 pi (t+C)^{-3/4};
    nonpositive along the bound trajectory up to O(dt)."""
    t, w, c = traj.t, traj.w_euler, traj.c
    phi = w * (t + c) ** -0.75
    dphi = np.diff(phi) / np.diff(t)
    rhs = -4.0 * np.pi * (t[:-1] + c) ** -0.75
    return dphi - rhs


# ---------------------------------------------------------------------------
# the round-flow demonstration, where the rate bound is an equality

@dataclass
class RoundExtinctionReport:
    r0: float
    t: np.ndarray
    width_true: np.ndarray
    rate_true: float
    rate_bound: np.ndarray
    max_rate_residual: float
    extinction_true: float
    bound_trajectory: WidthTrajectory
    pairing_residual: float = None


def round_extinction_demo(r0: float, c_for_bound: float = 1.0,
                          check_pairing: bool = False) -> RoundExtinctionReport:
    """Track the equatorial width W(t) = 4 pi r^2(t) along the round flow.

    The true rate dW/dt = -16 pi matches the minimal-sphere rate bound with
    min R = 6/r^2 identically; extinction happens exactly at r0^2/4.
    """
    flow = ModelFlow.round_s3(r0)
    t_ext = flow.t_max
    ts = np.linspace(0.0, t_ext * (1 - 1e-9), 256)
    r2 = r0**2 - 4.0 * ts
    width = 4.0 * np.pi * r2
    min_r = 6.0 / r2
    bound = np.array([minimal_sphere_rate(w, m) for w, m in zip(width, min_r)])
    residual = float(np.max(np.abs(bound - (-16.0 * np.pi))))
    traj = width_bound_integrate(float(width[0]), c_for_bound,
                                 dt=t_ext / (64 * len(ts)))
    pairing_residual = None
    if check_pairing:
        from . import dmap as dmod
        from .domains import SphereDomain
        from .manifold import round_sphere
        equator = dmod.equator_map(SphereDomain(), round_sphere(3, r0))
        measured = area_rate(equator, flow, 0.0)
        pairing_residual = float(abs(measured - (-16.0 * np.pi)))
    return RoundExtinctionReport(
        r0=float(r0), t=ts, width_true=width, rate_true=-16.0 * np.pi,
        rate_bound=bound, max_rate_residual=residual,
        extinction_true=float(t_ext), bound_trajectory=traj,
        pairing_residual=pairing_residual)
