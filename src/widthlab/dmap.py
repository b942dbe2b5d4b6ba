"""Discrete maps from the two-chart sphere and from flat cylinders into an
embedded manifold, with the energy and area functionals, smoothing, collar
interpolation between nearby boundary traces, and exact Moebius self-maps.

Sphere-domain functionals exploit that in two dimensions energy and area
are conformally covariant: in stereographic chart coordinates they are
plain flat integrals, weighted only by the partition of unity that splits
the sphere between the two charts.

`measure` differentiates a map once per chart into a `Measure` record,
which the tightening loop reads; its densities sum the components of the
differential with `manifold.row_dot`, three per chart, which the energy
and Jacobian densities share.  A ball family's energy has one
formula, `family_energy`, the energy density summed over its nodes; `energy`
of a family differentiates only each ball's box, widened by two nodes.

Owner charts are authoritative on the chart overlap: `sync_owner`
refreshes every node its chart does not own from the chart that does,
through the Catmull-Rom stencils the domain prepared once for those nodes
(`SphereDomain.owner_refresh`).  `refresh_nodes` applies any prepared
refresh set, such as the ball-cap sets `dirichlet` keeps in the domain's
memo.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domains
from .domains import CylinderDomain, SphereDomain, d_axis, d_axis_periodic
from .errors import (DomainMismatch, NoCommonPoint, OutsideTube, OverlapViolation,
                     TraceTooFar, TubeEscape)
from .manifold import EmbeddedManifold, row_dot

ON_TOL = 1e-10  # how far off the target a node value may lie
OVERLAP_TOL = 1e-6


# ---------------------------------------------------------------------------
# maps

@dataclass
class DiscreteMap:
    """Node samples of a map into `target`; one value block per chart."""

    domain: object
    target: EmbeddedManifold
    values: list  # [(n,n,N)] per chart for spheres, single-block otherwise

    def copy(self):
        return DiscreteMap(self.domain, self.target, [v.copy() for v in self.values])

    @property
    def n_charts(self):
        return len(self.values)

    def validate(self):
        for v in self.values:
            d = self.target.distance(v)
            if np.max(d) > ON_TOL * 10 + 1e-12:
                raise ValueError(f"node values off the target by {np.max(d):.3e}")
        if isinstance(self.domain, SphereDomain):
            err = overlap_disagreement(self)
            if err > OVERLAP_TOL:
                raise ValueError(f"chart overlap disagreement {err:.3e}")
        return self


def sphere_map(dom: SphereDomain, target: EmbeddedManifold, fn,
               sync: bool = True) -> DiscreteMap:
    """Build a sphere-domain map from an ambient-valued function of sphere points."""
    vals = [np.asarray(fn(dom.points[c]), float) for c in (0, 1)]
    vals = [target.project(v) for v in vals]
    u = DiscreteMap(dom, target, vals)
    if sync:
        sync_owner(u)
    return u


def sync_owner(u: DiscreteMap):
    """Make owner charts authoritative: refresh every node from the chart
    that owns its sphere point."""
    dom = u.domain
    for c in (0, 1):
        sync_overlap(u, chart=c, mask=dom.node_owner[1 - c] == c)
    return u


def identity_sphere_map(dom: SphereDomain, target=None) -> DiscreteMap:
    """The unit 2-sphere carried onto the target by its `semi_axes`."""
    from .manifold import round_sphere
    target = target or round_sphere(2, 1.0)
    u = DiscreteMap(dom, target, [dom.points[c] * target.semi_axes for c in (0, 1)])
    return sync_owner(u)


def equator_map(dom: SphereDomain, target) -> DiscreteMap:
    """The 2-sphere as the equator x -> a (x, 0) of a target with semi-axes a."""
    vals = [np.concatenate([p, np.zeros(p.shape[:2] + (1,))], axis=-1)
            * target.semi_axes for p in dom.points]
    return DiscreteMap(dom, target, vals)


def ball_bump_map(dom: SphereDomain, target, b: Ball, amp: float,
                  vec) -> DiscreteMap:
    """The south pole (0, 0, -1) plus amp * vec times the bump of ball b, on
    the sphere domain, projected to the target."""
    def fn(p):
        w = domains.bump_weight(*dom.sphere_to_chart(b.chart, p), b.center, b.radius)
        return np.array([0.0, 0.0, -1.0]) + amp * w[..., None] * vec

    return sphere_map(dom, target, fn)


def overlap_disagreement(u: DiscreteMap) -> float:
    """Max distance between non-owner node values and the owner-chart samples."""
    dom = u.domain
    worst = 0.0
    for c in (0, 1):
        other = 1 - c
        ii, jj, *stencil = dom.owner_refresh[other]
        if len(ii) == 0:
            continue
        ref = u.target.project(domains.interpolate(u.values[other], stencil))
        worst = max(worst, float(np.max(np.linalg.norm(u.values[c][ii, jj] - ref, axis=-1))))
    return worst


def sync_overlap(u: DiscreteMap, chart: int, mask):
    """Re-interpolate the other chart's nodes that `chart` owns from `chart`
    after its nodes changed, through the stencil the domain prepared once.

    mask: boolean (n,n) over the *other* chart, the nodes `chart` owns,
    `dom.node_owner[1 - chart] == chart`; any other mask is an error.
    """
    dom = u.domain
    if not np.array_equal(mask, dom.node_owner[1 - chart] == chart):
        raise ValueError(f"sync_overlap refreshes the nodes chart {chart} owns, not others")
    refresh_nodes(u, chart, dom.owner_refresh[chart])


def refresh_nodes(u: DiscreteMap, chart: int, nodes):
    """Re-interpolate the given nodes of the other chart from `chart`.

    nodes: a `SphereDomain.refresh_stencil` of `chart`, (rows, columns,
    corner, wx, wy).
    """
    ii, jj, *stencil = nodes
    if len(ii) == 0:
        return
    vals = domains.interpolate(u.values[chart], stencil)
    u.values[1 - chart][ii, jj] = u.target.project(vals)


# ---------------------------------------------------------------------------
# differentials and integral functionals

def chart_differential(u: DiscreteMap, c: int):
    """(du/dX, du/dY) of chart block c in flat chart coordinates."""
    dom, v = u.domain, u.values[c]
    if isinstance(dom, CylinderDomain):
        return d_axis(v, dom.h_t, 0), d_axis_periodic(v, dom.h_theta, 1)
    return d_axis(v, dom.h, 0), d_axis(v, dom.h, 1)


def chart_weights(dom):
    """The flat quadrature weights of each chart, partition-weighted on a
    sphere domain; one array per chart."""
    if isinstance(dom, SphereDomain):
        return dom.flat_weights
    return [dom.flat_weights]


def energy_density(ux, uy):
    """Pointwise energy density 1/2 |du|^2 of a chart differential."""
    return 0.5 * (row_dot(ux, ux) + row_dot(uy, uy))


def energy(u: DiscreteMap, region=None) -> float:
    """Dirichlet energy; the `family_energy` of a BallFamily region when
    given, from each ball's `_box_density` alone."""
    if region is not None:
        return _family_sum(u.domain, region, lambda b, box: _box_density(u, b.chart, box))
    return _integral(u.domain, [energy_density(*chart_differential(u, c))
                                for c in range(u.n_charts)])


def family_energy(dom, density, fam) -> float:
    """Energy inside the balls of a family, gathered from a map's energy
    density (indexed by chart) on each ball's nodes."""
    return _family_sum(dom, fam, lambda b, box: density[b.chart][box])


def _family_sum(dom, fam, box_density) -> float:
    """The sum over a family's nodes of box_density(ball, its ball_box)."""
    total = 0.0
    for b in fam:
        box, mask = ball_box(dom, b)
        if mask.any():
            total += float(np.sum(box_density(b, box)[mask])) * dom.h**2
    return total


def _box_density(u: DiscreteMap, c: int, box):
    """Chart c's energy density on a ball box, from the box widened by two
    nodes and clipped to the grid: each box node gets its whole-chart stencil."""
    n = len(u.domain.axis)
    wide = tuple(slice(max(s.start - 2, 0), min(s.stop + 2, n)) for s in box)
    dens = energy_density(*(d_axis(u.values[c][wide], u.domain.h, a) for a in (0, 1)))
    return dens[tuple(slice(s.start - w.start, s.stop - w.start) for s, w in zip(box, wide))]


def jacobian_density(ux, uy):
    """Pointwise Jacobian |du/dX ^ du/dY| of a chart differential; at most
    the energy density, with equality exactly where du is conformal."""
    return _jacobian(row_dot(ux, ux), row_dot(uy, uy), row_dot(ux, uy))


def _jacobian(a, b, cc):
    """The Jacobian from the row_dots a = |ux|^2, b = |uy|^2, cc = ux.uy."""
    return np.sqrt(np.maximum(a * b - cc * cc, 0.0))


def area(u: DiscreteMap) -> float:
    return _integral(u.domain, [jacobian_density(*chart_differential(u, c))
                                for c in range(u.n_charts)])


def _integral(dom, densities) -> float:
    """Sum over the charts of a per-chart density, partition-weighted."""
    return float(sum(np.sum(w * d) for w, d in zip(chart_weights(dom), densities)))


@dataclass(frozen=True)
class Measure:
    """Per chart the energy and Jacobian densities of a map, and their
    integrals, bit for bit the `energy` and `area` of the map."""

    energy_density: tuple
    jacobian_density: tuple
    energy: float
    area: float


def measure(u: DiscreteMap) -> Measure:
    """The map's Measure, from one `chart_differential` per chart and its
    three row_dots, shared by both densities."""
    ed, jd = [], []
    for c in range(u.n_charts):
        ux, uy = chart_differential(u, c)
        a, b = row_dot(ux, ux), row_dot(uy, uy)
        ed.append(0.5 * (a + b))
        jd.append(_jacobian(a, b, row_dot(ux, uy)))
    return Measure(tuple(ed), tuple(jd), _integral(u.domain, ed),
                   _integral(u.domain, jd))


def c0_w12_distance(u: DiscreteMap, v: DiscreteMap) -> float:
    """Sup-norm plus W^{1,2}-norm distance (the continuity norm for sweepouts)."""
    if u.domain is not v.domain and u.domain.descriptor() != v.domain.descriptor():
        raise DomainMismatch("maps live on different domains")
    dom = u.domain
    sup = 0.0
    l2 = 0.0
    grad = 0.0
    aw = dom.area_weights if isinstance(dom, SphereDomain) else [dom.flat_weights]
    for c, w in enumerate(chart_weights(dom)):
        d = u.values[c] - v.values[c]
        sup = max(sup, float(np.max(np.linalg.norm(d, axis=-1))))
        l2 += float(np.sum(aw[c] * np.sum(d * d, -1)))
        dv = DiscreteMap(dom, u.target, [d if k == c else np.zeros_like(d)
                                         for k in range(u.n_charts)])
        ux, uy = chart_differential(dv, c)
        grad += float(np.sum(w * (np.sum(ux * ux, -1) + np.sum(uy * uy, -1))))
    return sup + np.sqrt(l2 + grad)


# ---------------------------------------------------------------------------
# balls and families

@dataclass(frozen=True)
class Ball:
    """Disk in one stereographic chart; rho*B shares the center, scales radius."""

    chart: int
    center: tuple
    radius: float

    def scaled(self, rho: float) -> "Ball":
        return Ball(self.chart, self.center, self.radius * rho)

    def cap(self, dom: SphereDomain):
        """Spherical cap (axis, angular radius) the chart disk bounds,
        memoized on the domain; the axis array is read-only."""
        return dom.memoized(("cap", self), lambda: self._cap(dom))

    def _cap(self, dom: SphereDomain):
        cx, cy = self.center
        ang = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        ring = dom.chart_to_sphere(self.chart,
                                   cx + self.radius * np.cos(ang),
                                   cy + self.radius * np.sin(ang))
        nrm = np.cross(ring[1] - ring[0], ring[2] - ring[0])
        nrm /= np.linalg.norm(nrm)
        d = float(nrm @ ring[0])
        inside = dom.chart_to_sphere(self.chart, np.array(cx), np.array(cy))
        if float(nrm @ inside) < d:
            nrm, d = -nrm, -d
        return domains.frozen(nrm), float(np.arccos(np.clip(d, -1.0, 1.0)))


class BallFamily(list):
    """Finitely many balls with pairwise disjoint closures."""

    def validate(self, dom: SphereDomain):
        caps = [b.cap(dom) for b in self]
        for i in range(len(caps)):
            for j in range(i + 1, len(caps)):
                ni, ti = caps[i]
                nj, tj = caps[j]
                sep = np.arccos(np.clip(ni @ nj, -1.0, 1.0))
                if sep <= ti + tj:
                    raise OverlapViolation(f"balls {i} and {j} are not disjoint")
        return self

    def scaled(self, rho: float) -> "BallFamily":
        return BallFamily(b.scaled(rho) for b in self)


def ball_box(dom, b: Ball):
    """The ball's grid footprint: a box (a pair of index slices) reaching one
    node past the ball, clipped to the grid, and the ball's nodes on it."""
    (cx, cy), r, x0, n = b.center, b.radius, dom.axis[0], len(dom.axis)
    box = tuple(slice(max(math.floor((c - r - x0) / dom.h) - 1, 0),
                      min(max(math.ceil((c + r - x0) / dom.h) + 2, 0), n))
                for c in (cx, cy))
    return box, (dom.X[box] - cx) ** 2 + (dom.Y[box] - cy) ** 2 <= r * r


def ball_mask(dom, b: Ball):
    """The ball's nodes on the whole grid."""
    box, mask = ball_box(dom, b)
    full = np.zeros(dom.X.shape, bool)
    full[box] = mask
    return full


def ball_fits_chart(dom: SphereDomain, b: Ball) -> bool:
    """The ball stays three grid cells inside the chart square."""
    cx, cy = b.center
    lim = dom.half_width - 3 * dom.h
    return max(abs(cx), abs(cy)) + b.radius <= lim


def ball_in_pure_region(dom: SphereDomain, b: Ball) -> bool:
    """Cap avoids the partition blending band, so its quadrature is single-chart."""
    n, theta = b.cap(dom)
    alpha = np.arccos(np.clip(n[2], -1.0, 1.0))  # axis angle from north pole
    zmax = np.cos(max(0.0, alpha - theta))
    zmin = np.cos(min(np.pi, alpha + theta))
    if b.chart == 0:
        return zmax <= -dom.band
    return zmin >= dom.band


# ---------------------------------------------------------------------------
# Moebius transformations

def _homog(pts):
    """Chart-0 homogeneous coordinates (a : b), w = a/b, robust at both poles."""
    pts = np.asarray(pts, float)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    near_north = z > 0.5
    a = np.where(near_north, 1.0 + z, x + 1j * y)
    b = np.where(near_north, x - 1j * y, 1.0 - z)
    return a, b


def _from_homog(a, b):
    den = np.abs(a) ** 2 + np.abs(b) ** 2
    w = 2.0 * a * np.conj(b) / den
    z = (np.abs(a) ** 2 - np.abs(b) ** 2) / den
    return np.stack([w.real, w.imag, z], axis=-1)


@dataclass(frozen=True)
class Mobius:
    """Conformal self-map of the sphere as a 2x2 complex matrix acting on
    chart-0 homogeneous coordinates."""

    m: np.ndarray

    def apply(self, pts):
        a, b = _homog(pts)
        return _from_homog(self.m[0, 0] * a + self.m[0, 1] * b,
                           self.m[1, 0] * a + self.m[1, 1] * b)


def mobius_as_map(dom: SphereDomain, mob: Mobius, target) -> DiscreteMap:
    """Exact node evaluation of a Moebius self-map, carried onto the target."""
    vals = [mob.apply(dom.points[c]) * target.semi_axes for c in (0, 1)]
    return DiscreteMap(dom, target, vals)


# ---------------------------------------------------------------------------
# mollification

def _mollifier_lattice():
    """Fixed 5x5x5 lattice quadrature of the bump (1-|y|^2)^3 on the unit ball."""
    ax = np.linspace(-1.0, 1.0, 5)
    Yx, Yy, Yz = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([Yx, Yy, Yz], -1).reshape(-1, 3)
    s2 = np.sum(pts * pts, -1)
    keep = s2 < 1.0
    pts = pts[keep]
    w = (1.0 - s2[keep]) ** 3
    return pts, w / w.sum()


_MOLL_PTS, _MOLL_W = _mollifier_lattice()


def mollify(u: DiscreteMap, r: float) -> DiscreteMap:
    """Average u over the sphere moves x -> (x - y)/|x - y|, |y| < r, with a
    fixed radial bump weight, then project back to the target."""
    dom = u.domain
    if not isinstance(dom, SphereDomain):
        raise DomainMismatch("mollify is defined for sphere-domain maps")
    if not (0.0 < r < 1.0):
        raise ValueError("mollification radius must lie in (0, 1)")
    target = u.target
    out = []
    for c in (0, 1):
        pts = dom.points[c]
        acc = np.zeros_like(u.values[c])
        for y, w in zip(_MOLL_PTS * r, _MOLL_W):
            q = pts - y
            q /= np.linalg.norm(q, axis=-1, keepdims=True)
            acc += w * dom.evaluate(u.values, q)
        dist = target.distance(acc)
        if np.max(dist) >= target.tubular_radius:
            raise TubeEscape(f"averaged values {np.max(dist):.3g} from the target")
        try:
            out.append(target.project(acc))
        except OutsideTube as e:
            raise TubeEscape(str(e)) from e
    return sync_owner(DiscreteMap(dom, target, out))


# ---------------------------------------------------------------------------
# collar interpolation between boundary traces

@dataclass
class CollarResult:
    rho: float
    radii: np.ndarray      # (17,)
    values: np.ndarray     # (17, m, N) on the annulus, row 0 at R - rho
    gradient_integral: float   # ∫ |∇w|²
    bound: float               # 17√2 (∫(|f'|²+|g'|²))^½ (∫|f'-g'|²)^½
    ratio: float


def fft_theta_derivative(f):
    """d/dtheta of a trace sampled at theta_k = 2 pi k / m along axis 0,
    exact for trigonometric polynomials of degree below m / 2."""
    m = f.shape[0]
    k = np.fft.rfftfreq(m, d=1.0 / m)
    F = np.fft.rfft(f, axis=0)
    return np.fft.irfft(1j * k[:, None] * F, n=m, axis=0)


def collar_interpolate(f, g, R: float, target: EmbeddedManifold) -> CollarResult:
    """Annulus map w on B_R \\ B_{R-rho} with w(R-rho,.) = f and w(R,.) = g,
    sampled on 17 radii.

    f, g: (m, N) arrays sampled at theta_k = 2 pi k / m, mapping to the target
    and agreeing at at least one sample.  All trace integrals are the
    scale-invariant d/dtheta forms.
    """
    f = np.asarray(f, float)
    g = np.asarray(g, float)
    m = f.shape[0]
    dtheta = 2 * np.pi / m
    if float(np.min(np.linalg.norm(f - g, axis=-1))) > 1e-9 * (1 + np.abs(f).max()):
        raise NoCommonPoint("traces nowhere agree")
    fp = fft_theta_derivative(f)
    gp = fft_theta_derivative(g)
    i_diff = float(np.sum((fp - gp) ** 2)) * dtheta
    i_sum = float(np.sum(fp**2) + np.sum(gp**2)) * dtheta
    tau = target.safe_tubular_radius / np.sqrt(2 * np.pi)
    if i_diff > tau * tau:
        raise TraceTooFar(f"trace derivative gap {i_diff:.3e} exceeds {tau*tau:.3e}")
    rho = R * np.sqrt(i_diff / (8.0 * i_sum)) if i_sum > 0 else 0.0
    rho = min(rho, R / 2.0)
    radii = np.linspace(R - rho, R, 17)
    s = np.linspace(0.0, 1.0, len(radii))[:, None, None]
    w = f[None] + s * (g - f)[None]
    if rho > 0:
        w[1:-1] = target.project(w[1:-1])
    w[0], w[-1] = f.copy(), g.copy()
    if rho <= 1e-300:
        grad = 0.0
    else:
        dr = radii[1] - radii[0]
        wr = d_axis(w, dr, 0)
        wt = d_axis_periodic(w, dtheta, 1)
        dens = np.sum(wr * wr, -1) + np.sum(wt * wt, -1) / radii[:, None] ** 2
        rw = radii[:, None] * np.ones((1, m)) * dr * dtheta
        rw[0] *= 0.5
        rw[-1] *= 0.5
        grad = float(np.sum(dens * rw))
    bound = 17.0 * np.sqrt(2.0) * np.sqrt(i_sum * i_diff)
    ratio = grad / bound if bound > 0 else 0.0
    return CollarResult(float(rho), radii, w, grad, float(bound), float(ratio))
