"""Discretized map domains: the two-chart sphere and flat cylinders.

The 2-sphere is covered by two stereographic charts (projection from the
north pole and from the south pole, the latter orientation-flipped so the
transition is w -> 1/w).  Each chart is a uniform n x n grid on the square
[-L, L]^2 with L > 1, so the charts overlap in an equatorial band.  A
smooth partition of unity in the height z blends the two quadratures;
because energy, area and the conformality defect are conformally covariant
in two dimensions, all of them reduce to flat integrals in chart
coordinates weighted by the partition alone.

Charts exchange values by bicubic Catmull-Rom interpolation.  Where the
points depend only on the domain, the interpolation is prepared once as a
stencil (`catmullrom_stencil`, flat node indices and kernel weights) and
applied to each grid by `interpolate`: the owner-chart refresh sets of
`SphereDomain.owner_refresh` and the ball-cap refresh sets in the domain's
memo hold their stencils.  `catmullrom` prepares and applies in one call,
for points that move from call to call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def smoothstep(t):
    """Quintic smoothstep, C^2 at the junctions."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def d_axis(values, h, axis):
    """4th-order centered derivative, degrading to 2nd order near edges.
    The interior stencil runs on the flat buffer of np.empty_like(values),
    where a step along the axis is a fixed offset; where it reaches into
    another row, the four edge rows written after it overwrite the result."""
    v = np.asarray(values, float)
    n = v.shape[axis]
    lead = (slice(None),) * (axis % v.ndim)

    def at(a, b):  # rows a:b of the derivative axis
        return lead + (slice(a, b),)

    out = np.empty_like(v)
    if n >= 5:
        src = v if v.strides == out.strides else v.copy(order="K")
        flat, o = src.ravel(order="K"), out.ravel(order="K")
        s = out.strides[axis] // out.itemsize
        m = len(flat) - 4 * s
        t, c = o[2 * s:2 * s + m], np.multiply(flat[3 * s:3 * s + m], 8.0)
        np.multiply(flat[s:s + m], 8.0, out=t)
        np.subtract(flat[:m], t, out=t)
        t += c
        t -= flat[4 * s:]
        t /= 12.0 * h
        out[at(1, 2)] = (v[at(2, 3)] - v[at(0, 1)]) / (2.0 * h)
        out[at(-2, -1)] = (v[at(-1, None)] - v[at(-3, -2)]) / (2.0 * h)
    elif n >= 3:
        out[at(1, -1)] = (v[at(2, None)] - v[at(None, -2)]) / (2.0 * h)
    out[at(0, 1)] = (-3.0 * v[at(0, 1)] + 4.0 * v[at(1, 2)] - v[at(2, 3)]) / (2.0 * h)
    out[at(-1, None)] = (3.0 * v[at(-1, None)] - 4.0 * v[at(-2, -1)]
                         + v[at(-3, -2)]) / (2.0 * h)
    return out


def d_axis_periodic(values, h, axis):
    """4th-order centered derivative on a periodic axis."""
    v = np.moveaxis(np.asarray(values, float), axis, 0)
    m2, m1 = np.roll(v, 2, 0), np.roll(v, 1, 0)
    p1, p2 = np.roll(v, -1, 0), np.roll(v, -2, 0)
    out = (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def bump_weight(X, Y, center, width):
    """Compact bump (1 - d^2)^3, d the distance to `center` in units of
    `width`, at chart coordinates (X, Y); zero at non-finite coordinates."""
    cx, cy = center
    d2 = ((X - cx) ** 2 + (Y - cy) ** 2) / width ** 2
    return np.where(d2 < 1, (1 - np.minimum(d2, 1)) ** 3, 0.0)


def _cr_weights(t):
    """Catmull-Rom cubic kernel weights for offsets -1, 0, 1, 2."""
    t2 = t * t
    t3 = t2 * t
    return (-0.5 * t3 + t2 - 0.5 * t,
            1.5 * t3 - 2.5 * t2 + 1.0,
            -1.5 * t3 + 2.0 * t2 + 0.5 * t,
            0.5 * t3 - 0.5 * t2)


def catmullrom_stencil(n, xs0, h, px, py):
    """The Catmull-Rom sampling of an n x n grid with first node xs0 and
    spacing h at points (px, py), prepared once for any number of grids:
    arrays (corner, wx, wy), `corner` the int32 flat grid index of the first
    of each point's 4 x 4 nodes, `wx` and `wy` (4, *points, 1) the kernel
    weights of its rows and columns."""
    fx = np.clip((np.asarray(px) - xs0) / h, 1.0, n - 2.000001)
    fy = np.clip((np.asarray(py) - xs0) / h, 1.0, n - 2.000001)
    i = fx.astype(np.int32)
    j = fy.astype(np.int32)
    return ((i - 1) * n + (j - 1), np.stack(_cr_weights((fx - i)[..., None])),
            np.stack(_cr_weights((fy - j)[..., None])))


def interpolate(grid, stencil):
    """Sample grid (n, n, ...) through a `catmullrom_stencil`, gathering one
    node term at a time."""
    corner, wx, wy = stencil
    g = np.asarray(grid)
    n = g.shape[0]
    flat = g.reshape(n * n, -1)
    acc = 0.0
    for a in range(4):
        row = 0.0
        for b in range(4):
            row = row + flat.take(corner + (a * n + b), axis=0) * wy[b]
        acc = acc + row * wx[a]
    return acc.reshape(corner.shape + g.shape[2:])


def catmullrom(grid, xs0, h, px, py):
    """Bicubic (Catmull-Rom) sampling of grid (n, n, ...) at points (px, py)."""
    return interpolate(grid, catmullrom_stencil(np.shape(grid)[0], xs0, h, px, py))


def frozen(a):
    """`a`, made read-only so a cached array cannot be changed through it."""
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------


@dataclass
class SphereDomain:
    """Two-chart stereographic discretization of the round unit 2-sphere."""

    n: int = 129
    half_width: float = 1.25
    band: float = 0.12  # partition-of-unity half-height in z

    axis: np.ndarray = field(init=False, repr=False)
    h: float = field(init=False)
    X: np.ndarray = field(init=False, repr=False)
    Y: np.ndarray = field(init=False, repr=False)
    points: list = field(init=False, repr=False)        # per chart (n,n,3)
    flat_weights: list = field(init=False, repr=False)  # pu * h^2
    area_weights: list = field(init=False, repr=False)  # pu * lam^2 * h^2
    memo: dict = field(init=False, repr=False, compare=False,
                       default_factory=dict)  # see `memoized`

    def __post_init__(self):
        L, n = self.half_width, self.n
        self.axis = np.linspace(-L, L, n)
        self.h = self.axis[1] - self.axis[0]
        self.X, self.Y = np.meshgrid(self.axis, self.axis, indexing="ij")
        r2 = self.X**2 + self.Y**2
        lam2 = (2.0 / (1.0 + r2)) ** 2
        self.points, self.flat_weights, self.area_weights = [], [], []
        for c in (0, 1):
            p = self.chart_to_sphere(c, self.X, self.Y)
            pu = self.partition(c, p[..., 2])
            self.points.append(p)
            self.flat_weights.append(pu * self.h**2)
            self.area_weights.append(pu * lam2 * self.h**2)

    # -- charts ---------------------------------------------------------
    @staticmethod
    def chart_to_sphere(c, X, Y):
        r2 = X**2 + Y**2
        d = 1.0 + r2
        if c == 0:
            return np.stack([2 * X / d, 2 * Y / d, (r2 - 1.0) / d], axis=-1)
        return np.stack([2 * X / d, -2 * Y / d, (1.0 - r2) / d], axis=-1)

    @staticmethod
    def sphere_to_chart(c, p):
        p = np.asarray(p, float)
        x, y, zz = p[..., 0], p[..., 1], p[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            if c == 0:
                d = 1.0 - zz
                return x / d, y / d
            d = 1.0 + zz
            return x / d, -y / d

    def partition(self, c, zvals):
        s = smoothstep((np.asarray(zvals) + self.band) / (2.0 * self.band))
        return s if c == 1 else 1.0 - s

    @staticmethod
    def owner_chart(p):
        """Chart whose projection pole is farther from p (0 south, 1 north)."""
        return (np.asarray(p)[..., 2] > 0.0).astype(int)

    # -- cross-chart geometry, computed on first use --------------------
    @cached_property
    def node_owner(self):
        """Per chart c: the owner chart of each of its nodes."""
        return tuple(frozen(self.owner_chart(p)) for p in self.points)

    @cached_property
    def cross_coords(self):
        """Per chart c: the coordinates (X, Y) of its nodes in chart 1 - c."""
        return tuple(tuple(frozen(a) for a in self.sphere_to_chart(1 - c, self.points[c]))
                     for c in (0, 1))

    @cached_property
    def cross_safe(self):
        """Per chart c: the nodes that chart 1 - c can interpolate safely."""
        safe = self.interp_safe_radius()
        return tuple(frozen(np.hypot(X, Y) <= safe) for X, Y in self.cross_coords)

    @cached_property
    def owner_refresh(self):
        """Per chart c: the `refresh_stencil` of the chart 1 - c nodes that
        chart c owns, the nodes `dmap.sync_owner` refreshes from c and
        `dmap.overlap_disagreement` compares with c."""
        return tuple(self.refresh_stencil(c, self.node_owner[1 - c] == c) for c in (0, 1))

    def refresh_stencil(self, c, mask):
        """How chart c refreshes the nodes of chart 1 - c that `mask`
        selects and c can interpolate safely: read-only (rows, columns,
        corner, wx, wy), the nodes' int32 rows and columns in row-major
        order, as boolean masks select them, and the `catmullrom_stencil`
        of chart c at them."""
        ii, jj = (a.astype(np.int32) for a in np.nonzero(self.cross_safe[1 - c] & mask))
        X, Y = self.cross_coords[1 - c]
        stencil = catmullrom_stencil(self.n, self.axis[0], self.h, X[ii, jj], Y[ii, jj])
        return tuple(frozen(a) for a in (ii, jj) + stencil)

    def memoized(self, key, build):
        """The value stored under `key`, built by `build()` on first use.

        The store holds geometry that depends only on this domain and the
        key (ball caps, other-chart refresh sets with their prepared
        Catmull-Rom stencils, candidate lattices, hot-seed balls, trial-ball
        solve blocks and the edge lists of their shapes), lives as long as
        the domain, and starts empty.  The owner charts' refresh sets are
        not stored here but in `owner_refresh`, computed on first use like
        the other cross-chart geometry."""
        try:
            return self.memo[key]
        except KeyError:
            return self.memo.setdefault(key, build())

    def sample_chart(self, values_c, px, py):
        return catmullrom(values_c, self.axis[0], self.h, px, py)

    def evaluate(self, values, pts):
        """Evaluate per-chart node `values` at arbitrary sphere points."""
        pts = np.asarray(pts, float)
        own = self.owner_chart(pts)
        out = None
        for c in (0, 1):
            m = own == c
            if not np.any(m):
                continue
            X, Y = self.sphere_to_chart(c, pts[m])
            v = self.sample_chart(values[c], X, Y)
            if out is None:
                out = np.empty(pts.shape[:-1] + v.shape[len(X.shape):], v.dtype)
            out[m] = v
        return out

    def interp_safe_radius(self):
        return self.half_width - 2 * self.h

    def descriptor(self):
        return {"kind": "sphere2", "n": self.n, "half_width": self.half_width,
                "band": self.band}


@dataclass
class CylinderDomain:
    """Flat product [t0, t1] x S^1, n_t x n_theta grid, periodic in theta."""

    t0: float
    t1: float
    n_t: int = 129
    n_theta: int = 96

    t: np.ndarray = field(init=False, repr=False)
    theta: np.ndarray = field(init=False, repr=False)
    h_t: float = field(init=False)
    h_theta: float = field(init=False)
    flat_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.t = np.linspace(self.t0, self.t1, self.n_t)
        self.theta = np.arange(self.n_theta) * (2 * np.pi / self.n_theta)
        self.h_t = self.t[1] - self.t[0]
        self.h_theta = 2 * np.pi / self.n_theta
        w = np.full((self.n_t, self.n_theta), self.h_t * self.h_theta)
        w[0] *= 0.5
        w[-1] *= 0.5
        self.flat_weights = w

    def descriptor(self):
        return {"kind": "cylinder", "t0": self.t0, "t1": self.t1,
                "n_t": self.n_t, "n_theta": self.n_theta}
