"""Compact target manifolds embedded in Euclidean space.

Each kind carries a nearest-point projection, tubular-neighborhood radii,
a second-fundamental-form bound, and its normal-space projectors.  All
kinds are analytic (round sphere, ellipsoid, affine subspace); projections
are closed form but the ellipsoid's, a fixed count of Newton steps on its
Lagrange multiplier.  A target's shape is its `semi_axes`, the diagonal map
that carries the unit sphere onto it; a kind with none raises KindUnknown.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import KindUnknown, OutsideTube


@dataclass(frozen=True)
class EmbeddedManifold:
    """Base class; use the round_sphere / ellipsoid / affine_subspace constructors."""

    kind: str
    dim: int
    ambient_dim: int
    tubular_radius: float        # inward well-posedness margin for projection
    safe_tubular_radius: float   # half of the above; |dΠ|² ≤ 2 holds inside
    sff_bound: float             # sup |A| over the manifold

    # -- interface -----------------------------------------------------
    def project(self, x):
        raise NotImplementedError

    def distance(self, x):
        raise NotImplementedError

    def normal_space_projector(self, x):
        """(..., N, N) orthogonal projector onto the normal space at x ∈ M."""
        raise NotImplementedError

    @property
    def semi_axes(self) -> tuple:
        """The diagonal map that carries the unit sphere onto the target."""
        raise KindUnknown(f"a {self.kind} target is no image of the unit sphere")

    def descriptor(self) -> dict:
        raise NotImplementedError


def row_dot(a, b):
    """Sum over the last axis of a * b, bit for bit np.sum(a * b, -1).

    numpy sums a row of fewer than 8 terms left to right after 0.0, one
    row at a time; here the product is taken once and its columns are
    added in that order, all rows at once.  Rows of 8 or more terms, which
    numpy sums in another order, go to numpy."""
    p = a * b
    if p.shape[-1] >= 8:
        return np.add.reduce(p, axis=-1)
    out = p[..., 0] + 0.0  # np.sum starts from 0.0, which turns -0.0 into 0.0
    for k in range(1, p.shape[-1]):
        out += p[..., k]
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundSphere(EmbeddedManifold):
    radius: float = 1.0

    def project(self, x):
        x = np.asarray(x, float)
        if x.ndim == 1:  # one point: a row of one, so r below is an array
            return self.project(x[None])[0]
        r = row_dot(x, x)
        np.sqrt(r, out=r)  # np.linalg.norm(x, axis=-1), bit for bit
        inner = self.radius - self.tubular_radius
        if r.size and np.fmin.reduce(r, axis=None) <= inner:  # NaN passes, as by <=
            raise OutsideTube(f"point(s) within {inner:.3g} of the center")
        np.divide(self.radius, r, out=r)
        return x * r[..., None]

    def distance(self, x):
        x = np.asarray(x, float)
        return np.abs(np.sqrt(row_dot(x, x)) - self.radius)

    def normal_space_projector(self, x):
        x = np.asarray(x, float)
        n = x / np.sqrt(row_dot(x, x))[..., None]
        return n[..., :, None] * n[..., None, :]

    @property
    def semi_axes(self):
        return (self.radius,) * self.ambient_dim

    def descriptor(self):
        return {"kind": "sphere", "dim": self.dim, "radius": self.radius}


def round_sphere(dim: int, radius: float = 1.0) -> RoundSphere:
    kappa = 1.0 / radius
    return RoundSphere(
        kind="sphere",
        dim=dim,
        ambient_dim=dim + 1,
        tubular_radius=0.9 / kappa,
        safe_tubular_radius=0.45 / kappa,
        sff_bound=np.sqrt(dim) / radius,
        radius=radius,
    )


# ---------------------------------------------------------------------------


# Newton steps of `Ellipsoid.project`: 5 settle the tube of nine ellipsoids of
# aspect up to 10, 6 their points at twice the largest semi-axis (test_manifold.py).
NEWTON_STEPS = 6


@dataclass(frozen=True)
class Ellipsoid(EmbeddedManifold):
    semi_axes: tuple = (1.0, 1.0, 1.0)
    _axes2: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_axes2", np.asarray(self.semi_axes, float) ** 2)

    def _nearest(self, x):
        """(p, λ, |x - p|): the nearest point p_i = x_i a_i² / (a_i² + λ), with
        λ < 0 inside, the root of ψ(λ) = (Σ p_i²/a_i²)^(-1/2) - 1 in (-min a², ∞).
        ψ is increasing, concave and linear on a sphere, so Newton from 0 is
        below the root after one step, then climbs to it; no step goes over
        half the way down to -min a².  OutsideTube if p misses the target by
        over 1e-13."""
        a2 = self._axes2
        pole = -a2.min()
        c = x * x * a2
        lam = np.zeros(x.shape[:-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(NEWTON_STEPS):
                w = 1.0 / (a2 + lam[..., None])
                r = c * w * w
                f = np.add.reduce(r, -1)
                r *= w
                step = lam + f * (np.sqrt(f) - 1.0) / np.add.reduce(r, -1)
                lam = np.maximum(step, 0.5 * (lam + pole))
            g = x / (a2 + lam[..., None])  # p / a²
        p = g * a2
        if not np.all(np.abs(row_dot(p, g) - 1.0) <= 1e-13):
            raise OutsideTube("no nearest point within the Newton steps")
        return p, lam, np.abs(lam) * np.sqrt(row_dot(g, g))

    def project(self, x):
        p, lam, d = self._nearest(np.asarray(x, float))
        if np.any((lam < 0) & (d >= self.tubular_radius)):
            raise OutsideTube("point(s) inside the inward reach margin")
        return p

    def distance(self, x):
        return self._nearest(np.asarray(x, float))[2]

    def normal_space_projector(self, x):
        x = np.asarray(x, float)
        g = x / self._axes2  # gradient of the defining quadric (up to 2)
        n = g / np.linalg.norm(g, axis=-1, keepdims=True)
        return n[..., :, None] * n[..., None, :]

    def descriptor(self):
        return {"kind": "ellipsoid", "semi_axes": list(self.semi_axes)}


def ellipsoid(semi_axes) -> Ellipsoid:
    ax = np.asarray(semi_axes, float)
    kappa = ax.max() / ax.min() ** 2  # max principal curvature
    dim = len(ax) - 1
    return Ellipsoid(
        kind="ellipsoid",
        dim=dim,
        ambient_dim=len(ax),
        tubular_radius=0.45 / kappa,
        safe_tubular_radius=0.225 / kappa,
        sff_bound=float(np.sqrt(2.0) * kappa),
        semi_axes=tuple(float(a) for a in ax),
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineSubspace(EmbeddedManifold):
    """span(e_1..e_dim) inside R^ambient_dim; projection zeroes trailing coords."""

    def project(self, x):
        x = np.asarray(x, float).copy()
        x[..., self.dim:] = 0.0
        return x

    def distance(self, x):
        x = np.asarray(x, float)
        return np.linalg.norm(x[..., self.dim:], axis=-1)

    def normal_space_projector(self, x):
        x = np.asarray(x, float)
        pn = np.zeros(x.shape[:-1] + (self.ambient_dim, self.ambient_dim))
        idx = np.arange(self.dim, self.ambient_dim)
        pn[..., idx, idx] = 1.0
        return pn

    def descriptor(self):
        return {"kind": "affine", "dim": self.dim, "ambient_dim": self.ambient_dim}


def affine_subspace(dim: int, ambient_dim: int) -> AffineSubspace:
    return AffineSubspace(
        kind="affine",
        dim=dim,
        ambient_dim=ambient_dim,
        tubular_radius=np.inf,
        safe_tubular_radius=np.inf,
        sff_bound=0.0,
    )


def from_descriptor(desc: dict) -> EmbeddedManifold:
    kind = desc["kind"]
    if kind == "sphere":
        return round_sphere(int(desc["dim"]), float(desc.get("radius", 1.0)))
    if kind == "ellipsoid":
        return ellipsoid(desc["semi_axes"])
    if kind == "affine":
        return affine_subspace(int(desc["dim"]), int(desc["ambient_dim"]))
    raise ValueError(f"unknown manifold kind {kind!r}")
