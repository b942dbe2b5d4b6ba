"""Varifold measures of discrete maps, the weighted test-function distance,
the quadratic-form pairing used by the curvature bounds, the degree-two
bubble family, and the points where the energy of a map concentrates.

A map's varifold is the collection (point, unoriented tangent plane,
Jacobian-weighted quadrature mass) over nodes with nondegenerate
differential.  Distances pair the measures against a fixed countable
family of polynomial test functions with geometrically decaying weights;
the family is canonical-but-versioned, so distances are only comparable
at equal family version and truncation order.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import dmap as dm
from .dmap import Ball, DiscreteMap, Mobius
from .domains import SphereDomain
from .errors import DimensionMismatch
from .manifold import round_sphere

J_CUT = 1e-12
FAMILY_VERSION = "v1"


@dataclass
class VarifoldMeasure:
    points: np.ndarray    # (m, N)
    planes: np.ndarray    # (m, N, N) rank-2 orthogonal projectors
    weights: np.ndarray   # (m,)
    ambient_dim: int

    @staticmethod
    def union(*measures) -> "VarifoldMeasure":
        n = measures[0].ambient_dim
        if any(m.ambient_dim != n for m in measures):
            raise DimensionMismatch("measures live in different ambient spaces")
        return VarifoldMeasure(
            np.concatenate([m.points for m in measures]),
            np.concatenate([m.planes for m in measures]),
            np.concatenate([m.weights for m in measures]), n)


def varifold_of_map(u: DiscreteMap) -> VarifoldMeasure:
    """One sample per node carrying positive Jacobian mass."""
    dom = u.domain
    pts, planes, wts = [], [], []
    n_amb = u.values[0].shape[-1]
    for c, w in enumerate(dm.chart_weights(dom)):
        ux, uy = dm.chart_differential(u, c)
        jac = dm.jacobian_density(ux, uy)
        mass = jac * w
        keep = (jac > J_CUT) & (w > 0)
        if not np.any(keep):
            continue
        a = ux[keep]
        b = uy[keep]
        q1 = a / np.linalg.norm(a, axis=-1, keepdims=True)
        b2 = b - np.sum(b * q1, -1, keepdims=True) * q1
        q2 = b2 / np.linalg.norm(b2, axis=-1, keepdims=True)
        proj = q1[..., :, None] * q1[..., None, :] + q2[..., :, None] * q2[..., None, :]
        pts.append(u.values[c][keep])
        planes.append(proj)
        wts.append(mass[keep])
    if not pts:
        z = np.zeros((0, n_amb))
        return VarifoldMeasure(z, np.zeros((0, n_amb, n_amb)), np.zeros(0), n_amb)
    return VarifoldMeasure(np.concatenate(pts), np.concatenate(planes),
                           np.concatenate(wts), n_amb)


# ---------------------------------------------------------------------------
# test functions

def _monomials(n_vars: int, max_deg: int):
    out = [()]
    for d in range(1, max_deg + 1):
        out.extend(combinations_with_replacement(range(n_vars), d))
    return out


@dataclass
class TestFunctionFamily:
    """Products of point monomials (degree <= 3) and plane-projector-entry
    monomials (degree <= 2), the first 64 in graded ordering, sup-normalized
    on a fixed deterministic sample of the manifold's plane bundle."""

    manifold_descriptor: dict
    terms: list          # (point_monomial, plane_monomial, scale)
    version: str = FAMILY_VERSION

    @staticmethod
    def for_manifold(manifold) -> "TestFunctionFamily":
        n = manifold.ambient_dim
        p_mon = _monomials(n, 3)
        q_mon = _monomials(n * n, 2)
        pairs = [(len(a) + len(b), len(a), a, b) for a in p_mon for b in q_mon]
        pairs.sort(key=lambda t: (t[0], -t[1], t[2], t[3]))
        pairs = pairs[:64]
        pts, planes = _normalization_sample(manifold)
        flat = planes.reshape(planes.shape[0], -1)
        terms = []
        for _, _, a, b in pairs:
            vals = np.ones(pts.shape[0])
            for idx in a:
                vals = vals * pts[:, idx]
            for idx in b:
                vals = vals * flat[:, idx]
            sup = float(np.max(np.abs(vals)))
            terms.append((a, b, 1.0 / max(sup, 1e-12)))
        return TestFunctionFamily(manifold.descriptor(), terms)

    def integrals(self, v: VarifoldMeasure) -> np.ndarray:
        """(n_terms,) pairings  integral of h_n against the measure."""
        if v.points.shape[0] == 0:
            return np.zeros(len(self.terms))
        flat = v.planes.reshape(v.planes.shape[0], -1)
        out = np.empty(len(self.terms))
        for k, (a, b, scale) in enumerate(self.terms):
            vals = np.full(v.points.shape[0], scale)
            for idx in a:
                vals = vals * v.points[:, idx]
            for idx in b:
                vals = vals * flat[:, idx]
            out[k] = float(np.dot(vals, v.weights))
        return out


def _normalization_sample(manifold):
    seed_src = f"widthlab-testfam-{FAMILY_VERSION}-{manifold.descriptor()}"
    seed = int(hashlib.sha256(seed_src.encode()).hexdigest()[:8], 16)
    rng = np.random.default_rng(seed)
    n = manifold.ambient_dim
    raw = rng.normal(size=(2048, n))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    scale = 2.0 * max(manifold.semi_axes)
    pts = manifold.project(raw * scale)  # outside the convex kinds: always unique
    pn = manifold.normal_space_projector(pts)
    pt = np.eye(n) - pn
    v1 = np.einsum("kij,kj->ki", pt, rng.normal(size=raw.shape))
    q1 = v1 / np.linalg.norm(v1, axis=-1, keepdims=True)
    v2 = np.einsum("kij,kj->ki", pt, rng.normal(size=raw.shape))
    v2 = v2 - np.sum(v2 * q1, -1, keepdims=True) * q1
    q2 = v2 / np.linalg.norm(v2, axis=-1, keepdims=True)
    planes = q1[:, :, None] * q1[:, None, :] + q2[:, :, None] * q2[:, None, :]
    return pts, planes


def varifold_distance(v0: VarifoldMeasure, v1: VarifoldMeasure,
                      fam: TestFunctionFamily) -> float:
    """Sum over the family of 2^-(n+1)-weighted pairing gaps."""
    if v0.ambient_dim != v1.ambient_dim:
        raise DimensionMismatch("measures live in different ambient spaces")
    i0 = fam.integrals(v0)
    i1 = fam.integrals(v1)
    w = 0.5 ** (np.arange(len(i0)) + 1)
    return float(np.sum(w * np.abs(i0 - i1)))


# ---------------------------------------------------------------------------
# quadratic-form pairing

def quadratic_form_pairing(u: DiscreteMap, q_field) -> float:
    """Integral over the map of [trace of Q on the target tangent space minus
    Q(normal, normal)], with the normal taken inside the 3-dimensional
    tangent space; Q is a callable points -> (..., N, N)."""
    if u.target.dim != 3:
        raise DimensionMismatch("pairing requires a 3-dimensional target")
    v = varifold_of_map(u)
    if v.points.shape[0] == 0:
        return 0.0
    q = np.asarray(q_field(v.points), float)
    pn = u.target.normal_space_projector(v.points)
    n_amb = u.target.ambient_dim
    pt = np.eye(n_amb) - pn          # tangent-space projector of the target
    tr_m = np.einsum("kij,kji->k", q, pt)
    npl = pt - v.planes              # rank-1: normal direction within TM
    cols = np.linalg.norm(npl, axis=1)
    pick = np.argmax(cols, axis=-1)
    nvec = npl[np.arange(len(pick)), :, pick]
    nvec = nvec / np.linalg.norm(nvec, axis=-1, keepdims=True)
    qnn = np.einsum("ki,kij,kj->k", nvec, q, nvec)
    return float(np.sum(v.weights * (tr_m - qnn)))


# ---------------------------------------------------------------------------
# the degree-two bubble family

def bubble_example(j: int, dom: SphereDomain) -> DiscreteMap:
    """Conformal degree-two self-map z -> z + 1/(jz) in the chart-0
    coordinate, evaluated exactly in homogeneous form on both charts."""
    if j < 1:
        raise ValueError("j must be a positive integer")
    target = round_sphere(2, 1.0)
    vals = []
    for c in (0, 1):
        W = dom.X + 1j * dom.Y
        if c == 0:
            num, den = j * W * W + 1.0, j * W
        else:
            num, den = j + W * W, j * W  # z = 1/w1, cleared denominators
        d2 = np.abs(num) ** 2 + np.abs(den) ** 2
        xy = 2.0 * num * np.conj(den) / d2
        z = (np.abs(num) ** 2 - np.abs(den) ** 2) / d2
        vals.append(np.stack([xy.real, xy.imag, z], axis=-1))
    return DiscreteMap(dom, target, vals)


def inversion_map(dom: SphereDomain) -> DiscreteMap:
    """The bubble limit at the concentration point: z -> 1/z."""
    mob = Mobius(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    return dm.mobius_as_map(dom, mob, round_sphere(2, 1.0))


# ---------------------------------------------------------------------------
# concentration detection

def detect_concentration(u: DiscreteMap, eps_su: float, radii):
    """Points where every test radius keeps at least eps_su of the map's
    energy; clustered to one representative per site."""
    dom = u.domain
    radii = sorted(radii)
    hits = []
    dens = dm.measure(u).energy_density
    for c in (0, 1):
        idx = np.arange(0, dom.n, 4)
        for i in idx:
            for jj in idx:
                cx, cy = float(dom.axis[i]), float(dom.axis[jj])
                if cx * cx + cy * cy > 1.0:  # owner region is enough
                    continue
                conc = min(dm.family_energy(dom, dens, [Ball(c, (cx, cy), r)])
                           for r in radii)
                if conc >= eps_su:
                    hits.append((conc, dom.chart_to_sphere(c, np.array(cx), np.array(cy))))
    hits.sort(key=lambda t: -t[0])
    sites = []
    min_sep = 2 * np.arctan(min(radii))
    for conc, p in hits:
        if all(np.arccos(np.clip(p @ q, -1, 1)) > min_sep for _, q in sites):
            sites.append((conc, np.asarray(p)))
    return [p for _, p in sites]
