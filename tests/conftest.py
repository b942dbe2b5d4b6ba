import numpy as np
import pytest

from widthlab import dmap as dm
from widthlab.domains import SphereDomain, _cr_weights, bump_weight
from widthlab.manifold import round_sphere


@pytest.fixture(scope="session")
def dom():
    return SphereDomain()


@pytest.fixture(scope="session")
def s2():
    return round_sphere(2, 1.0)


@pytest.fixture(scope="session")
def s3():
    return round_sphere(3, 1.0)


def reference_catmullrom(grid, xs0, h, px, py):
    """Bicubic (Catmull-Rom) sampling as it was first written, preparing its
    indices and weights on every call: the reference the prepared stencils
    of `domains` must equal bit for bit."""
    g = np.asarray(grid)
    n = g.shape[0]
    fx = np.clip((np.asarray(px) - xs0) / h, 1.0, n - 2.000001)
    fy = np.clip((np.asarray(py) - xs0) / h, 1.0, n - 2.000001)
    i = fx.astype(int)
    j = fy.astype(int)
    wx = _cr_weights((fx - i)[..., None])
    wy = _cr_weights((fy - j)[..., None])
    flat = g.reshape(n, n, -1)
    acc = 0.0
    for a in range(4):
        row = 0.0
        for b in range(4):
            row = row + flat[i + a - 1, j + b - 1] * wy[b]
        acc = acc + row * wx[a]
    return acc.reshape(np.shape(px) + g.shape[2:])


@pytest.fixture(scope="session")
def identity_map(dom, s2):
    return dm.identity_sphere_map(dom, s2)


def constant_sphere_map(dom, target, point):
    """The map with the value `point` at every node of both charts."""
    p = np.asarray(point, float)
    vals = [np.broadcast_to(p, dom.points[c].shape[:2] + p.shape).copy() for c in (0, 1)]
    return dm.DiscreteMap(dom, target, vals)


def edge_energy(values, wx=1.0, wy=1.0, periodic_y=False):
    """First-difference energy 0.5 * sum of weighted squared edge jumps: the
    reference the solver's block energies must equal bit for bit."""
    v = np.asarray(values, float)
    dx = v[1:, :] - v[:-1, :]
    dy = v[:, 1:] - v[:, :-1]
    e = wx * np.sum(dx * dx) + wy * np.sum(dy * dy)
    if periodic_y:
        seam = v[:, 0] - v[:, -1]
        e += wy * np.sum(seam * seam)
    return 0.5 * e


def conformality_defect(u):
    """L1 size of the off-conformal part of the differential; 0 iff energy = area."""
    total = 0.0
    for c, w in enumerate(dm.chart_weights(u.domain)):
        ux, uy = dm.chart_differential(u, c)
        cross = np.sum(ux * uy, -1)
        aniso = 0.5 * (np.sum(ux * ux, -1) - np.sum(uy * uy, -1))
        total += float(np.sum(w * np.sqrt(cross**2 + aniso**2)))
    return total


def chart0_bump_map(dom, s2, center=(0.1, -0.05), width=0.06, amp=0.25,
                    direction=(0.3, -0.2, 0.9), sync=True):
    """Identity plus a compactly supported chart-0 bump, projected back."""
    vec = np.asarray(direction, float)

    def fn(p):
        w = bump_weight(*SphereDomain.sphere_to_chart(0, p), center, width)
        return p + amp * w[..., None] * vec

    return dm.sphere_map(dom, s2, fn, sync=sync)


@pytest.fixture(scope="session")
def bump_map(dom, s2):
    return chart0_bump_map(dom, s2)
