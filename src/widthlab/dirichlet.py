"""Manifold-constrained Dirichlet solves and harmonic replacement.

The relaxation is projected nonlinear Gauss-Seidel in red-black order: a
node is replaced by the nearest-point projection of the average of its
grid neighbors, which is the exact pointwise minimizer of the discrete
(first-difference) energy with the neighbors held fixed.  Energy therefore
decreases monotonically per half-sweep, and the node schedule is a fixed
deterministic order.

One kernel, `relax_blocks`, runs that sweep on many independent blocks in
lock step: the blocks share one flat buffer, and each half-sweep is one
gather of the colour's nodes and their neighbours, one update, one
projection and one scatter, through flat indices, across every block still
running.  Each block keeps its own stopping rule and leaves as soon as it
stops, so it gets exactly the bits it gets when relaxed alone; `relax` is
the one-block call.  Two callers run it in lock step.  `trial_replacements`
measures replacement on the trial families of many slices without
replacing: it solves each distinct scaled ball of a slice's families once,
on a copy of the slice's block, the balls of all slices in one call.  It
measures only independent families, where no ball writes a node that
another reads, so a family's drop, the sum of its balls' drops, is the drop
of its replacement.  It reads each slice's `dmap.Measure`: candidate balls
come from its densities, and the families' energy gate is its
`dmap.family_energy`; only `check_small_energy` and the gate of
`harmonic_replace` call `dmap.energy`.  The replacement sampler
`energy_improvement` runs it at half scale, once per tightening iteration,
and `sweepout`'s almost-harmonic check at an eighth.  `relax_balls` is the
second: it solves one ball on each of many maps, as the convexity suite
does with its independent instances.

Two kinds of region are solved on: ball families in the charts of a
sphere-domain map (`solve_dirichlet`, `harmonic_replace`), and value
blocks of flat cylinders, which `certlab` relaxes with `relax` directly,
periodic in the angle.

A block whose own update has become small has its tangential residual
(the tangential part of the discrete Laplacian, largest over the interior)
taken.  It stops, converged, once that is at or under the stated
`SolverSettings.residual_target`, and otherwise sweeps on; only a block cut
off by `max_sweeps` reads unconverged.  Every solve reports its
`SolveInfo` by return value: `relax_blocks` and `relax` return them,
`solve_dirichlet` returns the map with the summed record (converged when
every ball is), `harmonic_replace` one record per ball and
`trial_replacements` one per distinct trial ball.  Nothing is logged on the
side.

Two discrete energies coexist: the public functionals in `dmap` use
high-order centered differences, while the solver's Lyapunov function is
the first-difference (edge) energy it actually minimizes.  Replacement
drops and the convexity/patching diagnostics are reported in the edge
energy, where monotonicity and the linear-case identities are exact.

Small-energy gates apply to curved targets only; for affine targets the
problem is linear and globally convex, so no gate is needed (and the
classical scalar test problems exceed the curved-target threshold).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dmap as dm
from .dmap import Ball, BallFamily, DiscreteMap, ball_box
from .domains import SphereDomain, frozen
from .errors import BoundaryMismatch, EnergyTooLarge
from .manifold import row_dot

@dataclass
class SolverSettings:
    residual_target: float = 5e-5   # converged: tangential residual at the
                                    # stop at or under this absolute level
    max_sweeps: int = 10_000
    small_energy: float = 2.0       # admissible region energy (curved targets)
    overrelax: float = 1.0          # >1: SOR; same fixed point, no per-sweep
                                    # monotonicity, so replacement paths keep 1.0


@dataclass
class SolveInfo:
    sweeps: int
    converged: bool      # residual <= residual_target at a stop on its
                         # update; False only when cut off by max_sweeps
    residual: float      # max tangential Laplacian norm over the interior,
                         # at the stop
    energy_drop: float   # edge energy decrease achieved by the solve


@dataclass
class ReplacementResult:
    map: DiscreteMap
    solves: list  # one SolveInfo per ball, in ball order

    @property
    def energy_drop(self):
        return sum(i.energy_drop for i in self.solves)

    @property
    def converged(self):
        return all(i.converged for i in self.solves)


# ---------------------------------------------------------------------------
# core relaxation on one value block

def masked_grad_square(block, interior):
    """Gradient-square sum over the grid edges incident to the interior set."""
    b = np.asarray(block, float)
    gx = b[1:, :] - b[:-1, :]
    mx = interior[1:, :] | interior[:-1, :]
    gy = b[:, 1:] - b[:, :-1]
    my = interior[:, 1:] | interior[:, :-1]
    return float(np.sum(gx * gx * mx[..., None]) + np.sum(gy * gy * my[..., None]))


def _interior_nodes(interior, periodic_y):
    """Row and column indices of the interior nodes; none may sit on rows 0
    and -1, nor on columns 0 and -1 unless the y axis is periodic."""
    ii, jj = np.nonzero(interior)
    rows, cols = interior.shape
    edge = (ii == 0) | (ii == rows - 1)
    if not periodic_y:
        edge |= (jj == 0) | (jj == cols - 1)
    if np.any(edge):
        raise ValueError("interior nodes on a non-periodic edge of the block")
    return ii, jj


def block_stencil(interior, periodic_y):
    """The flat node indices a sweep of the block gathers, as read-only
    arrays: the colour stencils of `_colour_stencils`, then the block's
    edges as `_block_edges` gives them."""
    return _colour_stencils(interior, periodic_y) + _block_edges(interior.shape, periodic_y)


def _colour_stencils(interior, periodic_y):
    """Per colour, red ((i + j) even) then black, a read-only (5, m) array
    of flat node indices into the block: row 0 holds the interior nodes of
    that colour, rows 1-4 their neighbours above, below, left and right
    (wrapping at the seam when the y axis is periodic)."""
    ii, jj = _interior_nodes(interior, periodic_y)
    cols = interior.shape[1]
    nb = ii * cols + jj + np.array([0, -cols, cols, -1, 1])[:, None]
    if periodic_y:
        nb[3] += cols * (jj == 0)
        nb[4] -= cols * (jj == cols - 1)
    red = ((ii + jj) % 2) == 0
    return frozen(nb[:, red]), frozen(nb[:, ~red])


def _block_edges(shape, periodic_y):
    """The head and tail nodes, as read-only flat indices, of the edges of
    a block of shape (rows, cols): x edges, then y edges, then (periodic y)
    the seam of column 0 against the last, each kind in row-major order;
    and the count of each kind."""
    rows, cols = shape
    first = np.arange(rows) * cols
    x = np.arange(cols, rows * cols)
    y = (first[:, None] + np.arange(1, cols)).ravel()
    heads, tails = [x, y, first], [x - cols, y - 1, first + cols - 1]
    kinds = 3 if periodic_y else 2
    return (frozen(np.concatenate(heads[:kinds])), frozen(np.concatenate(tails[:kinds])),
            tuple(len(h) for h in heads[:kinds]))


def _neighbor_sums(g, wx, wy):
    """wx*(up + down) + wy*(left + right) over a gathered stencil; a weight
    of 1.0 is not multiplied, which leaves every bit as it is."""
    x = g[1] + g[2]
    y = g[3] + g[4]
    if wx != 1.0:
        x *= wx
    if wy != 1.0:
        y *= wy
    x += y
    return x


def _tangential_norms(g, target, wx, wy):
    """Norm of the tangential part of the discrete Laplacian at the nodes of
    a gathered stencil."""
    l_int = _neighbor_sums(g, wx, wy) - 2.0 * (wx + wy) * g[0]
    pn = target.normal_space_projector(g[0])
    tangential = l_int - np.einsum("kij,kj->ki", pn, l_int)
    return np.sqrt(row_dot(tangential, tangential))


class _Layout:
    """Blocks laid out one after another in a flat (nodes, N) buffer, and
    the gather indices of a set of them, their stencils moved to the
    blocks' offsets in the buffer."""

    def __init__(self, blocks):
        self.offsets = np.cumsum([0] + [v.shape[0] * v.shape[1] for v, _ in blocks])
        self.stencils = [st for _, st in blocks]
        self.kinds = len(blocks[0][1][4])

    def _joined(self, blocks, part, axis):
        moved = [self.stencils[k][part] + self.offsets[k] if self.offsets[k]
                 else self.stencils[k][part] for k in blocks]
        return moved[0] if len(moved) == 1 else np.concatenate(moved, axis=axis)

    def colours(self, blocks, ncomp):
        """Per colour, red then black, the colour stencil of the given
        blocks, the buffer's flat indices of its nodes' ncomp components,
        and how to split it by block: None for one block, else a mask of
        the blocks with nodes of that colour and the columns where their
        nodes start."""
        out = []
        for c in (0, 1):
            stencil = self._joined(blocks, c, 1)
            flat = (stencil[0][:, None] * ncomp + np.arange(ncomp)).ravel()
            if len(blocks) == 1:
                out.append((stencil, flat, None))
                continue
            counts = np.array([self.stencils[k][c].shape[1] for k in blocks])
            has = counts > 0
            out.append((stencil, flat, (has, (np.cumsum(counts) - counts)[has])))
        return out

    def edges(self, blocks):
        """The heads and tails of the given blocks' edges stacked in one
        (2, E) index, and the bounds of each block's edge segments."""
        ends = np.stack([self._joined(blocks, c, 0) for c in (2, 3)])
        counts = [m for k in blocks for m in self.stencils[k][4]]
        return ends, np.cumsum([0] + counts).tolist()

    def residuals(self, f, blocks, target, wx, wy):
        """The largest tangential Laplacian norm over each given block's
        interior (0.0 for none), gathered colour by colour."""
        out = np.zeros(len(blocks))
        for c in (0, 1):
            norms = _tangential_norms(f.take(self._joined(blocks, c, 1), axis=0),
                                      target, wx, wy)
            bounds = np.cumsum([0] + [self.stencils[k][c].shape[1] for k in blocks])
            for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                if hi > lo:
                    out[i] = np.maximum(out[i], norms[lo:hi].max())
        return out

    def energies(self, f, edges, wx, wy):
        """The first-difference energy 0.5 * (wx * sum |x jumps|^2 + wy *
        sum |y jumps|^2, seam included) of each block whose edges are given,
        bit for bit np.sum of the block's own jump arrays: each segment of
        squared jumps is summed by `.sum()`, as np.sum sums an array
        (np.add.reduceat sums in another order)."""
        ends, bounds = edges
        d = f.take(ends, axis=0)
        d = d[0] - d[1]
        d *= d
        s = [d[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])]
        k = self.kinds
        if k == 2:
            return np.array([0.5 * (wx * s[i] + wy * s[i + 1])
                             for i in range(0, len(s), k)])
        return np.array([0.5 * ((wx * s[i] + wy * s[i + 1]) + wy * s[i + 2])
                         for i in range(0, len(s), k)])


def relax_blocks(blocks, target, settings: SolverSettings, wx, wy):
    """In-place projected Gauss-Seidel on many independent value blocks in
    lock step.

    blocks: (values, stencil) pairs, values a (rows, cols, N) array and
    stencil its `block_stencil`, all periodic in y or none.  The blocks
    share one flat buffer, so each half-sweep is one gather, one update,
    one `target.project` call and one scatter across every block still
    running, the scatter through flat indices that `_Layout.colours`
    builds each time the running set changes.

    A block's displacement stop is a sweep in which no component of any
    of its nodes moved by more than residual_target * overrelax /
    (2 (wx + wy) sqrt(N)).  An update moves a node by overrelax /
    (2 (wx + wy)) times its Laplacian, so no node then moved by more than
    a residual of residual_target moves it.  The block's tangential
    residual is taken at each displacement stop.  At the first one where
    it is at most residual_target the block stops, converged; a stop that
    misses the target does not end the solve, and the block sweeps on (an
    over-relaxed update can be small while the residual is not).  A block
    still running after max_sweeps stops unconverged, with its residual
    there (taken once, also when its last sweep was a missed stop), so
    converged=False means only "cut off by max_sweeps".  The
    edge energy is taken at entry and exit only, for energy_drop.

    Each block leaves the running set as soon as it stops, so its values
    and its SolveInfo are bit for bit those of relaxing it alone.  Returns
    one SolveInfo per block.
    """
    if not blocks:
        return []
    layout = _Layout(blocks)
    f = np.concatenate([np.reshape(v, (-1, v.shape[-1])) for v, _ in blocks])
    n = len(blocks)
    edges = layout.edges(range(n))
    e0 = layout.energies(f, edges, wx, wy)
    converged = np.array([st[0].shape[1] + st[1].shape[1] == 0 for _, st in blocks])
    residual = np.zeros(n)
    sweeps = np.zeros(n, dtype=int)
    running = np.flatnonzero(~converged)
    om = settings.overrelax
    denom = 2.0 * (wx + wy)
    small = settings.residual_target * om / (denom * np.sqrt(f.shape[1]))
    sweep = 0  # the running blocks all started together
    while len(running):
        colours = layout.colours(running, f.shape[1])
        done = np.zeros(len(running), dtype=bool)
        stop = running[:0]  # the blocks whose residual this sweep took
        while sweep < settings.max_sweeps and not done.any():
            moved = np.zeros(len(running))  # largest component moved, per block
            for c, flat, split in colours:
                if c.shape[1] == 0:
                    continue
                g = f.take(c, axis=0)
                upd = _neighbor_sums(g, wx, wy)
                upd /= denom
                if om != 1.0:
                    upd = (1.0 - om) * g[0] + om * upd
                new = target.project(upd)
                f.reshape(-1)[flat] = new.reshape(-1)
                new -= g[0]
                np.abs(new, out=new)
                if split is None:
                    moved[0] = max(moved[0], new.max())
                else:
                    has, starts = split
                    moved[has] = np.maximum(
                        moved[has], np.maximum.reduceat(new, starts).max(axis=1))
            sweep += 1
            stop = running[moved <= small]
            if len(stop):  # a stop that misses its target sweeps on
                residual[stop] = layout.residuals(f, stop, target, wx, wy)
                converged[stop] = residual[stop] <= settings.residual_target
                done = converged[running]
        if sweep >= settings.max_sweeps:  # the rest is cut off unconverged
            cut = running[~done & ~np.isin(running, stop)]
            if len(cut):
                residual[cut] = layout.residuals(f, cut, target, wx, wy)
            done[:] = True
        sweeps[running[done]] = sweep
        running = running[~done]
    drop = e0 - layout.energies(f, edges, wx, wy)
    for (v, _), o in zip(blocks, layout.offsets):
        v[...] = f[o:o + v.shape[0] * v.shape[1]].reshape(v.shape)
    return [SolveInfo(int(sweeps[k]), bool(converged[k]), float(residual[k]),
                      float(drop[k])) for k in range(n)]


def relax(values, interior, target, settings: SolverSettings,
          wx=1.0, wy=1.0, periodic_y=False):
    """In-place projected Gauss-Seidel on one value block: `relax_blocks`
    on that block alone.

    interior: boolean mask of nodes to solve for; everything else is data.
    Interior nodes must not sit on a non-periodic array edge (ValueError).
    """
    stencil = block_stencil(interior, periodic_y)
    return relax_blocks([(values, stencil)], target, settings, wx, wy)[0]


# ---------------------------------------------------------------------------
# Dirichlet problems on ball families

def _ball_block(dom, b: Ball):
    """The ball's box and its interior mask on that box, with the box edges
    cleared so no interior node sits on them."""
    box, sub = ball_box(dom, b)
    sub[0, :] = sub[-1, :] = False
    sub[:, 0] = sub[:, -1] = False
    return box, sub


class _Block(NamedTuple):
    box: tuple      # the ball's box, as `ball_box` gives it
    stencil: tuple  # the `block_stencil` of `_ball_block`'s interior mask,
                    # edges shared by the blocks of one shape


def _block(dom: SphereDomain, b: Ball) -> _Block:
    """A trial ball's solve block, memoized per domain with read-only
    arrays.  Applied replacements take `_ball_block` and solve through
    `relax`, one ball at a time, since the benchmark's traced
    `dirichlet.relax.ball.*` counters read `relax` calls; not because they
    meet each ball once.  The seed-0 `tighten-coarse` run applies 479 ball
    solves on 141 distinct balls (25 met once), the first `tighten-fine`
    iteration 69 on 12."""
    return dom.memoized(("block", b), lambda: _build_block(dom, b))


def _build_block(dom, b):
    box, sub = _ball_block(dom, b)
    edges = dom.memoized(("edges", sub.shape), lambda: _block_edges(sub.shape, False))
    return _Block(box, _colour_stencils(sub, False) + edges)


def _linear_init(block, interior, settings, target):
    """Componentwise discrete harmonic extension of the boundary data, then
    projected to the target."""
    from .manifold import affine_subspace
    ncomp = block.shape[-1]
    free = affine_subspace(ncomp, ncomp)
    tmp = np.asarray(block, float).copy()
    tmp[interior] = np.mean(block[~interior], axis=0)
    relax(tmp, interior, free, settings)
    block[interior] = target.project(tmp[interior])


def solve_dirichlet(u: DiscreteMap, fam, s: SolverSettings = None, init="copy"):
    """Energy-minimizing map on the balls of `fam` with u's values outside,
    starting from u's interior values (init "copy") or from the projected
    componentwise harmonic extension (init "linear").

    Returns (new DiscreteMap, SolveInfo); per the non-convergence policy the
    best iterate is returned with a flag on the info object.
    """
    s = s or SolverSettings()
    check_small_energy(u, fam, s)
    v = u.copy()
    infos = [_solve_ball(v, b, s, init) for b in fam]
    info = SolveInfo(
        sweeps=sum(i.sweeps for i in infos),
        converged=all(i.converged for i in infos),
        residual=max((i.residual for i in infos), default=0.0),
        energy_drop=sum(i.energy_drop for i in infos),
    )
    return v, info


def check_small_energy(u: DiscreteMap, fam, s: SolverSettings):
    """Raise EnergyTooLarge when u's energy on the balls of `fam` exceeds
    the small-energy bound of `s`; affine targets pass ungated."""
    if u.target.sff_bound > 0:
        e0 = dm.energy(u, fam)
        if e0 > s.small_energy * (1 + 1e-9):
            raise EnergyTooLarge(f"region energy {e0:.4f} > {s.small_energy}")


def relax_balls(pairs, s: SolverSettings):
    """Relax ball b of map u in place for every (u, b) pair, all in one
    `relax_blocks` call, then refresh each map's other chart in pair order.

    With each pair on its own map, each gets the bits that
    `solve_dirichlet(u, [b], s)` gives it alone (no gate, init "copy").
    All maps must have the same target, or ValueError.  Returns one
    SolveInfo per pair.
    """
    if not pairs:
        return []
    target = pairs[0][0].target
    if any(u.target != target for u, _ in pairs):
        raise ValueError("relax_balls takes maps into one target")
    blocks = []
    for u, b in pairs:
        box, sub = _ball_block(u.domain, b)
        blocks.append((u.values[b.chart][box], block_stencil(sub, False)))
    infos = relax_blocks(blocks, target, s, 1.0, 1.0)
    for u, b in pairs:
        _sync_cap(u, b)
    return infos


def _solve_ball(u: DiscreteMap, b: Ball, s: SolverSettings, init="copy"):
    """Solve one chart ball in place on u, then refresh the other chart."""
    box, sub = _ball_block(u.domain, b)
    block = u.values[b.chart][box]
    if init == "linear":
        _linear_init(block, sub, s, u.target)
    info = relax(block, sub, u.target, s)
    _sync_cap(u, b)
    return info


def _sync_cap(u: DiscreteMap, b: Ball):
    """Refresh the other chart inside the ball's cap, and where the ball's
    chart owns a node whose interpolation stencil reaches the ball's box."""
    dm.refresh_nodes(u, b.chart, _refresh_set(u.domain, b))


def _refresh_set(dom: SphereDomain, b: Ball):
    """`_cap_refresh_nodes`, memoized per domain."""
    return dom.memoized(("refresh", b), lambda: _cap_refresh_nodes(dom, b))


def _cap_refresh_nodes(dom: SphereDomain, b: Ball):
    """The other-chart nodes `_sync_cap` refreshes, as the read-only
    `dom.refresh_stencil` that `dm.refresh_nodes` takes."""
    other = 1 - b.chart
    axis, theta = b.cap(dom)
    reach = dom.node_owner[other] == b.chart
    for coord, s in zip(dom.cross_coords[other], ball_box(dom, b)[0]):
        # a Catmull-Rom stencil reads rows floor(f) - 1 .. floor(f) + 2
        f = (coord - dom.axis[0]) / dom.h
        reach &= (f >= s.start - 2) & (f < s.stop + 1)
    in_cap = np.tensordot(dom.points[other], axis, axes=(-1, -1)) >= np.cos(theta)
    return dom.refresh_stencil(b.chart, reach | in_cap)


# ---------------------------------------------------------------------------
# harmonic replacement

def harmonic_replace(u: DiscreteMap, fam, rho: float = 1.0,
                     s: SolverSettings = None) -> ReplacementResult:
    """Replace u inside rho * fam by the energy minimizer with u's boundary
    values; outside, only other-chart nodes interpolating the balls change."""
    s = s or SolverSettings()
    fam = BallFamily(fam if isinstance(fam, (list, BallFamily)) else [fam])
    fam.validate(u.domain)
    scaled = fam.scaled(rho)
    if u.target.sff_bound > 0:
        e_region = dm.energy(u, scaled)
        if e_region > s.small_energy / 3.0 + 1e-12:
            raise EnergyTooLarge(
                f"family energy {e_region:.4f} > {s.small_energy / 3.0:.4f}")
    out = u.copy()
    return ReplacementResult(out, [_solve_ball(out, b, s) for b in scaled])


# ---------------------------------------------------------------------------
# convexity and patching diagnostics

def _boundary_ring(interior):
    grown = interior.copy()
    grown[1:, :] |= interior[:-1, :]
    grown[:-1, :] |= interior[1:, :]
    grown[:, 1:] |= interior[:, :-1]
    grown[:, :-1] |= interior[:, 1:]
    return grown & ~interior


def convexity_gap(u: DiscreteMap, v: DiscreteMap, fam) -> float:
    """D(u) - D(v) - 0.5 D(u - v), with D the gradient-square integral over
    the balls of `fam` in the solver's discretization.  Nonnegative up to
    solver tolerance when v is the small-energy harmonic map with u's
    boundary values; equals exactly 0.5 D(u - v) for affine targets."""
    du = dv = dd = 0.0
    for b in fam:
        box, sub = _ball_block(u.domain, b)
        bu, bv = u.values[b.chart][box], v.values[b.chart][box]
        ring = _boundary_ring(sub)
        if np.any(ring):
            gap = float(np.max(np.linalg.norm(bu[ring] - bv[ring], axis=-1)))
            if gap > 1e-7:
                raise BoundaryMismatch(f"boundary values differ by {gap:.3e}")
        du += masked_grad_square(bu, sub)
        dv += masked_grad_square(bv, sub)
        dd += masked_grad_square(bu - bv, sub)
    return float(du - dv - 0.5 * dd)


# ---------------------------------------------------------------------------
# maximal improvement from replacement on sampled families

@dataclass
class SamplerBudget:
    center_stride: int = 12
    radii: tuple = (0.22, 0.16, 0.11, 0.08, 0.055)
    max_families: int = 8
    max_balls_per_family: int = 4
    excess_seeds: int = 3


def _centre_balls(dom, c, i, j, radii):
    """Balls of the given radii centred on node (i, j) of chart c that fit
    the chart and whose caps avoid the partition blending band, each with
    the flat grid indices of its nodes (row-major, as `ball_box` orders
    them)."""
    cx, cy = float(dom.axis[i]), float(dom.axis[j])
    out = []
    for r in radii:
        b = Ball(c, (cx, cy), float(r))
        if dm.ball_fits_chart(dom, b) and dm.ball_in_pure_region(dom, b):
            out.append((b, frozen(np.flatnonzero(dm.ball_mask(dom, b)))))
    return tuple(out)


def _candidate_lattice(dom, center_stride, radii):
    """Per chart, the center-lattice balls that pass the `_centre_balls`
    filter, `_by_count`; depends only on the grid and the budget's lattice."""
    idx = range(0, dom.n, center_stride)
    return tuple(_by_count([bi for i in idx for j in idx
                            for bi in _centre_balls(dom, c, i, j, radii)])
                 for c in (0, 1))


def _by_count(balls):
    """(ball, node indices) pairs grouped by node count: per count, the
    balls and a read-only (balls, count) index array, whose gathered row
    sums, `.sum(axis=1)`, are bit for bit np.sum of each ball's nodes."""
    groups = {}
    for b, idx in balls:
        groups.setdefault(len(idx), []).append((b, idx))
    return tuple((tuple(b for b, _ in g), frozen(np.stack([i for _, i in g])))
                 for g in groups.values())


def candidate_balls(u: DiscreteMap, m: dm.Measure, budget: SamplerBudget):
    """Deterministic center-lattice plus proposals seeded at the peaks of the
    energy-minus-area density (the removable, non-conformal part), read
    from u's Measure m; returns (excess, energy, ball) sorted by decreasing
    contained excess."""
    dom = u.domain
    stride, radii = budget.center_stride, tuple(budget.radii)
    lattice = dom.memoized(("lattice", stride, radii),
                           lambda: _candidate_lattice(dom, stride, radii))
    cands = []
    for c in (0, 1):
        dens = m.energy_density[c] * dom.h**2
        excess = dens - m.jacobian_density[c] * dom.h**2
        order = np.argsort(-excess, axis=None)
        hot = np.unravel_index(order[: budget.excess_seeds], excess.shape)
        seeds = []
        for i, j in zip(hot[0].tolist(), hot[1].tolist()):
            if i % stride or j % stride:  # lattice centres are covered
                seeds += dom.memoized(("centre", c, i, j, radii),
                                      lambda: _centre_balls(dom, c, i, j, radii))
        x_flat, e_flat = excess.ravel(), dens.ravel()
        for balls, idx in lattice[c] + _by_count(seeds):
            cands += zip(x_flat[idx].sum(axis=1).tolist(),
                         e_flat[idx].sum(axis=1).tolist(), balls)
    cands.sort(key=lambda t: (-t[0], t[2].chart, t[2].center, -t[2].radius))
    return cands


def propose_families(u: DiscreteMap, m: dm.Measure, eps: float,
                     budget: SamplerBudget):
    """Disjoint families with contained energy at most eps, ranked by the
    non-conformal excess they contain; singles plus greedy extensions.
    m is u's Measure."""
    cands = [(x, e, b) for x, e, b in candidate_balls(u, m, budget) if e <= eps]
    dom = u.domain
    fams = [(e_b, BallFamily([b])) for _, e_b, b in cands[: budget.max_families]]
    for seed in range(min(3, len(cands))):
        e_tot, fam = cands[seed][1], [cands[seed][2]]
        caps = [fam[0].cap(dom)]
        for _, e_b, b in cands:
            if len(fam) >= budget.max_balls_per_family:
                break
            if b in fam or e_tot + e_b > eps:
                continue
            nb, tb = b.cap(dom)
            if all(np.arccos(np.clip(nb @ n2, -1, 1)) > tb + t2 + 2 * dom.h
                   for n2, t2 in caps):
                fam.append(b)
                caps.append((nb, tb))
                e_tot += e_b
        if len(fam) > 1:
            fams.append((e_tot, BallFamily(fam)))
    return fams


def _independent(dom: SphereDomain, fam) -> bool:
    """No ball of the family writes a node that another of its balls reads.

    A ball's solve writes its interior nodes on its own chart and its
    refresh writes `_cap_refresh_nodes` on the other chart; it reads its
    `_block` box on its own chart.  Relaxing the balls of an independent
    family one after another, each refreshing the other chart, gives each
    ball the bits of its solve on u alone, in any order.  A single ball is
    independent; its refresh set is not built."""
    if len(fam) < 2:
        return True
    boxes = [(b.chart, _block(dom, b).box) for b in fam]
    for k, b in enumerate(fam):
        for chart, rows, cols in _write_set(dom, b):
            for j, (c, (br, bc)) in enumerate(boxes):
                if j != k and c == chart and np.any(
                        (rows >= br.start) & (rows < br.stop)
                        & (cols >= bc.start) & (cols < bc.stop)):
                    return False
    return True


def _write_set(dom, b):
    """The nodes a trial ball's solve and refresh write, from the memoized
    block and refresh set: (chart, rows, columns) for its interior on its
    chart, then for its refresh set on the other chart."""
    (br, bc), stencil = _block(dom, b)
    rows, cols = np.divmod(np.concatenate([stencil[0][0], stencil[1][0]]),
                           bc.stop - bc.start)
    ii, jj = _refresh_set(dom, b)[:2]
    return (b.chart, rows + br.start, cols + bc.start), (1 - b.chart, ii, jj)


def trial_replacements(items, rho: float, s: SolverSettings):
    """Replacement on the families of many maps scaled by rho, measured
    without replacing: one pair (trials, solved) per (u, m, fams) item.

    m is u's Measure.  A family whose scaled energy, its `dm.family_energy`
    from m, is over the energy gate of `harmonic_replace` is left out, as is
    one that is not `_independent` at that scale; `trials` lists the rest,
    in the given order, as (family, scaled family) pairs.  The distinct
    balls of an item's scaled families are relaxed once each, on copies of
    u's blocks, and the blocks of every item in one `relax_blocks` call.
    `solved` maps each ball, in order of first appearance, to its SolveInfo
    and its solved block (the ball's box after the solve).  For a family in
    `trials` these are, bit for bit, the solves of
    `harmonic_replace(u, fam, rho, s)` and its map on the balls' boxes.
    All maps must have the same target, or ValueError.
    """
    if len({u.target for u, _, _ in items}) > 1:
        raise ValueError("trial_replacements takes maps into one target")
    measured, blocks = [], []
    for u, m, fams in items:
        dom = u.domain
        gate = s.small_energy / 3.0 + 1e-12 if u.target.sff_bound > 0 else np.inf
        trials = []
        for fam in fams:
            scaled = BallFamily(fam).validate(dom).scaled(rho)
            if (dm.family_energy(dom, m.energy_density, scaled) > gate
                    or not _independent(dom, scaled)):
                continue
            trials.append((fam, scaled))
        balls = list(dict.fromkeys(b for _, scaled in trials for b in scaled))
        for b in balls:
            box, stencil = _block(dom, b)
            blocks.append((u.values[b.chart][box].copy(), stencil))
        measured.append((trials, balls))
    target = items[0][0].target if items else None
    solves = zip(relax_blocks(blocks, target, s, 1.0, 1.0), (v for v, _ in blocks))
    return [(trials, {b: next(solves) for b in balls}) for trials, balls in measured]


def energy_improvement(items, eps: float, budget: SamplerBudget = None,
                       s: SolverSettings = None):
    """Per (u, m) item, the largest measured energy drop from replacement
    on half-scaled sampled families of u with contained energy at most
    eps, the family that gave it (None when no family drops the energy),
    and the trial solves: a triple (drop, family, solves).  m is u's
    Measure, which the families come from.

    One `trial_replacements` call measures every item's families at scale
    1/2, leaving out a family over the energy gate or not independent there.
    A family's drop is the sum of its balls' drops in ball order, the drop
    `harmonic_replace(u, fam, 0.5, s)` measures, bit for bit.  `solves`
    holds one SolveInfo per distinct ball, in order of first appearance.
    """
    budget = budget or SamplerBudget()
    s = s or SolverSettings()
    out = []
    for trials, solved in trial_replacements(
            [(u, m, [fam for _, fam in propose_families(u, m, eps, budget)])
             for u, m in items], 0.5, s):
        best = 0.0
        best_fam = None
        for fam, half in trials:
            drop = sum(solved[b][0].energy_drop for b in half)
            if drop > best:
                best, best_fam = drop, fam
        out.append((best, best_fam, [info for info, _ in solved.values()]))
    return out
