"""Sweepouts of 2-spheres, width estimates, scheduled tightening by harmonic
replacement, and the 1-dimensional curve-shortening mode.

A sweepout is a finite family of sphere maps over t = i/T with constant
endpoint slices.  Tightening repeatedly (a) finds ball families on the
high-energy slices where replacement measurably drops energy, (b) extends
each family over an interval of t on which it keeps working, (c) prunes
the intervals so every high-energy t is covered while at most two families
are active anywhere, and (d) applies the replacements with trapezoidal
radius envelopes.

Each phase reads a slice through one record, a `dmap.Measure` that
`Sweepout.measure` takes once per slice object and keeps with the slice.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dirichlet as dr
from . import dmap as dm
from .dmap import DiscreteMap
from .domains import SphereDomain, bump_weight
from .errors import EnergyTooLarge, KindUnknown

ALMOST_HARMONIC_EPS0 = 0.25  # family-energy bound of `almost_harmonic_check`
# `tighten` stops on a plateau: three iterations in a row that move the
# width by less than this fraction of itself
PLATEAU_TOL = 1e-4


@dataclass
class Sweepout:
    slices: list            # T+1 DiscreteMaps
    target: object
    degree: int = 0
    # slice index -> (the slice object, its dm.Measure); see `measure`
    _measures: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def measure(self, i) -> dm.Measure:
        """Slice i's `dm.Measure`, kept with the slice object it was taken
        of, and taken afresh when slices[i] is no longer that object."""
        u = self.slices[i]
        kept = self._measures.get(i)
        if kept is None or kept[0] is not u:
            kept = self._measures[i] = (u, dm.measure(u))
        return kept[1]

    @property
    def n_slices(self):
        return len(self.slices)

    @property
    def times(self):
        return np.linspace(0.0, 1.0, self.n_slices)

    def copy(self):
        return Sweepout([s.copy() for s in self.slices], self.target, self.degree)


@dataclass
class WidthEstimate:
    w_energy: float
    w_area: float
    argmax_t: int
    per_slice_energy: np.ndarray
    per_slice_area: np.ndarray


@dataclass
class Envelope:
    """Trapezoidal radius profile: 1 on [a, b], ramping to 0 at the support
    endpoints, zero outside."""
    support: tuple   # (s0, s1)
    plateau: tuple   # (a, b)

    def __call__(self, t):
        s0, s1 = self.support
        a, b = self.plateau
        xs = [s0, a, b, s1]
        ys = [0.0, 1.0, 1.0, 0.0]
        if s0 == a:
            xs, ys = xs[1:], ys[1:]
        if s1 == b:
            xs, ys = xs[:-1], ys[:-1]
        return float(np.interp(t, xs, ys, left=0.0, right=0.0))


@dataclass
class BallSchedule:
    families: list           # BallFamily per stage
    envelopes: list          # Envelope per stage
    improvements: list       # measured half-family drop at the seed slice
    solves: list             # the sampler's trial SolveInfos, call by call;
                             # per call one per distinct trial ball, in
                             # order of first appearance


@dataclass
class IterationRow:
    iteration: int
    w_energy: float
    w_area: float
    argmax_t: int
    total_drop: float
    max_improvement: float
    stages: int
    mollified: int  # always 0; kept while perfbench/workloads.py still reads it
    flagged: int


@dataclass
class TighteningReport:
    rows: list = field(default_factory=list)
    final_width: WidthEstimate = None
    varifold_distance: float = None
    stopped: str = ""
    solves: list = field(default_factory=list)  # every SolveInfo, in call order

    def w_energy_series(self):
        return np.array([r.w_energy for r in self.rows])


# ---------------------------------------------------------------------------
# fixtures

def _latitude_values(dom, t, axes, warp):
    s, c = np.sin(np.pi * t), np.cos(np.pi * t)
    vals = []
    for ch in (0, 1):
        p = dom.points[ch]
        if warp is not None:
            p = warp(p, t)
        v = np.concatenate([s * p, np.full(p.shape[:2] + (1,), c)], axis=-1)
        vals.append(v * axes)
    return vals


# radius and chart-0 direction of the perturbed fixture's shear bump
BUMP_RHO = 0.35
BUMP_DIRECTION = (1.0, -0.6)


def _chart0_bump_warp(center, amp_of_t):
    """Compactly supported chart-0 shear, a diffeomorphism for small amplitudes."""
    dx, dy = BUMP_DIRECTION

    def warp(p, t):
        a = amp_of_t(t)
        if a == 0.0:
            return p
        X, Y = SphereDomain.sphere_to_chart(0, p)
        amp = a * bump_weight(X, Y, center, BUMP_RHO)
        on = amp > 0
        moved = p.copy()
        moved[on] = SphereDomain.chart_to_sphere(0, X[on] + amp[on] * dx,
                                                 Y[on] + amp[on] * dy)
        return moved

    return warp


def standard_sweepout(kind: str, target, dom: SphereDomain,
                      n_slices: int = 64, amp: float = 0.35,
                      bump_center=(0.15, -0.1),
                      t_profile: str = "global"):
    """Reference sweepout fixtures on a 3-sphere target with semi-axes a.

    latitude-s3: x -> a (sin(pi t) x, cos(pi t)), on the round 3-sphere of
      radius R the width-4*pi*R^2 sweepout.
    perturbed-latitude-s3: latitude composed with a t-dependent compactly
      supported chart-0 diffeomorphism (pure domain reparametrization, so
      areas are untouched while energies rise).
    """
    kind = kind.lower()
    ts = np.linspace(0.0, 1.0, n_slices + 1)
    # the semi-axes at every node: a product with a whole array is five times
    # faster than one that broadcasts over a last axis of four
    axes = np.tile(target.semi_axes, dom.X.shape + (1,))
    if kind == "latitude-s3":
        warp = None
    elif kind == "perturbed-latitude-s3":
        if t_profile == "global":
            amp_of_t = lambda t: amp * np.sin(np.pi * t)
        elif t_profile == "local":
            amp_of_t = lambda t: amp * max(0.0, 1.0 - ((t - 0.5) / 0.15) ** 2) ** 3
        else:
            raise KindUnknown(f"t_profile {t_profile!r}")
        warp = _chart0_bump_warp(bump_center, amp_of_t)
    else:
        raise KindUnknown(kind)
    slices = []
    for t in ts:
        vals = _latitude_values(dom, t, axes, warp)
        u = DiscreteMap(dom, target, vals)
        if warp is not None and 0 < t < 1:
            dm.sync_owner(u)
        slices.append(u)
    return Sweepout(slices, target, degree=1)


# ---------------------------------------------------------------------------
# width and degree

def width_estimate(s: Sweepout) -> WidthEstimate:
    """Energy and area of every slice, read from the slices' records
    (`Sweepout.measure`), and the widest slice by energy."""
    records = [s.measure(i) for i in range(s.n_slices)]
    es = np.array([m.energy for m in records])
    ar = np.array([m.area for m in records])
    return WidthEstimate(float(es.max()), float(ar.max()), int(es.argmax()), es, ar)


def continuity_gap(s: Sweepout) -> float:
    return max(dm.c0_w12_distance(a, b) for a, b in zip(s.slices, s.slices[1:]))


def numerical_degree(s: Sweepout) -> float:
    """Degree of the induced map onto the target: the pullback of det(x, ., ., .)/4,
    whose integral over the target is the volume it bounds, over that volume."""
    dom = s.slices[0].domain
    volume = np.pi**2 / 2 * np.prod(s.target.semi_axes)
    T = s.n_slices - 1
    dt = 1.0 / T
    from .domains import d_axis
    total = 0.0
    for c in (0, 1):
        F = np.stack([u.values[c] for u in s.slices])  # (T+1, n, n, 4)
        Ft = np.gradient(F, dt, axis=0)
        FX = d_axis(F, dom.h, 1)
        FY = d_axis(F, dom.h, 2)
        dets = np.linalg.det(np.stack([F, FX, FY, Ft], axis=-1))
        wt = np.full(F.shape[0], dt)
        wt[0] = wt[-1] = dt / 2
        total += np.sum(dets * dom.flat_weights[c][None, :, :] * wt[:, None, None])
    return float(total / (4 * volume))


# ---------------------------------------------------------------------------
# schedule construction

def _improvement_tol(w: float) -> float:
    return max(1e-7, 1e-6 * w)


def select_ball_schedule(s: Sweepout, eps1: float,
                         budget: dr.SamplerBudget,
                         settings: dr.SolverSettings) -> BallSchedule:
    """Families plus radius envelopes covering the high-energy slices.

    For every uncovered high-energy slice, the replacement sampler proposes
    a family whose measured half-scale drop is positive; the family's
    interval grows while the drop persists at half strength and the family
    energy stays under eps1/3.  The finite cover is pruned so each closed
    interval meets at most two others, and envelope supports are truncated
    so at most two radii are positive at any t.  Every slice is read
    through its record.  With no improving family the schedule has no
    stages; it still carries the trial solves.
    """
    T = s.n_slices - 1
    ts = s.times
    es = np.array([s.measure(i).energy for i in range(s.n_slices)])
    w = float(es.max())
    tol = _improvement_tol(w)
    high = [i for i in range(s.n_slices) if es[i] >= w / 2]
    high.sort(key=lambda i: (-es[i], i))  # most energetic slices pick first
    intervals = []  # (a_idx, b_idx, fam, seed_drop)
    covered = np.zeros(s.n_slices, bool)
    solves = []
    for i in high:
        if covered[i]:
            continue
        drop, fam, trials = dr.energy_improvement(s.slices[i], s.measure(i),
                                                  eps1 / 4.0, budget, settings)
        solves += trials
        if fam is None or drop <= tol:
            continue  # harmonic at tolerance: exempt
        a = b = i
        gate = min(eps1 / 8.0, drop / 2.0)
        while a - 1 >= 0 and _transfers(s, a - 1, i, fam, eps1, gate):
            a -= 1
        while b + 1 <= T and _transfers(s, b + 1, i, fam, eps1, gate):
            b += 1
        covered[a:b + 1] = True
        intervals.append([a, b, fam, drop])
    kept = _prune_cover(intervals)
    envelopes = _build_envelopes(kept, s, eps1, ts, T)
    return BallSchedule([iv[2] for iv in kept], envelopes, [iv[3] for iv in kept],
                        solves)


def _over_family_bound(s: Sweepout, j, fam, eps1):
    """The family's energy on slice j exceeds eps1/3, less a 0.1% margin."""
    dens = s.measure(j).energy_density
    return dm.family_energy(s.slices[j].domain, dens, fam) > eps1 / 3.0 * 0.999


def _transfers(s: Sweepout, j, i, fam, eps1, gate):
    """Neighbor slice j inherits slice i's improving family: the family
    energy bound holds at j and the energy densities are L1-close enough
    that the measured drop carries over at half strength."""
    if _over_family_bound(s, j, fam, eps1):
        return False
    dom = s.slices[0].domain
    di = s.measure(i).energy_density
    dj = s.measure(j).energy_density
    l1 = sum(float(np.sum(dom.flat_weights[c] * np.abs(di[c] - dj[c])))
             for c in (0, 1))
    return l1 <= gate


def _prune_cover(intervals):
    """Covering-recipe pruning: drop intervals inside the union of two
    others; among intervals with an endpoint inside the current one, keep
    only the extreme overlapper on each side."""
    items = [list(iv) for iv in intervals]
    alive = [True] * len(items)
    k = 0
    while k < len(items):
        if not alive[k]:
            k += 1
            continue
        a, b = items[k][0], items[k][1]
        others = [j for j in range(len(items)) if alive[j] and j != k]
        dropped = False
        for x in others:
            for y in others:
                if x >= y:
                    continue
                lo = min(items[x][0], items[y][0])
                hi = max(items[x][1], items[y][1])
                joined = (items[x][1] + 1 >= items[y][0]
                          and items[y][1] + 1 >= items[x][0])
                if joined and lo <= a and b <= hi:
                    alive[k] = False
                    dropped = True
                    break
            if dropped:
                break
        if dropped:
            k += 1
            continue
        lefties = [j for j in others if a <= items[j][0] <= b]
        if lefties:
            best = max(lefties, key=lambda j: (items[j][1], -items[j][0]))
            for j in lefties:
                if j != best:
                    alive[j] = False
        others = [j for j in range(len(items)) if alive[j] and j != k]
        righties = [j for j in others if a <= items[j][1] <= b]
        if righties:
            best = min(righties, key=lambda j: (items[j][0], -items[j][1]))
            for j in righties:
                if j != best:
                    alive[j] = False
        k += 1
    return [items[j] for j in range(len(items)) if alive[j]]


def _build_envelopes(kept, s, eps1, ts, T):
    kept.sort(key=lambda iv: (iv[0], iv[1]))
    n = len(kept)
    supports = []
    for j, (a, b, fam, _) in enumerate(kept):
        half = max(b - a, 1)
        lo = a
        while lo > max(0, a - half):
            if _over_family_bound(s, lo - 1, fam, eps1):
                break
            lo -= 1
        hi = b
        while hi < min(T, b + half):
            if _over_family_bound(s, hi + 1, fam, eps1):
                break
            hi += 1
        supports.append([lo, hi])
    # zero on non-adjacent closed intervals, and keep next-nearest supports
    # from sharing interior points (at most two active radii anywhere)
    for j in range(n):
        aj, bj = kept[j][0], kept[j][1]
        for k in range(n):
            if k == j:
                continue
            ak, bk = kept[k][0], kept[k][1]
            if ak <= bj + 1 and bk + 1 >= aj:
                continue  # closed intervals touch or overlap: adjacent
            if ak > bj:
                supports[j][1] = min(supports[j][1], ak - 1)
            if bk < aj:
                supports[j][0] = max(supports[j][0], bk + 1)
    for j in range(n - 2):
        bj = kept[j][1]
        ak = kept[j + 2][0]
        if supports[j][1] >= supports[j + 2][0]:
            mid = (bj + ak) // 2
            supports[j][1] = min(supports[j][1], mid)
            supports[j + 2][0] = max(supports[j + 2][0], mid + 1)
    envs = []
    for (a, b, _, _), (lo, hi) in zip(kept, supports):
        envs.append(Envelope(support=(ts[max(lo, 0)] - (0.0 if lo > 0 else 1e-9),
                                      ts[min(hi, T)] + (0.0 if hi < T else 1e-9)),
                             plateau=(ts[a], ts[b])))
    return envs


# ---------------------------------------------------------------------------
# tightening

def tighten_once(s: Sweepout, sched: BallSchedule,
                 settings: dr.SolverSettings = None):
    """Apply the schedule's replacement stages in order; per-slice energy is
    non-increasing and untouched slices are bit-identical.  Each stage acts
    on the slices the previous stage left, and touches each slice at most
    once.  Returns (sweepout, total drop, flagged count, the SolveInfos of
    every replacement run, unconverged ones included).  The records of the
    untouched slices move to the returned sweepout, so s keeps none, and a
    replaced slice's record is freed with the slice.
    """
    settings = settings or dr.SolverSettings()
    slices = list(s.slices)
    total_drop = 0.0
    flagged = 0
    solves = []
    for fam, env in zip(sched.families, sched.envelopes):
        for i, t in enumerate(s.times):
            r = env(t)
            if r <= 0.0:
                continue
            try:
                res = dr.harmonic_replace(slices[i], fam, rho=r, s=settings)
            except EnergyTooLarge:
                flagged += 1
                continue
            solves += res.solves
            if not res.converged:
                flagged += 1
                continue
            slices[i] = res.map
            total_drop += res.energy_drop
    out = Sweepout(slices, s.target, s.degree)
    records, s._measures = s._measures, {}
    out._measures = {i: kept for i, kept in records.items() if kept[0] is slices[i]}
    return out, total_drop, flagged, solves


def tighten(s: Sweepout, max_iters: int, eps1: float = 2.0, *, budget: dr.SamplerBudget,
            settings: dr.SolverSettings,
            jobs: int = 1,  # only 1; kept while perfbench/workloads.py passes it
            reference_varifold=None) -> tuple:
    """Iterate schedule selection and replacement until the width plateaus.

    Each iteration selects a ball schedule, applies it with `tighten_once`
    and measures the width; nothing else changes a slice.  Each phase reads
    a slice's record (`Sweepout.measure`), which a slice that `tighten_once`
    left alone keeps, so an iteration measures only the slices it replaced.
    Returns (tightened sweepout, TighteningReport); the report's `solves`
    holds every solve of the run, each iteration's trial solves before its
    applied ones.  Endpoint slices are never touched.
    The input is not copied: as with `tighten_once`, the returned sweepout
    shares every slice no stage replaced with it, and is the input itself
    when no schedule was applied.
    """
    if jobs != 1:
        raise ValueError(f"tighten runs in one thread; jobs={jobs!r}")
    report = TighteningReport()
    cur = s
    w_prev = west = None
    stall = 0
    for it in range(1, max_iters + 1):
        sched = select_ball_schedule(cur, eps1, budget, settings)
        report.solves += sched.solves
        if not sched.families:
            report.stopped = "schedule-empty"
            break
        cur, drop, flagged, applied = tighten_once(cur, sched, settings)
        report.solves += applied
        west = width_estimate(cur)
        report.rows.append(IterationRow(
            iteration=it, w_energy=west.w_energy, w_area=west.w_area,
            argmax_t=west.argmax_t, total_drop=float(drop),
            max_improvement=float(max(sched.improvements)),
            stages=len(sched.families), mollified=0, flagged=flagged))
        if w_prev is not None and abs(w_prev - west.w_energy) < PLATEAU_TOL * west.w_energy:
            stall += 1
            if stall >= 3:
                report.stopped = "plateau"
                break
        else:
            stall = 0
        w_prev = west.w_energy
    # the last iteration, if any ran, measured the returned sweepout already
    final = report.final_width = west if west is not None else width_estimate(cur)
    if reference_varifold is not None:
        from . import varifold as vf
        argmax_map = cur.slices[final.argmax_t]
        fam = vf.TestFunctionFamily.for_manifold(cur.target)
        report.varifold_distance = vf.varifold_distance(
            vf.varifold_of_map(argmax_map), reference_varifold, fam)
    if not report.stopped:
        report.stopped = "max-iters"
    return cur, report


# ---------------------------------------------------------------------------
# the almost-harmonic diagnostic

@dataclass
class AlmostHarmonicReport:
    max_gap: float
    witness: object
    energy_minus_area: float
    families_checked: int
    drop_gap_pairs: list = field(default_factory=list)


def almost_harmonic_check(u: DiscreteMap) -> AlmostHarmonicReport:
    """Worst replacement deviation on eighth-scaled sampled families with
    energy below ALMOST_HARMONIC_EPS0 (default budget and solver settings),
    plus the energy-minus-area defect.  The per-family (energy drop,
    gradient deviation) pairs trace the empirical relation between the two.

    The families are measured by `dr.trial_replacements` at scale 1/8, as
    the replacement sampler measures its own at 1/2: a family over the
    energy gate is left out, and so is one that is not independent at 1/8.
    A family's deviation is the gradient square of u less its solved
    blocks, summed over its balls."""
    dom = u.domain
    m = dm.measure(u)
    fams = [fam for _, fam in dr.propose_families(u, m, ALMOST_HARMONIC_EPS0,
                                                  dr.SamplerBudget())]
    trials, solved = dr.trial_replacements(u, m, fams, 0.125, dr.SolverSettings())
    worst = 0.0
    witness = None
    pairs = []
    for fam, scaled in trials:
        gap = 0.0
        for b in scaled:
            box, sub = dm.ball_box(dom, b)
            gap += dr.masked_grad_square(u.values[b.chart][box] - solved[b][1], sub)
        pairs.append((float(sum(solved[b][0].energy_drop for b in scaled)), float(gap)))
        if gap > worst:
            worst, witness = float(gap), fam
    e_minus_a = m.energy - m.area
    return AlmostHarmonicReport(worst, witness, float(e_minus_a), len(pairs),
                                pairs)


# ---------------------------------------------------------------------------
# curve mode (the classical 1-dimensional tightening)

@dataclass
class CurveSweepout:
    slices: list  # (K, 3) vertex arrays on the unit sphere

    def copy(self):
        return CurveSweepout([v.copy() for v in self.slices])


def curve_latitude_sweepout(n_slices: int, n_vertices: int) -> CurveSweepout:
    """Latitude circles of the unit 2-sphere."""
    ts = np.linspace(0.0, 1.0, n_slices + 1)
    ang = np.arange(n_vertices) * (2 * np.pi / n_vertices)
    slices = []
    for t in ts:
        st, ct = np.sin(np.pi * t), np.cos(np.pi * t)
        pts = np.stack([st * np.cos(ang), st * np.sin(ang),
                        np.full_like(ang, ct)], axis=-1)
        slices.append(pts)
    return CurveSweepout(slices)


def curve_length(pts) -> float:
    p = np.asarray(pts, float)
    radius = np.linalg.norm(p[0])
    if radius < 1e-15:
        return 0.0
    q = p / radius
    nxt = np.roll(q, -1, axis=0)
    dots = np.clip(np.sum(q * nxt, axis=-1), -1.0, 1.0)
    return float(radius * np.sum(np.arccos(dots)))


def _geodesic_midpoints(a, b):
    m = a + b
    nm = np.linalg.norm(m, axis=-1, keepdims=True)
    radius = np.linalg.norm(a, axis=-1, keepdims=True)
    safe = nm > 1e-12
    return np.where(safe, radius * m / np.where(safe, nm, 1.0), a)


def birkhoff_step(pts):
    """Midpoint replacement on even arcs, then on odd arcs; length never grows."""
    p = np.asarray(pts, float)
    k = p.shape[0]
    assert k % 2 == 0
    q = p.copy()
    ev = np.arange(0, k, 2)
    q[ev + 1] = _geodesic_midpoints(p[ev], p[(ev + 2) % k])
    r = q.copy()
    r[ev] = _geodesic_midpoints(q[(ev - 1) % k], q[ev + 1])
    return r


def birkhoff_tighten(cs: CurveSweepout, max_iters: int) -> dict:
    """Alternate midpoint-geodesic replacement; reports the max-length curve
    per iteration (non-increasing) until it stalls."""
    cur = cs.copy()
    history = [max(curve_length(v) for v in cur.slices)]
    for _ in range(max_iters):
        cur = CurveSweepout([birkhoff_step(v) for v in cur.slices])
        history.append(max(curve_length(v) for v in cur.slices))
        if abs(history[-2] - history[-1]) < 1e-10 * max(history[-1], 1.0):
            break
    return {"sweepout": cur, "max_length_history": np.array(history),
            "final_max_length": float(history[-1]),
            "monotone": bool(np.all(np.diff(history) <= 1e-12))}
