"""The benchmark's workloads: inputs built from a seed, one closed-loop caller
running widthlab's public functions, and the gates its outputs must pass.

tighten-coarse  perturbed-latitude-s3 at n=65 with 16 slices, tightened to
                its plateau (at most 30 iterations) against the equator
                reference varifold: the only workload that runs the whole
                loop to an answer, so changes to the iteration count show.
tighten-fine    the same fixture at the flagship size (n=129, 64 slices),
                stopped after its first iteration: the flagship's
                per-iteration cost at production resolution (31 stages,
                with larger candidate lattices and ball blocks).
verify          the certificate suites except hopf, at their defaults: relax
                on convexity and Hardy balls at tight tolerance and on the
                theta-decay cylinders with SOR; sweepout, mollify and
                schedule selection never run, so schedule changes must leave
                it unchanged.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

FOUR_PI = 4.0 * np.pi
EPS1 = 2.0


@dataclass
class Outcome:
    rows: list                  # what the digest hashes
    attempted: int
    failed: int
    failures: list              # gate violations, empty when correct
    report: dict = field(default_factory=dict)   # sweepout report fields

    def digest(self):
        """sha256 of the rows as JSON; floats keep every bit through repr."""
        return hashlib.sha256(json.dumps(self.rows).encode()).hexdigest()


# ---------------------------------------------------------------------------
# gates

def tighten_failures(rows, final_ratio, varifold_distance=None, flagged=0,
                     final_max=None, varifold_max=None):
    """Gate violations of a tightening run.  `rows` are IterationRow-like
    objects with w_energy and w_area; the optional limits apply when given,
    and flagged solves fail the run when `varifold_max` is set (the
    tighten-to-plateau gate set)."""
    out = []
    if not rows:
        return ["no tightening iterations ran"]
    series = np.array([r.w_energy for r in rows])
    if not np.all(np.diff(series) <= 1e-6 * FOUR_PI):
        out.append("width series is not monotone")
    bad = [r.iteration for r in rows if r.w_area > r.w_energy + 1e-9]
    if bad:
        out.append(f"w_area > w_energy on iterations {bad}")
    if final_max is not None and not final_ratio <= final_max:
        out.append(f"final width ratio {final_ratio:.6f} > {final_max}")
    if varifold_max is not None:
        if varifold_distance is None or not varifold_distance <= varifold_max:
            out.append(f"varifold distance {varifold_distance} > {varifold_max}")
        if flagged:
            out.append(f"{flagged} flagged replacement solves")
    return out


def verify_failures(reports, ran):
    """{suite: reason} for suites that failed or evaluated no instance
    (counted by the caller, since a report states the requested count even
    when nothing ran)."""
    out = {}
    for name, rep in reports.items():
        if not rep.passed:
            out[name] = f"suite {name} failed (worst margin {rep.worst_margin})"
        elif ran.get(name, 0) <= 0:
            out[name] = f"suite {name} evaluated no instance"
    return out


# ---------------------------------------------------------------------------
# workloads

class Tighten:
    def __init__(self, name, n, n_slices, max_iters, final_max=None,
                 varifold_max=None):
        self.name = name
        self.n = n
        self.n_slices = n_slices
        self.max_iters = max_iters
        self.final_max = final_max
        self.varifold_max = varifold_max

    @staticmethod
    def fixture_params(seed):
        """Seed 0 is the committed fixture; other seeds jitter the bump
        centre by up to 0.005 per axis and the amplitude within [0.298, 0.302]."""
        if seed == 0:
            return {"amp": 0.3, "bump_center": (0.15, -0.1)}
        rng = np.random.default_rng(seed)
        dx, dy = rng.uniform(-0.005, 0.005, size=2)
        return {"amp": float(rng.uniform(0.298, 0.302)),
                "bump_center": (0.15 + float(dx), -0.1 + float(dy))}

    def setup(self, seed):
        from widthlab import dmap as dm
        from widthlab import sweepout as sw
        from widthlab import varifold as vf
        from widthlab.domains import SphereDomain
        from widthlab.manifold import round_sphere
        dom = SphereDomain(n=self.n)
        s3 = round_sphere(3, 1.0)
        swp = sw.standard_sweepout("perturbed-latitude-s3", s3, dom,
                                   n_slices=self.n_slices, **self.fixture_params(seed))
        ref = None
        if self.varifold_max is not None:
            vals = [np.concatenate([p, np.zeros(p.shape[:2] + (1,))], -1)
                    for p in dom.points]
            ref = vf.varifold_of_map(dm.DiscreteMap(dom, s3, vals))
        return swp, ref

    def run(self, inputs, seed, tracer):
        from widthlab import dirichlet as dr
        from widthlab import sweepout as sw
        from .layers import applied_solves
        swp, ref = inputs
        _, rep = sw.tighten(swp, max_iters=self.max_iters, eps1=EPS1,
                            budget=dr.SamplerBudget(),
                            settings=dr.SolverSettings(small_energy=EPS1),
                            jobs=1, reference_varifold=ref)
        final_ratio = rep.final_width.w_energy / FOUR_PI
        flagged = sum(r.flagged for r in rep.rows)
        rows = [[r.iteration, r.w_energy, r.w_area, r.argmax_t, r.total_drop,
                 r.max_improvement, r.stages, r.mollified, r.flagged]
                for r in rep.rows]
        rows.append(["final", rep.final_width.w_energy, rep.final_width.w_area,
                     rep.final_width.argmax_t, rep.varifold_distance, rep.stopped])
        failures = tighten_failures(rep.rows, final_ratio, rep.varifold_distance,
                                    flagged, self.final_max, self.varifold_max)
        report = {"sweepout.iterations": len(rep.rows),
                  "sweepout.stages": sum(r.stages for r in rep.rows),
                  "sweepout.flagged_solves": flagged,
                  "sweepout.mollified_slices": sum(r.mollified for r in rep.rows),
                  "sweepout.final_width_ratio": final_ratio}
        return Outcome(rows, applied_solves(tracer.spans), flagged,
                       failures, report)


class Verify:
    name = "verify"

    def setup(self, seed):
        """The suites build their own instances from the seed; what is set
        up ahead is the default two-chart sphere domain they discretize on."""
        from widthlab.domains import SphereDomain
        return SphereDomain()

    def run(self, inputs, seed, tracer):
        from widthlab import certlab as cl
        from .layers import SUITES, instances_ran
        reports = {name: cl.SUITES[name](seed=seed) for name in SUITES}
        ran = instances_ran(tracer.spans)
        rows = [[name, rep.passed, rep.worst_margin, rep.instances, rep.skipped,
                 ran[name]] for name, rep in reports.items()]
        failures = verify_failures(reports, ran)
        return Outcome(rows, len(reports), len(failures), list(failures.values()))


WORKLOADS = {w.name: w for w in (
    Tighten("tighten-coarse", n=65, n_slices=16, max_iters=30,
            final_max=1.02, varifold_max=0.05),
    Tighten("tighten-fine", n=129, n_slices=64, max_iters=1),
    Verify(),
)}
