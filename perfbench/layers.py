"""Which widthlab functions the benchmark wraps, and the per-layer metrics it
derives from their spans.

The layers are widthlab's modules.  `ricci`, `io`, `config` and `cli` take
well under a second in every workload and are not wrapped; their time, and
that of every unwrapped helper, lands in the self time of the nearest
wrapped caller, or in the run's untraced remainder.
"""
from __future__ import annotations

import numpy as np

from .trace import children_of, outermost, self_times

LAYERS = ("dirichlet", "dmap", "sweepout", "certlab", "varifold", "manifold")

# The suites `verify` runs: suite key -> (function name in certlab, span that
# counts one instance, calls of that span the suite makes outside its
# randomized loop).  `hopf` is left out: its 257x256 cylinder solve alone takes
# 37-50 s on a 2-core machine, more than the benchmark's per-run budget allows.
SUITES = {
    "wente": ("wente_hardy_suite", "certlab.wente_hardy_check", 1),
    "ode-comparison": ("ode_comparison_suite", "certlab.ode_comparison_check", 1),
    "wirtinger": ("wirtinger_suite", "certlab.wirtinger_check", 1),
    "theta-decay": ("theta_decay_suite", "certlab.theta_energy_decay_check", 0),
    "convexity": ("convexity_suite", "dirichlet.convexity_gap", 0),
    "harmonic-hardy": ("harmonic_hardy_suite", "dirichlet.solve_dirichlet", 0),
}
SUITE_SPANS = {f"certlab.{key}": key for key in SUITES}

RELAX_STATS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"),
               ("sweeps", "count"), ("node_sweeps", "count"),
               ("ns_per_node_sweep", "ns"), ("sweeps_p50", "count"),
               ("sweeps_p99", "count"), ("unconverged", "count"),
               ("residual_max", "1"))
DMAP_FUNCTIONALS = ("energy", "energy_density", "jacobian_density", "sync_overlap")
SWEEPOUT_PHASES = ("select_ball_schedule", "tighten_once", "width_estimate",
                   "almost_harmonic_check")


def _spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for kind in ("ball", "cylinder"):
        out += [(f"dirichlet.relax.{kind}.{s}", u, "lower") for s, u in RELAX_STATS]
    out += [
        ("dirichlet.candidate_balls.calls", "count", "lower"),
        ("dirichlet.candidate_balls.self_s", "s", "lower"),
        ("dirichlet.candidate_balls.candidates", "count", "lower"),
        ("dirichlet.propose_families.self_s", "s", "lower"),
        ("dirichlet.propose_families.families", "count", "lower"),
        ("dirichlet.energy_improvement.calls", "count", "lower"),
        ("dirichlet.energy_improvement.total_s", "s", "lower"),
        ("dirichlet.energy_improvement.trials", "count", "lower"),
        ("dirichlet.energy_improvement.improving_trials", "count", "higher"),
        ("dirichlet.harmonic_replace.calls", "count", "lower"),
        ("dirichlet.harmonic_replace.self_s", "s", "lower"),
        ("dirichlet.harmonic_replace.energy_gate_rejects", "count", "lower"),
        ("dirichlet.solve_dirichlet.total_s", "s", "lower"),
        ("dmap.mollify.calls", "count", "lower"),
        ("dmap.mollify.self_s", "s", "lower"),
    ]
    for fn in DMAP_FUNCTIONALS:
        out += [(f"dmap.{fn}.calls", "count", "lower"),
                (f"dmap.{fn}.self_s", "s", "lower"),
                (f"dmap.{fn}.total_s", "s", "lower")]
    out += [
        ("dmap.sync_overlap.nodes", "count", "lower"),
        ("dmap.sphere_map.self_s", "s", "lower"),
        ("sweepout.iterations", "count", "lower"),
        ("sweepout.stages", "count", "lower"),
        ("sweepout.flagged_solves", "count", "lower"),
        ("sweepout.mollified_slices", "count", "lower"),
        ("sweepout.stage_yield", "stages/call", "higher"),
        ("sweepout.iteration_s_p50", "s", "lower"),
    ]
    out += [(f"sweepout.{ph}.total_s", "s", "lower") for ph in SWEEPOUT_PHASES]
    out += [("sweepout.final_width_ratio", "1", "lower"),
            ("sweepout.time_to_1pct_s", "s", "lower")]
    for key in SUITES:
        out += [(f"certlab.{key}.s", "s", "lower"),
                (f"certlab.{key}.instances_ran", "count", "higher")]
    out += [
        ("certlab.solve_cylinder_map.total_s", "s", "lower"),
        ("varifold.varifold_of_map.total_s", "s", "lower"),
        ("varifold.varifold_distance.total_s", "s", "lower"),
        ("manifold.project.calls", "count", "lower"),
        ("manifold.project.self_s", "s", "lower"),
    ]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("trace.run_s", "s", "lower"),
            ("trace.remainder_s", "s", "lower"),
            ("trace.overhead_frac", "1", "lower")]
    return out


PER_LAYER = _spec()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# probes

def _relax_name(args, kwargs):
    periodic = args[6] if len(args) > 6 else kwargs.get("periodic_y", False)
    return "dirichlet.relax.cylinder" if periodic else "dirichlet.relax.ball"


def _observe_relax(sp, args, kwargs, info):
    sp.attrs = {"sweeps": info.sweeps, "nodes": int(np.count_nonzero(args[1])),
                "converged": info.converged, "residual": info.residual}


def _observe_len(sp, args, kwargs, result):
    sp.attrs = {"n": len(result)}


def _observe_replace(sp, args, kwargs, res):
    sp.attrs = {"drop": res.energy_drop, "converged": res.converged}


def _observe_width(sp, args, kwargs, west):
    sp.attrs = {"w": west.w_energy}


def _observe_schedule(sp, args, kwargs, sched):
    sp.attrs = {"stages": len(sched.families)}


def _observe_sync(sp, args, kwargs, result):
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    u = args[0]
    nodes = u.domain.n ** 2 if mask is None else np.count_nonzero(mask)
    sp.attrs = {"nodes": int(nodes)}


def probes(traced):
    """Probes as (owner, attr, span name, observer).

    Untraced runs keep the few cheap probes the run's own accounting needs:
    applied replacement solves, width estimates and suite instances.
    Traced runs add every layer function the per-layer metrics name.
    """
    from widthlab import certlab, dirichlet, dmap, manifold, sweepout, varifold
    out = [
        (sweepout, "tighten_once", "sweepout.tighten_once", None),
        (sweepout, "width_estimate", "sweepout.width_estimate", _observe_width),
        (dirichlet, "harmonic_replace", "dirichlet.harmonic_replace", _observe_replace),
        (dirichlet, "convexity_gap", "dirichlet.convexity_gap", None),
        (dirichlet, "solve_dirichlet", "dirichlet.solve_dirichlet", None),
    ]
    for key, (fn, check, _) in SUITES.items():
        out.append((certlab, fn, f"certlab.{key}", None))
        if check.startswith("certlab."):
            out.append((certlab, check.split(".", 1)[1], check, None))
    if not traced:
        return out
    out += [
        (sweepout, "tighten", "sweepout.tighten", None),
        (sweepout, "select_ball_schedule", "sweepout.select_ball_schedule",
         _observe_schedule),
        (sweepout, "almost_harmonic_check", "sweepout.almost_harmonic_check", None),
        (dirichlet, "relax", _relax_name, _observe_relax),
        (dirichlet, "candidate_balls", "dirichlet.candidate_balls", _observe_len),
        (dirichlet, "propose_families", "dirichlet.propose_families", _observe_len),
        (dirichlet, "energy_improvement", "dirichlet.energy_improvement", None),
        (dmap, "mollify", "dmap.mollify", None),
        (dmap, "energy", "dmap.energy", None),
        (dmap, "energy_density", "dmap.energy_density", None),
        (dmap, "jacobian_density", "dmap.jacobian_density", None),
        (dmap, "sync_overlap", "dmap.sync_overlap", _observe_sync),
        (dmap, "sphere_map", "dmap.sphere_map", None),
        (certlab, "solve_cylinder_map", "certlab.solve_cylinder_map", None),
        (varifold, "varifold_of_map", "varifold.varifold_of_map", None),
        (varifold, "varifold_distance", "varifold.varifold_distance", None),
    ]
    for cls in (manifold.EmbeddedManifold, manifold.RoundSphere,
                manifold.Ellipsoid, manifold.AffineSubspace):
        if "project" in vars(cls):
            out.append((cls, "project", "manifold.project", None))
    return out


# ---------------------------------------------------------------------------
# metrics from spans

def applied_solves(spans):
    """Replacement solves tighten_once applied (gate rejections included)."""
    return sum(1 for sp in spans if sp.name == "dirichlet.harmonic_replace"
               and sp.parent >= 0 and spans[sp.parent].name == "sweepout.tighten_once")


def instances_ran(spans):
    """Instances each suite evaluated, counted from the calls it made to its
    per-instance check, not from the suite's report."""
    counts = {key: 0 for key in SUITES}
    suite_of = []
    for sp in spans:
        if sp.name in SUITE_SPANS:
            suite_of.append(SUITE_SPANS[sp.name])
        else:
            suite_of.append(suite_of[sp.parent] if sp.parent >= 0 else None)
        key = suite_of[-1]
        if key is not None and sp.name == SUITES[key][1] and sp.attrs is None:
            counts[key] += 1
    return {key: max(n - SUITES[key][2], 0) for key, n in counts.items()}


def time_to_width(spans, run_start, threshold):
    """Seconds from run start to the end of the first width estimate at or
    under `threshold`; 0.0 when none gets there."""
    for sp in spans:
        if sp.name == "sweepout.width_estimate" and sp.attrs and sp.attrs["w"] <= threshold:
            return sp.end - run_start
    return 0.0


def per_layer_metrics(spans, run_index, untraced_run_s):
    """Every PER_LAYER metric except the sweepout report fields, which the
    workload fills from its own outputs."""
    selfs = self_times(spans)
    outer = outermost(spans)
    kids = children_of(spans)
    by_name = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return float(sum(selfs[i] for i in by_name.get(name, ())))

    def total_s(name):
        return float(sum(spans[i].duration for i in by_name.get(name, ()) if outer[i]))

    m = {}
    for kind in ("ball", "cylinder"):
        name = f"dirichlet.relax.{kind}"
        idx = by_name.get(name, [])
        sweeps = np.array([spans[i].attrs["sweeps"] for i in idx], dtype=np.int64)
        nodes = np.array([spans[i].attrs["nodes"] for i in idx], dtype=np.int64)
        node_sweeps = int(np.sum(sweeps * nodes))
        tot = total_s(name)
        p = f"{name}."
        m[p + "calls"] = len(idx)
        m[p + "self_s"] = self_s(name)
        m[p + "total_s"] = tot
        m[p + "sweeps"] = int(sweeps.sum())
        m[p + "node_sweeps"] = node_sweeps
        m[p + "ns_per_node_sweep"] = tot * 1e9 / node_sweeps if node_sweeps else 0.0
        m[p + "sweeps_p50"] = int(np.percentile(sweeps, 50, method="lower")) if idx else 0
        m[p + "sweeps_p99"] = int(np.percentile(sweeps, 99, method="higher")) if idx else 0
        m[p + "unconverged"] = sum(1 for i in idx if not spans[i].attrs["converged"])
        m[p + "residual_max"] = max((spans[i].attrs["residual"] for i in idx), default=0.0)

    m["dirichlet.candidate_balls.calls"] = calls("dirichlet.candidate_balls")
    m["dirichlet.candidate_balls.self_s"] = self_s("dirichlet.candidate_balls")
    m["dirichlet.candidate_balls.candidates"] = sum(
        spans[i].attrs["n"] for i in by_name.get("dirichlet.candidate_balls", ()))
    m["dirichlet.propose_families.self_s"] = self_s("dirichlet.propose_families")
    m["dirichlet.propose_families.families"] = sum(
        spans[i].attrs["n"] for i in by_name.get("dirichlet.propose_families", ()))

    trials = improving = 0
    for i in by_name.get("dirichlet.energy_improvement", ()):
        for k in kids[i]:
            if spans[k].name == "dirichlet.harmonic_replace":
                trials += 1
                a = spans[k].attrs
                improving += bool("drop" in a and a["drop"] > 0.0)
    m["dirichlet.energy_improvement.calls"] = calls("dirichlet.energy_improvement")
    m["dirichlet.energy_improvement.total_s"] = total_s("dirichlet.energy_improvement")
    m["dirichlet.energy_improvement.trials"] = trials
    m["dirichlet.energy_improvement.improving_trials"] = improving

    m["dirichlet.harmonic_replace.calls"] = calls("dirichlet.harmonic_replace")
    m["dirichlet.harmonic_replace.self_s"] = self_s("dirichlet.harmonic_replace")
    m["dirichlet.harmonic_replace.energy_gate_rejects"] = sum(
        1 for i in by_name.get("dirichlet.harmonic_replace", ())
        if spans[i].attrs.get("raised") == "EnergyTooLarge")
    m["dirichlet.solve_dirichlet.total_s"] = total_s("dirichlet.solve_dirichlet")

    m["dmap.mollify.calls"] = calls("dmap.mollify")
    m["dmap.mollify.self_s"] = self_s("dmap.mollify")
    for fn in DMAP_FUNCTIONALS:
        name = f"dmap.{fn}"
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
        m[name + ".total_s"] = total_s(name)
    m["dmap.sync_overlap.nodes"] = sum(
        spans[i].attrs["nodes"] for i in by_name.get("dmap.sync_overlap", ()))
    m["dmap.sphere_map.self_s"] = self_s("dmap.sphere_map")

    schedules = by_name.get("sweepout.select_ball_schedule", [])
    sampler_calls = sum(1 for i in schedules for k in kids[i]
                        if spans[k].name == "dirichlet.energy_improvement")
    stages = sum(spans[i].attrs["stages"] for i in schedules if "stages" in spans[i].attrs)
    m["sweepout.stage_yield"] = stages / sampler_calls if sampler_calls else 0.0
    m["sweepout.iteration_s_p50"] = _iteration_p50(spans, by_name, kids)
    for ph in SWEEPOUT_PHASES:
        m[f"sweepout.{ph}.total_s"] = total_s(f"sweepout.{ph}")

    for key in SUITES:
        m[f"certlab.{key}.s"] = total_s(f"certlab.{key}")
    for key, n in instances_ran(spans).items():
        m[f"certlab.{key}.instances_ran"] = n
    m["certlab.solve_cylinder_map.total_s"] = total_s("certlab.solve_cylinder_map")
    m["varifold.varifold_of_map.total_s"] = total_s("varifold.varifold_of_map")
    m["varifold.varifold_distance.total_s"] = total_s("varifold.varifold_distance")
    m["manifold.project.calls"] = calls("manifold.project")
    m["manifold.project.self_s"] = self_s("manifold.project")

    layer_self = {layer: 0.0 for layer in LAYERS}
    for sp, s in zip(spans, selfs):
        layer = sp.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += s
    for layer, s in layer_self.items():
        m[f"layer.{layer}.self_s"] = s
    run = spans[run_index]
    m["trace.run_s"] = run.duration
    m["trace.remainder_s"] = selfs[run_index]
    m["trace.overhead_frac"] = run.duration / untraced_run_s - 1.0
    return m


def _iteration_p50(spans, by_name, kids):
    """Median tightening iteration: from the loop's start (or the previous
    iteration's width estimate) to the width estimate that closes it."""
    times = []
    for t in by_name.get("sweepout.tighten", ()):
        ks = kids[t]
        n_iter = sum(1 for k in ks if spans[k].name == "sweepout.tighten_once")
        ends = [spans[k].end for k in ks if spans[k].name == "sweepout.width_estimate"]
        prev = spans[t].start
        for end in ends[:n_iter]:
            times.append(end - prev)
            prev = end
    return float(np.median(times)) if times else 0.0
