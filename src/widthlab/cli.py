"""Command-line driver: experiment orchestration and artifact emission.

Subcommands

  verify     run certificate suites, write JSON reports
  width      build a fixture sweepout, tighten it, emit the iteration CSV
  bubble     degree-two bubble family: energies, varifold distances,
             concentration detection
  ricci      round-flow extinction demonstration plus the integrated bound
  calibrate  dyadic scan of the small-energy threshold
  plots      turn emitted CSVs into gnuplot-ready .dat files

Exit codes: 0 all checks passed, 2 a required check failed, 3 bad
configuration, 4 a solver failed to converge on a required path.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from . import certlab, io
from . import ricci as rc
from .config import load_config
from .errors import ConfigError, WidthlabError

EXIT_OK, EXIT_CHECK, EXIT_CONFIG, EXIT_SOLVER = 0, 2, 3, 4


def _out_dir(cfg, args):
    out = args.out or cfg["run.out_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out, cfg, extra=None):
    payload = {"tool": "widthlab", "version": __version__,
               "config_digest": cfg.digest(), "seed": int(cfg["run.seed"]),
               "config": cfg.semantic_values()}
    if extra:
        payload.update(extra)
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def _finish(out, name, payload):
    with open(os.path.join(out, name), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------


def cmd_verify(args, cfg):
    out = _out_dir(cfg, args)
    names = args.suites or sorted(certlab.SUITES)
    if any(n not in certlab.SUITES for n in names):
        bad = [n for n in names if n not in certlab.SUITES]
        print(f"unknown suite(s): {', '.join(bad)}", file=sys.stderr)
        return EXIT_CONFIG
    _write_manifest(out, cfg, {"command": "verify", "suites": names})
    seed = int(cfg["run.seed"])
    all_ok = True
    for name in names:
        kw = {}
        if name == "convexity":
            kw["eps1"] = cfg["dirichlet.small_energy"]
        if name == "theta-decay":
            kw["eps2"] = cfg["certlab.eps2"]
        rep = certlab.SUITES[name](seed=seed, **kw)
        path = os.path.join(out, f"verify-{name}.json")
        with open(path, "w") as fh:
            fh.write(rep.to_json() + "\n")
        status = "pass" if rep.passed else "FAIL"
        print(f"{name}: {status} (worst margin {rep.worst_margin:.3e}, "
              f"{rep.instances} instances) -> {path}")
        all_ok &= rep.passed
    return EXIT_OK if all_ok else EXIT_CHECK


def cmd_width(args, cfg):
    from . import dmap as dmod
    from . import sweepout as sw
    from . import varifold as vf
    out = _out_dir(cfg, args)
    _write_manifest(out, cfg, {"command": "width", "fixture": args.fixture})
    dom = cfg.sphere_domain()
    try:
        s3 = cfg.manifold()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if s3.dim != 3 or s3.kind != "sphere":
        print("width fixtures need a round 3-sphere target", file=sys.stderr)
        return EXIT_CONFIG
    fixture = args.fixture.lower()
    try:
        swp = sw.standard_sweepout(fixture, s3, dom,
                                   n_slices=int(cfg["sweepout.n_slices"]),
                                   amp=cfg["sweepout.amp"])
    except WidthlabError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    w0 = sw.width_estimate(swp)
    print(f"initial W_E {w0.w_energy:.6f}  W_A {w0.w_area:.6f}  "
          f"argmax t-index {w0.argmax_t}")
    ref = vf.varifold_of_map(dmod.equator_map(dom, s3))
    from . import dirichlet as dirich
    log_fh = open(os.path.join(out, "solves.csv"), "w")
    dirich.set_solve_log(log_fh)
    try:
        tightened, report = sw.tighten(
            swp, max_iters=int(args.max_iters or cfg["sweepout.max_iters"]),
            plateau_tol=cfg["sweepout.plateau_tol"],
            eps1=cfg["dirichlet.small_energy"],
            budget=cfg.sampler_budget(),
            settings=cfg.solver_settings(),
            reference_varifold=ref)
    finally:
        dirich.set_solve_log(None)
        log_fh.close()
    rows = [(r.iteration, r.w_energy, r.w_area, r.argmax_t, r.total_drop,
             r.max_improvement, r.stages, r.flagged) for r in report.rows]
    io.table_csv(os.path.join(out, "width-iterations.csv"),
                 ["iter", "w_energy", "w_area", "argmax_t", "total_drop",
                  "max_improvement", "stages", "flagged"], rows)
    final = report.final_width
    flagged = sum(r.flagged for r in report.rows)
    summary = {
        "fixture": fixture,
        "initial_w_energy": w0.w_energy,
        "final_w_energy": final.w_energy,
        "final_w_area": final.w_area,
        "final_over_4pi": final.w_energy / (4 * np.pi),
        "argmax_t_index": final.argmax_t,
        "iterations": len(report.rows),
        "stopped": report.stopped,
        "monotone": bool(np.all(np.diff(report.w_energy_series()) <= 1e-9))
        if report.rows else True,
        "varifold_distance_to_equator": report.varifold_distance,
        "flagged_solves": flagged,
    }
    _finish(out, "width-summary.json", summary)
    io.save_sweepout(os.path.join(out, "tightened.sweepout"), tightened)
    print(f"final W_E {final.w_energy:.6f} = 4pi x {summary['final_over_4pi']:.4f} "
          f"after {summary['iterations']} iterations ({report.stopped})")
    if flagged and args.strict_solver:
        return EXIT_SOLVER
    ok = summary["final_over_4pi"] <= 1.02 and summary["monotone"]
    if fixture == "latitude-s3":
        ok = abs(summary["final_over_4pi"] - 1.0) <= 0.005
    return EXIT_OK if ok else EXIT_CHECK


def cmd_bubble(args, cfg):
    from . import dmap as dmod
    from . import varifold as vf
    from .manifold import round_sphere
    out = _out_dir(cfg, args)
    _write_manifest(out, cfg, {"command": "bubble"})
    dom = cfg.sphere_domain()
    fam = vf.TestFunctionFamily.for_manifold(round_sphere(2, 1.0))
    ident = dmod.identity_sphere_map(dom)
    union = vf.VarifoldMeasure.union(vf.varifold_of_map(ident),
                                     vf.varifold_of_map(vf.inversion_map(dom)))
    rows = []
    ok = True
    for j in (1, 2, 4, 8):
        u = vf.bubble_example(j, dom)
        e = dmod.energy(u)
        a = dmod.area(u)
        d = vf.varifold_distance(vf.varifold_of_map(u), union, fam,
                                 int(cfg["varifold.n_terms"]))
        rows.append((j, e, a, d))
        ok &= abs(e - 8 * np.pi) <= 0.01 * 8 * np.pi
        ok &= abs(a - 8 * np.pi) <= 0.01 * 8 * np.pi
        print(f"j={j}: energy {e:.5f} area {a:.5f} d_V {d:.5f}")
    ok &= rows[-1][3] <= 0.05
    io.table_csv(os.path.join(out, "bubble.csv"),
                 ["j", "energy", "area", "varifold_distance"], rows)
    io.varifold_csv(os.path.join(out, "bubble-varifold-j8.csv"),
                    vf.varifold_of_map(vf.bubble_example(8, dom)))
    pts = vf.detect_concentration([vf.bubble_example(j, dom) for j in (1, 2, 4, 8)],
                                  cfg["certlab.eps_su"], (0.1, 0.2, 0.4))
    _finish(out, "bubble-summary.json", {
        "rows": [[int(j), e, a, d] for j, e, a, d in rows],
        "expected_energy": 8 * np.pi,
        "concentration_points": [[float(x) for x in p] for p in pts],
    })
    return EXIT_OK if ok else EXIT_CHECK


def cmd_ricci(args, cfg):
    out = _out_dir(cfg, args)
    _write_manifest(out, cfg, {"command": "ricci"})
    r0 = float(args.r0 if args.r0 is not None else cfg["ricci.r0"])
    dt = float(args.dt if args.dt is not None else cfg["ricci.dt"])
    c = float(args.c if args.c is not None else cfg["ricci.c"])
    try:
        rep = rc.round_extinction_demo(r0, c_for_bound=c,
                                       check_pairing=args.end_to_end)
        traj = rc.width_bound_integrate(4 * np.pi * r0**2, c, dt)
    except WidthlabError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    for t, w in zip(rep.t, rep.width_true):
        min_r = 6.0 / (r0**2 - 4.0 * t)
        rows.append((t, w, float(np.interp(t, traj.t, np.maximum(traj.w_closed, 0.0))),
                     rep.rate_true, rc.minimal_sphere_rate(w, min_r)))
    io.table_csv(os.path.join(out, "ricci.csv"),
                 ["t", "w_true", "w_bound", "rate_true", "rate_bound"], rows)
    summary = {
        "r0": r0, "dt": dt, "c": c,
        "extinction_true": rep.extinction_true,
        "extinction_closed_form": traj.extinction_closed,
        "extinction_euler": traj.extinction_euler,
        "max_rate_residual": rep.max_rate_residual,
        "pairing_residual": rep.pairing_residual,
    }
    if args.end_to_end:
        summary["retighten"] = _retighten_along_flow(r0)
    _finish(out, "ricci-summary.json", summary)
    print(f"extinction: true {rep.extinction_true!r}, closed-form bound "
          f"{traj.extinction_closed:.6f}, euler {traj.extinction_euler:.6f}")
    agree = abs(traj.extinction_euler - traj.extinction_closed) \
        <= 1e-3 * traj.extinction_closed + 2 * dt
    ok = rep.max_rate_residual <= 1e-10 and agree
    return EXIT_OK if ok else EXIT_CHECK


def _retighten_along_flow(r0, sample_fracs=(0.0, 0.4, 0.8)):
    """Coarse end-to-end check: rebuild and re-tighten the latitude sweepout
    under the evolving metric at sampled times and compare the measured
    width with the closed-form equatorial area."""
    from . import dirichlet as dirich
    from . import sweepout as sw
    from .domains import SphereDomain
    from .manifold import round_sphere
    dom = SphereDomain(n=65)
    rows = []
    for frac in sample_fracs:
        t = frac * r0**2 / 4.0
        r = np.sqrt(r0**2 - 4.0 * t)
        swp = sw.standard_sweepout("latitude-s3", round_sphere(3, float(r)),
                                   dom, n_slices=16)
        _, rep = sw.tighten(swp, max_iters=2, eps1=2.0,
                            budget=dirich.SamplerBudget(max_families=4),
                            settings=dirich.SolverSettings(small_energy=2.0))
        w = rep.final_width.w_energy
        rows.append({"t": float(t), "width": float(w),
                     "closed_form": float(4 * np.pi * r**2),
                     "rel_err": float(abs(w - 4 * np.pi * r**2)
                                      / (4 * np.pi * r**2))})
    return rows


def cmd_calibrate(args, cfg):
    from . import dirichlet as dr
    from . import dmap as dmod
    from .domains import bump_weight
    from .manifold import round_sphere
    out = _out_dir(cfg, args)
    _write_manifest(out, cfg, {"command": "calibrate"})
    seed = int(cfg["run.seed"])
    dom = cfg.sphere_domain()
    s2 = round_sphere(2, 1.0)
    results = []
    for cand in (4.0, 2.0, 1.0, 0.5, 0.25):
        conv = certlab.convexity_suite(seed=seed, instances=25, eps1=cand)
        rng = np.random.default_rng(seed + 1)
        scale = min(1.0, np.sqrt(cand / 2.0))
        worst_unique = 0.0
        ran = 0
        for _ in range(10):
            cx, cy = float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.2, 0.2))
            b = dmod.Ball(0, (cx, cy), float(rng.uniform(0.15, 0.3)))
            amp = float(rng.uniform(0.1, 0.4)) * scale
            vec = rng.normal(size=3)

            def fn(p):
                w = bump_weight(*dom.sphere_to_chart(0, p), b.center, b.radius)
                return np.array([0.0, 0.0, -1.0]) + amp * w[..., None] * vec

            u = dmod.sphere_map(dom, s2, fn)
            st = dr.SolverSettings(residual_tol=1e-13, max_sweeps=60_000,
                                   small_energy=cand, residual_stop=1e-10)
            try:
                v1 = dr.solve_dirichlet(dr.DirichletProblem(u, [b], init="copy"), st)
                v2 = dr.solve_dirichlet(dr.DirichletProblem(u, [b], init="linear"), st)
            except WidthlabError:
                continue  # instance outside the candidate's regime
            ran += 1
            worst_unique = max(worst_unique, dmod.c0_w12_distance(v1, v2))
        passed = bool(conv.passed and ran > 0 and worst_unique <= 1e-6)
        results.append({"eps1": cand, "convexity_worst": conv.worst_margin,
                        "uniqueness_worst": float(worst_unique),
                        "uniqueness_instances": ran, "pass": passed})
        print(f"eps1={cand}: convexity worst {conv.worst_margin:.2e}, "
              f"uniqueness worst {worst_unique:.2e} over {ran}, pass {passed}")
    best = next((r["eps1"] for r in results if r["pass"]), None)
    _finish(out, "calibrate.json", {"candidates": results,
                                    "largest_passing": best,
                                    "configured": cfg["dirichlet.small_energy"]})
    return EXIT_OK if best is not None else EXIT_CHECK


def cmd_plots(args, cfg):
    out = _out_dir(cfg, args)
    _write_manifest(out, cfg, {"command": "plots", "inputs": list(args.csv)})
    produced = []
    for path in args.csv:
        if not os.path.exists(path):
            print(f"missing input: {path}", file=sys.stderr)
            return EXIT_CONFIG
        base = os.path.splitext(os.path.basename(path))[0]
        dat = os.path.join(out, base + ".dat")
        with open(path) as src, open(dat, "w") as dst:
            header = src.readline().strip().split(",")
            dst.write("# " + "  ".join(header) + "\n")
            for line in src:
                dst.write("  ".join(line.strip().split(",")) + "\n")
        stub = os.path.join(out, base + ".gp")
        with open(stub, "w") as fh:
            fh.write(f'set datafile commentschars "#"\n'
                     f'plot "{os.path.basename(dat)}" using 1:2 with lines '
                     f'title "{header[1] if len(header) > 1 else base}"\n')
        produced.extend([dat, stub])
    print("\n".join(produced))
    return EXIT_OK


# ---------------------------------------------------------------------------


def make_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key-value config file")
    common.add_argument("--seed", type=int, help="override run.seed")
    common.add_argument("--out", help="override run.out_dir")
    p = argparse.ArgumentParser(prog="widthlab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common], help="run certificate suites")
    v.add_argument("suites", nargs="*",
                   help=f"suites to run ({', '.join(sorted(certlab.SUITES))})")
    v.set_defaults(fn=cmd_verify)

    w = sub.add_parser("width", parents=[common], help="tighten a fixture sweepout")
    w.add_argument("--fixture", default="perturbed-latitude-s3")
    w.add_argument("--max-iters", type=int, dest="max_iters")
    w.add_argument("--strict-solver", action="store_true")
    w.set_defaults(fn=cmd_width)

    b = sub.add_parser("bubble", parents=[common], help="bubble-family demonstration")
    b.set_defaults(fn=cmd_bubble)

    r = sub.add_parser("ricci", parents=[common],
                       help="round-flow extinction demonstration")
    r.add_argument("--r0", type=float)
    r.add_argument("--dt", type=float)
    r.add_argument("--c", type=float)
    r.add_argument("--end-to-end", action="store_true",
                   help="also cross-check the area rate on the discretized equator")
    r.set_defaults(fn=cmd_ricci)

    c = sub.add_parser("calibrate", parents=[common],
                       help="scan the small-energy threshold")
    c.set_defaults(fn=cmd_calibrate)

    g = sub.add_parser("plots", parents=[common],
                       help="emit plot-ready .dat files from CSVs")
    g.add_argument("csv", nargs="+")
    g.set_defaults(fn=cmd_plots)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["run.seed"] = args.seed
    if args.out is not None:
        overrides["run.out_dir"] = args.out
    try:
        cfg = load_config(args.config, overrides)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return args.fn(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
