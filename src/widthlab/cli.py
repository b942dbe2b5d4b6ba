"""Command-line driver: experiment orchestration and artifact emission.

Subcommands

  verify     run certificate suites, write JSON reports
  width      build a fixture sweepout, tighten it, emit the iteration CSV
  bubble     degree-two bubble family: energies, varifold distances,
             concentration detection
  ricci      round-flow extinction demonstration plus the integrated bound,
             and the equator's area rate through the varifold pairing
  calibrate  dyadic scan of the small-energy threshold

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
from .config import check_value, load_config
from .errors import ConfigError, WidthlabError

EXIT_OK, EXIT_CHECK, EXIT_CONFIG, EXIT_SOLVER = 0, 2, 3, 4

# flag -> the config key it overrides, which is also the flag's argparse dest
FLAG_KEYS = {"--seed": "run.seed", "--out": "run.out_dir",
             "--max-iters": "sweepout.max_iters", "--r0": "ricci.r0",
             "--dt": "ricci.dt", "--c": "ricci.c"}


def _out_dir(cfg):
    out = cfg["run.out_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out, cfg, extra):
    _finish(out, "manifest.json", {
        "tool": "widthlab", "version": __version__,
        "config_digest": cfg.digest(), "seed": int(cfg["run.seed"]),
        "config": cfg.semantic_values(), **extra})


def _finish(out, name, payload):
    with open(os.path.join(out, name), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------


def cmd_verify(args, cfg):
    names = args.suites or sorted(certlab.SUITES)
    bad = [n for n in names if n not in certlab.SUITES]
    if bad:
        print(f"unknown suite(s): {', '.join(bad)}", file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(cfg)
    _write_manifest(out, cfg, {"command": "verify", "suites": names})
    seed = int(cfg["run.seed"])
    all_ok = True
    for name in names:
        kw = {}
        if name == "convexity":
            kw["eps1"] = cfg["dirichlet.small_energy"]
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
    from . import dirichlet as dr
    from . import dmap as dmod
    from . import sweepout as sw
    from . import varifold as vf
    from .manifold import round_sphere
    dom = cfg.sphere_domain()
    s3 = round_sphere(3, float(cfg["manifold.radius"]))
    fixture = args.fixture.lower()
    try:
        swp = sw.standard_sweepout(fixture, s3, dom,
                                   n_slices=int(cfg["sweepout.n_slices"]),
                                   amp=cfg["sweepout.amp"])
    except WidthlabError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(cfg)
    _write_manifest(out, cfg, {"command": "width", "fixture": fixture})
    w0 = sw.width_estimate(swp)
    print(f"initial W_E {w0.w_energy:.6f}  W_A {w0.w_area:.6f}  "
          f"argmax t-index {w0.argmax_t}")
    ref = vf.varifold_of_map(dmod.equator_map(dom, s3))
    tightened, report = sw.tighten(
        swp, max_iters=int(cfg["sweepout.max_iters"]),
        eps1=cfg["dirichlet.small_energy"],
        budget=dr.SamplerBudget(),
        settings=cfg.solver_settings(),
        reference_varifold=ref)
    io.table_csv(os.path.join(out, "solves.csv"),
                 ["sweeps", "residual", "energy_drop", "converged"],
                 [(i.sweeps, i.residual, i.energy_drop, i.converged)
                  for i in report.solves])
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
        "max_solve_residual": max((i.residual for i in report.solves), default=0.0),
        "residual_target": cfg["dirichlet.residual_target"],
    }
    _finish(out, "width-summary.json", summary)
    io.save_sweepout(os.path.join(out, "tightened.sweepout"), tightened)
    print(f"final W_E {final.w_energy:.6f} = 4pi x {summary['final_over_4pi']:.4f} "
          f"after {summary['iterations']} iterations ({report.stopped})")
    if flagged and args.strict_solver:
        return EXIT_SOLVER
    # the width of the round 3-sphere of radius R is 4 pi R^2
    ratio = final.w_energy / (4 * np.pi * s3.radius**2)
    upper = 1.005 if fixture == "latitude-s3" else 1.02
    ok = summary["monotone"] and 0.995 <= ratio <= upper
    return EXIT_OK if ok else EXIT_CHECK


# the energy that `widthlab bubble` asks every test radius to keep around a
# concentration point: an estimate of the Sacks-Uhlenbeck threshold
EPS_SU = 4.0


def cmd_bubble(args, cfg):
    from . import dmap as dmod
    from . import varifold as vf
    from .manifold import round_sphere
    out = _out_dir(cfg)
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
        vu = vf.varifold_of_map(u)
        d = vf.varifold_distance(vu, union, fam)
        rows.append((j, e, a, d))
        ok &= abs(e - 8 * np.pi) <= 0.01 * 8 * np.pi
        ok &= abs(a - 8 * np.pi) <= 0.01 * 8 * np.pi
        print(f"j={j}: energy {e:.5f} area {a:.5f} d_V {d:.5f}")
    ok &= rows[-1][3] <= 0.05
    io.table_csv(os.path.join(out, "bubble.csv"),
                 ["j", "energy", "area", "varifold_distance"], rows)
    # u and vu are the loop's last, the j = 8 bubble and its varifold
    io.varifold_csv(os.path.join(out, "bubble-varifold-j8.csv"), vu)
    pts = vf.detect_concentration(u, EPS_SU, (0.1, 0.2, 0.4))
    _finish(out, "bubble-summary.json", {
        "rows": [[int(j), e, a, d] for j, e, a, d in rows],
        "expected_energy": 8 * np.pi,
        "concentration_points": [[float(x) for x in p] for p in pts],
    })
    return EXIT_OK if ok else EXIT_CHECK


# The equator's area rate under the round flow is -16 pi exactly; through
# the varifold pairing it is off by a quadrature error of 3.2e-7 of that at
# the default n = 129, 2.0e-6 at n = 65 and 1.2e-4 at n = 33.  A relative
# error of 1e-3 is thus no quadrature error but a wrong pairing or rate.
AREA_RATE_TOL = 1e-3 * 16 * np.pi


def cmd_ricci(args, cfg):
    from . import dmap as dmod
    from .manifold import round_sphere
    out = _out_dir(cfg)
    _write_manifest(out, cfg, {"command": "ricci"})
    r0, dt, c = (float(cfg[k]) for k in ("ricci.r0", "ricci.dt", "ricci.c"))
    rep = rc.round_extinction_demo(r0)
    traj = rc.width_bound_integrate(4 * np.pi * r0**2, c, dt)
    w_bound = np.maximum(traj.w_closed, 0.0)
    rows = [(t, w, float(np.interp(t, traj.t, w_bound)), rep.rate_true, b)
            for t, w, b in zip(rep.t, rep.width_true, rep.rate_bound)]
    io.table_csv(os.path.join(out, "ricci.csv"),
                 ["t", "w_true", "w_bound", "rate_true", "rate_bound"], rows)
    equator = dmod.equator_map(cfg.sphere_domain(), round_sphere(3, r0))
    rate = rc.area_rate(equator, rc.ModelFlow.round_s3(r0), 0.0)
    pairing_residual = float(abs(rate - (-16.0 * np.pi)))
    summary = {
        "r0": r0, "dt": dt, "c": c,
        "extinction_true": rep.extinction_true,
        "extinction_closed_form": traj.extinction_closed,
        "extinction_euler": traj.extinction_euler,
        "max_rate_residual": rep.max_rate_residual,
        "pairing_residual": pairing_residual,
    }
    _finish(out, "ricci-summary.json", summary)
    print(f"extinction: true {rep.extinction_true!r}, closed-form bound "
          f"{traj.extinction_closed:.6f}, euler {traj.extinction_euler:.6f}")
    print(f"equator area rate {rate:.9f}, off -16 pi by {pairing_residual:.2e} "
          f"(bound {AREA_RATE_TOL:.2e})")
    agree = abs(traj.extinction_euler - traj.extinction_closed) \
        <= 1e-3 * traj.extinction_closed + 2 * dt
    ok = (rep.max_rate_residual <= 1e-10 and agree
          and pairing_residual <= AREA_RATE_TOL)
    return EXIT_OK if ok else EXIT_CHECK


def uniqueness_check(dom, seed: int, eps1: float):
    """(largest distance, balls admitted) between the solves of ten drawn
    chart-0 balls from a copy of their data and from its projected harmonic
    extension.  The data are a bump half a radius off the ball's centre and
    1.5 radii wide, so the boundary ring is not constant: neither start solves."""
    from . import dirichlet as dr
    from . import dmap as dmod
    from .manifold import round_sphere
    s2 = round_sphere(2, 1.0)
    rng = np.random.default_rng(seed + 1)
    scale = min(1.0, np.sqrt(eps1 / 2.0))
    st = dr.SolverSettings(residual_target=1e-10, max_sweeps=60_000, small_energy=eps1)
    worst, ran = 0.0, 0
    for _ in range(10):
        cx, cy = float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.2, 0.2))
        r = float(rng.uniform(0.15, 0.3))
        bump = dmod.Ball(0, (cx + 0.5 * r, cy), 1.5 * r)
        u = dmod.ball_bump_map(dom, s2, bump, float(rng.uniform(0.1, 0.4)) * scale,
                               rng.normal(size=3))
        b = dmod.Ball(0, (cx, cy), r)
        try:
            v1, _ = dr.solve_dirichlet(u, [b], st, init="copy")
            v2, _ = dr.solve_dirichlet(u, [b], st, init="linear")
        except WidthlabError:
            continue  # instance outside the candidate's regime
        ran += 1
        worst = max(worst, dmod.c0_w12_distance(v1, v2))
    return worst, ran


def cmd_calibrate(args, cfg):
    out = _out_dir(cfg)
    _write_manifest(out, cfg, {"command": "calibrate"})
    seed = int(cfg["run.seed"])
    dom = cfg.sphere_domain()
    results = []
    for cand in (4.0, 2.0, 1.0, 0.5, 0.25):
        conv = certlab.convexity_suite(seed=seed, instances=25, eps1=cand)
        worst_unique, ran = uniqueness_check(dom, seed, cand)
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


# ---------------------------------------------------------------------------


def _key_flag(parser, flag, kind):
    """Add a flag that overrides its config key (FLAG_KEYS)."""
    key = FLAG_KEYS[flag]
    parser.add_argument(flag, type=kind, dest=key, help=f"override {key}",
                        metavar=flag[2:].upper().replace("-", "_"))


def make_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key-value config file")
    _key_flag(common, "--seed", int)
    _key_flag(common, "--out", str)
    p = argparse.ArgumentParser(prog="widthlab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common], help="run certificate suites")
    v.add_argument("suites", nargs="*",
                   help=f"suites to run ({', '.join(sorted(certlab.SUITES))})")
    v.set_defaults(fn=cmd_verify)

    w = sub.add_parser("width", parents=[common], help="tighten a fixture sweepout")
    w.add_argument("--fixture", default="perturbed-latitude-s3")
    _key_flag(w, "--max-iters", int)
    w.add_argument("--strict-solver", action="store_true")
    w.set_defaults(fn=cmd_width)

    b = sub.add_parser("bubble", parents=[common], help="bubble-family demonstration")
    b.set_defaults(fn=cmd_bubble)

    r = sub.add_parser("ricci", parents=[common],
                       help="round-flow extinction demonstration")
    for flag in ("--r0", "--dt", "--c"):
        _key_flag(r, flag, float)
    r.set_defaults(fn=cmd_ricci)

    c = sub.add_parser("calibrate", parents=[common],
                       help="scan the small-energy threshold")
    c.set_defaults(fn=cmd_calibrate)

    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    overrides = {}
    for flag, key in FLAG_KEYS.items():
        value = getattr(args, key, None)
        if value is None:
            continue
        try:
            check_value(key, value)
        except ConfigError as e:
            print(f"config error: {flag}: {e}", file=sys.stderr)
            return EXIT_CONFIG
        overrides[key] = value
    try:
        cfg = load_config(args.config, overrides)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return args.fn(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
