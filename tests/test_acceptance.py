"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its measured values and wall time (run with -s to see them all).

Tolerances are pinned here and nowhere else; the heavy tightening run is
criterion 4, about 24 s on 2 cores at the default resolution.
"""
import time

import numpy as np
import pytest

from widthlab import certlab as cl
from widthlab import dirichlet as dr
from widthlab import dmap as dm
from widthlab import ricci as rc
from widthlab import sweepout as sw
from widthlab import varifold as vf
from widthlab.domains import SphereDomain
from widthlab.errors import WidthlabError
from widthlab.manifold import round_sphere

FOUR_PI = 4 * np.pi
EPS1 = 2.0


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def report(num, name, ok, detail, seconds, limit):
    status = "PASS" if ok and seconds < limit else "FAIL"
    print(f"[{status}] criterion {num:2d} ({name}): {detail} "
          f"[{seconds:.1f}s / limit {limit:.0f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert seconds < limit, f"criterion {num} exceeded {limit}s ({seconds:.1f}s)"


@pytest.fixture(scope="module")
def adom():
    return SphereDomain()


def test_criterion_01_bubble_energies(adom):
    with Timer() as t:
        vals = []
        ok = True
        for j in (1, 2, 4, 8):
            u = vf.bubble_example(j, adom)
            e, a = dm.energy(u), dm.area(u)
            vals.append((j, e, a))
            ok &= abs(e - 8 * np.pi) <= 0.01 * 8 * np.pi
            ok &= abs(a - 8 * np.pi) <= 0.01 * 8 * np.pi
    worst = max(abs(e - 8 * np.pi) / (8 * np.pi) for _, e, _ in vals)
    report(1, "bubble energies", ok, f"worst rel err {worst:.2e} vs 1% of 8pi",
           t.seconds, 10)


def test_criterion_02_identity_energy():
    with Timer() as t:
        dom = SphereDomain()
        e = dm.energy(dm.identity_sphere_map(dom))
    err = abs(e - FOUR_PI) / FOUR_PI
    report(2, "identity energy", err <= 0.005, f"rel err {err:.2e} vs 0.5%",
           t.seconds, 1)


def test_criterion_03_latitude_width(adom):
    s3 = round_sphere(3, 1.0)
    with Timer() as t:
        lat = sw.standard_sweepout("latitude-s3", s3, adom, n_slices=64)
        west = sw.width_estimate(lat)
    ok = (abs(west.w_energy - FOUR_PI) <= 0.005 * FOUR_PI
          and abs(west.w_area - FOUR_PI) <= 0.005 * FOUR_PI
          and west.argmax_t == 32)
    report(3, "latitude width", ok,
           f"W_E {west.w_energy:.5f} W_A {west.w_area:.5f} argmax {west.argmax_t}/64",
           t.seconds, 10)


@pytest.mark.slow
def test_criterion_04_tightening_recovery(adom):
    s3 = round_sphere(3, 1.0)
    with Timer() as t:
        pert = sw.standard_sweepout("perturbed-latitude-s3", s3, adom,
                                    n_slices=64, amp=0.3)
        w0 = sw.width_estimate(pert).w_energy
        ref = vf.varifold_of_map(dm.equator_map(adom, s3))
        out, rep = sw.tighten(pert, max_iters=30, eps1=EPS1,
                              budget=dr.SamplerBudget(),
                              settings=dr.SolverSettings(small_energy=EPS1),
                              reference_varifold=ref)
    series = rep.w_energy_series()
    final = rep.final_width.w_energy
    monotone = bool(np.all(np.diff(series) <= 1e-6 * FOUR_PI))
    areas_below = all(r.w_area <= r.w_energy + 1e-9 for r in rep.rows)
    gap_small = (final - rep.final_width.w_area) <= 0.01 * final
    ok = (w0 > FOUR_PI * 1.02
          and final <= 1.02 * FOUR_PI
          and len(series) <= 30
          and monotone
          and areas_below
          and gap_small
          and rep.varifold_distance is not None
          and rep.varifold_distance <= 0.05)
    report(4, "tightening recovery", ok,
           f"W_E {w0/FOUR_PI:.4f} -> {final/FOUR_PI:.4f} x4pi in "
           f"{len(series)} iters, monotone {monotone}, "
           f"d_V(argmax, equator) {rep.varifold_distance:.2e} vs 0.05",
           t.seconds, 1800)


def test_criterion_05_convexity_suite():
    with Timer() as t:
        rep = cl.convexity_suite(seed=0, instances=100, eps1=EPS1)
    report(5, "convexity suite", rep.passed and rep.worst_margin >= -1e-6,
           f"worst gap {rep.worst_margin:.3e} vs -1e-6 over {rep.instances}",
           t.seconds, 300)


def test_criterion_06_wente_suite():
    with Timer() as t:
        rep = cl.wente_hardy_suite(seed=0, instances=1000)
    ok = (rep.passed and rep.worst_margin >= -1e-8
          and rep.details["baseline_error"] <= 1e-6)
    report(6, "hardy bound for holomorphic densities", ok,
           f"worst rel margin {rep.worst_margin:.3e}, closed-form ratio err "
           f"{rep.details['baseline_error']:.2e} vs 1e-6", t.seconds, 120)


def test_criterion_07_ode_suite():
    with Timer() as t:
        rep = cl.ode_comparison_suite(seed=0, instances=1000)
    ok = (rep.passed and rep.worst_margin >= -1e-6
          and rep.details["baseline_error"] <= 1e-6)
    report(7, "ode comparison", ok,
           f"worst margin {rep.worst_margin:.3e}, closed-form err "
           f"{rep.details['baseline_error']:.2e} "
           f"({rep.details['baseline_integral']:.3f} >= "
           f"{rep.details['baseline_bound']:.3f})", t.seconds, 60)


@pytest.mark.slow
def test_criterion_08_hopf_constancy():
    with Timer() as t:
        rep = cl.hopf_suite(seed=0)
    devs = rep.details["relative_deviations"]
    orders = rep.details["refinement_orders"]
    ok = devs[-1] <= 1e-4 and all(o >= 1.5 for o in orders)
    report(8, "hopf constancy", ok,
           f"finest rel deviation {devs[-1]:.2e} vs 1e-4, orders "
           f"{[f'{o:.2f}' for o in orders]}", t.seconds, 300)


def test_criterion_09_ricci_sharpness():
    with Timer() as t:
        demo = rc.round_extinction_demo(1.0)
        tstar = rc.closed_form_extinction(FOUR_PI, 1.0)
        traj = rc.width_bound_integrate(FOUR_PI, 1.0, 1e-4)
        rel = abs(traj.extinction_euler - tstar) / tstar
    ok = (demo.max_rate_residual <= 1e-10
          and demo.extinction_true == 0.25
          and tstar == 1.44140625
          and rel <= 1e-3)
    report(9, "ricci sharpness", ok,
           f"rate residual {demo.max_rate_residual:.1e}, extinction "
           f"{demo.extinction_true}, T* {tstar!r}, euler rel {rel:.1e}",
           t.seconds, 10)


def test_criterion_10_varifold_sanity(adom):
    s2 = round_sphere(2, 1.0)
    with Timer() as t:
        fam = vf.TestFunctionFamily.for_manifold(s2)
        ident = dm.identity_sphere_map(adom, s2)
        vi = vf.varifold_of_map(ident)
        d_self = vf.varifold_distance(vi, vi, fam)
        anti = dm.sphere_map(adom, s2, lambda p: -p)
        d_anti = vf.varifold_distance(vi, vf.varifold_of_map(anti), fam)
        union = vf.VarifoldMeasure.union(
            vi, vf.varifold_of_map(vf.inversion_map(adom)))
        ds = [vf.varifold_distance(vf.varifold_of_map(vf.bubble_example(j, adom)),
                                   union, fam) for j in (1, 2, 4, 8)]
    # the continuum bubble distance is identically zero, so non-increase is
    # asserted up to the measured quadrature scale 0.01 (decisions ledger)
    mono = all(b <= max(a, 0.01) for a, b in zip(ds, ds[1:]))
    ok = d_self == 0.0 and d_anti <= 1e-3 and ds[-1] <= 0.05 and mono
    report(10, "varifold sanity", ok,
           f"d(V,V) {d_self}, id-vs-antipodal {d_anti:.1e} vs 1e-3, bubble "
           f"d at j=8 {ds[-1]:.4f} vs 0.05", t.seconds, 120)


def test_criterion_11_birkhoff_curve_mode():
    with Timer() as t:
        cs = sw.curve_latitude_sweepout(n_slices=32, n_vertices=96)
        out = sw.birkhoff_tighten(cs, max_iters=80)
    err = abs(out["final_max_length"] - 2 * np.pi) / (2 * np.pi)
    ok = out["monotone"] and err <= 0.01
    report(11, "birkhoff curve mode", ok,
           f"max length {out['final_max_length']:.5f} vs 2pi (rel {err:.1e}), "
           f"monotone {out['monotone']}", t.seconds, 60)


def test_criterion_12_collar_interpolation():
    s2 = round_sphere(2, 1.0)
    with Timer() as t:
        rng = np.random.default_rng(0)
        m = 256
        th = np.arange(m) * 2 * np.pi / m
        worst_ratio = 0.0
        exact_bd = True
        done = attempts = 0
        while done < 40 and attempts < 200:
            attempts += 1
            coef = rng.normal(size=(3, 3)) * np.array([[1.0], [0.25], [0.1]])
            loop = (np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], -1)
                    + coef[0] * 0.1)
            for k in (1, 2):
                loop += 0.15 * coef[k][None, :] * np.cos((k + 1) * th)[:, None]
            f = loop / np.linalg.norm(loop, axis=-1, keepdims=True)
            axis = f[0] / np.linalg.norm(f[0])
            ang = float(rng.uniform(0.002, 0.02))
            k_mat = np.array([[0, -axis[2], axis[1]],
                              [axis[2], 0, -axis[0]],
                              [-axis[1], axis[0], 0]])
            rot = np.eye(3) + np.sin(ang) * k_mat + (1 - np.cos(ang)) * (k_mat @ k_mat)
            g = f @ rot.T
            try:
                res = dm.collar_interpolate(f, g, 1.0, s2)
            except WidthlabError:
                continue
            done += 1
            exact_bd &= np.array_equal(res.values[0], f)
            exact_bd &= np.array_equal(res.values[-1], g)
            worst_ratio = max(worst_ratio, res.ratio)
    ok = exact_bd and worst_ratio <= 1.0 and done == 40
    report(12, "collar interpolation", ok,
           f"boundaries exact {exact_bd}, worst measured/bound ratio "
           f"{worst_ratio:.3f} (bound 17*sqrt2)", t.seconds, 60)
