"""Randomized numerical certificate suites for the quantitative inequalities
behind the replacement machinery: the Hardy-type bound for holomorphic
densities, the ODE comparison bound, angular-energy decay on flat
cylinders, constancy of the Hopf integrand, and the one-dimensional trace
inequality; and, solved on chart balls of the sphere, convexity of the
energy on small-energy maps and a measured Hardy-type ratio for harmonic
maps.

Every suite is deterministic given its seed; instance parameters are drawn
once and reports are byte-stable.  The Wente integrals are taken on a polar
grid sized from the generator's degree bounds, on which they are exact up
to rounding.  The four solver-backed suites (hopf, theta-decay, convexity,
harmonic-hardy) solve with over-relaxation (`CYLINDER_RESIDUAL` and SOR 1.9
on cylinders, `BALL_RESIDUAL` and `BALL_OVERRELAX` on balls), count their
solves that `SolveInfo` reports unconverged in `details["unconverged"]`,
and fail when there is one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import dirichlet as dr
from . import dmap as dm
from .dmap import DiscreteMap
from .domains import (CylinderDomain, SphereDomain, bump_weight, d_axis, d_axis_periodic,
                      frozen)
from .errors import EnergyTooLarge, NoZero, PreconditionFail
from .manifold import round_sphere

# suites that redraw rejected instances give up after this many draws per
# requested instance, and then fail
MAX_DRAWS_PER_INSTANCE = 20

# the pass thresholds the suites record as their report's `tolerance`
WENTE_REL_TOL = 1e-8
ODE_TOL = 1e-6
WIRTINGER_TOL = 1e-10
HOPF_TOL = 1e-4
THETA_DECAY_DELTA = 0.1
THETA_DECAY_EPS2 = 0.25  # the theta-decay suite's small-energy gate
CONVEXITY_TOL = 1e-6

# the tangential residuals at which the suites' Dirichlet solves read
# converged (`SolverSettings.residual_target`).  Under the energy-stall
# stop the ball solves ended at residuals up to 2.6e-7 and Hopf's three
# cylinders at 2.8e-5, 2.8e-5 and 5.7e-5 after 4,185 sweeps in all; at
# 1e-4 they end at 2.4e-5, 5.7e-5 and 5.9e-5 after 4,132 (at 6e-5 they
# took 4,307)
BALL_RESIDUAL = 5e-7
CYLINDER_RESIDUAL = 1e-4

# the over-relaxation factor of the ball suites' solves (convexity and
# harmonic-hardy; `SolverSettings.overrelax`).  Sweeps at seed 0,
# convexity / harmonic-hardy, by factor:
#   1.0 (Gauss-Seidel) 40,637 / 12,282    1.75  5,861 / 1,559
#   1.5               14,365 /  4,229    1.8   5,665 / 1,441
#   1.6               10,723 /  3,121    1.85  7,608 / 1,948
#   1.7                7,232 /  2,009    1.9  11,615 / 2,924
# The classical optimum 2 / (1 + sqrt(1 - mu^2)) for discs of 7.7 to 15
# nodes' radius (radii 0.15-0.3 at h = 0.0195) is 1.64 to 1.80.  Over seeds
# 0-9, 1.8 took 57,110 / 14,521 sweeps against Gauss-Seidel's 402,336 /
# 125,223, no solve was unconverged, and the convexity worst margins moved
# by at most 2.3e-8.  At calibrate's candidates (eps1 4 to 0.25, 25
# instances, seeds 0-9) it took 69,659 sweeps against 474,187, with the same
# instances, skips and passes, none unconverged, and worst margins within
# 2.7e-8
BALL_OVERRELAX = 1.8

# convexity instances are relaxed this many at a time, in one lock-step
# `dirichlet.relax_balls` call.  Each member holds its two-chart map (0.8 MB
# at n=129) until its gap is measured.  Peak RSS of the suite for seeds 0
# and 1 read 47.5-47.7 MB one at a time, 48.2-48.4 MB at 4, 49.8-50.2 MB at 6
# and 51.4-51.7 MB at 8, and 6 or 8 were not clearly faster than 4: three
# alternating rounds of the benchmark's verify run on a 2-core machine took
# 15.8/17.6/15.1 s one at a time, 10.9/9.5/12.4 s at 4 and 12.6/9.4/13.1 s at 8
CONVEXITY_GROUP = 4

ODE_SAMPLES = 4097                # Simpson nodes on [-2 ell, 2 ell]
# the ODE suite's baseline bound, taken by `ode_comparison_check` at
# a = ell = 1, must equal the closed form 2 sqrt 2 sinh(1 / sqrt 2).  Both
# evaluate one expression, so they differ by rounding only (they are bit
# equal); a larger relative gap is a wrong bound in the check
ODE_BOUND_REL_TOL = 1e-12
THETA_DECAY_ELLS = (1.5, 3.0)     # half-lengths of the theta-decay cylinders


@dataclass
class CertificateReport:
    name: str
    instances: int
    worst_margin: float
    passed: bool
    seed: int
    tolerance: float
    details: dict = field(default_factory=dict)
    skipped: int = 0

    def to_json(self) -> str:
        """Strict JSON: a float that is not finite is written as null."""
        payload = {
            "name": self.name, "seed": self.seed, "instances": self.instances,
            "skipped": self.skipped, "worst_margin": self.worst_margin,
            "tolerance": self.tolerance, "pass": self.passed,
            "details": self.details,
        }
        return json.dumps(_finite_or_null(payload), sort_keys=True,
                          allow_nan=False)


def _finite_or_null(x):
    """x with every non-finite float in it, however nested, replaced by None."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not np.isfinite(x) else x


# ---------------------------------------------------------------------------
# quadrature helpers (polar Gauss-Legendre x uniform angle: exact for the
# polynomial/trigonometric instances the generators produce)

# the degree bounds of the Wente suite's instances: zeta has degree at most
# WENTE_ZETA_DEGREE, and h's angular modes reach WENTE_TRIG_MODE.  The
# suite draws within them and `POLAR_GRID` is sized from them
WENTE_ZETA_DEGREE = 6
WENTE_TRIG_MODE = 4


def _polar_grid():
    """(radii, radial weights, angles, angular step) on which the integrals
    of `wente_hardy_check` are exact, up to rounding, for zeta of degree at
    most WENTE_ZETA_DEGREE and h of angular modes at most WENTE_TRIG_MODE.

    Against r dr every integrand is a polynomial in r of degree at most
    2 (WENTE_TRIG_MODE + WENTE_ZETA_DEGREE) + 5 (h^2 |zeta|^2 r; the
    gradient term reaches 2 WENTE_TRIG_MODE + 3), which n Gauss-Legendre
    radii integrate exactly once 2n - 1 reaches it; and a trigonometric
    polynomial in theta of frequency at most 2 WENTE_TRIG_MODE +
    WENTE_ZETA_DEGREE, which m uniform angles integrate exactly once m
    exceeds it.  The bounds 6 and 4 give 13 radii and 15 angles."""
    n = WENTE_TRIG_MODE + WENTE_ZETA_DEGREE + 3
    m = 2 * WENTE_TRIG_MODE + WENTE_ZETA_DEGREE + 1
    x, w = np.polynomial.legendre.leggauss(n)
    return (frozen(0.5 * (x + 1.0)), frozen(0.5 * w),
            frozen(np.arange(m) * (2 * np.pi / m)), 2 * np.pi / m)


# built once on import
POLAR_GRID = _polar_grid()


# ---------------------------------------------------------------------------
# Hardy-type bound for holomorphic densities

def wente_hardy_check(zeta_coeffs, cos_coeffs, sin_coeffs) -> dict:
    """Integrals for h^2 |zeta|^2 <= 8 (int |grad h|^2)(int |zeta|^2) on the
    unit disk, with zeta the polynomial with given complex coefficients and
    h = (1 - r^2) * sum_k r^k (a_k cos k theta + b_k sin k theta)."""
    r, wr, theta, dth = POLAR_GRID
    z = r[:, None] * np.exp(1j * theta[None, :])
    zeta = np.zeros_like(z)
    for ck in reversed(zeta_coeffs):
        zeta = zeta * z + ck
    z2 = np.abs(zeta) ** 2
    a = np.asarray(cos_coeffs, float)
    b = np.asarray(sin_coeffs, float)
    ks = np.arange(len(a))
    rk = r[:, None] ** ks[None, :]                      # (radii, K)
    trig = (a[None, None, :] * np.cos(ks[None, None, :] * theta[None, :, None])
            + b[None, None, :] * np.sin(ks[None, None, :] * theta[None, :, None]))
    q = np.einsum("rk,rtk->rt", rk, np.broadcast_to(trig, (len(r),) + trig.shape[1:]))
    with np.errstate(divide="ignore", invalid="ignore"):
        rk1 = np.where(ks[None, :] > 0, r[:, None] ** np.maximum(ks[None, :] - 1, 0), 0.0)
    q_r = np.einsum("rk,rtk->rt", ks[None, :] * rk1,
                    np.broadcast_to(trig, (len(r),) + trig.shape[1:]))
    dtrig = (-a[None, None, :] * np.sin(ks[None, None, :] * theta[None, :, None])
             + b[None, None, :] * np.cos(ks[None, None, :] * theta[None, :, None]))
    q_t = np.einsum("rk,rtk->rt", ks[None, :] * rk,
                    np.broadcast_to(dtrig, (len(r),) + dtrig.shape[1:]))
    one_m_r2 = (1.0 - r**2)[:, None]
    h = one_m_r2 * q
    h_r = -2.0 * r[:, None] * q + one_m_r2 * q_r
    h_t = one_m_r2 * q_t
    area_w = (wr * r)[:, None] * dth
    lhs = float(np.sum(h**2 * z2 * area_w))
    grad2 = float(np.sum((h_r**2 + np.divide(h_t, r[:, None]) ** 2) * area_w))
    zeta2 = float(np.sum(z2 * area_w))
    rhs = 8.0 * grad2 * zeta2
    return {"lhs": lhs, "grad_h_sq": grad2, "zeta_sq": zeta2,
            "rhs": rhs, "margin": rhs - lhs}


def wente_hardy_suite(seed: int, instances: int = 1000) -> CertificateReport:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(instances):
        deg = int(rng.integers(1, WENTE_ZETA_DEGREE + 1))
        zc = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        k = int(rng.integers(1, WENTE_TRIG_MODE + 1))
        a = rng.normal(size=k + 1)
        b = rng.normal(size=k + 1)
        b[0] = 0.0
        out = wente_hardy_check(zc, a, b)
        worst = min(worst, out["margin"] / max(out["rhs"], 1e-300))
    base = wente_hardy_check([1.0], [1.0], [0.0])
    ratio = base["lhs"] / (base["grad_h_sq"] * base["zeta_sq"])
    details = {
        "worst_relative_margin": worst,
        "baseline_ratio": ratio,
        "baseline_expected": 1.0 / (6.0 * np.pi),
        "baseline_error": abs(ratio - 1.0 / (6.0 * np.pi)),
    }
    passed = (instances > 0 and worst >= -WENTE_REL_TOL
              and details["baseline_error"] <= 1e-6)
    return CertificateReport("wente", instances, float(worst), bool(passed),
                             seed, WENTE_REL_TOL, details)


# ---------------------------------------------------------------------------
# ODE comparison bound

def ode_comparison_check(f, a: float, ell: float) -> dict:
    """Margin of  int f >= 2 sqrt(2) a sinh(ell / sqrt 2)  for a sampled f on
    [-2 ell, 2 ell] with f'' >= f - a and max f >= 2a on the inner window."""
    f = np.asarray(f, float)
    n = len(f)
    if n % 2 == 0:
        raise ValueError("need an odd number of samples for Simpson")
    h = 4.0 * ell / (n - 1)
    fpp = (f[2:] - 2 * f[1:-1] + f[:-2]) / h**2
    scale = max(np.max(np.abs(f)), a, 1.0)
    if np.min(fpp - (f[1:-1] - a)) < -1e-6 * scale:
        raise PreconditionFail("sampled f'' >= f - a fails on the grid")
    t = np.linspace(-2 * ell, 2 * ell, n)
    inner = np.abs(t) <= ell + 1e-12
    if np.max(f[inner]) < 2 * a * (1 - 1e-12):
        raise PreconditionFail("max of f on the inner window is below 2a")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    integral = float(np.sum(w * f) * h / 3.0)
    bound = 2.0 * np.sqrt(2.0) * a * np.sinh(ell / np.sqrt(2.0))
    return {"integral": integral, "bound": bound, "margin": integral - bound}


def ode_comparison_suite(seed: int, instances: int = 1000) -> CertificateReport:
    rng = np.random.default_rng(seed)
    worst = np.inf
    skipped = 0
    done = 0
    while done < instances and done + skipped < MAX_DRAWS_PER_INSTANCE * instances:
        ell = float(rng.uniform(0.5, 2.0))
        a = float(rng.uniform(0.1, 5.0))
        c = float(rng.uniform(1.0, 3.0)) * a
        t0 = float(rng.uniform(-ell, ell))
        d = float(rng.uniform(0.0, 1.0)) * a
        kap = float(rng.uniform(1.0, 3.0))
        t1 = float(rng.uniform(-2 * ell, 2 * ell))
        t = np.linspace(-2 * ell, 2 * ell, ODE_SAMPLES)
        f = a + c * np.cosh(t - t0) + d * np.cosh(kap * (t - t1))
        try:
            out = ode_comparison_check(f, a, ell)
        except PreconditionFail:
            skipped += 1
            continue
        worst = min(worst, out["margin"])
        done += 1
    if done == 0 or done < instances:
        return CertificateReport("ode-comparison", done, float(worst), False,
                                 seed, ODE_TOL, skipped=skipped)
    ell0, a0 = 1.0, 1.0
    t = np.linspace(-2.0, 2.0, ODE_SAMPLES)
    base = ode_comparison_check(a0 + np.cosh(t), a0, ell0)
    exact = 4.0 + 2.0 * np.sinh(2.0)
    bound_exact = 2 * np.sqrt(2) * np.sinh(1 / np.sqrt(2))
    details = {
        "baseline_integral": base["integral"],
        "baseline_exact": exact,
        "baseline_bound": base["bound"],
        "baseline_bound_exact": bound_exact,
        "baseline_error": abs(base["integral"] - exact) / exact,
    }
    passed = (worst >= -ODE_TOL and details["baseline_error"] <= 1e-6
              and abs(base["bound"] - bound_exact) <= ODE_BOUND_REL_TOL * bound_exact)
    return CertificateReport("ode-comparison", done, float(worst), bool(passed),
                             seed, ODE_TOL, details, skipped=skipped)


# ---------------------------------------------------------------------------
# cylinder maps: solves, angular-energy decay, Hopf constancy

def cylinder_domain(ell: float, n_t: int, n_theta: int) -> CylinderDomain:
    """The cylinder [-3 ell, 3 ell] x S^1."""
    return CylinderDomain(-3 * ell, 3 * ell, n_t, n_theta)


def solve_cylinder_map(dom: CylinderDomain, target, trace_low, trace_high):
    """Harmonic map with the given end-circle traces (arrays (n_theta, N)),
    and the solve's `SolveInfo`: a pair (DiscreteMap, SolveInfo)."""
    lo = np.asarray(trace_low, float)
    hi = np.asarray(trace_high, float)
    vals = np.empty((dom.n_t, dom.n_theta, lo.shape[-1]))
    s = np.linspace(0.0, 1.0, dom.n_t)[:, None, None]
    vals[:] = target.project((1 - s) * lo[None] + s * hi[None])
    interior = np.ones(vals.shape[:2], bool)
    interior[0, :] = interior[-1, :] = False
    settings = dr.SolverSettings(residual_target=CYLINDER_RESIDUAL, max_sweeps=200_000,
                                 overrelax=1.9)
    info = dr.relax(vals, interior, target, settings,
                    1.0 / dom.h_t**2, 1.0 / dom.h_theta**2, periodic_y=True)
    return DiscreteMap(dom, target, [vals]), info


def theta_energy_decay_check(u: DiscreteMap, ell: float, delta: float,
                             eps2: float) -> dict:
    """Compare the inner angular energy with delta times the double-window
    total energy; the small-energy gate eps2 excludes out-of-regime maps."""
    dom = u.domain
    energy = dm.energy(u)
    if energy > eps2:
        return {"applicable": False, "energy": float(energy), "eps2": eps2}
    ut, uth = dm.chart_differential(u, 0)
    w = dom.flat_weights
    inner = np.abs(dom.t) <= ell + 1e-12
    double = np.abs(dom.t) <= 2 * ell + 1e-12
    num = float(np.sum((uth[inner] ** 2).sum(-1) * w[inner]))
    den = float(np.sum(((ut**2 + uth**2).sum(-1) * w)[double]))
    ratio = num / max(den, 1e-300)
    return {"applicable": True, "energy": float(energy), "ratio": ratio,
            "delta": delta, "pass": bool(ratio < delta)}


def hopf_constancy(u: DiscreteMap) -> dict:
    """Deviation of c(t) = int_t (|u_t|^2 - |u_theta|^2) from constancy, plus
    the complex Hopf field and its discrete dbar residual."""
    dom = u.domain
    ut, uth = dm.chart_differential(u, 0)
    integrand = np.sum(ut**2, -1) - np.sum(uth**2, -1)
    c = integrand.sum(axis=1) * dom.h_theta
    interior = slice(2, -2)
    ci = c[interior]
    mean = float(np.mean(ci))
    deviation = float(np.max(np.abs(ci - mean))) if len(ci) else 0.0
    phi = integrand - 2j * np.sum(ut * uth, -1)
    dbar = 0.5 * (d_axis(phi.real, dom.h_t, 0) - d_axis_periodic(phi.imag, dom.h_theta, 1)
                  + 1j * (d_axis(phi.imag, dom.h_t, 0) + d_axis_periodic(phi.real, dom.h_theta, 1)))
    scale = float(np.max(np.abs(phi)) + 1e-300)
    return {"c": c, "mean": mean, "deviation": deviation,
            "hopf_field": phi, "dbar_max": float(np.max(np.abs(dbar[interior, :]))),
            "scale": scale}


# ---------------------------------------------------------------------------
# trace inequality on the circle

def wirtinger_check(f) -> dict:
    """Margin of  int |f|^2 <= 4 int |f'|^2  for a sampled trace on the circle
    that vanishes at some sample node."""
    f = np.asarray(f, float)
    if f.ndim == 1:
        f = f[:, None]
    m = f.shape[0]
    mags = np.linalg.norm(f, axis=-1)
    if np.min(mags) > 1e-9 * (1.0 + np.max(mags)):
        raise NoZero("trace does not vanish at any sample")
    fp = dm.fft_theta_derivative(f)
    dth = 2 * np.pi / m
    int_f2 = float(np.sum(f**2) * dth)
    int_fp2 = float(np.sum(fp**2) * dth)
    return {"int_f2": int_f2, "int_fp2": int_fp2,
            "margin": 4.0 * int_fp2 - int_f2}


def wirtinger_suite(seed: int, instances: int = 1000) -> CertificateReport:
    rng = np.random.default_rng(seed)
    theta = np.arange(256) * (2 * np.pi / 256)
    worst = np.inf
    for _ in range(instances):
        k = int(rng.integers(1, 9))
        a = rng.normal(size=k + 1)
        b = rng.normal(size=k + 1)
        g = sum(a[j] * np.cos(j * theta) + b[j] * np.sin(j * theta)
                for j in range(k + 1))
        g = g - g[int(rng.integers(0, len(theta)))]
        out = wirtinger_check(g)
        worst = min(worst, out["margin"])
    t0 = np.sin(theta)
    base = wirtinger_check(t0)
    details = {"baseline_int_f2": base["int_f2"], "baseline_int_fp2": base["int_fp2"],
               "baseline_margin": base["margin"], "baseline_expected_margin": 3 * np.pi}
    passed = (instances > 0 and worst >= -WIRTINGER_TOL
              and abs(base["margin"] - 3 * np.pi) <= 1e-9)
    return CertificateReport("wirtinger", instances, float(worst), bool(passed),
                             seed, WIRTINGER_TOL, details)


# ---------------------------------------------------------------------------
# solver-backed suites

def hopf_suite(seed: int) -> CertificateReport:
    """Harmonic cylinder maps of [-1, 1] x S^1 into the unit 2-sphere whose
    ends both trace the circle at polar angle 0.3; checks constancy of the
    Hopf integrand and its second-order decay under grid refinement, and
    fails when a cylinder solve is unconverged.  The suite draws nothing at
    random: `seed` is accepted for the `SUITES` call and recorded only in
    the report's `seed` field."""
    s2 = round_sphere(2, 1.0)
    devs = []
    unconverged = 0
    for (n_t, n_th) in ((65, 64), (129, 128), (257, 256)):
        dom = CylinderDomain(-1.0, 1.0, n_t, n_th)
        th = np.arange(n_th) * (2 * np.pi / n_th)
        trace = np.stack([np.sin(0.3) * np.cos(th), np.sin(0.3) * np.sin(th),
                          np.full_like(th, np.cos(0.3))], axis=-1)
        u, info = solve_cylinder_map(dom, s2, trace, trace)
        unconverged += not info.converged
        rep = hopf_constancy(u)
        scale = max(abs(rep["mean"]), rep["scale"] * 2 * np.pi)
        devs.append(rep["deviation"] / max(scale, 1e-300))
    orders = [np.log2(devs[i] / devs[i + 1]) for i in range(len(devs) - 1)]
    finest = devs[-1]
    details = {"relative_deviations": devs, "refinement_orders": orders,
               "unconverged": unconverged}
    passed = (finest <= HOPF_TOL and all(o >= 1.5 for o in orders)
              and unconverged == 0)
    return CertificateReport("hopf", len(devs), float(-finest), bool(passed),
                             seed, HOPF_TOL, details)


def theta_decay_suite(seed: int) -> CertificateReport:
    """Small-amplitude single-mode boundary data on lengthening cylinders:
    the interior angular-energy fraction must fall under THETA_DECAY_DELTA
    and shrink as the cylinder doubles, from converged solves.  The details
    carry a small dyadic feasibility scan over (energy gate, window
    length)."""
    s2 = round_sphere(2, 1.0)
    ratios = []
    energies = []
    unconverged = 0
    for ell in THETA_DECAY_ELLS:
        dom = cylinder_domain(ell, n_t=int(48 * ell) * 2 + 1, n_theta=64)
        th = dom.theta
        base = np.array([0.0, 0.0, 1.0])
        trace = base[None, :] + 0.05 * np.stack(
            [np.cos(th), np.zeros_like(th), np.zeros_like(th)], axis=-1)
        u, info = solve_cylinder_map(dom, s2, trace, trace)
        unconverged += not info.converged
        out = theta_energy_decay_check(u, ell, THETA_DECAY_DELTA, THETA_DECAY_EPS2)
        if not out["applicable"]:
            return CertificateReport("theta-decay", 0, 0.0, False, seed,
                                     THETA_DECAY_DELTA,
                                     {"error": "energy gate failed",
                                      "unconverged": unconverged, **out})
        ratios.append(out["ratio"])
        energies.append(out["energy"])
    scan = [{"eps2": e2, "ell": ell, "applicable": bool(en <= e2),
             "feasible": bool(en <= e2 and r < THETA_DECAY_DELTA), "ratio": r}
            for e2 in (0.125, 0.25, 0.5)
            for ell, r, en in zip(THETA_DECAY_ELLS, ratios, energies)]
    details = {"ells": list(THETA_DECAY_ELLS), "ratios": ratios,
               "delta": THETA_DECAY_DELTA, "energies": energies, "scan": scan,
               "monotone_decreasing": bool(all(a > b for a, b in
                                               zip(ratios, ratios[1:]))),
               "unconverged": unconverged}
    passed = (all(r < THETA_DECAY_DELTA for r in ratios)
              and details["monotone_decreasing"] and unconverged == 0)
    return CertificateReport("theta-decay", len(ratios),
                             float(THETA_DECAY_DELTA - max(ratios)), bool(passed),
                             seed, THETA_DECAY_DELTA, details)


def harmonic_hardy_suite(seed: int, instances: int = 25) -> CertificateReport:
    """Measured-only companion of the holomorphic-density bound: the ratio
    int h^2 |grad v|^2 / [(int |grad h|^2)(int |grad v|^2)] over solver
    harmonic maps v into the unit 2-sphere with random interior test fields
    h.  The sharp constant is unknown, so the suite archives the ratio
    distribution and only asserts finiteness and converged solves.

    The ratio measures solver error, not a harmonic map: `ball_bump_map`
    puts its bump on the solved ball itself, so the boundary values are the
    constant south pole and the exact solution v is constant.  On the first
    four instances of seed 6, int |grad v|^2 over the ball reads 1.3e-11 to
    3.8e-11 under Gauss-Seidel and 8e-14 to 1e-12 under BALL_OVERRELAX,
    against 0.008 to 0.41 for the data; and the largest ratio moves with
    the relaxation (0.022 -> 0.041 on seed 6, 0.024 -> 0.046 on seed 5)."""
    rng = np.random.default_rng(seed)
    dom = SphereDomain()
    s2 = round_sphere(2, 1.0)
    settings = dr.SolverSettings(residual_target=BALL_RESIDUAL, max_sweeps=30_000,
                                 overrelax=BALL_OVERRELAX)
    ratios = []
    skipped = unconverged = 0
    while (len(ratios) < instances
           and len(ratios) + skipped < MAX_DRAWS_PER_INSTANCE * instances):
        cx, cy = float(rng.uniform(-0.15, 0.15)), float(rng.uniform(-0.15, 0.15))
        rad = float(rng.uniform(0.15, 0.28))
        b = dm.Ball(0, (cx, cy), rad)
        u = dm.ball_bump_map(dom, s2, b, float(rng.uniform(0.1, 0.3)),
                             rng.normal(size=3))
        v, info = dr.solve_dirichlet(u, [b], settings)
        unconverged += not info.converged
        gx, gy = dm.chart_differential(v, 0)
        grad_v2 = np.sum(gx * gx, -1) + np.sum(gy * gy, -1)
        mask = dm.ball_mask(dom, b)
        px = float(rng.uniform(-0.5, 0.5) * rad + cx)
        py = float(rng.uniform(-0.5, 0.5) * rad + cy)
        wid = float(rng.uniform(0.3, 0.9)) * rad
        h = bump_weight(dom.X, dom.Y, (px, py), wid)
        h[~mask] = 0.0
        hx = d_axis(h, dom.h, 0)
        hy = d_axis(h, dom.h, 1)
        cell = dom.h**2
        num = float(np.sum((h**2 * grad_v2)[mask]) * cell)
        den_h = float(np.sum((hx**2 + hy**2)[mask]) * cell)
        den_v = float(np.sum(grad_v2[mask]) * cell)
        if den_h * den_v <= 1e-18:
            skipped += 1
            continue
        ratios.append(num / (den_h * den_v))
    if not ratios or len(ratios) < instances:
        return CertificateReport("harmonic-hardy", len(ratios),
                                 -max(ratios, default=-np.inf), False, seed,
                                 float("inf"), {"unconverged": unconverged},
                                 skipped=skipped)
    arr = np.array(ratios)
    details = {"max_ratio": float(arr.max()), "median_ratio": float(np.median(arr)),
               "min_ratio": float(arr.min()), "holomorphic_case_constant": 8.0,
               "unconverged": unconverged}
    passed = bool(np.all(np.isfinite(arr))) and unconverged == 0
    return CertificateReport("harmonic-hardy", instances, float(-arr.max()),
                             passed, seed, float("inf"), details)


def convexity_suite(seed: int, instances: int = 100,
                    eps1: float = 2.0) -> CertificateReport:
    """Randomized small-energy Dirichlet solves on chart balls of the sphere
    with projected interior perturbations: the convexity gap must be
    nonnegative at solver tolerance, and every solve converged.  Instances
    whose ball leaves the chart or whose energy exceeds eps1 are skipped;
    `instances` counts the rest.

    Instances are drawn one by one and solved in groups of CONVEXITY_GROUP;
    no draw depends on a solution, so the report does not depend on the
    group width.  Maps are built without the owner sync: an instance reads
    only chart-0 ball nodes and nodes within two grid steps of one, at chart-0
    radius at most sqrt(1/3) + 0.3 + 2h ~ 0.92 < 1 (base z <= -0.5, radius
    <= 0.3), which chart 0 owns and the sync never writes; chart 1 is unread."""
    rng = np.random.default_rng(seed)
    dom = SphereDomain()
    s2 = round_sphere(2, 1.0)
    settings = dr.SolverSettings(residual_target=BALL_RESIDUAL, max_sweeps=30_000,
                                 small_energy=eps1, overrelax=BALL_OVERRELAX)
    scale = min(1.0, np.sqrt(eps1 / 2.0))
    solved, group = [], []
    skipped = 0
    for _ in range(instances):
        base = np.array([0.0, 0.0, -1.0]) + 0.35 * rng.normal(size=3)
        base /= np.linalg.norm(base)
        if base[2] > -0.5:
            base = np.array([0.0, 0.0, -1.0])
        cx, cy = (float(v) for v in dom.sphere_to_chart(0, base))
        rad = float(rng.uniform(0.15, 0.3))
        b = dm.Ball(0, (cx, cy), rad)
        if not dm.ball_fits_chart(dom, b):
            skipped += 1
            continue
        amp = float(rng.uniform(0.05, 0.35)) * scale
        vec = rng.normal(size=3)
        px, py = float(rng.uniform(-rad, rad) + cx), float(rng.uniform(-rad, rad) + cy)
        wid = float(rng.uniform(0.3, 0.9)) * rad

        def fn(p):
            bump = bump_weight(*dom.sphere_to_chart(0, p), (px, py), wid)
            return base + amp * bump[..., None] * vec

        u = dm.sphere_map(dom, s2, fn, sync=False)
        h = float(rng.uniform(0.01, 0.05))
        try:
            dr.check_small_energy(u, [b], settings)
        except EnergyTooLarge:
            skipped += 1  # instance outside the candidate's admissible regime
            continue
        qx, qy = float(cx + rng.uniform(-0.3, 0.3) * rad), float(cy + rng.uniform(-0.3, 0.3) * rad)
        qw = float(rng.uniform(0.2, 0.6)) * rad
        group.append((u, b, h, (qx, qy), qw, rng.normal(size=3)))
        if len(group) == CONVEXITY_GROUP:
            solved += _convexity_gaps(group, dom, s2, settings)
            group = []
    solved += _convexity_gaps(group, dom, s2, settings)
    worst = min([np.inf, *(gap for gap, _ in solved)])
    unconverged = sum(not ok for _, ok in solved)
    passed = len(solved) > 0 and worst >= -CONVEXITY_TOL and unconverged == 0
    return CertificateReport("convexity", len(solved), float(worst), bool(passed),
                             seed, CONVEXITY_TOL, {"eps1": eps1, "unconverged": unconverged},
                             skipped=skipped)


def _convexity_gaps(group, dom, s2, settings):
    """Solve the group's chart-0 balls in place, in one lock-step call, then
    the convexity gap of each solution against its projected interior
    perturbation, member by member: a (gap, converged) pair each.  Only the
    ball's box, all that `convexity_gap` reads, is perturbed."""
    infos = dr.relax_balls([(u, b) for u, b, *_ in group], settings)
    out = []
    for (u, b, h, centre, qw, noise), info in zip(group, infos):
        box = dm.ball_box(dom, b)[0]
        inner = bump_weight(dom.X[box], dom.Y[box], centre, qw)
        pert = u.copy()
        pert.values[0][box] = s2.project(pert.values[0][box] + h * inner[..., None] * noise)
        out.append((dr.convexity_gap(pert, u, [b]), info.converged))
    return out


SUITES = {
    "wente": wente_hardy_suite,
    "ode-comparison": ode_comparison_suite,
    "wirtinger": wirtinger_suite,
    "hopf": hopf_suite,
    "theta-decay": theta_decay_suite,
    "convexity": convexity_suite,
    "harmonic-hardy": harmonic_hardy_suite,
}
