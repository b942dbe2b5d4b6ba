"""Experiment configuration: one flat key-value file with sectioned keys.

Grammar (docs/config.md): one `section.key = value` per line, `#` comments,
values parsed as JSON scalars/lists with bare strings allowed.  Unknown
keys are rejected before any computation starts.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import ConfigError

DEFAULTS = {
    "manifold.kind": "sphere",
    "manifold.dim": 3,
    "manifold.radius": 1.0,
    "manifold.semi_axes": None,
    "manifold.ambient_dim": None,
    "manifold.tol": 1e-10,
    "dmap.n": 129,
    "dmap.half_width": 1.25,
    "dmap.band": 0.12,
    "dirichlet.residual_tol": 1e-8,
    "dirichlet.max_sweeps": 10_000,
    "dirichlet.small_energy": 2.0,      # the replacement small-energy bound
    "sampler.center_stride": 12,
    "sampler.radii": [0.22, 0.16, 0.11, 0.08, 0.055],
    "sampler.max_families": 8,
    "sampler.max_balls": 4,
    "sampler.excess_seeds": 3,
    "sweepout.n_slices": 64,
    "sweepout.max_iters": 30,
    "sweepout.plateau_tol": 1e-4,
    "sweepout.amp": 0.3,
    "varifold.n_terms": 64,
    "certlab.eps2": 0.25,
    "certlab.eps_su": 4.0,
    "ricci.r0": 1.0,
    "ricci.dt": 1e-4,
    "ricci.c": 1.0,
    "run.seed": 0,
    "run.out_dir": "out",
}


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=lambda: dict(DEFAULTS))

    def __getitem__(self, key):
        return self.values[key]

    def update(self, overrides: dict):
        for k, v in overrides.items():
            if k not in DEFAULTS:
                raise ConfigError(f"unknown config key {k!r}")
            self.values[k] = v
        return self

    def semantic_values(self) -> dict:
        """Configuration without the output location, which does not affect
        any computed value."""
        return {k: v for k, v in self.values.items() if k != "run.out_dir"}

    def digest(self) -> str:
        blob = json.dumps(self.semantic_values(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def solver_settings(self):
        from .dirichlet import SolverSettings
        return SolverSettings(residual_tol=self["dirichlet.residual_tol"],
                              max_sweeps=int(self["dirichlet.max_sweeps"]),
                              small_energy=self["dirichlet.small_energy"])

    def sampler_budget(self):
        from .dirichlet import SamplerBudget
        return SamplerBudget(center_stride=int(self["sampler.center_stride"]),
                             radii=tuple(self["sampler.radii"]),
                             max_families=int(self["sampler.max_families"]),
                             max_balls_per_family=int(self["sampler.max_balls"]),
                             excess_seeds=int(self["sampler.excess_seeds"]))

    def sphere_domain(self):
        from .domains import SphereDomain
        return SphereDomain(n=int(self["dmap.n"]),
                            half_width=self["dmap.half_width"],
                            band=self["dmap.band"])

    def manifold(self):
        """The declared target manifold."""
        from . import manifold as mf
        kind = self["manifold.kind"]
        tol = self["manifold.tol"]
        if kind == "sphere":
            return mf.round_sphere(int(self["manifold.dim"]),
                                   float(self["manifold.radius"]), on_tol=tol)
        if kind == "ellipsoid":
            axes = self["manifold.semi_axes"]
            if not axes:
                raise ConfigError("manifold.semi_axes required for ellipsoids")
            return mf.ellipsoid(axes, on_tol=tol)
        if kind == "affine":
            dim = int(self["manifold.dim"])
            amb = self["manifold.ambient_dim"]
            return mf.affine_subspace(dim, int(amb) if amb else dim + 1,
                                      on_tol=tol)
        raise ConfigError(f"unknown manifold kind {kind!r}")


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def load_config(path=None, overrides: dict = None) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = line.split("=", 1)
                cfg.update({key.strip(): _parse_value(raw)})
    if overrides:
        cfg.update(overrides)
    return cfg
