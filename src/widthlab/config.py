"""Experiment configuration: one flat key-value file with sectioned keys.

Grammar (docs/config.md): one `section.key = value` per line, `#` comments,
values parsed as JSON scalars with bare strings allowed.  Unknown
keys, values of another JSON kind than their default's, and values outside
their key's admissible range are rejected before any computation starts.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import ConfigError

# key: (default, admissible range).  A range is an interval such as
# "[1, inf)", bounding a number, or "any".  Only what a run varies is a
# key; the sampler, the chart geometry, the plateau rule and the suites'
# thresholds are constants at their readers.
DEFAULTS = {
    "manifold.radius": (1.0, "(0, inf)"),  # of the round 3-sphere target
    "dmap.n": (129, "[3, inf)"),
    "dirichlet.residual_target": (5e-5, "(0, inf)"),
    "dirichlet.max_sweeps": (10_000, "[0, inf)"),
    "dirichlet.small_energy": (2.0, "(0, inf)"),  # the replacement small-energy bound
    "sweepout.n_slices": (64, "[0, inf)"),
    "sweepout.max_iters": (30, "[0, inf)"),
    "sweepout.amp": (0.3, "(-inf, inf)"),
    "ricci.r0": (1.0, "(0, inf)"),
    "ricci.dt": (1e-4, "(0, inf)"),
    "ricci.c": (1.0, "(0, inf)"),
    "run.seed": (0, "[0, inf)"),
    "run.out_dir": ("out", "any"),
}


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=lambda: {
        k: default for k, (default, _) in DEFAULTS.items()})

    def __getitem__(self, key):
        return self.values[key]

    def update(self, overrides: dict):
        """Set checked values; an int given for a float key is stored as
        that float, so the manifest records one value either way."""
        for k, v in overrides.items():
            check_value(k, v)
            self.values[k] = float(v) if isinstance(DEFAULTS[k][0], float) else v
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
        return SolverSettings(residual_target=self["dirichlet.residual_target"],
                              max_sweeps=int(self["dirichlet.max_sweeps"]),
                              small_energy=self["dirichlet.small_energy"])

    def sphere_domain(self):
        from .domains import SphereDomain
        return SphereDomain(n=int(self["dmap.n"]))


def _same_kind(default, value):
    """A value has its default's JSON kind; an int stands for a float."""
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(default)


def check_value(key, value):
    """Raise ConfigError unless `key` is a config key and `value` is of its
    default's kind and in its admissible range."""
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    default, admissible = DEFAULTS[key]
    if not _same_kind(default, value):
        raise ConfigError(f"config key {key!r} takes a value like "
                          f"{default!r}, not {value!r}")
    if not _in_range(value, admissible):
        raise ConfigError(f"config key {key!r} takes a value in "
                          f"{admissible}, not {value!r}")


def _in_range(value, admissible):
    """A value lies in its key's admissible range (see DEFAULTS)."""
    if admissible == "any":
        return True
    lo, hi = map(float, admissible[1:-1].split(", "))
    return ((lo < value if admissible[0] == "(" else lo <= value)
            and (value < hi if admissible[-1] == ")" else value <= hi))


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
