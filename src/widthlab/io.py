"""Self-describing containers for maps and sweepouts, plus CSV exports.

A map record is one JSON header line followed by the raw little-endian
float64 node blocks, one per chart, row major.  A sweepout container is a
manifest line followed by the slice records in order.  Formats are
documented in docs/formats.md.
"""
from __future__ import annotations

import json

import numpy as np

from . import dmap as dm
from . import manifold as mf
from .domains import CylinderDomain, SphereDomain

MAP_FORMAT = "widthlab-map/1"
SWEEPOUT_FORMAT = "widthlab-sweepout/1"


def _domain_from_descriptor(desc: dict):
    kind = desc["kind"]
    if kind == "sphere2":
        return SphereDomain(n=int(desc["n"]), half_width=float(desc["half_width"]),
                            band=float(desc["band"]))
    if kind == "cylinder":
        return CylinderDomain(float(desc["t0"]), float(desc["t1"]),
                              int(desc["n_t"]), int(desc["n_theta"]))
    raise ValueError(f"unknown domain kind {kind!r}")


def write_map(fh, u: dm.DiscreteMap):
    header = {
        "format": MAP_FORMAT,
        "domain": u.domain.descriptor(),
        "target": u.target.descriptor(),
        "blocks": [list(v.shape) for v in u.values],
    }
    fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
    for v in u.values:
        fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def read_map(fh, domain=None) -> dm.DiscreteMap:
    """The next map record of fh, on `domain` when given (a record on any
    other domain is a ValueError), else on a domain built from the record."""
    header = json.loads(fh.readline().decode())
    if header.get("format") != MAP_FORMAT:
        raise ValueError("not a map record")
    if domain is None:
        dom = _domain_from_descriptor(header["domain"])
    elif header["domain"] == domain.descriptor():
        dom = domain
    else:
        raise ValueError(f"map domain {header['domain']} differs from "
                         f"{domain.descriptor()}")
    target = mf.from_descriptor(header["target"])
    grid = (dom.n_t, dom.n_theta) if isinstance(dom, CylinderDomain) else (dom.n, dom.n)
    want = [grid + (target.ambient_dim,)] * (2 if isinstance(dom, SphereDomain) else 1)
    blocks = [tuple(shape) for shape in header["blocks"]]
    if blocks != want:
        raise ValueError(f"map blocks {blocks} do not fit the domain and target, "
                         f"expected {want}")
    vals = []
    for k, shape in enumerate(blocks):
        count = int(np.prod(shape))
        buf = fh.read(count * 8)
        if len(buf) != count * 8:
            raise ValueError(f"map block {k} is truncated: {len(buf)} of "
                             f"{count * 8} bytes")
        vals.append(np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
    return dm.DiscreteMap(dom, target, vals)


def save_sweepout(path, s):
    with open(path, "wb") as fh:
        manifest = {"format": SWEEPOUT_FORMAT, "n_slices": s.n_slices,
                    "degree": s.degree, "target": s.target.descriptor()}
        fh.write((json.dumps(manifest, sort_keys=True) + "\n").encode())
        for u in s.slices:
            write_map(fh, u)


def load_sweepout(path):
    from .sweepout import Sweepout
    with open(path, "rb") as fh:
        manifest = json.loads(fh.readline().decode())
        if manifest.get("format") != SWEEPOUT_FORMAT:
            raise ValueError("not a sweepout container")
        if int(manifest["n_slices"]) < 1:
            raise ValueError(f"sweepout container {path} holds no slices")
        slices = []
        for _ in range(int(manifest["n_slices"])):
            # every slice shares the first slice's domain and its geometry
            slices.append(read_map(fh, slices[0].domain if slices else None))
    return Sweepout(slices, slices[0].target, degree=int(manifest["degree"]))


# ---------------------------------------------------------------------------
# CSV exports (deterministic formatting)

def fmt(x) -> str:
    return repr(float(x))


def varifold_csv(path, v):
    n = v.ambient_dim
    cols = [f"p{k}" for k in range(n)] + \
           [f"P{a}{b}" for a in range(n) for b in range(n)] + ["weight"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for p, pl, w in zip(v.points, v.planes, v.weights):
            row = [fmt(x) for x in p] + [fmt(x) for x in pl.ravel()] + [fmt(w)]
            fh.write(",".join(row) + "\n")


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return fmt(x)
    return str(x)


def table_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(x) for x in row) + "\n")
