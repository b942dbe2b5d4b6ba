import json
import os

import pytest

from widthlab import cli
from widthlab.config import DEFAULTS, load_config
from widthlab.errors import ConfigError


def run(args):
    return cli.main(args)


def test_verify_suite_exit_zero(tmp_path):
    out = tmp_path / "o"
    code = run(["verify", "wirtinger", "--seed", "7", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "verify-wirtinger.json").read_text())
    assert rep["pass"] is True
    assert rep["seed"] == 7
    man = json.loads((out / "manifest.json").read_text())
    assert man["seed"] == 7
    assert "config_digest" in man


def test_verify_unknown_suite_is_config_error(tmp_path):
    assert run(["verify", "nope", "--out", str(tmp_path / "x")]) == 3


def test_verify_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["verify", "wirtinger", "ode-comparison", "--seed", "3",
                "--out", str(a)]) == 0
    assert run(["verify", "wirtinger", "ode-comparison", "--seed", "3",
                "--out", str(b)]) == 0
    for name in ("verify-wirtinger.json", "verify-ode-comparison.json",
                 "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_file_roundtrip(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("# experiment\nrun.seed = 11\nsweepout.amp = 0.2\n"
                       "sampler.radii = [0.2, 0.1]\n")
    cfg = load_config(str(cfgfile))
    assert cfg["run.seed"] == 11
    assert cfg["sweepout.amp"] == 0.2
    assert cfg["sampler.radii"] == [0.2, 0.1]
    assert cfg.digest() != load_config().digest()


def test_config_rejects_unknown_keys(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("no.such.key = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(cfgfile))
    code = run(["verify", "wirtinger", "--config", str(cfgfile),
                "--out", str(tmp_path / "o")])
    assert code == 3


def test_config_defaults_complete():
    cfg = load_config()
    for key in ("dirichlet.small_energy", "dmap.n", "run.seed"):
        assert key in DEFAULTS
        assert cfg[key] == DEFAULTS[key]


def test_ricci_cli(tmp_path):
    out = tmp_path / "r"
    assert run(["ricci", "--r0", "1", "--dt", "1e-4", "--out", str(out)]) == 0
    summary = json.loads((out / "ricci-summary.json").read_text())
    assert summary["extinction_true"] == 0.25
    assert summary["extinction_closed_form"] == 1.44140625
    header = (out / "ricci.csv").read_text().splitlines()[0]
    assert header == "t,w_true,w_bound,rate_true,rate_bound"


def test_plots_from_csv(tmp_path):
    out = tmp_path / "p"
    src = tmp_path / "data.csv"
    src.write_text("iter,w\n1,2.0\n2,1.5\n")
    assert run(["plots", str(src), "--out", str(out)]) == 0
    dat = (out / "data.dat").read_text().splitlines()
    assert dat[0].startswith("#")
    assert dat[1].split() == ["1", "2.0"]
    assert (out / "data.gp").exists()
    assert (out / "manifest.json").exists()


def test_plots_missing_input(tmp_path):
    assert run(["plots", str(tmp_path / "absent.csv"),
                "--out", str(tmp_path / "o")]) == 3


def test_width_cli_light(tmp_path):
    cfgfile = tmp_path / "light.cfg"
    cfgfile.write_text("dmap.n = 65\nsweepout.n_slices = 8\n"
                       "sweepout.max_iters = 1\n")
    out, again = tmp_path / "w", tmp_path / "w2"
    for o in (out, again):
        code = run(["width", "--fixture", "latitude-s3", "--config", str(cfgfile),
                    "--out", str(o)])
        assert code == 0
    summary = json.loads((out / "width-summary.json").read_text())
    assert abs(summary["final_over_4pi"] - 1.0) <= 0.005
    assert (out / "solves.csv").read_text().startswith("sweeps,")
    assert (out / "width-iterations.csv").read_text().splitlines()[0] == (
        "iter,w_energy,w_area,argmax_t,total_drop,max_improvement,stages,flagged")
    from widthlab import io as wio
    back = wio.load_sweepout(out / "tightened.sweepout")
    assert back.n_slices == 9
    # the same (config, seed) gives the same bytes
    for name in ("width-iterations.csv", "width-summary.json", "manifest.json",
                 "solves.csv", "tightened.sweepout"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


def test_varifold_csv_export(tmp_path):
    import numpy as np
    from widthlab import dmap, io as wio, varifold as vf
    from widthlab.domains import SphereDomain
    u = dmap.identity_sphere_map(SphereDomain(n=17))
    v = vf.varifold_of_map(u)
    p = tmp_path / "v.csv"
    wio.varifold_csv(p, v)
    lines = p.read_text().splitlines()
    assert lines[0].startswith("p0,p1,p2,P00")
    assert len(lines) == 1 + len(v.weights)
    row = np.array([float(x) for x in lines[1].split(",")])
    assert len(row) == 3 + 9 + 1


def test_config_keys_read_and_documented():
    """Every default is read somewhere in the package, and the docs table
    lists exactly the defaults."""
    import ast
    import re
    from pathlib import Path

    import widthlab
    from widthlab import config

    pkg = Path(widthlab.__file__).parent
    cfg_src = Path(config.__file__).read_text().splitlines()
    literal = next(node for node in ast.parse("\n".join(cfg_src)).body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "DEFAULTS")
    del cfg_src[literal.lineno - 1:literal.end_lineno]
    readers = "\n".join(cfg_src) + "".join(
        p.read_text() for p in sorted(pkg.glob("*.py")) if p.name != "config.py")
    unread = [k for k in DEFAULTS if f'"{k}"' not in readers]
    assert unread == []
    docs = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    documented = re.findall(r"^\| `([a-z_]+\.[a-z_0-9]+)` \|", docs, re.M)
    assert sorted(documented) == sorted(DEFAULTS)
