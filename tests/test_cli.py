import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    out = tmp_path / "x"
    assert run(["verify", "nope", "--out", str(out)]) == 3
    assert not out.exists()


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
                       "dmap.n = 65\n")
    cfg = load_config(str(cfgfile))
    assert cfg["run.seed"] == 11
    assert cfg["sweepout.amp"] == 0.2
    assert cfg["dmap.n"] == 65
    assert cfg.digest() != load_config().digest()


# former keys whose values are now constants at their readers, each set to
# that constant
FORMER_KEYS = ("dmap.half_width = 1.25", "dmap.band = 0.12",
               "sampler.center_stride = 12",
               "sampler.radii = [0.22, 0.16, 0.11, 0.08, 0.055]",
               "sampler.max_families = 8", "sampler.max_balls = 4",
               "sampler.excess_seeds = 3", "sweepout.plateau_tol = 1e-4",
               "varifold.n_terms = 64", "certlab.eps2 = 0.25", "certlab.eps_su = 4.0")


def test_config_rejects_unknown_keys(tmp_path):
    """An unknown key, a former key among them, is a configuration error,
    exit 3, and no output directory is made."""
    cfgfile = tmp_path / "bad.cfg"
    out = tmp_path / "o"
    for line in ("no.such.key = 1",) + FORMER_KEYS:
        cfgfile.write_text(line + "\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(cfgfile))
        code = run(["verify", "wirtinger", "--config", str(cfgfile),
                    "--out", str(out)])
        assert code == 3
        assert not out.exists()


def test_config_rejects_values_of_another_kind(tmp_path):
    """A value must have its default's JSON kind; an int stands for a
    float, and no key takes a list."""
    for key, value in (("dmap.n", "abc"), ("dmap.n", 64.5), ("dmap.n", True),
                       ("sweepout.amp", "0.3"), ("run.out_dir", 3),
                       *((k, [default]) for k, (default, _) in DEFAULTS.items())):
        with pytest.raises(ConfigError, match=key):
            load_config(overrides={key: value})
    cfg = load_config(overrides={"sweepout.amp": 1})
    assert cfg["sweepout.amp"] == 1
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("dmap.n = abc\n")
    assert run(["width", "--fixture", "latitude-s3", "--config", str(cfgfile),
                "--out", str(tmp_path / "o")]) == 3


def test_config_stores_an_int_for_a_float_key_as_the_float(tmp_path):
    """`ricci.r0 = 2` in a config file, the override 2 and the flag's 2.0
    are one value, so they record one config digest."""
    cfgfile = tmp_path / "r0.cfg"
    cfgfile.write_text("ricci.r0 = 2\n")
    want = load_config(overrides={"ricci.r0": 2.0})
    for cfg in (load_config(overrides={"ricci.r0": 2}), load_config(str(cfgfile))):
        assert repr(cfg["ricci.r0"]) == "2.0"
        assert cfg.digest() == want.digest()
    assert repr(load_config(overrides={"dmap.n": 17})["dmap.n"]) == "17"


def test_config_defaults_complete():
    cfg = load_config()
    for key in ("dirichlet.small_energy", "dmap.n", "run.seed"):
        assert key in DEFAULTS
        assert cfg[key] == DEFAULTS[key][0]


# numeric keys whose range has a finite bound: key -> (default, brackets, bounds)
BOUNDED = {k: (default, (r[0], r[-1]), tuple(map(float, r[1:-1].split(", "))))
           for k, (default, r) in DEFAULTS.items()
           if r[0] in "[(" and r != "(-inf, inf)"
           and (default is None or isinstance(default, (int, float)))}


def _out_of_range(key):
    """Values of the key's kind below its lower bound or above its upper
    (no integer key is bounded above)."""
    default, (left, right), (lo, hi) = BOUNDED[key]
    sides = []
    if lo > -np.inf:
        sides.append(st.integers(max_value=int(lo) - (left == "["))
                     if isinstance(default, int) else
                     st.floats(max_value=lo, exclude_max=left == "[",
                               allow_infinity=False))
    if hi < np.inf:
        sides.append(st.floats(min_value=hi, exclude_min=right == "]",
                               allow_infinity=False))
    return st.one_of(sides)


def _assert_rejected(monkeypatch, tmp_path, key, value):
    """A value outside its key's range is a configuration error, exit 3,
    before any computation: neither the tightening nor a certificate suite
    runs, and no output directory is made."""
    from widthlab import certlab, sweepout

    def ran(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(sweepout, "tighten", ran)
    for name in certlab.SUITES:
        monkeypatch.setitem(certlab.SUITES, name, ran)
    with pytest.raises(ConfigError, match=key):
        load_config(overrides={key: value})
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"dmap.n = 17\nsweepout.n_slices = 2\n{key} = {value}\n")
    for command in (["width", "--fixture", "latitude-s3"], ["verify"]):
        out = tmp_path / command[0]
        assert run(command + ["--config", str(cfgfile), "--out", str(out)]) == 3
        assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("sweepout.n_slices", -1), ("dmap.n", 0), ("sweepout.max_iters", -2),
    ("dirichlet.small_energy", -1)])
def test_config_rejects_values_out_of_range(monkeypatch, tmp_path, key, value):
    _assert_rejected(monkeypatch, tmp_path, key, value)


# the patches and the output path are the same for every example
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(sorted(BOUNDED)).flatmap(
    lambda key: st.tuples(st.just(key), _out_of_range(key))))
def test_config_rejects_drawn_values_out_of_range(monkeypatch, tmp_path, case):
    """Any key with a finite bound, any value beyond it."""
    _assert_rejected(monkeypatch, tmp_path, *case)


def test_config_ranges_admit_the_defaults_and_are_documented():
    """Every default lies in its range, the docs table states each range,
    and a range's bounds are checked as written."""
    import re
    from pathlib import Path
    load_config(overrides={k: default for k, (default, _) in DEFAULTS.items()})
    docs = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    row = r"^\| `([a-z_]+\.[a-z_0-9]+)` \| [^|]* \| `([^`]*)` \|"
    ranges = re.findall(row, docs, re.M)
    assert dict(ranges) == {k: admissible for k, (_, admissible) in DEFAULTS.items()}
    for key, value in (("manifold.radius", 0), ("dmap.n", 2)):
        with pytest.raises(ConfigError, match=key):
            load_config(overrides={key: value})
    cfg = load_config(overrides={"sweepout.n_slices": 0, "sweepout.max_iters": 0,
                                 "dmap.n": 3, "sweepout.amp": -0.2})
    assert cfg["dmap.n"] == 3


@pytest.mark.parametrize("flag, value", [
    ("--dt", "0"), ("--dt", "-1"), ("--r0", "0"), ("--r0", "-1"), ("--c", "0"),
    ("--c", "-1")])
def test_ricci_cli_rejects_flags_out_of_range(tmp_path, capsys, flag, value):
    """--r0, --dt and --c take the ranges of ricci.r0, ricci.dt and ricci.c:
    a value outside is a configuration error, exit 3, before any output is
    written."""
    out = tmp_path / "r"
    assert run(["ricci", flag, value, "--out", str(out)]) == 3
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_manifest_records_flag_overrides(tmp_path):
    """A flag that stands for a config key is recorded in manifest.json like
    the key set in the config file: runs that differ in --r0 record
    different configs, and --max-iters writes the bytes that
    sweepout.max_iters writes."""
    manifests = {}
    for r0 in ("1", "2"):
        out = tmp_path / f"r{r0}"
        assert run(["ricci", "--r0", r0, "--out", str(out)]) == 0
        manifests[r0] = json.loads((out / "manifest.json").read_text())
    assert manifests["1"]["config"]["ricci.r0"] == 1.0
    assert manifests["2"]["config"]["ricci.r0"] == 2.0
    assert manifests["1"]["config_digest"] != manifests["2"]["config_digest"]
    light = "dmap.n = 65\nsweepout.n_slices = 8\nsweepout.max_iters = 1\n"
    flagged, keyed = tmp_path / "flagged.cfg", tmp_path / "keyed.cfg"
    flagged.write_text(light)
    keyed.write_text(light + "sweepout.max_iters = 0\n")
    out = tmp_path / "w"
    for cfgfile, extra in ((flagged, ["--max-iters", "0"]), (keyed, [])):
        assert run(["width", "--fixture", "latitude-s3", "--config", str(cfgfile),
                    "--out", str(out / cfgfile.stem)] + extra) == 0
    assert (out / "flagged" / "manifest.json").read_bytes() == \
        (out / "keyed" / "manifest.json").read_bytes()


def test_width_manifest_records_the_fixture_it_ran(tmp_path):
    """The fixture name is matched without regard to case, and the
    manifest records the name that ran, as width-summary.json does."""
    cfgfile = tmp_path / "tiny.cfg"
    cfgfile.write_text("dmap.n = 17\nsweepout.n_slices = 2\nsweepout.max_iters = 0\n")
    outs = [tmp_path / "upper", tmp_path / "lower"]
    for fixture, out in zip(("LATITUDE-S3", "latitude-s3"), outs):
        run(["width", "--fixture", fixture, "--config", str(cfgfile), "--out", str(out)])
    assert json.loads((outs[0] / "manifest.json").read_text())["fixture"] == "latitude-s3"
    assert (outs[0] / "manifest.json").read_bytes() == \
        (outs[1] / "manifest.json").read_bytes()


def test_ricci_cli(tmp_path):
    out = tmp_path / "r"
    assert run(["ricci", "--r0", "1", "--dt", "1e-4", "--out", str(out)]) == 0
    summary = json.loads((out / "ricci-summary.json").read_text())
    assert summary["extinction_true"] == 0.25
    assert summary["extinction_closed_form"] == 1.44140625
    header = (out / "ricci.csv").read_text().splitlines()[0]
    assert header == "t,w_true,w_bound,rate_true,rate_bound"
    assert 0.0 < summary["pairing_residual"] <= cli.AREA_RATE_TOL


def test_ricci_cli_fails_an_area_rate_off_by_one_percent(monkeypatch, tmp_path):
    """The equator's area rate through the pairing is judged on every run:
    a rate 1% off -16 pi fails the run with exit 2."""
    from widthlab import ricci as rc
    area_rate = rc.area_rate
    monkeypatch.setattr(rc, "area_rate", lambda *a: 1.01 * area_rate(*a))
    out = tmp_path / "r"
    assert run(["ricci", "--out", str(out)]) == 2
    summary = json.loads((out / "ricci-summary.json").read_text())
    assert summary["pairing_residual"] > cli.AREA_RATE_TOL


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
    # a converged solve met the residual target
    rows = [line.split(",") for line in
            (out / "solves.csv").read_text().splitlines()[1:]]
    assert rows and summary["residual_target"] == 5e-5
    assert all(float(res) <= summary["residual_target"]
               for _, res, _, converged in rows if converged == "True")
    assert summary["max_solve_residual"] == max(float(r[1]) for r in rows)
    assert (out / "width-iterations.csv").read_text().splitlines()[0] == (
        "iter,w_energy,w_area,argmax_t,total_drop,max_improvement,stages,flagged")
    from widthlab import io as wio
    back = wio.load_sweepout(out / "tightened.sweepout")
    assert back.n_slices == 9
    # the same (config, seed) gives the same bytes
    for name in ("width-iterations.csv", "width-summary.json", "manifest.json",
                 "solves.csv", "tightened.sweepout"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


def test_width_cli_judges_the_width_against_4_pi_r_squared(tmp_path):
    """The latitude width of the round 3-sphere of radius 2 is 16 pi."""
    cfgfile = tmp_path / "r2.cfg"
    cfgfile.write_text("dmap.n = 65\nsweepout.n_slices = 8\n"
                       "sweepout.max_iters = 1\nmanifold.radius = 2.0\n")
    out = tmp_path / "w"
    assert run(["width", "--fixture", "latitude-s3", "--config", str(cfgfile),
                "--out", str(out)]) == 0
    summary = json.loads((out / "width-summary.json").read_text())
    assert abs(summary["final_over_4pi"] - 4.0) <= 0.02


def test_width_cli_fails_a_width_below_4_pi(tmp_path):
    """A sweepout of one constant slice has width 0, far under 4 pi, on
    every fixture."""
    cfgfile = tmp_path / "empty.cfg"
    cfgfile.write_text("dmap.n = 65\nsweepout.n_slices = 0\n"
                       "sweepout.max_iters = 1\n")
    for fixture in ("perturbed-latitude-s3", "latitude-s3"):
        out = tmp_path / fixture
        assert run(["width", "--fixture", fixture, "--config", str(cfgfile),
                    "--out", str(out)]) == 2
        summary = json.loads((out / "width-summary.json").read_text())
        assert summary["final_w_energy"] == 0.0


def test_width_cli_solves_csv_cells_are_numbers(tmp_path):
    """Every solves.csv row is an int, two floats written with repr, and a
    bool, whatever numeric type the solver computed them in."""
    cfgfile = tmp_path / "light.cfg"
    cfgfile.write_text("dmap.n = 65\nsweepout.n_slices = 8\n"
                       "sweepout.max_iters = 1\n")
    out = tmp_path / "w"
    run(["width", "--fixture", "perturbed-latitude-s3", "--config", str(cfgfile),
         "--out", str(out)])
    lines = (out / "solves.csv").read_text().splitlines()
    assert lines[0] == "sweeps,residual,energy_drop,converged"
    assert len(lines) > 1
    for line in lines[1:]:
        sweeps, residual, drop, converged = line.split(",")
        assert str(int(sweeps)) == sweeps
        assert repr(float(residual)) == residual and repr(float(drop)) == drop
        assert converged in ("True", "False")


def test_width_cli_strict_solver_exits_4_on_a_flagged_solve(tmp_path):
    """With one sweep per solve a replacement is cut off unconverged and
    flagged: the run fails its check (exit 2), and with --strict-solver it
    exits 4 for the solver."""
    cfgfile = tmp_path / "cut.cfg"
    cfgfile.write_text("dmap.n = 33\nsweepout.n_slices = 4\nsweepout.max_iters = 1\n"
                       "dirichlet.max_sweeps = 1\n")
    codes = {}
    for extra in ([], ["--strict-solver"]):
        out = tmp_path / ("strict" if extra else "plain")
        codes[bool(extra)] = run(["width", "--config", str(cfgfile),
                                  "--out", str(out)] + extra)
        summary = json.loads((out / "width-summary.json").read_text())
        assert summary["flagged_solves"] == 1
    assert codes == {False: 2, True: 4}


def test_width_cli_curve_fixture_is_config_error(tmp_path):
    """The curve fixture is no sweepout of 2-spheres; `width` rejects it
    before any output is written."""
    out = tmp_path / "w"
    assert run(["width", "--fixture", "curve-latitude-s2", "--out", str(out)]) == 3
    assert not out.exists()


def test_width_cli_max_iters_zero(tmp_path):
    """--max-iters 0 overrides the configured iteration count."""
    cfgfile = tmp_path / "light.cfg"
    cfgfile.write_text("dmap.n = 65\nsweepout.n_slices = 8\n"
                       "sweepout.max_iters = 1\n")
    out = tmp_path / "w"
    run(["width", "--fixture", "perturbed-latitude-s3", "--config", str(cfgfile),
         "--max-iters", "0", "--out", str(out)])
    summary = json.loads((out / "width-summary.json").read_text())
    assert summary["iterations"] == 0
    assert summary["stopped"] == "max-iters"
    assert (out / "width-iterations.csv").read_text().splitlines() == [
        "iter,w_energy,w_area,argmax_t,total_drop,max_improvement,stages,flagged"]


def test_width_cli_rejects_a_negative_max_iters(tmp_path, capsys):
    """--max-iters takes the range of sweepout.max_iters: a negative count is
    a configuration error, exit 3, before any output is written."""
    cfgfile = tmp_path / "light.cfg"
    cfgfile.write_text("dmap.n = 17\nsweepout.n_slices = 2\n")
    out = tmp_path / "w"
    assert run(["width", "--fixture", "latitude-s3", "--config", str(cfgfile),
                "--max-iters", "-2", "--out", str(out)]) == 3
    assert "--max-iters" in capsys.readouterr().err
    assert not out.exists()


def test_width_cli_latitude_fails_a_rising_width_series(monkeypatch, tmp_path):
    """latitude-s3 must end at 4 pi and with a monotone series: a rising
    series fails the check even at the right final width."""
    import numpy as np
    from widthlab import sweepout as sw
    four_pi = 4 * np.pi

    def rising(swp, **kwargs):
        rows = [sw.IterationRow(it, w, w, 4, 0.0, 0.0, 1, 0, 0)
                for it, w in ((1, 0.999 * four_pi), (2, four_pi))]
        es = np.full(swp.n_slices, four_pi)
        return swp, sw.TighteningReport(
            rows=rows, final_width=sw.WidthEstimate(four_pi, four_pi, 4, es, es),
            stopped="max-iters")

    monkeypatch.setattr(sw, "tighten", rising)
    cfgfile = tmp_path / "light.cfg"
    cfgfile.write_text("dmap.n = 65\nsweepout.n_slices = 8\n")
    out = tmp_path / "w"
    code = run(["width", "--fixture", "latitude-s3", "--config", str(cfgfile),
                "--out", str(out)])
    summary = json.loads((out / "width-summary.json").read_text())
    assert summary["final_over_4pi"] == 1.0
    assert summary["monotone"] is False
    assert code == 2


def test_bubble_cli_passes_and_writes_the_same_bytes_twice(tmp_path):
    """At the defaults `bubble` passes its checks, and the same (config,
    seed) gives the same bytes."""
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["bubble", "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["bubble-summary.json", "bubble-varifold-j8.csv", "bubble.csv",
                     "manifest.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_calibrate_cli_passes_at_the_defaults(tmp_path):
    """Every candidate threshold passes at the defaults, so the largest
    passing one is the first scanned, 4.0."""
    out = tmp_path / "c"
    assert run(["calibrate", "--out", str(out)]) == 0
    rep = json.loads((out / "calibrate.json").read_text())
    assert rep["largest_passing"] == 4.0
    assert rep["configured"] == DEFAULTS["dirichlet.small_energy"][0]


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
