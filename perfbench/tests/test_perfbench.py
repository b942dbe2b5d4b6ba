"""The benchmark's own tests: python3 -m pytest perfbench/tests"""
import json
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import layers
from perfbench.trace import Span, Tracer, instrument, outermost, self_times
from perfbench.workloads import FOUR_PI, tighten_failures, verify_failures


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_on_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 4.0, parent=0),
             Span("c", 2.0, 3.0, parent=1), Span("b", 5.0, 9.0, parent=0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_overlapping_children_are_covered_once():
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 6.0, parent=0),
             Span("b", 4.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_recursive_spans_count_once_in_totals():
    spans = [Span("f", 0.0, 5.0), Span("f", 1.0, 2.0, parent=0),
             Span("g", 2.0, 3.0, parent=0)]
    assert outermost(spans) == [True, False, True]


def test_tracer_records_parents_with_a_clock():
    clock = FakeClock()
    tr = Tracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 3.0

    wrapped_inner = tr.wrap(inner, "dmap.energy")
    with tr.span("run"):
        tr.wrap(outer, "sweepout.tighten")()
    names = [(s.name, s.parent) for s in tr.spans]
    assert names == [("run", -1), ("sweepout.tighten", 0), ("dmap.energy", 1)]
    assert self_times(tr.spans) == pytest.approx([0.0, 4.0, 2.0])


def test_layer_self_times_and_remainder_add_up_to_run():
    spans = [Span("run", 0.0, 10.0), Span("sweepout.tighten", 1.0, 9.0, parent=0),
             Span("dmap.energy", 2.0, 5.0, parent=1),
             Span("manifold.project", 3.0, 4.0, parent=2)]
    m = layers.per_layer_metrics(spans, 0, untraced_run_s=8.0)
    parts = sum(m[f"layer.{name}.self_s"] for name in layers.LAYERS)
    assert parts + m["trace.remainder_s"] == pytest.approx(m["trace.run_s"])
    assert m["layer.dmap.self_s"] == pytest.approx(2.0)
    assert m["trace.remainder_s"] == pytest.approx(2.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.25)


def _holders(probes):
    """Every (container, key) the probes' functions are reachable through."""
    import sys
    out = []
    for owner, attr, _, _ in probes:
        fn = vars(owner)[attr]
        if isinstance(owner, type):
            out.append((owner, attr, fn, False))
            continue
        for name, mod in list(sys.modules.items()):
            if name == "widthlab" or name.startswith("widthlab."):
                for key, val in vars(mod).items():
                    if val is fn:
                        out.append((mod, key, fn, False))
                    elif isinstance(val, dict):
                        out += [(val, k, fn, True) for k, v in val.items() if v is fn]
    return out


def _get(container, key, is_item):
    return container[key] if is_item else getattr(container, key)


@pytest.mark.parametrize("fail", [False, True])
def test_wrappers_are_restored_after_a_traced_run(fail):
    from widthlab import certlab, dmap
    from widthlab.domains import SphereDomain
    from widthlab.manifold import round_sphere
    probes = layers.probes(traced=True)
    holders = _holders(probes)
    assert any(c is certlab.SUITES for c, _, _, _ in holders)
    tr = Tracer()
    with pytest.raises(RuntimeError) if fail else nullcontext():
        with instrument(tr, probes):
            assert all(_get(c, k, i) is not fn for c, k, fn, i in holders)
            dom = SphereDomain(n=17)
            u = dmap.identity_sphere_map(dom, round_sphere(2))
            dmap.energy(u)
            if fail:
                raise RuntimeError("abort inside the traced section")
    assert all(_get(c, k, i) is fn for c, k, fn, i in holders)
    assert "dmap.energy" in {s.name for s in tr.spans}
    assert "manifold.project" in {s.name for s in tr.spans}


def _rows(ratios, area_gap=0.01):
    return [SimpleNamespace(iteration=i + 1, w_energy=r * FOUR_PI,
                            w_area=(r - area_gap) * FOUR_PI)
            for i, r in enumerate(ratios)]


def test_final_ratio_above_gate_fails():
    rows = _rows([1.10, 1.07, 1.05])
    fails = tighten_failures(rows, 1.05, varifold_distance=0.0, flagged=0,
                             final_max=1.02, varifold_max=0.05)
    assert any("final width ratio" in f for f in fails)
    ok = tighten_failures(_rows([1.10, 1.05, 1.01]), 1.01, 0.0, 0, 1.02, 0.05)
    assert ok == []


def test_tighten_gates_catch_each_violation():
    assert tighten_failures([], 1.0) == ["no tightening iterations ran"]
    assert any("monotone" in f for f in tighten_failures(_rows([1.05, 1.06]), 1.06))
    assert any("w_area" in f for f in tighten_failures(_rows([1.05], -0.01), 1.05))
    assert any("varifold" in f for f in
               tighten_failures(_rows([1.01]), 1.01, 0.2, 0, 1.02, 0.05))
    assert any("flagged" in f for f in
               tighten_failures(_rows([1.01]), 1.01, 0.0, 3, 1.02, 0.05))


def test_suite_that_ran_nothing_fails_even_if_it_passed():
    reports = {"convexity": SimpleNamespace(passed=True, worst_margin=np.inf),
               "hopf": SimpleNamespace(passed=False, worst_margin=-1.0),
               "wente": SimpleNamespace(passed=True, worst_margin=0.5)}
    fails = verify_failures(reports, {"convexity": 0, "hopf": 3, "wente": 1000})
    assert set(fails) == {"convexity", "hopf"}


def test_instances_ran_skips_baselines_and_raised_checks():
    spans = [Span("certlab.ode-comparison", 0, 9)]
    spans += [Span("certlab.ode_comparison_check", i, i + 0.5, parent=0)
              for i in range(4)]
    spans[1].attrs = {"raised": "PreconditionFail"}
    ran = layers.instances_ran(spans)
    assert ran["ode-comparison"] == 2   # 4 calls, 1 skipped, 1 baseline
    assert ran["convexity"] == 0


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(x) for x in layers.PER_LAYER]
