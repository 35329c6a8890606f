"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- span arithmetic ------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock, rss=lambda: 0)

    def leaf(dt):
        clock.t += dt

    def mid():
        clock.t += 1.0
        leaf_w(2.0)
        clock.t += 0.5
        leaf_w(3.0)

    def top():
        clock.t += 0.25
        mid_w()
        leaf_w(4.0)

    leaf_w = tr.wrap(spans.Probe("m.leaf"), leaf)
    mid_w = tr.wrap(spans.Probe("m.mid"), mid)
    top_w = tr.wrap(spans.Probe("m.top"), top)
    top_w()
    clock.t += 7.0  # outside every span
    by_name: dict = {}
    selfs = spans.self_times(tr.spans)
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(selfs[s.id])
    assert sorted(by_name["m.leaf"]) == [2.0, 3.0, 4.0]
    assert by_name["m.mid"] == [1.5]
    assert by_name["m.top"] == [0.25]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 1, 0]
    assert spans.uncovered(tr.spans, 0.0, clock.t) == 7.0


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert spans.covered([(0, 2), (1, 3)], 1.5, 2.5) == 1.0
    assert spans.covered([], 0, 1) == 0


# -- the tracer against code under test ----------------------------------------


@pytest.fixture
def fakepkg():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    other = types.ModuleType("fakepkg.other")

    def double(x, *, scale=2):
        return x * scale

    def boom():
        raise KeyError("kept")

    class Thing:
        def method(self, v):
            return ("method", v)

    mod.double, mod.boom, mod.Thing = double, boom, Thing
    other.double = double  # as left by ``from .mod import double``
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.other": other})
    yield mod, other
    for name in ("fakepkg", "fakepkg.mod", "fakepkg.other"):
        sys.modules.pop(name, None)


def test_absent_names_are_reported_not_raised(fakepkg):
    mod, other = fakepkg
    tr = spans.Tracer()
    tr.install(
        "fakepkg",
        [
            spans.Probe("mod.double"),
            spans.Probe("mod.pg2_triples"),
            spans.Probe("mod.Thing.apply_point"),
            spans.Probe("nomodule.f"),
            spans.Probe("mod.Missing.method"),
        ],
    )
    assert tr.absent == ["mod.pg2_triples", "mod.Thing.apply_point", "nomodule.f", "mod.Missing.method"]
    assert mod.double(3) == 6
    assert len(tr.spans) == 1


def test_wrapped_calls_pass_through(fakepkg):
    mod, other = fakepkg
    tr = spans.Tracer()
    tr.install("fakepkg", [spans.Probe("mod.double"), spans.Probe("mod.boom"),
                           spans.Probe("mod.Thing.method")])
    assert other.double(5, scale=3) == 15  # the alias is wrapped too
    assert mod.Thing().method(7) == ("method", 7)
    with pytest.raises(KeyError, match="kept"):
        mod.boom()
    assert [s.name for s in tr.spans] == ["mod.double", "mod.Thing.method", "mod.boom"]
    tr.uninstall()
    assert other.double(1) == 2 and len(tr.spans) == 3


def test_failing_hook_does_not_break_the_call(fakepkg):
    mod, _ = fakepkg
    tr = spans.Tracer()

    def bad(args, kwargs, result, state):
        raise TypeError("signature changed")

    tr.install("fakepkg", [spans.Probe("mod.double", after=bad)])
    assert mod.double(4) == 8
    assert "TypeError" in tr.hook_errors["mod.double"]


def test_probes_resolve_and_leave_output_unchanged():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from quasiherm import cli

    argv = ["verify-quasi", "--q", "3", "--kind", "SH2", "--j", "1"]

    def output():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        return buf.getvalue()

    plain = output()
    tr = spans.Tracer()
    tr.install("quasiherm", layers.PROBES)
    try:
        traced = output()
    finally:
        tr.uninstall()
    assert tr.absent == [] and tr.hook_errors == {}
    assert traced == plain
    names = {s.name for s in tr.spans}
    assert {"projgeom.Geometry.incidence_counts", "quasi.assemble", "cli.emit"} <= names
    got = layers.layer_metrics(tr.spans, tr.spans[0].start, tr.spans[-1].end)
    assert got["projgeom.incidence_counts.calls"] == (1, "count")
    # |S1 + H2| * (Q^2 + Q + 1) at q = 3
    assert got["projgeom.incidence_counts.incidences"][0] == 280 * 91
    assert got["srg.graph_params.calls"] == (0, "count")


# -- inputs ----------------------------------------------------------------------


def test_family_draw_is_seeded_and_covers_every_variant():
    a = workloads.draw_families(11)
    assert a == workloads.draw_families(11)
    assert [f.variant for f in a] == list(workloads.VARIANTS)
    se, h1e, sh2 = a
    assert h1e.k != se.k and sh2.j != se.j
    draws = {tuple(workloads.draw_families(s)) for s in range(20)}
    assert len(draws) > 10
    for fams in draws:
        for f in fams:
            assert f.j is None or f.j in workloads.valid_j(7)
            assert f.k is None or f.k in workloads.middle_k(7)


def test_expected_spectrum_at_q7():
    assert workloads.expected_spectrum(7) == {"344": 102900, "393": 17200}


# -- the verdict gate -----------------------------------------------------------


def _report(statuses, all_pass=True):
    checks = [{"check": f"c{i}", "status": s, "detail": ""} for i, s in enumerate(statuses)]
    return json.dumps({"checks": checks, "all_pass": all_pass})


def test_gate_counts_a_passing_report():
    v = workloads.gate(["report", "--q", "5"], 0, _report(["pass"] * 16 + ["skip"]))
    assert (v.attempted, v.failed, v.skipped, v.problems) == (16, 0, 1, [])


def test_gate_flags_a_fabricated_failing_report():
    v = workloads.gate(["report", "--q", "5"], 0, _report(["pass", "fail", "skip"], False))
    assert (v.attempted, v.failed, v.skipped) == (2, 1, 1)
    assert len(v.problems) == 2


def test_gate_counts_every_owed_verdict_of_a_broken_run():
    truncated = _report(["pass"] * 17)[:-20]
    v = workloads.gate(["report", "--q", "5"], 0, truncated)
    assert (v.attempted, v.failed) == (17, 17)
    v = workloads.gate(["report", "--q", "3"], 1, _report(["pass"] * 18))
    assert (v.attempted, v.failed) == (18, 18)
    v = workloads.gate(["verify-quasi", "--q", "7", "--kind", "SH2", "--j", "1"], "crashed", "")
    assert (v.attempted, v.failed) == (1, 1)


def test_gate_checks_the_spectrum_independently():
    fam = workloads.Family("SH2", j=2)
    good = {"kind": "S2+H2", "is_quasi": True, "spectrum": {"344": 102900, "393": 17200}}
    doc = {"results": [good]}
    assert workloads.gate(fam.argv(7), 0, json.dumps(doc)).failed == 0
    doc = {"results": [dict(good, spectrum={"344": 102901, "393": 17199})]}
    assert workloads.gate(fam.argv(7), 0, json.dumps(doc)).failed == 1
    doc = {"results": [dict(good, kind="S1+H2")]}
    assert workloads.gate(fam.argv(7), 0, json.dumps(doc)).failed == 1


def test_varying_digest_is_flagged():
    store: dict = {}
    argv = ["report", "--q", "3"]
    assert workloads.check_stable(store, argv, "a" * 64) is None
    assert workloads.check_stable(store, argv, "a" * 64) is None
    assert "differs" in workloads.check_stable(store, argv, "b" * 64)


# -- the benchmark's declared metrics ---------------------------------------------


def test_benchmark_json_matches_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [m[0] for m in layers.METRICS] + [m[0] for m in layers.TRACE_METRICS]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_summary_tail_percentile_needs_eleven_samples():
    assert run.summarize(range(10))["tail"] is None
    s = run.summarize(range(1, 21))
    assert (s["n"], s["median"], s["tail_pct"], s["tail"]) == (20, 10.5, 50.0, 10)
