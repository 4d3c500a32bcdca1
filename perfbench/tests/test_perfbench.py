"""Tests of the benchmark itself: seeded inputs, output checks, and the
traced run's span arithmetic and rebinding.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, restore, self_times  # noqa: E402

from microlump import analysis, chain, lumping, sim  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_same_documents(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    inputs.write_docs(inputs.generate(workload, 7), a)
    inputs.write_docs(inputs.generate(workload, 7), b)
    names = sorted(p.name for p in a.iterdir())
    assert names and names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert inputs.generate(workload, 7) == inputs.generate(workload, 7)


@pytest.mark.parametrize("workload", ["path-analyze", "simulate-noisy"])
def test_seed_changes_seeded_inputs(workload):
    assert inputs.generate(workload, 1) != inputs.generate(workload, 2)


def test_self_time_of_nested_spans():
    spans = [
        Span(0, None, 1, "pass", 0.0, 10.0),
        Span(1, 0, 1, "a", 1.0, 5.0),
        Span(2, 1, 1, "b", 2.0, 3.0),
        Span(3, 1, 1, "c", 3.5, 4.5),
        Span(4, 0, 1, "d", 6.0, 9.0),
        Span(5, 4, 1, "e", 6.0, 7.0),
        Span(6, 4, 1, "f", 6.5, 8.0),   # overlaps e: the union is subtracted
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 1.5})


def test_stage_clock_scales_by_the_surrounding_probes(monkeypatch):
    ref = speed.PROBE_REF_S
    probes = iter([2 * ref, 2 * ref, ref, 2 * ref])
    ticks = iter([0.0, 1.0, 1.0, 3.0, 3.0, 4.0])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(ticks))
    clock = speed.StageClock()
    with clock("a"):   # 1 s between probes of 2x the reference: factor 1/2
        pass
    with clock("a"):   # 2 s between probes of 2x and 1x: factor 2/3
        pass
    with clock("b", scaled=False):   # native-code call: wall time kept
        pass
    assert clock.wall == {"a": 3.0, "b": 1.0}
    assert clock.scaled == pytest.approx({"a": 0.5 + 4 / 3, "b": 1.0})
    assert clock.factor == pytest.approx((0.5 + 4 / 3 + 1) / 4)


def test_tracer_parents_and_pass_ids():
    t = Tracer()
    t.begin_pass(3)
    with t.span("outer") as outer:
        with t.span("inner"):
            pass
    inner_span, outer_span = t.spans
    assert inner_span.parent == outer and outer_span.parent is None
    assert {s.pass_id for s in t.spans} == {3}


def test_install_rebinds_every_namespace_and_restores():
    originals = (chain.build_micro_chain, lumping.lump, lumping.block_row_sums)
    t = Tracer()
    t.begin_pass(0)
    undo = layers.install(t)
    try:
        assert sim.build_micro_chain is chain.build_micro_chain is not originals[0]
        assert analysis.lump is lumping.lump is not originals[1]
        assert analysis.block_row_sums is lumping.block_row_sums is not originals[2]
    finally:
        restore(undo)
    assert (sim.build_micro_chain, analysis.lump, analysis.block_row_sums) == originals


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def reduce_pass(tmp_path_factory):
    wl = workloads.ReduceComplete(0, tmp_path_factory.mktemp("reduce"))
    return wl, wl.run_pass(lambda name: nullcontext())


def test_reduce_complete_outputs_pass_their_checks(reduce_pass):
    wl, out = reduce_pass
    checks = workloads.Checks()
    wl.check(out, checks)
    assert checks.attempted > 10 and checks.failed == 0, checks.messages


def _failures(wl, out):
    checks = workloads.Checks()
    wl.check(out, checks)
    return checks.failed, checks.messages


def test_changed_macro_entry_is_counted(reduce_pass):
    wl, out = reduce_pass
    text = out["files"]["macro.sparse"].decode()
    assert "\n1 1 5/6\n" in text
    bad = dict(out, files=dict(out["files"], **{
        "macro.sparse": text.replace("\n1 1 5/6\n", "\n1 1 4/6\n").encode()}))
    failed, messages = _failures(wl, bad)
    assert failed >= 2  # the exact entries and the recorded bytes
    assert any("k(N-k)" in m for m in messages)


def test_flipped_verdict_is_counted(reduce_pass):
    wl, out = reduce_pass
    bad = dict(out, verbs=dict(out["verbs"], **{"check-lump": (3, "not lumpable\n")}))
    failed, messages = _failures(wl, bad)
    assert failed == 2 and any("check-lump" in m for m in messages)
