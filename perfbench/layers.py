"""Layer hooks for microlump: which public functions the traced run wraps,
the counts read from their return values, and the per-layer metrics.

Every hook wraps a function from outside; nothing in the program changes.
"""

from __future__ import annotations

import os
import statistics
from functools import cached_property
from math import lcm
from typing import Dict, List

from microlump import analysis, chain, cli, lumping, model, sim, space, symmetry

from spans import Tracer, rebind, rebind_attr, self_times

PACKAGE = "microlump"

CLI_VERBS = {"compile": "cmd_compile", "check-sym": "cmd_check_sym",
             "orbits": "cmd_orbits", "check-lump": "cmd_check_lump",
             "lump": "cmd_lump", "analyze": "cmd_analyze",
             "propagate": "cmd_propagate"}

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER: Dict[str, str] = {}
PER_LAYER.update({f"cli.{verb}.self_s": "s" for verb in CLI_VERBS})
PER_LAYER.update({"cli.bytes_written": "bytes", "cli.bytes_read": "bytes",
                  "model.parse_model.self_s": "s", "model.draws": "count"})
PER_LAYER.update({
    "chain.enumerate_maps.self_s": "s",
    "chain.build_micro_chain.self_s": "s",
    "chain.build_micro_chain.maxrss_delta_mb": "MB",
    "chain.write_sparse.self_s": "s",
    "chain.read_sparse.self_s": "s",
    "chain.validate_stochastic.self_s": "s",
    "chain.nnz": "count",
    "chain.denom_bits": "bits",
    "space.codes_matrix.self_s": "s",
    "space.states": "count",
    "space.index_of.calls": "count",
    "symmetry.is_chain_symmetric.self_s": "s",
    "symmetry.index_map.self_s": "s",
    "symmetry.generators": "count",
    "symmetry.orbits.self_s": "s",
    "symmetry.blocks": "count",
    "lumping.check_lumpable.self_s": "s",
    "lumping.lump.self_s": "s",
    "lumping.block_row_sums.calls": "count",
    "lumping.rows_per_state": "ratio",
    "lumping.read_partition.self_s": "s",
    "lumping.frequency_partition.self_s": "s",
    "lumping.violations": "count",
    "analysis.classify_states.self_s": "s",
    "analysis.classify_states.calls": "count",
    "analysis.absorption_analysis.self_s": "s",
    "analysis.absorption_analysis.maxrss_delta_mb": "MB",
    "analysis.transient": "count",
    "analysis.residual_max": "1",
    "analysis.propagate.self_s": "s",
    "analysis.commutation_profile.self_s": "s",
    "analysis.mu_denom_bits": "bits",
    "sim.simulate.self_s": "s",
    "sim.steps": "count",
    "sim.changed_steps": "count",
    "sim.changed_ratio": "ratio",
    "sim.estimate_matrix.self_s": "s",
    "sim.flags": "count",
    "sim.entries": "count",
})

# maxrss only grows, so a call raises it at most once per process: these
# are reported as the largest delta over all traced passes, warm-up included
PEAK_OVER_RUN = ("chain.build_micro_chain.maxrss_delta_mb",
                 "analysis.absorption_analysis.maxrss_delta_mb")


def _denom_bits(fractions) -> int:
    return lcm(*{p.denominator for p in fractions}).bit_length()


def _model_counts(t: Tracer, args, spec):
    t.peak("model.draws", len(spec.choice.entries) * len(spec.rule.options))


def _chain_counts(t: Tracer, args, mc):
    t.peak("chain.nnz", sum(len(row) for row in mc.rows))
    t.peak("chain.denom_bits", _denom_bits(p for row in mc.rows for _, p in row))


def _generator_counts(t: Tracer, args, verdict):
    t.peak("symmetry.generators", len(args[1].perms))


def _block_counts(t: Tracer, args, part):
    t.peak("symmetry.blocks", part.n_blocks)


def _violation_counts(t: Tracer, args, verdict):
    t.add("lumping.violations", len(verdict.violations))


def _call_count(t: Tracer, args, result):
    t.add("analysis.classify_states.calls", 1)


def _absorption_counts(t: Tracer, args, report):
    t.peak("analysis.transient", len(report.transient))
    t.peak("analysis.residual_max", max(report.residual_probs, report.residual_steps))


def _mu_counts(t: Tracer, args, mu):
    t.peak("analysis.mu_denom_bits", _denom_bits(mu))


def _sim_counts(t: Tracer, args, run):
    t.add("sim.steps", run.steps)
    t.add("sim.changed_steps", sum(n for (x, y), n in run.counts.items() if x != y))


def _estimate_counts(t: Tracer, args, result):
    report, exact = result
    t.add("sim.flags", len(report.violations))
    t.add("sim.entries", sum(len(tally.keys() | {y for y, _ in row})
                             for tally, row in zip(report.counts, exact.rows)))


# (module, public function, count recorder(tracer, args, result), maxrss delta)
_SPANS = [
    (model, "parse_model", _model_counts, False),
    (chain, "enumerate_maps", None, False),
    (chain, "build_micro_chain", _chain_counts, True),
    (chain, "write_sparse", None, False),
    (chain, "read_sparse", _chain_counts, False),
    (chain, "validate_stochastic", None, False),
    (symmetry, "is_chain_symmetric", _generator_counts, False),
    (symmetry, "orbits", _block_counts, False),
    (lumping, "check_lumpable", _violation_counts, False),
    (lumping, "lump", None, False),
    (lumping, "read_partition", None, False),
    (lumping, "frequency_partition", None, False),
    (analysis, "classify_states", _call_count, False),
    (analysis, "absorption_analysis", _absorption_counts, True),
    (analysis, "propagate", _mu_counts, False),
    (analysis, "commutation_profile", None, False),
    (sim, "simulate", _sim_counts, False),
    (sim, "estimate_matrix", _estimate_counts, False),
]


def _cli_bytes(t: Tracer, args, code):
    ns = args[0]
    for key in ("model", "chain", "partition"):
        path = getattr(ns, key, None)
        if path:
            t.add("cli.bytes_read", os.path.getsize(path))
    out = getattr(ns, "output", None)
    if out and os.path.exists(out):
        t.add("cli.bytes_written", os.path.getsize(out))


def install(t: Tracer) -> list:
    """Wrap every hooked function in every namespace that binds it; returns
    the undo list for `spans.restore`."""
    undo: List = []
    for module, attr, after, rss in _SPANS:
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        original = getattr(module, attr)
        undo += rebind(PACKAGE, original, t.traced(original, name, after, rss))
    for verb, attr in CLI_VERBS.items():
        original = getattr(cli, attr)
        undo += rebind(PACKAGE, original, t.traced(original, f"cli.{verb}", _cli_bytes))
    undo += rebind(PACKAGE, lumping.block_row_sums,
                   t.counted(lumping.block_row_sums, "lumping.block_row_sums.calls"))

    cs = space.ConfigSpace
    undo += rebind_attr(cs, "index_of", t.counted(cs.index_of, "space.index_of.calls"))
    post_init = cs.__post_init__

    def sized_post_init(self):
        post_init(self)
        t.peak("space.states", self.size)
    undo += rebind_attr(cs, "__post_init__", sized_post_init)
    codes = cached_property(t.traced(cs.__dict__["codes_matrix"].func, "space.codes_matrix"))
    codes.__set_name__(cs, "codes_matrix")
    undo += rebind_attr(cs, "codes_matrix", codes)
    perm = symmetry.SpacePermutation
    undo += rebind_attr(perm, "index_map", t.traced(perm.index_map, "symmetry.index_map"))
    return undo


def pass_metrics(t: Tracer, pass_id: int) -> Dict[str, float]:
    """Self time per span name and the counters of one traced pass."""
    spans = [s for s in t.spans if s.pass_id == pass_id]
    own = self_times(spans)
    out: Dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    for s in spans:
        key = f"{s.name}.self_s"
        if key in out:
            out[key] += own[s.span_id]
    out.update(t.counts.get(pass_id, {}))
    if out["space.states"]:
        out["lumping.rows_per_state"] = out["lumping.block_row_sums.calls"] / out["space.states"]
    if out["sim.steps"]:
        out["sim.changed_ratio"] = out["sim.changed_steps"] / out["sim.steps"]
    return out


def summarize(t: Tracer, factors: Dict[int, float], warmup: List[int]) -> Dict[str, float]:
    """Median over the timed passes (pass id -> speed factor), self times
    scaled by their pass's factor; maxrss deltas take the run's largest."""
    per_pass = {p: pass_metrics(t, p) for p in [*factors, *warmup]}
    for p, factor in factors.items():
        for name in per_pass[p]:
            if name.endswith(".self_s"):
                per_pass[p][name] *= factor
    out = {name: statistics.median(per_pass[p][name] for p in factors)
           for name in PER_LAYER}
    for name in PEAK_OVER_RUN:
        out[name] = max(m[name] for m in per_pass.values())
    return out
