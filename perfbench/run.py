"""Benchmark of microlump's exact pipeline: three workloads, checked outputs,
end-to-end metrics untraced and per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload reduce-complete --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

The last line of standard output of a single workload is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. Times in it,
except `setup_s`, are seconds scaled to a reference machine speed (speed.py).
`--workload all` runs each workload in its own process and prints every
end-to-end figure of each. See NOTES.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_out"

# one BLAS thread: the dense solves stay single-caller like everything else,
# and a shared machine's other load moves the figures less
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7   # at least; one more follows every timed pass
MIN_PASSES = 3
WORKLOAD_NAMES = ("reduce-complete", "path-analyze", "simulate-noisy")

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
# every end-to-end figure the report prints, in order; n/a where a
# workload has no such stage
REPORT = [("setup_s", "s"), ("pass_s", "s"), ("compile_s", "s"), ("symmetry_s", "s"),
          ("lump_s", "s"), ("witness_s", "s"), ("analyze_s", "s"), ("propagate_s", "s"),
          ("model_load_s", "s"), ("sim_steps_per_s", "steps/s"), ("estimate_s", "s"),
          ("peak_rss_mb", "MB"), ("error_rate", "ratio"),
          ("build_s", "s"), ("orbits_s", "s"), ("simulate_s", "s")]

# runs in a fresh interpreter: the set-up a user pays before the first pass.
# Left in wall seconds: it is mostly module loading, which the host's slow
# state stretches by about 1.3x where the speed probe stretches by about 2x.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
src, here, workload, seed, outdir = sys.argv[1:]
sys.path[:0] = [src, here]
import microlump, inputs
from pathlib import Path
inputs.write_docs(inputs.generate(workload, int(seed)), Path(outdir))
print(time.perf_counter() - t0)
"""


def setup_once(workload: str, seed: int, outdir: Path) -> float:
    """Wall set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload, str(seed),
         str(outdir)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def one_pass(wl, checks, tracer=None, pass_id=0):
    """Run and check one pass; returns its StageClock."""
    from spans import restore
    from speed import StageClock
    import layers

    gc.collect()
    clock = StageClock()
    undo = []
    if tracer is not None:
        tracer.begin_pass(pass_id)
        undo = layers.install(tracer)
    try:
        with tracer.span("pass") if tracer is not None else nullcontext():
            out = wl.run_pass(clock)
    finally:
        restore(undo)
    try:
        wl.check(out, checks)
    except (KeyError, ValueError, IndexError, TypeError, AttributeError) as exc:
        checks(False, f"output could not be checked: {exc!r}")  # malformed output
    return clock


def _median_total(clocks, kind: str) -> float:
    return statistics.median(sum(getattr(c, kind).values()) for c in clocks)


def measure(wl, deadline: float, trace: bool, checks, between) -> dict:
    """Closed loop of passes until `deadline`: a warm-up pass, then timed
    passes, each followed by `between()`; with `trace`, untraced and traced
    passes alternate. No pass starts that would be expected to end after the
    deadline, once each kind has MIN_PASSES."""
    from spans import Tracer, self_times
    import layers

    tracer = Tracer() if trace else None
    one_pass(wl, checks, tracer, pass_id=0)  # warm-up, traced in a traced run
    plain, traced, durations = [], {}, []
    pass_id = 0
    while True:
        pass_id += 1
        start = time.perf_counter()
        if trace and pass_id % 2 == 0:
            traced[pass_id] = one_pass(wl, checks, tracer, pass_id)
        else:
            plain.append(one_pass(wl, checks))
        between()
        durations.append(time.perf_counter() - start)
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() + statistics.median(durations) > deadline:
            break
    result = {"pass_s": _median_total(plain, "scaled"),
              "wall_pass_s": _median_total(plain, "wall"),
              "speed_factor": statistics.median(c.factor for c in plain),
              "passes": len(plain),
              "stages": {name: statistics.median(c.scaled[name] for c in plain)
                         for name in plain[0].scaled}}
    if trace:
        for p in [0, *traced]:
            spans = [s for s in tracer.spans if s.pass_id == p]
            root = next(s for s in spans if s.name == "pass")
            own = self_times(spans)
            layer_self = sum(own[s.span_id] for s in spans if s is not root)
            checks(layer_self <= root.end - root.start,
                   f"pass {p}: layer self times exceed the pass")
        result["layers"] = layers.summarize(
            tracer, {p: clock.factor for p, clock in traced.items()}, warmup=[0])
        result["traced_pass_s"] = _median_total(traced.values(), "scaled")
        result["spans"] = tracer.spans
    return result


def per_layer_units() -> dict:
    """Every metric of a traced run, name -> unit, as BENCHMARK.json lists them."""
    import layers
    import workloads
    units = dict(layers.PER_LAYER)
    units.update(dict.fromkeys(("trace.traced_pass_s", "trace.untraced_pass_s",
                                "trace.overhead_s", "wall.pass_s"), "s"))
    units["wall.speed_factor"] = "ratio"
    units.update({f"stage.{s}_s": "s" for s in workloads.STAGES})
    return units


def write_spans(spans, workload: str, seed: int) -> Path:
    SPANS_OUT.mkdir(exist_ok=True)
    path = SPANS_OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__) + "\n")
    return path


def report_lines(workload, seed, setup, res, checks, steps) -> list:
    values = {f"{k}_s": v for k, v in res["stages"].items()}
    if "simulate_s" in values:
        values["sim_steps_per_s"] = steps / values["simulate_s"]
    values.update(setup_s=statistics.median(setup), pass_s=res["pass_s"],
                  peak_rss_mb=res["peak_rss_mb"],
                  error_rate=checks.failed / checks.attempted)
    lines = [f"# {workload} seed={seed}: median of {res['passes']} timed passes "
             f"(after 1 warm-up), set-up median of {len(setup)} fresh processes, "
             f"BLAS threads {BLAS_THREADS}, checks {checks.failed}/{checks.attempted} failed",
             f"# times except setup_s are scaled to the reference speed; wall pass median "
             f"{res['wall_pass_s']:.4g} s, speed factor {res['speed_factor']:.3f}"]
    for name, unit in REPORT:
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{workload:16s} {name:16s} {shown:>12s} {unit}")
    return lines


def run_all(args) -> int:
    """Each workload in a fresh process (so peak RSS is its own)."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        ok = proc.returncode == 0 and lines and json.loads(lines[-1])["correct"]
        print("\n".join(lines[:-1] if ok else lines))
        status = status or (0 if ok else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from spans import maxrss_mb
    import inputs

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    deadline = time.perf_counter() + args.seconds  # set-up is measured within it
    setup = []

    def sample_setup():
        # spread over the run, so the median covers the host's states in it
        setup.append(setup_once(args.workload, args.seed, workdir / f"setup{len(setup)}"))

    try:
        sample_setup()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir / "run")
        checks = workloads.Checks()
        res = measure(wl, deadline, bool(args.trace), checks, sample_setup)
        while len(setup) < SETUP_REPEATS:
            sample_setup()
        res["peak_rss_mb"] = maxrss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    for msg in checks.messages[:10]:
        print(f"check failed: {msg}", file=sys.stderr)
    if args.trace:
        path = write_spans(res["spans"], args.workload, args.seed)
        print(f"# spans written to {path.relative_to(ROOT)}")
        values = dict(res["layers"])
        values.update({"trace.traced_pass_s": res["traced_pass_s"],
                       "trace.untraced_pass_s": res["pass_s"],
                       "trace.overhead_s": res["traced_pass_s"] - res["pass_s"],
                       "wall.pass_s": res["wall_pass_s"],
                       "wall.speed_factor": res["speed_factor"]})
        values.update({f"stage.{s}_s": res["stages"].get(s, 0.0) for s in workloads.STAGES})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        print("\n".join(report_lines(args.workload, args.seed, setup, res, checks,
                                     inputs.SIM_STEPS)))
        values = {"setup_s": statistics.median(setup), "pass_s": res["pass_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
