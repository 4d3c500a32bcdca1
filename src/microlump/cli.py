"""Command-line pipeline: one verb per stage, file handoff between stages.

Exit codes: 0 success, 2 usage, 3 failed verdict (not lumpable / not
symmetric), 4 document parse error, 5 validation or analysis error,
6 state-space cap exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager
from typing import List, Optional

from . import analysis, chain as chainmod, lumping, sim, symmetry
from .errors import (AnalysisError, CapExceededError, DocumentParseError,
                     NotLumpableError, ValidationError)
from .model import load_model
from .space import ConfigSpace, default_cap

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERDICT = 3
EXIT_PARSE = 4
EXIT_VALIDATION = 5
EXIT_CAP = 6


@contextmanager
def _output(args):
    """The `-o` file when given, else stdout. Verbs open it only once their
    result is computed, so a failing verb leaves an existing file intact."""
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _write(args, text: str) -> None:
    with _output(args) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def cmd_compile(args) -> int:
    spec = load_model(args.model)
    mc = chainmod.build_micro_chain(spec, cap=args.cap)
    with _output(args) as fh:
        chainmod.write_sparse(mc, fh)
    print(f"states={mc.n_states} nnz={mc.nnz()}", file=sys.stderr)
    return EXIT_OK


def cmd_maps(args) -> int:
    spec = load_model(args.model)
    lines = [f"z={z} agents=({','.join(str(a + 1) for a in m.agents)}) "
             f"option={m.option_label} p={m.probability.numerator}/{m.probability.denominator}"
             for z, m in enumerate(chainmod.enumerate_maps(spec), start=1)]
    if args.table:
        space = spec.space(args.cap)
        lines = [f"{head} action: {' '.join(map(str, action.tolist()))}"
                 for head, action in zip(lines, chainmod.draw_targets(spec, space))]
    _write(args, "\n".join(lines))
    return EXIT_OK


def _generators(args, spec):
    n, delta = spec.n_agents, spec.delta
    if args.gens_file:
        with open(args.gens_file, "r", encoding="utf-8") as fh:
            return symmetry.parse_generator_file(fh.read(), n, delta)
    return symmetry.parse_presets("SN" if args.gens is None else args.gens, n, delta)


def cmd_orbits(args) -> int:
    spec = load_model(args.model)
    gens = _generators(args, spec)
    space = spec.space(args.cap)
    part = symmetry.orbits(space, gens)
    with _output(args) as fh:
        lumping.write_partition(part, fh)
    print(f"blocks={part.n_blocks}", file=sys.stderr)
    return EXIT_OK


def cmd_check_sym(args) -> int:
    spec = load_model(args.model)
    gens = _generators(args, spec)
    # the cap holds even where the certificate, which needs no chain, decides;
    # a failing certificate proves nothing, so the matrix gives that verdict
    spec.space(args.cap)
    if symmetry.certify(spec, gens):
        print(f"symmetric under {gens.name}")
        return EXIT_OK
    mc = chainmod.build_micro_chain(spec, cap=args.cap)
    verdict = symmetry.is_chain_symmetric(mc, gens)
    if verdict:
        print(f"symmetric under {gens.name}")
        return EXIT_OK
    w = verdict.witness
    print(f"not symmetric under {gens.name}")
    print(f"witness: {w}")
    print(f"  states: {mc.space.format_index(w.x)} -> {mc.space.format_index(w.y)}")
    return EXIT_VERDICT


def cmd_check_lump(args) -> int:
    imported = chainmod.load_chain(args.chain)
    part = lumping.load_partition(args.partition)
    verdict = lumping.check_lumpable(imported, part, tol=args.tol,
                                     exhaustive=args.exhaustive)
    if verdict:
        print(f"lumpable: {part.n_blocks} blocks")
        return EXIT_OK
    print("not lumpable")
    for v in verdict.violations:
        print(f"witness: {v}")
    return EXIT_VERDICT


def cmd_lump(args) -> int:
    imported = chainmod.load_chain(args.chain)
    part = lumping.load_partition(args.partition)
    macro = lumping.lump(imported, part, tol=args.tol)
    with _output(args) as fh:
        chainmod.write_sparse(macro, fh)
    for k, label in enumerate(part.labels):
        print(f"block {k} {label} size={part.indptr[k + 1] - part.indptr[k]}", file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args) -> int:
    report = analysis.absorption_analysis(chainmod.load_chain(args.chain))
    if args.format == "kv":
        text = analysis.absorption_kv(report)
    else:
        classes = " ".join("{" + " ".join(map(str, c)) + "}"
                           for c in report.recurrent_classes)
        text = f"recurrent classes: {classes}\n" + analysis.absorption_text(report)
    _write(args, text)
    return EXIT_OK


def cmd_propagate(args) -> int:
    imported = chainmod.load_chain(args.chain)
    if args.start is not None:
        mu = analysis.point_mass(imported.n_states, args.start)
    else:
        with open(args.mu0, "r", encoding="utf-8") as fh:
            mu = analysis.read_distribution(fh.read(), imported.n_states)
    mu = analysis.propagate(imported, mu, args.steps)
    with _output(args) as fh:
        analysis.write_distribution(mu, fh)
    return EXIT_OK


def _parse_start(raw: str, space: ConfigSpace):
    if raw.isdecimal():
        return space.config_of(int(raw))
    labels = [tok.strip() for tok in raw.strip("()").split(",")]
    if not set(labels) <= set(space.labels):
        raise ValidationError(f"bad start configuration {raw!r}")
    return tuple(space.labels.index(lab) for lab in labels)


def cmd_simulate(args) -> int:
    spec = load_model(args.model)
    space = spec.space(args.cap)
    start = _parse_start(args.start, space)
    part = lumping.load_partition(args.partition) if args.partition else None
    if part is not None and part.n_states != space.size:
        raise ValidationError(
            f"partition covers {part.n_states} states, model has {space.size}")
    run = sim.simulate(spec, start, args.steps, args.seed, cap=args.cap)
    with _output(args) as fh:
        sim.write_trajectory(run, space, fh, part)
    return EXIT_OK


def cmd_estimate(args) -> int:
    spec = load_model(args.model)
    # a bad MICROLUMP_CAP is reported before a bad --samples or --seed
    cap = args.cap or default_cap()
    report, _ = sim.estimate_matrix(spec, args.samples, args.seed, cap=cap)
    _write(args, sim.estimate_text(report))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first call; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="microlump",
        description="exact chains for sequential agent models: compile, "
                    "reduce, analyze, simulate")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, help_, inputs, output=True, cap=True):
        """A verb with the positional arguments `inputs`, then `-o` and `--cap`."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn="cmd_" + name.replace("-", "_"))  # `main` looks it up when it runs
        for arg in inputs.split():
            p.add_argument(arg)
        if output:
            p.add_argument("-o", "--output")
        if cap:
            p.add_argument("--cap", type=int)
        return p

    add("compile", "build the exact transition matrix of a model", "model")
    p = add("maps", "list the deterministic maps the model draws from", "model")
    p.add_argument("--table", action="store_true",
                   help="materialize each map's full action (cap-guarded)")
    for p in (add("orbits", "orbit partition of a generator set", "model"),
              add("check-sym", "test generators as chain symmetries", "model", output=False)):
        # no default in the group, so that `--gens SN` counts as given
        group = p.add_mutually_exclusive_group()
        group.add_argument("--gens", help="comma-separated presets (default SN)")
        group.add_argument("--gens-file", help="generator file, one generator per line")

    for p in (check_lump := add("check-lump", "block-sum lumpability test", "chain partition",
                                output=False, cap=False),
              add("lump", "build the reduced chain over a partition", "chain partition", cap=False)):
        p.add_argument("--tol", type=float, nargs="?", const=1e-12, default=None,
                       help="absolute tolerance for imported float chains "
                            "(bare flag means 1e-12)")
    check_lump.add_argument("--exhaustive", action="store_true",
                            help="report every violation, not just the first")

    p = add("analyze", "state classification and absorption solve", "chain", cap=False)
    p.add_argument("--format", choices=("text", "kv"), default="text")
    p = add("propagate", "push a distribution t steps, exactly", "chain", cap=False)
    p.add_argument("-t", "--steps", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--start", type=int, help="point mass on this state")
    group.add_argument("--mu0", help="distribution file, `index prob` lines")

    p = add("simulate", "sample one trajectory", "model")
    p.add_argument("--start", required=True,
                   help="state index or label tuple like (black,white,white)")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--partition", help="project the trajectory onto blocks")
    p = add("estimate", "empirical one-step frequencies vs the matrix", "model")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, required=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if getattr(args, "cap", None) is not None and args.cap < 1:
            raise ValidationError(f"--cap must be positive, got {args.cap}")
        return globals()[args.fn](args)
    except DocumentParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print(f"out of memory: {args.verb} needs more memory than it can get", file=sys.stderr)
        return EXIT_CAP
    except (ValidationError, AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NotLumpableError as exc:  # from `lump`: reported like check-lump
        print("not lumpable")
        print(f"witness: {exc.witness}")
        return EXIT_VERDICT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())
