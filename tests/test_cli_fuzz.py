"""Seeded fuzzing of the command line: mutated sample models, and a
mutated chain and partition of voter3, run through every verb in process;
then, with its own seed, sample models and `--start` values with ASCII
digits swapped for non-ASCII ones; with another seed, voter3's chain
with near misses of the writer's line shape: non-ASCII digits, `\\r` and
second spaces; with a fourth seed, `estimate --samples` values out of
range at either end; with a fifth, voter3's chain under a header
declaring more states than int64 holds, with entries moved far off; and,
with a sixth, other integer options out of range.

Whatever a mutation breaks, each verb must end with a documented exit code
(0, 2, 3, 4, 5 or 6) and never raise. No mutation is filtered out.
"""

import io
import random
import re
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from microlump import build_micro_chain, load_model, orbits, parse_presets
from microlump import write_partition, write_sparse
from microlump.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
EXIT_CODES = {0, 2, 3, 4, 5, 6}
MUTATIONS_PER_FILE = 60
# characters substitutions draw from: separators, digits, signs and the
# letters of keywords, so that many mutants still half parse
ALPHABET = "0123456789/-+.,=#[]() \t\nexabcoplt"


def _mutate(text, rng):
    """One character substitution, line deletion or duplication, or swap of
    two tokens."""
    lines = text.splitlines(keepends=True)
    kind = rng.randrange(4)
    if kind == 0:
        at = rng.randrange(len(text))
        return text[:at] + rng.choice(ALPHABET) + text[at + 1:]
    if kind in (1, 2):
        at = rng.randrange(len(lines))
        repeat = [lines[at]] * (2 if kind == 2 else 0)
        return "".join(lines[:at] + repeat + lines[at + 1:])
    tokens = [(k, t) for k, line in enumerate(lines) for t in range(len(line.split()))]
    (a, i), (b, j) = rng.sample(tokens, 2)
    split = [line.split() for line in lines]
    split[a][i], split[b][j] = split[b][j], split[a][i]
    return "".join(" ".join(toks) + "\n" for toks in split)


def _model_verbs(path, part):
    return [["compile", path], ["maps", path], ["maps", path, "--table"],
            ["orbits", path, "--gens", "SN,flip"], ["check-sym", path, "--gens", "full"],
            ["simulate", path, "--start", "1", "--steps", "30", "--seed", "2"],
            ["simulate", path, "--start", "0", "--steps", "5", "--seed", "2",
             "--partition", part],
            ["estimate", path, "--samples", "20", "--seed", "3"]]


def _chain_verbs(chain, part):
    return [["check-lump", chain, part], ["check-lump", chain, part, "--exhaustive", "--tol"],
            ["lump", chain, part], ["analyze", chain], ["analyze", chain, "--format", "kv"],
            ["propagate", chain, "--start", "1", "-t", "4"]]


def _run(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv), None
        except BaseException:  # any escape is the failure sought
            return None, traceback.format_exc()


def test_mutated_inputs_end_in_documented_exit_codes(tmp_path):
    rng = random.Random(20240607)
    voter3 = load_model(SAMPLES / "voter3.model")
    sources = {name: (SAMPLES / name).read_text(encoding="utf-8")
               for name in ("voter3.model", "path3.model", "majority3.model")}
    chain_text, part_text = io.StringIO(), io.StringIO()
    write_sparse(build_micro_chain(voter3), chain_text)
    write_partition(orbits(build_micro_chain(voter3).space, parse_presets("SN", 3, 2)),
                    part_text)
    sources["voter3.sparse"] = chain_text.getvalue()
    sources["voter3.part"] = part_text.getvalue()
    good = {}
    for name, text in sources.items():
        good[name] = tmp_path / f"good-{name}"
        good[name].write_text(text, encoding="utf-8")

    failures, codes = [], set()
    for name, text in sources.items():
        for k in range(MUTATIONS_PER_FILE):
            mutant = _mutate(text, rng)
            mutant_path = tmp_path / f"mutant{k}-{name}"
            mutant_path.write_text(mutant, encoding="utf-8")
            mutant_file, part = str(mutant_path), str(good["voter3.part"])
            if name.endswith(".model"):
                verbs = _model_verbs(mutant_file, part)
            elif name.endswith(".sparse"):
                verbs = _chain_verbs(mutant_file, part)
            else:
                verbs = (_chain_verbs(str(good["voter3.sparse"]), mutant_file)
                         + [_model_verbs(str(good["voter3.model"]), mutant_file)[-2]])
            for argv in verbs:
                code, trace = _run(argv)
                codes.add(code)
                if code not in EXIT_CODES:
                    failures.append(f"{argv[0]} on {name} mutant {mutant!r}: "
                                    f"exit {code}\n{trace}")
    assert not failures, f"{len(failures)} failures, the first:\n" + failures[0]
    # the mutants reach both success and the error exits
    assert {0, 4, 5} <= codes


# '²' passes str.isdigit but int() rejects it; '٣' and '０' are decimal
# digits that int() reads as 3 and 0
NON_ASCII_DIGITS = "²٣０"
DIGIT_MUTATIONS_PER_FILE = 15


def _swap_digits(text, rng):
    """One to three of the ASCII digits of `text` swapped for non-ASCII ones."""
    chars = list(text)
    at = [k for k, ch in enumerate(chars) if ch in "0123456789"]
    for k in rng.sample(at, min(len(at), rng.randint(1, 3))):
        chars[k] = rng.choice(NON_ASCII_DIGITS)
    return "".join(chars)


def test_non_ascii_digit_mutants_end_in_documented_exit_codes(tmp_path):
    rng = random.Random(20261018)
    voter3 = load_model(SAMPLES / "voter3.model")
    part = tmp_path / "voter3.part"
    with open(part, "w", encoding="utf-8") as fh:
        write_partition(orbits(build_micro_chain(voter3).space, parse_presets("SN", 3, 2)), fh)
    failures, codes = [], set()
    for name in ("voter3.model", "path3.model", "majority3.model"):
        text = (SAMPLES / name).read_text(encoding="utf-8")
        for k in range(DIGIT_MUTATIONS_PER_FILE):
            mutant = _swap_digits(text, rng)
            mutant_path = tmp_path / f"digits{k}-{name}"
            mutant_path.write_text(mutant, encoding="utf-8")
            start = _swap_digits(rng.choice(("0", "1", "7", "10")), rng)
            verbs = _model_verbs(str(mutant_path), str(part)) + [
                ["simulate", str(SAMPLES / name), "--start", start, "--steps", "5",
                 "--seed", "2"]]
            for argv in verbs:
                code, trace = _run(argv)
                codes.add(code)
                if code not in EXIT_CODES:
                    failures.append(f"{argv} on {name} mutant {mutant!r}: exit {code}\n{trace}")
    assert not failures, f"{len(failures)} failures, the first:\n" + failures[0]
    assert {0, 4, 5} <= codes


SPARSE_MUTANTS = 40


def _near_writer(text, rng):
    """One to three edits of a sparse document: an ASCII digit swapped for
    a non-ASCII one, or a `\\r` or a second space put before a space or a
    line end."""
    for _ in range(rng.randint(1, 3)):
        if rng.randrange(3) == 0:
            text = _swap_digits(text, rng)
            continue
        at = rng.choice([k for k, ch in enumerate(text) if ch in " \n"])
        text = text[:at] + rng.choice("\r ") + text[at:]
    return text


def test_near_writer_chain_mutants_end_in_documented_exit_codes(tmp_path):
    rng = random.Random(20261019)
    voter3 = load_model(SAMPLES / "voter3.model")
    chain = build_micro_chain(voter3)
    text, part = io.StringIO(), tmp_path / "voter3.part"
    write_sparse(chain, text)
    with open(part, "w", encoding="utf-8") as fh:
        write_partition(orbits(chain.space, parse_presets("SN", 3, 2)), fh)
    failures, codes = [], set()
    for k in range(SPARSE_MUTANTS):
        mutant = _near_writer(text.getvalue(), rng)
        mutant_path = tmp_path / f"near{k}-voter3.sparse"
        # newline="" keeps every \r as written
        with open(mutant_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(mutant)
        for argv in _chain_verbs(str(mutant_path), str(part)):
            code, trace = _run(argv)
            codes.add(code)
            if code not in EXIT_CODES:
                failures.append(f"{argv} on mutant {mutant!r}: exit {code}\n{trace}")
    assert not failures, f"{len(failures)} failures, the first:\n" + failures[0]
    assert {0, 4} <= codes


SAMPLES_MUTANTS = 20


def _out_of_range_samples(rng):
    """A `--samples` value below 1 or above int64's largest, up to 2**130
    past either end."""
    reach = rng.randrange(2 ** rng.randint(1, 130))
    return str(-reach if rng.randrange(2) else 2**63 + reach)


def test_out_of_range_samples_end_in_validation_errors():
    rng = random.Random(20261020)
    failures, codes = [], set()
    for k in range(SAMPLES_MUTANTS):
        samples = _out_of_range_samples(rng)
        for name in ("voter3.model", "path3.model", "majority3.model"):
            argv = ["estimate", str(SAMPLES / name), "--samples", samples, "--seed", "3"]
            code, trace = _run(argv)
            codes.add(code)
            if code not in EXIT_CODES:
                failures.append(f"{argv}: exit {code}\n{trace}")
    assert not failures, f"{len(failures)} failures, the first:\n" + failures[0]
    assert codes == {5}


FAR_MUTANTS = 20


def _far_indices(text, rng):
    """The header's state count raised past 2**131, and the column of one
    to three entries that end their row, or the row of the last entry,
    moved past int64 (up to 2**130 beyond it) or anywhere above its value
    below it, so that the entries stay ascending."""
    lines = text.splitlines(keepends=True)
    lines[0] = re.sub(r"states=\d+", f"states={2**131 + rng.randrange(2**64)}", lines[0])
    rows = [line.split()[0] for line in lines[1:]] + [None]
    ends = [k + 1 for k in range(len(rows) - 1) if rows[k] != rows[k + 1]]
    for at in rng.sample(ends, rng.randint(1, 3)):
        toks = lines[at].split()
        axis = 0 if at == len(lines) - 1 and rng.randrange(2) else 1
        far = (2**63 + rng.randrange(2 ** rng.randint(1, 130)) if rng.randrange(2)
               else rng.randrange(int(toks[axis]) + 1, 2**63))
        toks[axis] = str(far)
        lines[at] = " ".join(toks) + "\n"
    return "".join(lines)


def test_far_state_indices_end_in_documented_exit_codes(tmp_path):
    rng = random.Random(20261021)
    voter3 = load_model(SAMPLES / "voter3.model")
    chain = build_micro_chain(voter3)
    text, part = io.StringIO(), tmp_path / "voter3.part"
    write_sparse(chain, text)
    with open(part, "w", encoding="utf-8") as fh:
        write_partition(orbits(chain.space, parse_presets("SN", 3, 2)), fh)
    failures, codes = [], set()
    for k in range(FAR_MUTANTS):
        mutant = _far_indices(text.getvalue(), rng)
        mutant_path = tmp_path / f"far{k}-voter3.sparse"
        mutant_path.write_text(mutant, encoding="utf-8")
        for argv in _chain_verbs(str(mutant_path), str(part)):
            code, trace = _run(argv)
            codes.add(code)
            if code not in EXIT_CODES:
                failures.append(f"{argv} on mutant {mutant!r}: exit {code}\n{trace}")
    assert not failures, f"{len(failures)} failures, the first:\n" + failures[0]
    assert {4, 5} <= codes


RANGE_MUTANTS = 10


def _past(edge, rng):
    """`edge` plus up to 2**130."""
    return edge + rng.randrange(2 ** rng.randint(1, 130))


def test_out_of_range_integer_options_end_in_their_documented_exit_codes(tmp_path):
    """`propagate -t` past int64 or below zero, and `--start` past int64 for
    `propagate` and `simulate`, fail validation (exit 5); `simulate` takes
    a seed of any size (exit 0). No step count in range but large is run:
    one would take hours."""
    rng = random.Random(20261022)
    chain = tmp_path / "voter3.sparse"
    with open(chain, "w", encoding="utf-8") as fh:
        write_sparse(build_micro_chain(load_model(SAMPLES / "voter3.model")), fh)
    propagate, model = ["propagate", str(chain)], str(SAMPLES / "voter3.model")
    cases = [(propagate + ["--start", "0", "-t", str(2**63)], 5),
             (propagate + ["--start", "0", "-t", str(10**20)], 5),
             (["simulate", model, "--start", "1", "--steps", "3", "--seed", str(2**200)], 0)]
    for _ in range(RANGE_MUTANTS):
        cases += [(propagate + ["--start", "0", "-t", str(_past(2**63, rng))], 5),
                  (propagate + ["--start", "0", "-t", str(-_past(1, rng))], 5),
                  (propagate + ["--start", str(_past(2**63, rng)), "-t", "2"], 5),
                  (["simulate", model, "--start", str(_past(2**63, rng)), "--steps", "3",
                    "--seed", "1"], 5),
                  (["simulate", model, "--start", "1", "--steps", "3",
                    "--seed", str(_past(2**200, rng))], 0)]
    failures = []
    for argv, want in cases:
        code, trace = _run(argv)
        if code != want:
            failures.append(f"{argv}: exit {code}, not {want}\n{trace}")
    assert not failures, f"{len(failures)} failures, the first:\n" + failures[0]
