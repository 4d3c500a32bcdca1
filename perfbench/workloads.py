"""The three benchmark workloads: one pass over the program, and checks of
that pass's outputs against references computed here, never by the code
under test.

Each workload is a closed loop with one caller: every call waits for the
previous one. Program calls go through module attributes (`chain.x`, not
`from chain import x`) so the traced run's rebinding reaches them, and each
sits in its own `stage` block so the stage clock probes the machine's speed
around it.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import permutations
from math import comb
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from microlump import analysis, chain, cli, lumping, model, sim, symmetry

import inputs

DIGESTS = Path(__file__).with_name("digests.json")
PATH_T = 10          # exact propagation horizon on the path
TOL = 1e-9


class Checks:
    """Output checks of a run; error_rate = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def __call__(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return bool(ok)


def _codes(x: int, n: int, delta: int) -> List[int]:
    """Attribute codes of state x, agent 0 the least significant digit."""
    out = []
    for _ in range(n):
        x, c = divmod(x, delta)
        out.append(c)
    return out


def _index(codes, delta: int) -> int:
    return sum(c * delta ** i for i, c in enumerate(codes))


def _read_sparse_rows(text: str) -> Dict[int, Dict[int, Fraction]]:
    rows: Dict[int, Dict[int, Fraction]] = {}
    for line in text.splitlines()[1:]:
        x, y, p = line.split()
        rows.setdefault(int(x), {})[int(y)] = Fraction(p)
    return rows


class ReduceComplete:
    """`compile -> check-sym -> orbits -> check-lump -> lump -> analyze ->
    propagate` through `cli.main`, handing files from verb to verb."""

    name = "reduce-complete"
    files = ("micro.sparse", "orbits.part", "macro.sparse", "macro.kv", "macro.dist")

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.model = str(inputs.write_docs(inputs.generate(self.name, seed), workdir)
                         ["complete.model"])
        self.n = inputs.COMPLETE_N
        self.digests = json.loads(DIGESTS.read_text(encoding="utf-8"))[self.name]

    def _argv(self):
        f = {name: str(self.dir / name) for name in self.files}
        return [
            ("compile", "compile", ["compile", self.model, "-o", f["micro.sparse"]]),
            ("symmetry", "check-sym", ["check-sym", self.model, "--gens", "SN,flip"]),
            ("orbits", "orbits", ["orbits", self.model, "--gens", "SN", "-o", f["orbits.part"]]),
            ("lump", "check-lump", ["check-lump", f["micro.sparse"], f["orbits.part"]]),
            ("lump", "lump", ["lump", f["micro.sparse"], f["orbits.part"],
                              "-o", f["macro.sparse"]]),
            ("analyze", "analyze", ["analyze", f["macro.sparse"], "--format", "kv",
                                    "-o", f["macro.kv"]]),
            ("propagate", "propagate", ["propagate", f["macro.sparse"], "--start", "6",
                                        "-t", "50", "-o", f["macro.dist"]]),
        ]

    def run_pass(self, stage: Callable) -> dict:
        for name in self.files:  # a verb that fails must not leave last pass's file
            (self.dir / name).unlink(missing_ok=True)
        verbs = {}
        for stage_name, verb, argv in self._argv():
            out = io.StringIO()
            with stage(stage_name), redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            verbs[verb] = (code, out.getvalue())
        files = {}
        for name in self.files:
            path = self.dir / name
            files[name] = path.read_bytes() if path.exists() else b""
        return {"verbs": verbs, "files": files}

    def check(self, out: dict, checks: Checks) -> None:
        n = self.n
        for verb, (code, _) in out["verbs"].items():
            checks(code == 0, f"{verb} exited {code}")
        checks(out["verbs"]["check-sym"][1].strip() == "symmetric under SN,flip",
               "check-sym verdict")
        checks(out["verbs"]["check-lump"][1].strip() == f"lumpable: {n + 1} blocks",
               "check-lump verdict")
        files = {name: data.decode("utf-8", "replace") for name, data in out["files"].items()}
        for name, data in out["files"].items():
            checks(hashlib.sha256(data).hexdigest() == self.digests[name],
                   f"{name} differs from the recorded bytes")

        header = files["micro.sparse"].split("\n", 1)[0]
        checks(header == f"states={2 ** n} nnz={(2 ** n - 2) * (n + 1) + 2}",
               f"micro header {header!r}")
        # k agents holding code 1 -> block id, read off the orbit file itself
        block = {}
        for b, line in enumerate(files["orbits.part"].splitlines()):
            members = [int(t) for t in line.split(":", 1)[1].split()]
            ks = {bin(x).count("1") for x in members}
            if len(ks) == 1 and len(members) == comb(n, min(ks)):
                block[ks.pop()] = b
        if not checks(sorted(block) == list(range(n + 1)),
                      "orbits are not the N+1 count classes"):
            return
        macro = _read_sparse_rows(files["macro.sparse"])
        want = {}
        for k, b in block.items():
            p = Fraction(k * (n - k), n * (n - 1))
            want[b] = {b: 1 - 2 * p}
            if p:
                want[b].update({block[k - 1]: p, block[k + 1]: p})
        checks(macro == want, "macro entries differ from k(N-k)/(N(N-1))")
        kv = dict(line.split("=", 1) for line in files["macro.kv"].splitlines())
        errs = [abs(float(kv[f"absorb[{block[k]}][{block[n]}]"]) - k / n)
                for k in range(1, n)]
        checks(max(errs) <= TOL, "fixation differs from k/N")
        mass = sum(Fraction(line.split()[1]) for line in files["macro.dist"].splitlines())
        checks(mass == 1, "propagated distribution does not sum to 1")


class PathAnalyze:
    """In-memory library calls on the three-code voter on a path: build,
    symmetry, orbits, a passing and a failing lumpability test, micro and
    macro absorption, exact propagation and commutation profiles."""

    name = "path-analyze"

    def __init__(self, seed: int, workdir: Path):
        data = inputs.generate(self.name, seed)
        paths = inputs.write_docs(data, workdir)
        self.doc, self.gens_doc = paths["path.model"], paths["path.gens"]
        self.n, self.delta = inputs.PATH_N, len(inputs.PATH_LABELS)
        size = self.delta ** self.n
        self.mu0 = [data["mu0"].get(x, Fraction(0)) for x in range(size)]
        self._references(size)

    def _references(self, size: int) -> None:
        n, delta = self.n, self.delta
        codes = [_codes(x, n, delta) for x in range(size)]
        # orbits under path reflection x code relabeling, keyed by the
        # smallest image of each state
        self.ref_orbits: Dict[int, set] = {}
        for x, cfg in enumerate(codes):
            images = []
            for perm in permutations(range(delta)):
                relabeled = [perm[c] for c in cfg]
                images += [_index(relabeled, delta), _index(relabeled[::-1], delta)]
            self.ref_orbits.setdefault(min(images), set()).add(x)
        deg = [1] + [2] * (n - 2) + [1]
        self.consensus = [_index([c] * n, delta) for c in range(delta)]
        # voter fixation on an undirected graph: degree-weighted share
        self.ref_fix = np.array([[sum(d for d, k in zip(deg, cfg) if k == c) / (2 * (n - 1))
                                  for c in range(delta)] for cfg in codes])

    def run_pass(self, stage: Callable) -> dict:
        # one `with` per program call, so each call gets its own speed probes
        with stage("build"):
            spec = model.load_model(self.doc)
        with stage("build"):
            micro = chain.build_micro_chain(spec)
        with stage("symmetry"):
            gens = symmetry.parse_generator_file(self.gens_doc.read_text(encoding="utf-8"),
                                                 spec.n_agents, spec.delta)
        with stage("symmetry"):
            sym = symmetry.is_chain_symmetric(micro, gens)
        with stage("orbits"):
            part = symmetry.orbits(micro.space, gens)
        with stage("lump"):
            lumpable = lumping.check_lumpable(micro, part)
        with stage("lump"):
            macro = lumping.lump(micro, part)
        with stage("witness"):
            counts = lumping.frequency_partition(micro.space)
        with stage("witness"):
            witness = lumping.check_lumpable(micro, counts, exhaustive=True)
        with stage("analyze", scaled=False):  # dominated by the dense 2184-state solve
            micro_abs = analysis.absorption_analysis(micro)
        with stage("analyze"):
            macro_abs = analysis.absorption_analysis(macro)
        with stage("propagate"):
            mu = analysis.propagate(micro, self.mu0, PATH_T)
        with stage("propagate"):
            orbit_profile = analysis.commutation_profile(micro, part, self.mu0, PATH_T)
        with stage("propagate"):
            count_profile = analysis.commutation_profile(micro, counts, self.mu0, PATH_T,
                                                         force=True)
        return dict(sym=sym, part=part, lumpable=lumpable, macro=macro, witness=witness,
                    micro_abs=micro_abs, macro_abs=macro_abs, mu=mu,
                    orbit_profile=orbit_profile, count_profile=count_profile)

    def check(self, out: dict, checks: Checks) -> None:
        checks(out["sym"].symmetric, "path reflection + Sdelta not a symmetry")
        part = out["part"]
        checks({frozenset(b) for b in part.blocks}
               == {frozenset(b) for b in self.ref_orbits.values()},
               "orbit partition differs from the reference orbits")
        checks(out["lumpable"].lumpable and out["macro"].n_states == len(self.ref_orbits),
               "orbit partition not lumpable")
        checks(not out["witness"].lumpable and len(out["witness"].violations) > 0,
               "count partition passed the exhaustive test")
        micro_abs = out["micro_abs"]
        checks(list(micro_abs.absorbing) == self.consensus, "absorbing states")
        t = list(micro_abs.transient)
        checks(micro_abs.probs.shape == (len(t), self.delta) and
               np.max(np.abs(micro_abs.probs - self.ref_fix[t])) <= TOL,
               "micro fixation differs from the degree-weighted share")
        macro_abs = out["macro_abs"]
        steps = np.array([macro_abs.steps_from(part.block_of[x]) for x in t])
        checks(np.max(np.abs(steps - micro_abs.expected_steps)
                      / micro_abs.expected_steps) <= TOL,
               "macro absorption times differ from micro")
        mu = out["mu"]
        checks(sum(mu) == 1 and min(mu) >= 0, "propagated distribution")
        checks(len(out["orbit_profile"]) == PATH_T + 1
               and all(d == 0 for d in out["orbit_profile"]),
               "orbit commutation profile is not exactly 0")
        checks(max(out["count_profile"]) > 0, "forced count profile is 0")


class SimulateNoisy:
    """Parse + map enumeration of a large voter model, a long noisy-voter
    trajectory on a seeded random graph, and matrix estimation on a path."""

    name = "simulate-noisy"

    def __init__(self, seed: int, workdir: Path):
        data = inputs.generate(self.name, seed)
        self.paths = inputs.write_docs(data, workdir)
        self.start = data["sim_start"]
        self.sim_seed, self.estimate_seed = data["sim_seed"], data["estimate_seed"]
        self.support = self._support(inputs.PATH_N, len(inputs.PATH_LABELS),
                                     inputs.path_edges(inputs.PATH_N))

    @staticmethod
    def _support(n: int, delta: int, edges) -> List[set]:
        """Targets the noisy voter can reach in one step from each state."""
        nbrs = {i: set() for i in range(n)}
        for i, j in edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        out = []
        for x in range(delta ** n):
            cfg = _codes(x, n, delta)
            reach = set()
            for i in range(n):
                for new in {cfg[j] for j in nbrs[i]} | {(cfg[i] + 1) % delta}:
                    reach.add(x + (new - cfg[i]) * delta ** i)
            out.append(reach)
        return out

    def run_pass(self, stage: Callable) -> dict:
        # one `with` per program call, so each call gets its own speed probes
        with stage("model_load"):
            spec = model.load_model(self.paths["maps.model"])
        with stage("model_load"):
            maps = chain.enumerate_maps(spec)
        with stage("simulate"):
            sim_spec = model.load_model(self.paths["sim.model"])
        with stage("simulate"):
            run = sim.simulate(sim_spec, self.start, inputs.SIM_STEPS, self.sim_seed)
        with stage("estimate"):
            est_spec = model.load_model(self.paths["estimate.model"])
        with stage("estimate"):
            report, _ = sim.estimate_matrix(est_spec, inputs.ESTIMATE_SAMPLES,
                                            self.estimate_seed)
        return dict(maps=maps, run=run, report=report)

    def check(self, out: dict, checks: Checks) -> None:
        maps = out["maps"]
        n = inputs.MAPS_N
        checks(len(maps) == n * (n - 1), f"{len(maps)} maps")
        checks(sum(m.probability for m in maps) == 1, "map probabilities do not sum to 1")
        run = out["run"]
        states = np.array(run.states, dtype=np.int64)
        flips = states[1:] ^ states[:-1]
        checks(len(states) == inputs.SIM_STEPS + 1
               and states[0] == _index(self.start, 2)
               and bool(np.all(flips & (flips - 1) == 0)),
               "a step changed more than one agent")
        checks(sum(run.counts.values()) == inputs.SIM_STEPS, "step counts")
        report = out["report"]
        checks(all(tally.keys() <= reach for tally, reach in zip(report.counts, self.support)),
               "estimated target outside the exact support")
        checks(len(report.counts) == len(self.support) and
               all(sum(tally.values()) == inputs.ESTIMATE_SAMPLES for tally in report.counts),
               "row totals differ from the samples per state")


WORKLOADS = {w.name: w for w in (ReduceComplete, PathAnalyze, SimulateNoisy)}

# stage names, each reported as <stage>_s
STAGES = ("build", "compile", "symmetry", "orbits", "lump", "witness", "analyze",
          "propagate", "model_load", "simulate", "estimate")
