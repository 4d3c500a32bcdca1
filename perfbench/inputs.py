"""Seeded inputs for the benchmark workloads.

Everything here is plain text and plain numbers built from the workload
seed; nothing imports microlump, so the program under test only ever sees
the documents and start distributions this module produces.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

Edge = Tuple[int, int]

# reduce-complete: the paper's headline path on the complete graph
COMPLETE_N = 12
# path-analyze: three codes on a path
PATH_N = 7
PATH_LABELS = ("red", "green", "blue")
# simulate-noisy
MAPS_N = 200
SIM_N = 20
SIM_EDGE_PROB = 0.2
SIM_STEPS = 200_000
ESTIMATE_SAMPLES = 1000
NOISE = Fraction(1, 10)


def path_edges(n: int) -> List[Edge]:
    """Undirected edges of the path 1-2-...-n, 0-based."""
    return [(i, i + 1) for i in range(n - 1)]


def random_connected_edges(rng: random.Random, n: int, p: float) -> List[Edge]:
    """A random spanning tree plus each remaining pair with probability p,
    so every agent has a neighbor and the voter choice is defined."""
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((j, i))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < p:
                edges.add((i, j))
    return sorted(edges)


def _topology(n: int, edges: Sequence[Edge]) -> List[str]:
    return [f"agents {n}", "undirected"] + [f"{i + 1} {j + 1} 1/1" for i, j in edges]


def voter_doc(name: str, labels: Sequence[str], topology: List[str]) -> str:
    return "\n".join([
        "[model]", f"name = {name}", "attributes = " + ", ".join(labels), "",
        "[topology]", *topology, "",
        "[rule]", "builtin voter", "",
        "[choice]", "from-topology uniform", ""])


def noisy_voter_doc(name: str, labels: Sequence[str], n: int,
                    edges: Sequence[Edge]) -> str:
    """Arity-2 rule: `copy` the neighbor with probability 1 - NOISE, else
    `noise`: the focal agent moves to the next code (mod delta)."""
    delta = len(labels)
    keep = 1 - NOISE
    table = []
    for a in range(delta):
        for b in range(delta):
            table.append(f"{labels[a]} {labels[b]} copy -> {labels[b]}")
            table.append(f"{labels[a]} {labels[b]} noise -> {labels[(a + 1) % delta]}")
    return "\n".join([
        "[model]", f"name = {name}", "attributes = " + ", ".join(labels), "",
        "[topology]", *_topology(n, edges), "",
        "[rule]", "arity 2",
        f"lambda copy {keep.numerator}/{keep.denominator}",
        f"lambda noise {NOISE.numerator}/{NOISE.denominator}",
        *table, "",
        "[choice]", "from-topology uniform", ""])


# A fixed mixed start on the path: (codes of agents 1..7, weight in tenths).
# Every state holds all three codes, so no part of it starts at consensus.
PATH_START = (((0, 1, 2, 0, 1, 2, 0), 1), ((2, 2, 1, 0, 0, 1, 2), 2),
              ((1, 0, 0, 2, 1, 1, 0), 3), ((0, 0, 1, 1, 2, 2, 2), 4))


def mixed_start(rng: random.Random, delta: int) -> Dict[int, Fraction]:
    """PATH_START moved by a random symmetry of the path model (reflection
    and code relabeling), as state index -> probability.

    Exact propagation costs depend strongly on where the mass starts (the
    denominators and the support grow differently); a symmetric image costs
    exactly the same, so every seed asks for the same work.
    """
    relabel = rng.sample(range(delta), delta)
    reflect = rng.random() < 0.5
    start = {}
    for codes, tenths in PATH_START:
        image = [relabel[c] for c in codes]
        if reflect:
            image.reverse()
        start[sum(c * delta ** i for i, c in enumerate(image))] = Fraction(tenths, 10)
    return start


def generate(workload: str, seed: int) -> dict:
    """The workload's documents (name -> text) and other seeded inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "reduce-complete":
        # no random part: the headline model is fixed, so output bytes are too
        return {"docs": {"complete.model": voter_doc(
            f"voter{COMPLETE_N}", ("black", "white"), [f"complete {COMPLETE_N}"])}}
    if workload == "path-analyze":
        doc = voter_doc(f"path{PATH_N}", PATH_LABELS,
                        _topology(PATH_N, path_edges(PATH_N)))
        # path reflection plus the adjacent code transpositions (all of S3)
        reflect = "".join(f"({i + 1} {PATH_N - i})" for i in range(PATH_N // 2))
        gens = [f"agents: {reflect}"] + [f"attrs: ({s} {s + 1})"
                                         for s in range(len(PATH_LABELS) - 1)]
        return {"docs": {"path.model": doc, "path.gens": "\n".join(gens) + "\n"},
                "mu0": mixed_start(rng, len(PATH_LABELS))}
    if workload == "simulate-noisy":
        sim_edges = random_connected_edges(rng, SIM_N, SIM_EDGE_PROB)
        return {"docs": {
                    "maps.model": voter_doc(f"voter{MAPS_N}", ("black", "white"),
                                            [f"complete {MAPS_N}"]),
                    "sim.model": noisy_voter_doc("noisy-random", ("a", "b"),
                                                 SIM_N, sim_edges),
                    "estimate.model": noisy_voter_doc("noisy-path", PATH_LABELS,
                                                      PATH_N, path_edges(PATH_N))},
                "sim_start": tuple(rng.randrange(2) for _ in range(SIM_N)),
                "sim_seed": rng.randrange(2 ** 31),
                "estimate_seed": rng.randrange(2 ** 31)}
    raise ValueError(f"unknown workload {workload!r}")


def write_docs(inputs: dict, outdir: Path) -> Dict[str, Path]:
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in inputs["docs"].items():
        path = outdir / name
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths
