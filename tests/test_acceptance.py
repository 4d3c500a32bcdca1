"""Acceptance suite: one test per shipping criterion, each printing a
PASS line (run with -s to see them).

Expected values are either hand-enumerated oracles frozen below, or are
recomputed in-test through an independent brute-force route before being
compared against the library's answer.
"""

import time
from fractions import Fraction

from microlump import (ConfigSpace, Topology, absorption_analysis,
                       agent_symmetric_group, build_micro_chain,
                       builtin_voter, check_lumpable, commutation_profile,
                       enumerate_maps, estimate_matrix, flip_generator,
                       frequency_partition, half_hypercube_partition,
                       induced_partition, is_chain_symmetric, lump,
                       moran_partition, orbits, point_mass, simulate)
from microlump.chain import draw_targets
from microlump.lumping import block_row_sums
from oracle import counts, entry, materialize
from conftest import (LETTERS, letter_index, path_topology, random_topology,
                      star_topology)

ORDER = "abcdefgh"

# Hand-enumerated actions of the six ordered-pair copy maps on three agents:
# map (i,j) rewrites agent i's state to agent j's state and fixes everything
# else. Columns follow the letter order a..h defined in conftest.
SIX_MAP_TABLE = {
    (1, 2): "a b g a h b g h",
    (1, 3): "a f c a h f c h",
    (2, 1): "a b a g b h g h",
    (3, 1): "a a c f c f h h",
    (2, 3): "a e a d e h d h",
    (3, 2): "a a e d e d h h",
}


def _copy_oracle(cfg, i, j):
    """Independent meaning of the (i, j) draw, 1-based agents."""
    out = list(cfg)
    out[i - 1] = cfg[j - 1]
    return tuple(out)


def test_acceptance_01_six_maps_exact(voter3):
    t0 = time.perf_counter()
    # the frozen table must itself agree with the independent oracle
    for (i, j), row in SIX_MAP_TABLE.items():
        for src, dst in zip(ORDER, row.split()):
            assert _copy_oracle(LETTERS[src], i, j) == LETTERS[dst]
    maps = {(m.agents[0] + 1, m.agents[1] + 1): m for m in enumerate_maps(voter3)}
    assert set(maps) == set(SIX_MAP_TABLE)
    assert all(m.probability == Fraction(1, 6) for m in maps.values())
    actions = dict(zip(maps, draw_targets(voter3, ConfigSpace(3, 2))))
    for pair, row in SIX_MAP_TABLE.items():
        action = actions[pair]
        for src, dst in zip(ORDER, row.split()):
            assert action[letter_index(src)] == letter_index(dst)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 01 PASS: all 6 maps over 8 configurations exact "
          f"({elapsed:.3f}s)")


def test_acceptance_02_row_d_from_map_oracle(voter3, voter3_chain):
    t0 = time.perf_counter()
    for row in voter3_chain.rows:
        assert sum(p for _, p in row) == 1
    # oracle route: accumulate materialized map weights from state d
    space = voter3_chain.space
    d = letter_index("d")
    oracle = {}
    for m in enumerate_maps(voter3):
        y = materialize(voter3, m, space)[d]
        oracle[y] = oracle.get(y, Fraction(0)) + m.probability
    expect = {letter_index("a"): Fraction(1, 3),
              letter_index("d"): Fraction(1, 3),
              letter_index("f"): Fraction(1, 6),
              letter_index("g"): Fraction(1, 6)}
    assert oracle == expect
    assert dict(voter3_chain.rows[d]) == expect
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 02 PASS: rows exactly stochastic, row d = "
          f"a:1/3 d:1/3 f:1/6 g:1/6 ({elapsed:.3f}s)")


def test_acceptance_03_single_change_support():
    # sweep of space sizes up to 10^4 (attribute count swept to 10)
    sweep = ([(n, 2) for n in range(2, 14)] + [(n, 3) for n in range(2, 9)]
             + [(n, 4) for n in range(2, 7)] + [(n, 5) for n in range(2, 6)]
             + [(n, 10) for n in range(2, 5)])
    checked = 0
    for n, delta in sweep:
        assert delta ** n <= 10 ** 4
        labels = tuple(f"s{k}" for k in range(delta))
        chain = build_micro_chain(builtin_voter(Topology.complete(n), labels))
        space = chain.space
        codes = space.codes_matrix
        bound = (delta - 1) * n + 1
        for x, row in enumerate(chain.rows):
            assert len(row) <= bound
            assert sum(p for _, p in row) == 1
            for y, _ in row:
                if y != x:
                    assert int((codes[x] != codes[y]).sum()) == 1
        checked += 1
    print(f"ACCEPTANCE 03 PASS: single-change support and row sparsity on "
          f"{checked} spaces up to 10^4 states")


def test_acceptance_04_orbit_counts():
    t0 = time.perf_counter()
    for n in range(1, 11):
        part = orbits(ConfigSpace(n, 2), agent_symmetric_group(n, 2))
        assert part.n_blocks == n + 1
        part3 = orbits(ConfigSpace(n, 3), agent_symmetric_group(n, 3))
        assert part3.n_blocks == (n + 1) * (n + 2) // 2
    assert (9 * 10) // 2 == 45  # the N=8 three-attribute case in particular
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 04 PASS: orbit counts N+1 and (N+1)(N+2)/2 for "
          f"N <= 10 ({elapsed:.2f}s)")


def test_acceptance_05_symmetry_and_block_sum_tests_agree():
    t0 = time.perf_counter()
    # symmetric wiring: generator check passes and so does the orbit partition
    for n in range(2, 6):
        for delta in (2, 3):
            labels = tuple(f"s{k}" for k in range(delta))
            chain = build_micro_chain(builtin_voter(Topology.complete(n), labels))
            gens = agent_symmetric_group(n, delta)
            assert is_chain_symmetric(chain, gens)
            part = orbits(chain.space, gens)
            assert check_lumpable(chain, part)
    # asymmetric wiring: generator check fails and the partition is rejected
    for n in range(3, 6):
        for topo in (path_topology(n), star_topology(n)):
            chain = build_micro_chain(builtin_voter(topo))
            gens = agent_symmetric_group(n, 2)
            assert not is_chain_symmetric(chain, gens)
            assert not check_lumpable(chain, frequency_partition(chain.space))
    # the documented witness on the 3-agent path
    chain = build_micro_chain(builtin_voter(path_topology(3)))
    part = frequency_partition(chain.space)
    verdict = check_lumpable(chain, part, exhaustive=True)
    assert not verdict
    assert (verdict.witness.ref_sum, verdict.witness.state_sum) == \
        (Fraction(1, 6), Fraction(2, 3))
    b, c = letter_index("b"), letter_index("c")
    two_white = part.block_of[letter_index("e")]
    assert entry(block_row_sums(chain, part, [b]), 0, two_white) == Fraction(1, 6)
    assert entry(block_row_sums(chain, part, [c]), 0, two_white) == Fraction(2, 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 05 PASS: generator test and block-sum test agree; "
          f"path witness sums 1/6 vs 2/3 ({elapsed:.2f}s)")


def test_acceptance_06_line_chain_entries():
    for n in range(2, 9):
        chain = build_micro_chain(builtin_voter(Topology.complete(n)))
        part = moran_partition(chain.space, 0)
        denom = n * (n - 1)
        # brute-force oracle: block sums of every micro row
        for x in range(chain.n_states):
            k = counts(chain.space, chain.space.config_of(x))[0]
            sums = block_row_sums(chain, part, [x])
            for l in range(n + 1):
                got = entry(sums, 0, l)
                if abs(l - k) == 1:
                    assert got == Fraction(k * (n - k), denom)
                elif l != k:
                    assert got == 0
        macro = lump(chain, part)
        for k in range(1, n):
            assert entry(macro, k, k - 1) == Fraction(k * (n - k), denom)
            assert entry(macro, k, k + 1) == Fraction(k * (n - k), denom)
    print("ACCEPTANCE 06 PASS: line-chain entries k(N-k)/(N(N-1)) against "
          "row-sum oracle, N <= 8")


def test_acceptance_07_fixation_share():
    t0 = time.perf_counter()
    for n in range(2, 9):
        chain = build_micro_chain(builtin_voter(Topology.complete(n)))
        part = moran_partition(chain.space, 0)
        micro = absorption_analysis(chain)
        macro_rep = absorption_analysis(lump(chain, part))
        all_black_micro = 0
        all_black_line = n  # block X_N holds the all-black state
        for x in range(chain.n_states):
            k = counts(chain.space, chain.space.config_of(x))[0]
            assert abs(micro.fixation_prob(x, all_black_micro) - k / n) < 1e-9
        for k in range(n + 1):
            assert abs(macro_rep.fixation_prob(k, all_black_line) - k / n) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 07 PASS: fixation probability k/N on both levels, "
          f"N <= 8 ({elapsed:.2f}s)")


def test_acceptance_08_flip_invariance():
    count = 0
    for n in range(2, 7):
        topologies = [Topology.complete(n)]
        if n >= 3:
            topologies += [path_topology(n), star_topology(n)]
        topologies += [random_topology(n, seed) for seed in (1, 2)]
        for topo in topologies:
            chain = build_micro_chain(builtin_voter(topo))
            assert is_chain_symmetric(chain, flip_generator(n, 2))
            count += 1
    print(f"ACCEPTANCE 08 PASS: global state flip preserves all entries on "
          f"{count} voter chains, N <= 6")


def test_acceptance_09_commutation_exact(imitation3x3_chain):
    pairs = []
    for n in (3, 4, 5):
        chain = build_micro_chain(builtin_voter(Topology.complete(n)))
        pairs.append((f"complete{n}/counts", chain,
                      frequency_partition(chain.space)))
        pairs.append((f"complete{n}/half", chain,
                      half_hypercube_partition(chain.space)))
    pairs.append(("imitation3x3/counts", imitation3x3_chain,
                  frequency_partition(imitation3x3_chain.space)))
    pairs.append(("imitation3x3/line", imitation3x3_chain,
                  moran_partition(imitation3x3_chain.space, 1)))
    for name, chain, part in pairs:
        assert check_lumpable(chain, part), name
        for start in range(chain.n_states):
            prof = commutation_profile(chain, part,
                                       point_mass(chain.n_states, start), 20)
            assert max(prof) == 0, (name, start)
    print(f"ACCEPTANCE 09 PASS: aggregate-then-step equals step-then-"
          f"aggregate exactly, t <= 20, {len(pairs)} lumpable pairs, "
          f"all point-mass starts")


def test_acceptance_10_nested_reductions(imitation3x3_chain):
    # binary: counts line -> folded half line
    for n in range(2, 7):
        chain = build_micro_chain(builtin_voter(Topology.complete(n)))
        fine = moran_partition(chain.space, 0)
        coarse = half_hypercube_partition(chain.space)
        direct = lump(chain, coarse)
        via = lump(lump(chain, fine), induced_partition(fine, coarse))
        assert via.rows == direct.rows
    # three attributes: count simplex -> line
    for n in (2, 3, 4):
        labels = ("a", "b", "c")
        chain = build_micro_chain(builtin_voter(Topology.complete(n), labels))
        fine = frequency_partition(chain.space)
        coarse = moran_partition(chain.space, 1)
        direct = lump(chain, coarse)
        via = lump(lump(chain, fine), induced_partition(fine, coarse))
        assert via.rows == direct.rows
    print("ACCEPTANCE 10 PASS: lumping composes (simplex -> line -> half "
          "line) for N <= 6")


def test_acceptance_11_simulator_matches_matrix(voter3, path3, star3):
    t0 = time.perf_counter()
    for spec, seed in ((voter3, 1234), (path3, 1235), (star3, 1236)):
        report, chain = estimate_matrix(spec, 100000, seed=seed)
        assert report.violations == (), spec.name
        assert report.max_abs_dev < 1e-2
    r1 = simulate(voter3, LETTERS["d"], 500, seed=99)
    r2 = simulate(voter3, LETTERS["d"], 500, seed=99)
    assert r1.states == r2.states
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 11 PASS: 10^5 samples/state within 3-sigma of the "
          f"exact matrix on all N=3 models; identical seeds reproduce "
          f"trajectories ({elapsed:.2f}s)")
