"""Acceptance harness: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 1's n=8 count (1,441,729 elements) is slow, so it only
runs when INVDEL_LONG_TESTS=1.

Deliberately not reproduced here: wall-clock rows of the timing table
(hardware-specific), the pairs-of-genomes counting row (ambiguous
convention), and automorphism-group sizes beyond the trivial rank-0 case.
"""
import os
import random
import time
from itertools import combinations_with_replacement

import pytest

from invdel import (Generator, PartialPerm, Word, all_partial_perms,
                    apply_to_frame, construct_ancestor,
                    eval_generator, eval_word, format_word,
                    genomes_from_token_lists,
                    mrca_distance, mu_oracle, parse_word,
                    partition_brute, random_genome, reduce_partition,
                    relation_table, rewrite_deletions_first,
                    sigma_from_frames, simulate, solve_balancedsort,
                    solve_pair, solve_pair_via_cayley,
                    verify_scenario_report)
from invdel.algebra import is_deletions_first
from invdel.cayley import enumerate_monoid
from invdel.genome import ReferenceFrame

from class_tables import class_cost

TABLE_COUNTS = {3: 34, 4: 209, 5: 1546, 6: 13327, 7: 130922}
LONG_COUNTS = {8: 1441729}


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS: {detail}")


def test_criterion_1_enumeration_counts():
    for n, expected in TABLE_COUNTS.items():
        enumerate_monoid.cache_clear()  # else a count cached earlier beats any budget
        start = time.perf_counter()
        count = enumerate_monoid(n)
        elapsed = time.perf_counter() - start
        assert count == expected, f"n={n}: {count} != {expected}"
        budget = 60.0 if n == 7 else 5.0
        assert elapsed < budget, f"n={n} took {elapsed:.1f}s (budget {budget}s)"
    report(1, f"|I(n,n)| counts for n=3..7 match exactly: {TABLE_COUNTS}")


@pytest.mark.skipif(os.environ.get("INVDEL_LONG_TESTS") != "1",
                    reason="set INVDEL_LONG_TESTS=1 for the n=8 count")
def test_criterion_1_enumeration_count_n8():
    count = enumerate_monoid(8)
    assert count == LONG_COUNTS[8]
    report(1, f"|I(8,8)| = {count}")


def test_worked_sigma_class_graph_cost():
    # the class-graph route walks this 6x8 pairing's class of the n = 8
    # monoid; tests/test_align.py checks its cost on the other routes
    assert solve_pair_via_cayley(sigma_from_frames("abcdefgh", "eibach")) == 2


def test_criterion_2_relation_suite():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 9):
        for rel in relation_table(n):
            assert eval_word(rel.lhs) == eval_word(rel.rhs), f"{rel.rule} at n={n}"
            checked += 1
    instances = {(format_word(r.lhs), format_word(r.rhs)) for r in relation_table(5)}
    assert ("s5;5 d5;5", "d1;5 c4") in instances
    assert ("s3;5 d2;5", "d2;5 s2;4") in instances
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"all {checked} relation instances hold for n <= 8 ({elapsed:.1f}s)")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for m in range(0, 5):
        for n in range(0, 5):
            for sigma in all_partial_perms(m, n):
                bfs = solve_pair(sigma).cost
                oracle = mu_oracle(sigma, 8)
                cayley = solve_pair_via_cayley(sigma)
                table = class_cost(sigma)
                assert bfs == oracle == cayley == table, (sigma, bfs, oracle, cayley, table)
                checked += 1
    rng = random.Random(2024)
    for _ in range(200):
        m = rng.randint(1, 5)
        r = rng.randint(0, m)
        sigma = PartialPerm(m, 5, zip(rng.sample(range(1, m + 1), r),
                                      rng.sample(range(1, 6), r)))
        bfs = solve_pair(sigma).cost
        oracle = mu_oracle(sigma, 8)
        cayley = solve_pair_via_cayley(sigma)
        table = class_cost(sigma)
        assert bfs == oracle == cayley == table, (sigma, bfs, oracle, cayley, table)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(3, f"four solver routes agree on {checked} pairings ({elapsed:.1f}s)")


def test_criterion_4_worked_fixtures():
    # pairing of shared regions between two frames
    assert sigma_from_frames("abcdefgh", "eibach") == PartialPerm(
        8, 6, {1: 4, 2: 3, 3: 5, 5: 1, 8: 6})
    # composition of partial permutations
    f = PartialPerm(5, 5, {1: 4, 2: 2, 4: 3, 5: 5})
    g = PartialPerm(5, 4, {1: 1, 2: 4, 3: 2, 5: 3})
    assert f * g == PartialPerm(5, 4, {2: 4, 4: 2, 5: 3})
    # the deletion generator at position 2 of 5
    assert eval_generator(Generator.deletion(2, 5)) == PartialPerm(
        5, 4, {1: 1, 3: 2, 4: 3, 5: 4})
    # a deletions-then-inversion word applied to a 12-region frame
    frame = ReferenceFrame.from_tokens("abcdefghijkl")
    word = parse_word("d12;12 d7;11 d4;10 d3;9 s2;8")
    assert apply_to_frame(frame, word).tokens == tuple("aebfhijk")
    # ancestor reconstruction from the two intermediate frames
    g1, g2 = genomes_from_token_lists("aefbgcdh", "iajkblcd")
    scenario = construct_ancestor(mrca_distance(g1, g2))
    assert scenario.ancestor_frame.tokens == tuple("iaefjkbglcdh")
    # the hardness reduction instance
    inst = reduce_partition((1, 1, 2, 3, 4))
    pairs = {(i, j) for i, j in inst.sigma.pairs() if i < j}
    assert inst.sigma.m == 16 and inst.k == 11
    assert pairs == {(1, 2), (3, 4), (5, 7), (8, 11), (12, 16)}
    report(4, "all six worked fixtures reproduced bit-exactly")


@pytest.fixture(scope="module")
def simulated_pairs():
    rng = random.Random(20240)
    out = []
    for _ in range(500):
        n = rng.randint(3, 7)
        ancestor = random_genome(n, rng.randrange(1 << 62))
        scenario = simulate(
            ancestor,
            rng.randint(0, min(3, n - 1)), rng.randint(0, 3),
            rng.randint(0, min(3, n - 1)), rng.randint(0, 3),
            rng.randrange(1 << 62),
        )
        out.append(scenario)
    return out


def test_criterion_5_mrca_round_trip(simulated_pairs):
    start = time.perf_counter()
    for scenario in simulated_pairs:
        g1, g2 = scenario.genome1, scenario.genome2
        result = mrca_distance(g1, g2)
        built = construct_ancestor(result)
        ok, why = verify_scenario_report(built, g1, g2, expected=result.total)
        assert ok, why
        assert result.total <= scenario.event_count
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(5, f"500 simulated pairs verified, parsimony bound held ({elapsed:.1f}s)")


def test_criterion_6_symmetry_and_identity(simulated_pairs):
    for scenario in simulated_pairs:
        g1, g2 = scenario.genome1, scenario.genome2
        forward = mrca_distance(g1, g2).total
        assert forward == mrca_distance(g2, g1).total
        assert (forward == 0) == (g1 == g2)
    report(6, "distance symmetric and zero exactly on equal genomes (500 pairs)")


def test_criterion_7_reduction_validation():
    start = time.perf_counter()
    checked = 0
    for size in range(1, 5):
        for values in combinations_with_replacement(range(1, 9), size):
            if sum(values) > 8:
                continue
            got = solve_balancedsort(reduce_partition(values))
            want = partition_brute(values)
            assert got == want, (values, got, want)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(7, f"balanced sorting matches equal-sum splitting on all {checked} "
              f"multisets with <=4 elements summing <=8 ({elapsed:.1f}s)")


def _random_word(rng):
    n = rng.randint(2, 8)
    letters = []
    size = n
    for _ in range(rng.randint(0, 12)):
        kinds = ["inv", "inv", "rot", "refl"] + (["del", "del"] if size >= 2 else [])
        kind = rng.choice(kinds)
        if kind == "inv":
            letters.append(Generator.inversion(rng.randint(1, size), size))
        elif kind == "del":
            letters.append(Generator.deletion(rng.randint(1, size), size))
            size -= 1
        elif kind == "rot":
            letters.append(Generator.rotation(size))
        else:
            letters.append(Generator.reflection(size))
    return Word(letters, n)


def test_criterion_8_rewriter():
    rng = random.Random(77)
    for _ in range(1000):
        word = _random_word(rng)
        out = rewrite_deletions_first(word)
        assert is_deletions_first(out), format_word(out)
        assert eval_word(out) == eval_word(word)
        assert out.event_length <= word.event_length
    report(8, "1000 random words normalized: shape, evaluation, and event "
              "length all preserved")
