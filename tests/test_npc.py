import os
import random
from itertools import combinations_with_replacement

import pytest

from invdel import (CapacityError, InvalidArgumentError, PartialPerm,
                    all_partial_perms, partition_brute, partition_witness,
                    reduce_partition, solve_balancedsort)
from invdel import npc
from invdel.npc import BalancedSortInstance


def test_reduction_worked_example():
    inst = reduce_partition((1, 1, 2, 3, 4))
    assert inst.sigma.m == 16
    assert inst.k == 11
    pairs = {(i, j) for i, j in inst.sigma.pairs() if i < j}
    assert pairs == {(1, 2), (3, 4), (5, 7), (8, 11), (12, 16)}
    assert len(inst.sigma.crossings()) == 5  # one per multiset element


def test_reduction_singletons():
    inst = reduce_partition((1,))
    assert inst.sigma == PartialPerm(2, 2, {1: 2, 2: 1}) and inst.k == 1
    inst = reduce_partition((2,))
    assert inst.sigma == PartialPerm(3, 3, {1: 3, 3: 1}) and inst.k == 2


def test_reduction_is_involution_with_one_crossing_per_element():
    for values in [(1,), (2, 2), (1, 3, 2), (1, 1, 2, 3)]:
        inst = reduce_partition(values)
        sigma = inst.sigma
        assert sigma == sigma.inverse()
        assert len(sigma.crossings()) == len(values)
        assert inst.k == sum(values)
        assert sigma.m == len(values) + sum(values)


def test_reduction_validates_input():
    with pytest.raises(InvalidArgumentError):
        reduce_partition(())
    with pytest.raises(InvalidArgumentError):
        reduce_partition((0, 2))


def test_reduction_names_positions_beyond_the_cap():
    with pytest.raises(CapacityError, match="needs 22 positions.*capped at 16"):
        reduce_partition((1, 1, 2, 3, 4, 5))
    assert reduce_partition((1, 1, 2, 3, 4)).sigma.m == 16  # exactly at the cap


@pytest.mark.parametrize("build, message", [
    (lambda: BalancedSortInstance(PartialPerm.identity(2), -1),
     "budget must be at least 0, got -1"),
    (lambda: partition_brute([0]), "multiset element must be at least 1, got 0"),
    (lambda: partition_brute([1.5, 1.5]), r"multiset element must be an integer, got 1\.5"),
    (lambda: partition_brute([2.0, 2.0]), r"multiset element must be an integer, got 2\.0"),
    (lambda: partition_witness([2.0, 2.0]), r"multiset element must be an integer, got 2\.0"),
    (lambda: reduce_partition([True, True]), "multiset element must be an integer, got True"),
], ids=["negative-budget", "zero-element", "brute-half", "brute-float", "witness-float",
        "reduce-bool"])
def test_npc_refuses_bad_input(build, message):
    with pytest.raises(InvalidArgumentError, match=message):
        build()


def test_partition_brute():
    assert partition_brute((1, 1, 2))
    assert not partition_brute((1, 1, 2, 3, 4))  # odd total
    assert partition_brute(())
    with pytest.raises(CapacityError):
        partition_brute((1,) * 25)


def test_partition_witness():
    x, y = partition_witness((1, 1, 2))
    assert sum(x) == sum(y) == 2
    assert partition_witness((1, 2)) is None
    for values in [(2, -2), (0, 0), (0,), (3, 0, 3)]:
        with pytest.raises(InvalidArgumentError):
            partition_witness(values)


def test_partition_witness_agrees_with_brute_force():
    # The CLI reports the decision as "a witness exists"; partition_brute
    # stays the independent reference it is held to.
    checked = 0
    for size in range(1, 6):
        for values in combinations_with_replacement(range(1, 10), size):
            witness = partition_witness(values)
            assert (witness is not None) == partition_brute(values), values
            if witness is not None:
                x, y = witness
                assert sum(x) == sum(y), (values, witness)
                assert sorted(x + y) == list(values), (values, witness)
            checked += 1
    assert checked == 2001


def test_balancedsort_trivial_cases():
    assert solve_balancedsort(BalancedSortInstance(PartialPerm.identity(4), 0))
    assert solve_balancedsort(reduce_partition((1, 1)))
    assert not solve_balancedsort(reduce_partition((1, 2)))
    # answered without a search, which would build every layer to depth
    # k // 2: here the 16-point permutations with up to 9 inversions, past
    # MAX_ROWS
    assert solve_balancedsort(BalancedSortInstance(PartialPerm.identity(16), 18))


def _reversal(m):
    """The reversal of m positions at k = m(m - 1): each side may undo all
    m(m - 1)/2 crossings, so every one of its m! rows is within reach."""
    return BalancedSortInstance(PartialPerm(m, m, {i: m + 1 - i for i in range(1, m + 1)}),
                                m * (m - 1))


def test_balancedsort_capacity(monkeypatch):
    # the search is bounded by the rows it reaches, not by the positions
    monkeypatch.setattr(npc, "MAX_ROWS", 1_000)
    with pytest.raises(CapacityError, match="budget of 1,000 rows"):
        solve_balancedsort(_reversal(12))
    assert solve_balancedsort(_reversal(5))  # 120 rows


def test_budget_covers_the_largest_reduction_walk(monkeypatch):
    rows = []
    reached = npc._reached

    def counted(start, count, depth):
        rows.extend(reached(start, count, depth))
        return iter(rows)

    monkeypatch.setattr(npc, "_reached", counted)
    assert solve_balancedsort(reduce_partition((3, 3, 3, 3)))
    assert len(rows) == 16_814
    assert npc.MAX_ROWS >= 10 * len(rows)


@pytest.mark.skipif(os.environ.get("INVDEL_LONG_TESTS") != "1",
                    reason="set INVDEL_LONG_TESTS=1 for every reduction of 13-16 positions")
def test_reduction_decides_every_instance_past_twelve_positions():
    # the 154 multisets needing 13 to 16 positions, the most the reduction
    # can encode; together about 3 s of CPU.  Tier-1 keeps two of them,
    # {1, 1, 2, 3, 4} and {3, 3, 3, 3}, in tests/test_cli.py
    cases = 0
    for size in range(1, 9):
        for values in combinations_with_replacement(range(1, 18 - 2 * size), size):
            if 12 < size + sum(values) <= 16:
                assert solve_balancedsort(reduce_partition(values)) == partition_brute(values), values
                cases += 1
    assert cases == 154


def test_balancedsort_requires_square():
    with pytest.raises(InvalidArgumentError):
        BalancedSortInstance(PartialPerm(3, 4, {1: 1}), 2)


def test_reduction_agrees_with_subset_sum_small():
    for size in range(1, 4):
        for values in combinations_with_replacement(range(1, 6), size):
            if sum(values) > 6:
                continue
            got = solve_balancedsort(reduce_partition(values))
            assert got == partition_brute(values), values


def _left_moves(row):
    """Rows after one linear adjacent transposition of positions."""
    for i in range(len(row) - 1):
        out = list(row)
        out[i], out[i + 1] = out[i + 1], out[i]
        yield tuple(out)


def _right_moves(row):
    """Rows after one linear adjacent transposition of values."""
    where = {v: p for p, v in enumerate(row) if v}
    for u in range(1, len(row)):
        out = list(row)
        if u in where:
            out[where[u]] = u + 1
        if u + 1 in where:
            out[where[u + 1]] = u
        yield tuple(out)


def _reference_balanced_steps(sigma, max_steps):
    """Fewest steps, each one left and one right move, that make sigma
    order preserving, or None beyond max_steps.

    Left and right moves commute, so c moves on each side are c such steps.
    Repeating a step undoes it, so a row reached after c steps is reached
    after c + 2 too; the search therefore keys on (image row, step parity).
    A halfway state expanded at an earlier step is not expanded again: its
    right children are already seen.
    """
    start = (tuple(sigma.image_row), 0)
    seen = {start}
    layer = [start]
    expanded = set()
    for steps in range(max_steps + 1):
        for row, _ in layer:
            defined = [v for v in row if v]
            if defined == sorted(defined):
                return steps
        halfway = {(left, parity) for row, parity in layer for left in _left_moves(row)}
        halfway -= expanded
        expanded |= halfway
        nxt = []
        for left, parity in halfway:
            for both in _right_moves(left):
                key = (both, 1 - parity)
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        layer = nxt
    return None


def test_balancedsort_matches_reference_exhaustively():
    cases = 0
    for sigma in (s for m in range(1, 6) for s in all_partial_perms(m, m)):
        row = sigma.image_row
        count = len(sigma.crossings())
        for moved in [*_left_moves(row), *_right_moves(row)]:
            assert abs(len(PartialPerm.from_image(sigma.n, moved).crossings()) - count) <= 1
        steps = _reference_balanced_steps(sigma, 4)
        for k in range(9):
            want = steps is not None and steps <= k // 2
            assert solve_balancedsort(BalancedSortInstance(sigma, k)) == want, (row, k)
            cases += 1
    assert cases == 16182


def _partial_involutions(m):
    """Every square partial permutation on 1..m that is its own inverse:
    each position is undefined, fixed, or swapped with a later one."""
    def pairings(free):
        if not free:
            yield {}
            return
        p, rest = free[0], free[1:]
        for tail in pairings(rest):
            yield tail
            yield {**tail, p: p}
        for q in rest:
            for tail in pairings([r for r in rest if r != q]):
                yield {**tail, p: q, q: p}

    for mapping in pairings(list(range(1, m + 1))):
        yield PartialPerm(m, m, mapping)


@pytest.mark.skipif(os.environ.get("INVDEL_LONG_TESTS") != "1",
                    reason="set INVDEL_LONG_TESTS=1 for the m=6 and m=7 involutions")
@pytest.mark.parametrize("m", [6, 7])
def test_balancedsort_matches_reference_on_every_partial_involution(m):
    # the pairings the reduction builds are their own inverses, and those
    # are searched once for both sides; the step search takes about 4 s of
    # CPU at m = 6 and 2 min at m = 7
    cases = 0
    for sigma in _partial_involutions(m):
        assert sigma == sigma.inverse()
        steps = _reference_balanced_steps(sigma, 4)
        for k in range(9):
            want = steps is not None and steps <= k // 2
            assert solve_balancedsort(BalancedSortInstance(sigma, k)) == want, (sigma.image_row, k)
        cases += 1
    assert cases == {6: 499, 7: 1850}[m]


def test_one_search_serves_both_sides_of_a_self_inverse_pairing(monkeypatch):
    calls = []
    reached = npc._reached

    def counted(start, count, depth):
        calls.append(start)
        return reached(start, count, depth)

    monkeypatch.setattr(npc, "_reached", counted)
    searched = 0
    for size in range(1, 5):
        for values in combinations_with_replacement(range(1, 9), size):
            if sum(values) > 8:
                continue
            inst = reduce_partition(values)
            assert solve_balancedsort(inst) == partition_brute(values), values
            # every reduction instance is its own inverse: one search
            assert len(calls) == 1, values
            searched += len(calls)
            calls.clear()
    assert searched == 52
    # a pairing that is not its own inverse searches each side from its own row
    sigma = PartialPerm(3, 3, {1: 3, 2: 1})
    assert sigma.inverse() != sigma and sigma.crossings()
    solve_balancedsort(BalancedSortInstance(sigma, 4))
    assert calls == [sigma.image_row, sigma.inverse().image_row]


def _near_sorted(rng, m, swaps):
    """A square pairing on m positions whose image holds m, `swaps` random
    adjacent swaps of its row away from order preserving."""
    r = rng.randint(m // 2, m)
    domain = set(rng.sample(range(m), r))
    image = iter(sorted(rng.sample(range(1, m), r - 1) + [m]))
    row = [next(image) if p in domain else 0 for p in range(m)]
    for _ in range(swaps):
        i = rng.randrange(m - 1)
        row[i], row[i + 1] = row[i + 1], row[i]
    return PartialPerm.from_image(m, row)


def _reference_reached(start, count, depth):
    """The layered search with a set of every (row, parity) state it
    reached, read as orders: what npc._reached must yield, in this order."""
    if count > 2 * depth:
        return
    first = (tuple(start), 0)
    layer = {first: count}
    seen = {first}
    yield tuple(filter(None, start)), 0
    for d in range(1, depth + 1):
        allowed = 2 * depth - d
        nxt = {}
        for (row, parity), inv in layer.items():
            for i in range(len(row) - 1):
                a, b = row[i], row[i + 1]
                y = (row[:i] + (b, a) + row[i + 2:], 1 - parity)
                if y in seen:
                    continue
                c = inv + (1 if a < b else -1) if a and b else inv
                if c <= allowed:
                    seen.add(y)
                    nxt[y] = c
        layer = nxt
        yield from ((tuple(filter(None, row)), parity) for row, parity in layer)


def test_two_layers_reach_what_every_state_reaches():
    # a row is met again only in the layer before the one expanded or in
    # the one being built, so keeping those two loses no state and adds none
    rng = random.Random(33)
    seeded = []
    for _ in range(60):
        m = rng.randint(6, 9)
        r = rng.randint(0, m)
        seeded.append(PartialPerm(m, m, dict(zip(rng.sample(range(1, m + 1), r),
                                                 rng.sample(range(1, m + 1), r)))))
    cases = 0
    for sigma, depths in [*((s, range(5)) for m in range(1, 6) for s in all_partial_perms(m, m)),
                          *((s, (3, 5)) for s in seeded)]:
        row, count = sigma.image_row, len(sigma.crossings())
        for depth in depths:
            assert ([(tuple(o), p) for o, p in npc._reached(row, count, depth)]
                    == list(_reference_reached(row, count, depth))), (row, depth)
            cases += 1
    assert cases == 9_110
    # values up to 16, the top of npc's swap table, on pairings a few swaps
    # from order preserving, so that most walks go past their start
    walked = 0
    for _ in range(40):
        sigma = _near_sorted(rng, rng.randint(10, 16), rng.randint(0, 6))
        row, count = sigma.image_row, len(sigma.crossings())
        for depth in (2, 3):
            got = [(tuple(o), p) for o, p in npc._reached(row, count, depth)]
            assert got == list(_reference_reached(row, count, depth)), (row, depth)
            walked += len(got) > 1
    assert walked >= 60


def test_balancedsort_is_symmetric_under_inversion():
    # Inverting the pairing swaps the two sides, so each side's search then
    # reads the other's order; a join that labels one side's order wrongly
    # breaks the symmetry even where the involutive reduction instances
    # (their own inverses) cannot show it.
    rng = random.Random(35)
    wide = [sigma for sigma in (_near_sorted(rng, 16, rng.randint(1, 7)) for _ in range(30))
            if sigma != sigma.inverse()]
    answers = set()
    for sigma, budgets in [*((s, range(9)) for m in range(1, 6) for s in all_partial_perms(m, m)),
                           *((s, range(7)) for s in wide)]:
        inverse = sigma.inverse()
        for k in budgets:
            got = solve_balancedsort(BalancedSortInstance(sigma, k))
            assert got == solve_balancedsort(BalancedSortInstance(inverse, k)), (sigma.image_row, k)
            if sigma.m == 16 and sigma.crossings():
                answers.add(got)
    assert len(wide) >= 20 and answers == {True, False}


@pytest.mark.parametrize("m", [6, 7])
def test_balancedsort_matches_reference_past_five_positions(m):
    rng = random.Random(600 + m)
    answers = set()
    for _ in range(40):
        r = rng.randint(0, m)
        domain = rng.sample(range(1, m + 1), r)
        image = rng.sample(range(1, m + 1), r)
        sigma = PartialPerm(m, m, dict(zip(domain, image)))
        steps = _reference_balanced_steps(sigma, 4)
        for k in range(9):
            want = steps is not None and steps <= k // 2
            assert solve_balancedsort(BalancedSortInstance(sigma, k)) == want, (sigma.image_row, k)
            answers.add(want)
    assert answers == {True, False}
