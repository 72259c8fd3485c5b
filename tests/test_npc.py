import os
import random
from itertools import combinations, combinations_with_replacement

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
    # past the split helpers' cap too, but the positions are named
    with pytest.raises(CapacityError, match="needs 2000001 positions"):
        reduce_partition((2_000_000,))
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
    # no cap on the element count: both helpers refuse only past MAX_SPLIT_CELLS
    for values in [(1,) * 25, (1,) * 26]:
        assert partition_brute(values) == (partition_witness(values) is not None)
    assert not partition_brute((1,) * 25) and partition_brute((1,) * 26)


def test_partition_witness():
    x, y = partition_witness((1, 1, 2))
    assert sum(x) == sum(y) == 2
    assert partition_witness((1, 2)) is None
    for values in [(2, -2), (0, 0), (0,), (3, 0, 3)]:
        with pytest.raises(InvalidArgumentError):
            partition_witness(values)


@pytest.mark.parametrize("helper", [partition_brute, partition_witness])
def test_split_helpers_cap_their_table(helper):
    # one element's table holds its half plus one cells: 2,000,000 is one
    # cell past the cap, and one even element below it is within it
    assert npc.MAX_SPLIT_CELLS == 1_000_000
    with pytest.raises(CapacityError, match="split table cells is capped at 1000000, got 1000001"):
        helper((2_000_000,))
    assert not helper((1_999_998,))


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
    assert len(rows) == 1_917
    assert npc.MAX_ROWS >= 10 * len(rows)


def test_reduction_decides_every_instance_past_twelve_positions():
    # the 154 multisets needing 13 to 16 positions, the most the reduction
    # can encode
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


def _crossings(row):
    """The out-of-order pairs of a row's defined entries."""
    return sum(a > b for a, b in combinations([v for v in row if v], 2))


def _reference_balanced_steps(sigma, max_steps):
    """Fewest steps, each one left and one right move, that make sigma
    order preserving, or None beyond max_steps.

    Left and right moves commute, so c moves on each side are c such steps.
    Repeating a step undoes it, so a row reached after c steps is reached
    after c + 2 too; the search therefore keys on (image row, step parity).
    A halfway state expanded at an earlier step is not expanded again: its
    right children are already seen.  A state whose crossings exceed the
    moves left, two a step and one fewer halfway, is dropped: each move
    changes the crossings by at most one (checked on every move at m <= 5
    by test_balancedsort_matches_reference_exhaustively), so no answer
    within max_steps is lost.
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
        moves = 2 * (max_steps - steps)
        halfway = {(left, parity) for row, parity in layer for left in _left_moves(row)
                   if _crossings(left) < moves}
        halfway -= expanded
        expanded |= halfway
        nxt = []
        for left, parity in halfway:
            for both in _right_moves(left):
                key = (both, 1 - parity)
                if key not in seen and _crossings(both) <= moves - 2:
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


def test_moves_after_follow_the_skip_rules():
    # after move i the search may take every linear move but i and the
    # moves j < i - 1, which swap other positions and commute with it; the
    # start row takes every move in index order
    for m in range(1, 17):
        every = list(range(m - 1))
        after = npc._moves_after(m)
        assert len(after) == m and list(after[-1]) == every
        for last in every:
            expected = [j for j in every if j != last and not j < last - 1]
            assert list(after[last]) == expected, (m, last)


@pytest.mark.parametrize("m", [6, pytest.param(7, marks=pytest.mark.skipif(
    os.environ.get("INVDEL_LONG_TESTS") != "1",
    reason="set INVDEL_LONG_TESTS=1 for the m=7 involutions"))])
def test_balancedsort_matches_reference_on_every_partial_involution(m):
    # the pairings the reduction builds are their own inverses, and those
    # are searched once for both sides; the step search, pruned by the
    # crossings, takes about 1 s of CPU at m = 6 and 7 s at m = 7
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


def _blank_matching(start):
    """The pairs whose blanks npc's bound counts, read from the start row:
    its crossed pairs (x, y), x left of y and x > y, with a value absent
    between them, taken by their term (see _bound), largest first, then by
    y and x, while they share no value with a pair already taken."""
    present = set(start)
    candidates = []
    for p, q in combinations(range(len(start)), 2):
        x, y = start[p], start[q]
        if y and x > y:
            absent = sum(v not in present for v in range(y + 1, x))
            if absent:
                candidates.append((-min(start[p + 1:q].count(0), absent), y, x))
    taken, used = [], set()
    for _, y, x in sorted(candidates):
        if x not in used and y not in used:
            taken.append((x, y))
            used |= {x, y}
    return taken


def _bound(row, matching):
    """The crossings of a row plus, for each pair of the matching still
    crossed, the fewer of the blank positions and the absent values between
    its two values, all counted from scratch."""
    bound = _crossings(row)
    present = set(row)
    for x, y in matching:
        p, q = row.index(x), row.index(y)
        if p < q:
            bound += min(row[p + 1:q].count(0), sum(v not in present for v in range(y + 1, x)))
    return bound


def _reference_reached(start, depth):
    """The layered search with a set of every (row, parity) state it
    reached, each row's bound computed afresh, read as orders: what
    npc._reached must yield, in this order."""
    start = tuple(start)
    matching = _blank_matching(start)
    if _bound(start, matching) > 2 * depth:
        return
    first = (start, 0)
    layer = [first]
    seen = {first}
    yield tuple(filter(None, start)), 0
    for d in range(1, depth + 1):
        allowed = 2 * depth - d
        nxt = []
        for row, parity in layer:
            for i in range(len(row) - 1):
                y = (row[:i] + (row[i + 1], row[i]) + row[i + 2:], 1 - parity)
                if y not in seen and _bound(y[0], matching) <= allowed:
                    seen.add(y)
                    nxt.append(y)
        layer = nxt
        yield from ((tuple(filter(None, row)), parity) for row, parity in layer)


def test_blank_bound_is_admissible_and_zero_exactly_on_order_preserving_rows():
    # A search reads its matching from its start row and carries the bound
    # to every row its left moves reach, the rows with the start's values.
    # There the bound must not exceed the fewest mixed left and right moves
    # to an order-preserving row, be 0 exactly on those rows, and move by at
    # most one per left move, which keeps the two-layer and move-order
    # arguments of npc's search.
    checked = blanks = 0
    for m in range(1, 6):
        rows = [tuple(s.image_row) for s in all_partial_perms(m, m)]
        # multi-source breadth-first search from the order-preserving rows;
        # every move is its own inverse, so a row's depth is its distance
        layer = [row for row in rows if _crossings(row) == 0]
        fewest = dict.fromkeys(layer, 0)
        depth = 0
        while layer:
            depth += 1
            nxt = []
            for row in layer:
                for moved in [*_left_moves(row), *_right_moves(row)]:
                    if moved not in fewest:
                        fewest[moved] = depth
                        nxt.append(moved)
            layer = nxt
        assert len(fewest) == len(rows)
        by_values = {}
        for row in rows:
            by_values.setdefault(frozenset(row), []).append(row)
        done = set()
        for start in rows:
            matching = _blank_matching(start)
            _, _, terms = npc._blank_pairs(bytes(start))
            assert _crossings(start) + terms == _bound(start, matching)
            key = (frozenset(start), tuple(matching))
            if key in done:
                continue
            done.add(key)
            bounds = {row: _bound(row, matching) for row in by_values[key[0]]}
            for row, bound in bounds.items():
                assert bound <= fewest[row], (start, row)
                assert (bound == 0) == (fewest[row] == 0), (start, row)
                assert all(abs(bounds[moved] - bound) <= 1 for moved in _left_moves(row)), row
                checked += 1
                blanks += bound > _crossings(row)
    # the reduction's blanks count: 2,2 starts at k = 4, each crossing with
    # one blank between it and one value absent
    sigma = reduce_partition((2, 2)).sigma
    assert _bound(tuple(sigma.image_row), _blank_matching(tuple(sigma.image_row))) == 4
    assert (checked, blanks) == (4516, 595)


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
                    == list(_reference_reached(row, depth))), (row, depth)
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
            assert got == list(_reference_reached(row, depth)), (row, depth)
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
