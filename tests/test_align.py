import gc
import os
import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from invdel import (CapacityError, InvalidArgumentError, PartialPerm,
                    all_partial_perms, eval_word,
                    genomes_from_token_lists, mrca_distance, mu_oracle,
                    sigma_from_frames, solve_pair,
                    solve_pair_via_cayley, solve_sources)
from invdel.align import _lowered, _rotation_costs, _swap_pairs, reference_pairs
from invdel.pperm import row_is_popi

from class_tables import class_cost, class_costs, moves

SIGMA86 = sigma_from_frames("abcdefgh", "eibach")


def all_frame_pairs(g1, g2):
    """The pairing of every frame pair, 4mn of them (fewer for short
    genomes): the reference that the two reference pairs must match."""
    return [sigma_from_frames(f1, f2) for f1 in g1.frames() for f2 in g2.frames()]


def random_pperm(rng, m, n):
    r = rng.randint(0, min(m, n))
    return PartialPerm(m, n, zip(rng.sample(range(1, m + 1), r),
                                 rng.sample(range(1, n + 1), r)))


def test_worked_sigma_cost():
    # frozen from the deepening oracle; tests/test_acceptance.py checks the
    # class-graph route on this pairing
    assert mu_oracle(SIGMA86, 8) == 2
    sol = solve_pair(SIGMA86)
    assert sol.cost == 2
    assert class_cost(SIGMA86) == 2


def test_solution_invariants():
    rng = random.Random(41)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        sigma = random_pperm(rng, m, n)
        sol = solve_pair(sigma)
        aligned = eval_word(sol.left_inversions) * sigma * eval_word(sol.right_inversions)
        assert aligned.is_orientation_preserving()
        assert len(sol.left_inversions) + len(sol.right_inversions) == sol.cost


def test_cayley_route_validates_parameters():
    # the route walks the pairing's own m-by-n class, whichever side is
    # larger; only a class beyond the enumeration's size cap is refused
    sigma = PartialPerm(5, 4, {1: 2, 2: 1, 3: 4, 5: 3})
    assert solve_pair_via_cayley(sigma) == solve_pair_via_cayley(sigma.inverse())
    assert solve_pair_via_cayley(sigma) == solve_pair(sigma).cost > 0
    for big in (PartialPerm(9, 3, {1: 2, 2: 1}), PartialPerm(3, 9, {1: 2, 2: 1})):
        with pytest.raises(CapacityError):
            solve_pair_via_cayley(big)


def test_oracle_contract():
    assert mu_oracle(PartialPerm.identity(3), 3) == 0
    assert mu_oracle(PartialPerm.identity(3), 0) == 0
    # not orientation preserving, zero budget: explicit "exceeded"
    sigma = PartialPerm(4, 4, {1: 3, 2: 1, 3: 4, 4: 2})
    assert not sigma.is_orientation_preserving()
    assert mu_oracle(sigma, 0) is None
    with pytest.raises(InvalidArgumentError):
        mu_oracle(sigma, -1)


def reference_search(sources):
    """The reference for the tie rule: a plain layered breadth-first search
    over image rows.

    Sources are seeded in order (repeats dropped, the first copy kept),
    every row tries its `moves` in code order, and the first goal
    discovered wins.  Returns the winning index, the left generator
    indices (last move first), the right ones (first move first) and the
    goal row.
    """
    n = sources[0].n
    # a seed maps to its index, any other row to (parent, side, index)
    parent = {}
    for index, sigma in enumerate(sources):
        parent.setdefault(tuple(sigma.image_row), index)

    def discovered():
        layer = list(parent)
        yield from layer
        while layer:
            frontier, layer = layer, []
            for row in frontier:
                for side, i, child in moves(row, n):
                    if child not in parent:
                        parent[child] = row, side, i
                        layer.append(child)
                        yield child

    goal = next(row for row in discovered() if row_is_popi(row))
    words, at = ([], []), goal
    while isinstance(parent[at], tuple):
        at, side, i = parent[at]
        words[side].append(i)
    return parent[at], words[0], words[1][::-1], goal


def test_solver_deterministic():
    rng = random.Random(45)
    for _ in range(20):
        sigma = random_pperm(rng, 5, 5)
        a, b = solve_pair(sigma), solve_pair(sigma)
        assert (a.left_inversions, a.right_inversions) == (
            b.left_inversions, b.right_inversions)


@pytest.mark.parametrize("sources, message", [
    ([], "at least one source pairing"),
    ([PartialPerm(2, 3), PartialPerm(3, 2)], "one m and n"),
], ids=["no-source", "mixed-shapes"])
def test_solve_sources_refuses_bad_input(sources, message):
    with pytest.raises(InvalidArgumentError, match=message):
        solve_sources(sources)


def test_reference_pairs_trivial():
    g1, g2 = genomes_from_token_lists("abc", "abc")
    sol = mrca_distance(g1, g2).solution
    assert sol.cost == 0


def test_reference_pairs_dihedral_equivalents():
    g1, g2 = genomes_from_token_lists("abc", "acb")
    assert g1 == g2
    sol = mrca_distance(g1, g2).solution
    assert sol.cost == 0


def test_reference_pairs_one_swap():
    g1, g2 = genomes_from_token_lists("abcd", "abdc")
    sol = mrca_distance(g1, g2).solution
    assert sol.cost == 1
    # frozen via the deepening oracle over every frame pair
    assert min(mu_oracle(sigma, 4) for sigma in all_frame_pairs(g1, g2)) == 1


def test_reference_pairs_match_every_frame_pair():
    rng = random.Random(44)
    pool = list("abcdefg")
    for _ in range(80):
        rng.shuffle(pool)
        t1 = pool[: rng.randint(1, 5)]
        rng.shuffle(pool)
        t2 = pool[: rng.randint(1, 5)]
        g1, g2 = genomes_from_token_lists(t1, t2)
        _, full = solve_sources(all_frame_pairs(g1, g2))
        fast = mrca_distance(g1, g2).solution
        assert full.cost == fast.cost, (t1, t2)


def test_reference_pairs_count():
    g1, g2 = genomes_from_token_lists("abcde", "abcde")
    assert len(reference_pairs(g1, g2)) == 2
    assert len(all_frame_pairs(g1, g2)) == 100


# -- the multi-source search core ------------------------------------------------

def _check_multi_source(sources, single):
    # single holds reference_search of each source alone
    index, sol = solve_sources(sources)
    costs = [len(single[s][1]) + len(single[s][2]) for s in sources]
    assert sol.cost == min(costs)
    assert index == costs.index(sol.cost)
    _, left, right, row = single[sources[index]]
    assert [g.i for g in sol.left_inversions] == left
    assert [g.i for g in sol.right_inversions] == right
    aligned = eval_word(sol.left_inversions) * sources[index] * eval_word(sol.right_inversions)
    assert tuple(aligned.image_row) == row
    return sol


def test_moves_change_descents_by_at_most_one():
    # the probe prunes on this: a move changes the cyclic descent count of
    # the defined images by at most one, and a row is a goal exactly when
    # it has at most one.  Each move is also an involution, as the class
    # tables' outward search assumes.  Every pairing with m <= n <= 4, and
    # seeded m-by-16 ones
    from invdel.align import _descents

    def descents(row):
        return _descents(tuple(filter(None, row)))

    def check(sigma):
        row, n = tuple(sigma.image_row), sigma.n
        for code, (_, _, child) in enumerate(moves(row, n)):
            assert moves(child, n)[code][2] == row
            assert abs(descents(child) - descents(row)) <= 1
            assert (descents(child) <= 1) == row_is_popi(child)

    for m in range(1, 5):
        for n in range(m, 5):
            for sigma in all_partial_perms(m, n):
                check(sigma)
    rng = random.Random(49)
    for _ in range(200):
        check(random_pperm(rng, rng.randint(1, 16), 16))


def test_right_move_with_one_empty_value():
    # on every pairing with m, n <= 6 a probe that skipped right moves with
    # one empty endpoint would still find the least words; this 7-by-7
    # pairing needs one: s1 renames the image 2 to the empty value 1
    sigma = PartialPerm.from_image(7, (4, 5, 2, 0, 0, 7, 3))
    sol = solve_pair(sigma)
    assert sol.cost == mu_oracle(sigma, 3) == 2
    assert not sol.left_inversions
    assert [g.i for g in sol.right_inversions] == [1, 7]


def test_allowed_moves_follow_the_skip_rules():
    # after each last move the probe may take every move but that one, a
    # left move after a right one, and a move of the same side with a
    # smaller code whose positions (left) or values (right) are disjoint
    # from the last move's; the root takes every move in code order
    from invdel.align import _allowed_moves, _value_swaps

    for m in range(1, 8):
        for n in range(1, 8):
            lefts = [(code, a, b, None) for code, (a, b) in enumerate(_swap_pairs(m))]
            rights = [(len(lefts) + code, a + 1, b + 1, table) for code, ((a, b), table)
                      in enumerate(zip(_swap_pairs(n), _value_swaps(n)))]
            every = lefts + rights
            allowed = _allowed_moves(m, n)
            assert len(allowed) == len(every) + 1 and list(allowed[-1]) == every
            for last, a, b, table in every:
                expected = [move for move in every
                            if move[0] != last
                            and not (table is not None and move[3] is None)
                            and not ((table is None) == (move[3] is None) and move[0] < last
                                     and not {a, b} & set(move[1:3]))]
                assert list(allowed[last]) == expected, (m, n, last)


def test_carried_descent_counts():
    # the probe tests each child by the descent count its parent carries
    # to it: on every row with m <= n <= 5 that the probe expands (two or
    # more descents), and every move, that count is the child's own, and
    # a move that fixes the row carries none; the children come from the
    # tests' own moves, in the same code order
    from invdel.align import _allowed_moves, _carried, _descents

    for m in range(1, 6):
        for n in range(m, 6):
            every = _allowed_moves(m, n)[-1]
            for sigma in all_partial_perms(m, n):
                row = sigma.image_row
                values = row.replace(b"\0", b"")
                drops = _descents(values)
                if drops <= 1:
                    continue
                for (_, a, b, table), (_, _, child) in zip(every, moves(tuple(row), n),
                                                           strict=True):
                    carried = _carried(row, values, drops, a, b, table)
                    if child == tuple(row):
                        assert carried is None, (row, a, b)
                    else:
                        assert carried == _descents(tuple(filter(None, child))), (row, a, b)


def test_search_leaves_no_cyclic_garbage():
    # the search's memos go by reference counting when it returns, so a
    # loop of searches does not hold them until the cyclic collector runs:
    # one source, and two, the shape `mrca_distance` searches
    sigma = PartialPerm(6, 6, zip([1, 2, 3, 4, 5], [3, 1, 5, 2, 6]))
    g1, g2 = genomes_from_token_lists("abcdefg", "acebdfh")
    gc.collect()
    gc.disable()
    try:
        assert solve_pair(sigma).cost == 3
        assert gc.collect() == 0
        sources = [sigma_from_frames(f1, f2) for f1, f2 in reference_pairs(g1, g2)]
        assert solve_sources(sources)[1].cost == 3
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_budget_counts_roots_and_children(monkeypatch):
    # the budget's unit: each source at each k and each child tested.  This
    # two-source search tests 4,791 states, so a budget of one fewer
    # refuses it and a budget of exactly that many solves it
    from invdel import align

    rng = random.Random(2)
    sources = [PartialPerm(11, 11, zip(rng.sample(range(1, 12), 9), rng.sample(range(1, 12), 9)))
               for _ in range(2)]
    monkeypatch.setattr(align, "MAX_STATES", 4_790)
    with pytest.raises(CapacityError, match="budget of 4,790 states"):
        solve_sources(sources)
    monkeypatch.setattr(align, "MAX_STATES", 4_791)
    assert solve_sources(sources)[1].cost == 10


def least_bound(sources):
    """The least k at which the search looks past some source: below it,
    every source is pruned at once, by its descent count or, from k = 2
    on, by the compressed closed form."""
    from invdel.align import _descents, _relabelled

    bounds = []
    for s in sources:
        values = tuple(v for v in (s if s.m <= s.n else s.inverse()).image_row if v)
        drops = _descents(values)
        # with two descents, k = 1 passes the descent test and is below 2
        bounds.append(0 if drops <= 1 else 1 if drops == 2
                      else max(drops - 1, min(_rotation_costs(_relabelled(values)))))
    return min(bounds)


def test_multi_source_matches_single_sources(monkeypatch):
    from invdel import align

    # the children tested by `_carried`, which only a row the search
    # expands calls, and whether each run solved above the least bound of
    # its sources: both must happen for the checks below to cover the
    # search, not just its straight descent
    carries, above = 0, []
    carried = align._carried

    def recorded(*args):
        nonlocal carries
        carries += 1
        return carried(*args)

    def check(sources, single):
        above.append(_check_multi_source(sources, single).cost > least_bound(sources))

    monkeypatch.setattr(align, "_carried", recorded)
    for m in range(1, 5):
        for n in range(1, 5):
            perms = list(all_partial_perms(m, n))
            single = {sigma: reference_search([sigma]) for sigma in perms}
            for a in perms:
                for b in perms:
                    check([a, b], single)
    rng = random.Random(46)
    for n in range(1, 9):
        for m in range(1, 9):
            for r in range(min(m, n) + 1):
                for _ in range(2):
                    sources = [PartialPerm(m, n, zip(rng.sample(range(1, m + 1), r),
                                                     rng.sample(range(1, n + 1), r)))
                               for _ in range(rng.randint(2, 4))]
                    single = {s: reference_search([s]) for s in sources}
                    check(sources, single)
                    # a repeat reaches the search, and only its first copy wins
                    check(sources + sources[:1], single)
    assert carries and True in above


def test_first_minimum_wins_over_every_frame_pair():
    # repeated pairings (symmetric genomes) and ties over 4mn frame pairs
    rng = random.Random(47)
    pool = list("abcdef")
    for _ in range(25):
        rng.shuffle(pool)
        t1 = pool[: rng.randint(2, 4)]
        rng.shuffle(pool)
        t2 = pool[: rng.randint(2, 4)]
        g1, g2 = genomes_from_token_lists(t1, t2)
        sigmas = all_frame_pairs(g1, g2)
        alone = [solve_pair(sigma) for sigma in sigmas]
        costs = [sol.cost for sol in alone]
        index, sol = solve_sources(sigmas)
        first = costs.index(min(costs))
        assert index == first
        assert (sol.left_inversions, sol.right_inversions) == (
            alone[first].left_inversions, alone[first].right_inversions)


def test_close_pair_at_ten_regions():
    # the reflected pairing alone costs 16, the direct one 4
    from invdel import mrca_distance, random_genome, simulate

    sc = simulate(random_genome(10, 3), 0, 2, 0, 2, 7)
    assert mrca_distance(sc.genome1, sc.genome2).total == 4


def test_mrca_command_searches_once(tmp_path, monkeypatch, capsys):
    from invdel import distance
    from invdel.cli import main

    calls = []
    core = distance.solve_sources

    def counted(sources):
        calls.append(len(sources))
        return core(sources)

    monkeypatch.setattr(distance, "solve_sources", counted)
    path = tmp_path / "pair.txt"
    path.write_text("A: a e f b g c d h\nB: i a j k b l c d\n")
    assert main(["mrca", str(path), "A", "B"]) == 0
    assert "ancestor iaefjkbglcdh" in capsys.readouterr().out
    assert calls == [2]


def test_sixteen_region_pairs_solve():
    # 16 regions, the most a pairing holds: the full-rank pair takes the
    # closed form, the 11-region cut is searched
    from string import ascii_lowercase

    tokens = list(ascii_lowercase[:16])
    moved = tokens[:]
    moved[3], moved[4] = moved[4], moved[3]
    moved[0], moved[15] = moved[15], moved[0]
    # cutting the genome to 11 regions drops the wraparound swap
    for other, cost in ((moved, 2), (moved[:11], 1)):
        g1, g2 = genomes_from_token_lists(tokens, other)
        result = mrca_distance(g1, g2)
        pair, sol = result.best_pair, result.solution
        sigma = sigma_from_frames(*pair)
        assert sol.cost == cost
        aligned = eval_word(sol.left_inversions) * sigma * eval_word(sol.right_inversions)
        assert aligned.is_orientation_preserving()


def test_random_ten_region_pair_solves():
    # cost and words frozen from the forward-only search this core
    # replaced, which took about 25 s on this pair
    rng = random.Random(1000)
    a, b = list("abcdefghij"), list("abcdefghij")
    rng.shuffle(a)
    rng.shuffle(b)
    g1, g2 = genomes_from_token_lists(a, b)
    result = mrca_distance(g1, g2)
    pair, sol = result.best_pair, result.solution
    sigma = sigma_from_frames(*pair)
    assert sol.cost == 10
    assert [g.i for g in sol.left_inversions] == [10, 9, 1, 10, 9, 5, 6, 7, 4, 5]
    assert len(sol.right_inversions) == 0
    aligned = eval_word(sol.left_inversions) * sigma * eval_word(sol.right_inversions)
    assert aligned.is_orientation_preserving()


# -- the full-rank closed form ---------------------------------------------------

def _rotation_cost(row, c):
    """Fewest cyclic adjacent swaps taking a full-rank row to rotation c:
    the reference definition that the package's one-pass kernel
    (`align._rotation_costs`, `align._lowered`) must match.

    Position p (0-based) holds the token of value row[p] (1-based); rotation
    c sends it to position t_p = (row[p] - 1 + c) mod n, a forward
    displacement of b_p = (t_p - p) mod n.  Lift the circle to the line:
    a swap moves one token a step forward and its neighbour a step back,
    so the lifted displacements of any sorting sum to 0, and exactly
    k = sum(b) / n tokens travel backwards (b_p - n instead of b_p).  The k
    with the largest b_p do, ties by position.  The cost is the number of
    times the lifted tracks cross, counting every periodic copy: tokens
    p < q cross once for every multiple of n strictly between p - q and
    y_p - y_q, where y is where the lifted track ends (Jerrum, TCS 36, 1985).

    Two variations changed no least cost over the rotations on any
    permutation tried, and neither is a simplification.  Sending no token
    backwards (k = 0) counts the all-forward tracks; moving every end back
    by k changes no crossing and makes them a lift of rotation c - k, so
    that count is never below `mu`, and at n <= 8 its minimum was never
    above it either.  But it is not the cost of rotation c (one move can
    change it by two), and the greedy descent's argument needs every
    rotation's cost exact.  Which of several tokens with equal b_p goes
    backwards changed no cost at n <= 7: the tie rule is a convention,
    not part of the count.
    """
    n = len(row)
    b = [((v - 1 + c) % n - p) % n for p, v in enumerate(row)]
    y = [p + bp for p, bp in enumerate(b)]
    for p in sorted(range(n), key=b.__getitem__, reverse=True)[: sum(b) // n]:
        y[p] -= n
    # p - q lies in (-n, 0) and y_p - y_q is no multiple of n, so the count
    # of multiples between them is the gap between their floors
    return sum(abs((yp - yq) // n + 1) for yp, yq in combinations(y, 2))


@lru_cache(maxsize=None)  # the n = 8 table is shared by three tests; n = 9 goes uncached
def rotation_costs(n):
    """Every n-point permutation row mapped to its reference cost on each
    rotation."""
    return {row: [_rotation_cost(row, c) for c in range(n)]
            for row in permutations(range(1, n + 1))}


def test_closed_form_equals_class_table():
    # the exhaustive anchor: the least rotation cost is `mu` on every
    # permutation with n <= 8 (40,320 at n = 8)
    for n in range(1, 9):
        table = class_costs(n, n, n)
        for row, costs in rotation_costs(n).items():
            assert min(costs) == table[row], row


def test_kernel_equals_the_reference():
    # every rotation of every permutation with n <= 8
    for n in range(1, 9):
        for row, costs in rotation_costs(n).items():
            assert _rotation_costs(row) == costs, row


def test_kernel_equals_the_reference_beyond_the_exhaustive_range():
    from hypothesis import given, settings, strategies as st

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(row=st.integers(9, 16).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def check(row):
        row = tuple(row)
        assert _rotation_costs(row) == [_rotation_cost(row, c) for c in range(len(row))]

    check()


def _check_moves_change_costs_by_one(row, n, costs):
    before = costs[row]
    for _, _, child in moves(row, n):
        assert all(abs(x - y) == 1 for x, y in zip(costs[child], before)), (row, child)


def _check_lowered_moves(row, n, costs):
    # `_lowered` lists the left moves, the only ones the descent takes; each
    # changes every rotation's cost by one
    lefts = len(_swap_pairs(n))
    before = costs[row]
    lowered = list(_lowered(row, range(n)))
    assert [code for code, *_ in lowered] == list(range(lefts))
    for (*_, rotations), (_, _, child) in zip(lowered, moves(row, n)[:lefts], strict=True):
        after = costs[child]
        assert all(abs(x - y) == 1 for x, y in zip(after, before)), (row, child)
        assert rotations == [c for c in range(n) if after[c] < before[c]], (row, child)


def test_rotation_cost_moves_by_exactly_one():
    # the greedy descent rests on this: a move changes every rotation's
    # cost by one, up or down (at most one by the lift, and every move is
    # a transposition, which flips the parity of every rotation's cost),
    # so only a cheapest rotation can reach the goal in fewer steps; n = 8
    # is the long test below
    for n in range(2, 8):
        costs = rotation_costs(n)
        for row in costs:
            _check_moves_change_costs_by_one(row, n, costs)


def test_lowered_moves_match_the_reference():
    # the descent's O(1) test, on every (row, rotation, left move) with
    # n <= 7: the rotations a move lowers are exactly those whose reference
    # cost is lower on the child; n = 8 and 9 are the long tests below
    for n in range(1, 8):
        costs = rotation_costs(n)
        for row in costs:
            _check_lowered_moves(row, n, costs)


@pytest.mark.skipif(os.environ.get("INVDEL_LONG_TESTS") != "1",
                    reason="set INVDEL_LONG_TESTS=1 for the n=8 moves")
def test_rotation_moves_at_eight_regions():
    # the two tests above at n = 8, in one loop: all 645,120 moves, and
    # `_lowered` on the 322,560 left ones
    costs = rotation_costs(8)
    for row in costs:
        _check_moves_change_costs_by_one(row, 8, costs)
        _check_lowered_moves(row, 8, costs)


@pytest.mark.skipif(os.environ.get("INVDEL_LONG_TESTS") != "1",
                    reason="set INVDEL_LONG_TESTS=1 for the n=9 left moves")
def test_left_moves_at_nine_regions():
    # the lowered-moves check on the 3,265,920 left moves at n = 9, the
    # ones the descent takes; the table is built uncached, so its 147 MB
    # go with the test
    costs = rotation_costs.__wrapped__(9)
    for row in costs:
        _check_lowered_moves(row, 9, costs)


def test_full_rank_route_matches_the_search():
    # index, cost, words and witness all equal the search's (the tie rule),
    # on every permutation with n <= 6, alone and next to its reversal, and
    # on seeded pairings with n = 7..9
    from invdel.align import _search_sources

    def check(sources):
        assert solve_sources(sources) == _search_sources(sources), sources

    for n in range(1, 7):
        for row in permutations(range(1, n + 1)):
            sigma = PartialPerm.from_image(n, row)
            check([sigma])
            check([sigma, PartialPerm.from_image(n, row[::-1])])
    rng = random.Random(48)
    for n in (7, 8, 9):
        for _ in range(4):
            a, b = (PartialPerm.from_image(n, tuple(rng.sample(range(1, n + 1), n)))
                    for _ in range(2))
            check([a])
            check([a, b])


def test_full_rank_words_descend_past_seven_regions():
    # `_lowered` is checked on every left move only up to n = 7 in tier-1.
    # Past that the words equal a greedy descent on the closed form's cost
    # of the compressed row: at each step the first move in code order, of
    # either side, whose child costs one less.  On 20 seeded permutations
    # each for n = 8..16, and on 5 seeded pairings with m < n each for
    # n = 8..16, both ways round; every word lies on the side with fewer
    # positions
    from invdel.align import _relabelled

    def cost(row):
        return min(_rotation_costs(_relabelled([v for v in row if v])))

    def check(sigma):
        row, n = tuple(sigma.image_row), sigma.n
        sol = solve_pair(sigma)
        words = ([], [])
        for below in range(cost(row) - 1, -1, -1):
            side, i, row = next(step for step in moves(row, n) if cost(step[2]) == below)
            words[side].append(i)
        assert row_is_popi(row)
        assert not (words[1] if sigma.m <= n else words[0])  # the side with more positions
        assert sol.cost == len(words[0]) + len(words[1])
        assert ([g.i for g in sol.left_inversions],
                [g.i for g in sol.right_inversions]) == (words[0][::-1], words[1])

    rng = random.Random(40)
    for n in range(8, 17):
        for _ in range(20):
            check(PartialPerm.from_image(n, tuple(rng.sample(range(1, n + 1), n))))
    rng = random.Random(44)
    for n in range(8, 17):
        for _ in range(5):
            m = rng.randint(2, n - 1)
            sigma = PartialPerm(m, n, zip(range(1, m + 1), rng.sample(range(1, n + 1), m)))
            check(sigma)
            check(sigma.inverse())


def test_words_read_later_are_the_words_read_at_once():
    # the full-rank route holds the cost and runs its descent when the words
    # are first read.  On every permutation with n <= 7, alone and with the
    # pairing of the reflected second frame as the other reference source:
    # the cost read first is the two word lengths read later, the words are
    # those of a fresh solve read words first, and == and hash follow the
    # words (checked also against the previous permutation's solution)
    previous = None
    for n in range(1, 8):
        for row in permutations(range(1, n + 1)):
            sigma = PartialPerm.from_image(n, row)
            reflected = PartialPerm.from_image(n, tuple(n + 1 - v for v in row))
            for sources in ([sigma], [sigma, reflected]):
                _, later = solve_sources(sources)
                cost = later.cost
                _, at_once = solve_sources(sources)
                words = at_once.left_inversions, at_once.right_inversions
                assert at_once.cost == cost == sum(map(len, words))
                assert (later.left_inversions, later.right_inversions) == words
                assert later == at_once and hash(later) == hash(at_once)
                if previous is not None:
                    other, other_words = previous
                    assert (later == other) == (words == other_words)
                    assert (hash(later) == hash(other)) >= (words == other_words)
                previous = later, words


def test_solutions_pickle_with_their_words():
    # a pickle holds the words, not the function that builds them: full
    # rank, partial rank, and m > n, both before and after the words are read
    import pickle

    for sigma in (PartialPerm.from_image(5, (3, 5, 1, 4, 2)), SIGMA86.inverse(), SIGMA86):
        for read in (False, True):
            sol = solve_pair(sigma)
            if read:
                sol.left_inversions
            back = pickle.loads(pickle.dumps(sol))
            assert back == sol and back.cost == sol.cost > 0
            assert (back.left_inversions, back.right_inversions) == (
                sol.left_inversions, sol.right_inversions)


# -- the probe's lower bound -----------------------------------------------------

def _bound_properties(check):
    """Run `check(row, n)` on drawn m-by-n pairings with 9 <= m <= n <= 16
    of rank 3..n-1, half of them orientation preserving, where no
    exhaustive check reaches."""
    from hypothesis import given, settings, strategies as st

    @st.composite
    def pairings(draw):
        n = draw(st.integers(9, 16))
        m = draw(st.integers(9, n))
        r = draw(st.integers(3, min(m, n - 1)))
        positions = draw(st.permutations(range(1, m + 1)))[:r]
        values = draw(st.permutations(range(1, n + 1)))[:r]
        if draw(st.booleans()):
            # a rotation of the values in increasing order, in position order
            k = draw(st.integers(0, r - 1))
            positions, values = sorted(positions), sorted(values)
            values = values[k:] + values[:k]
        return PartialPerm(m, n, zip(positions, values))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(sigma=pairings())
    def run(sigma):
        check(sigma.image_row, sigma.n)

    run()


def _bound(row):
    from invdel.align import _relabelled

    return min(_rotation_costs(_relabelled(tuple(v for v in row if v))))


def test_compressed_bound_moves_by_at_most_one():
    # with the next test, this makes the bound admissible: it is 0 on every
    # goal and a move lowers it by at most one
    def check(row, n):
        bound = _bound(row)
        for _, _, child in moves(row, n):
            assert abs(_bound(child) - bound) <= 1

    _bound_properties(check)


def test_compressed_bound_is_zero_exactly_on_goals():
    # checked on the drawn pairing and on each of its children, which
    # include the rows next to a goal
    def check(row, n):
        for at in [row] + [child for _, _, child in moves(row, n)]:
            assert (_bound(at) == 0) == row_is_popi(at)

    _bound_properties(check)
