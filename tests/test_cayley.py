import os
from collections import deque
from math import comb, factorial, perm

import pytest

from invdel import (CapacityError, PartialPerm, all_partial_perms, enumerate_monoid,
                    monoid_size, solve_pair)
from invdel.algebra import eval_generator, inversion_set
from invdel.cayley import _image_rows
from invdel.pperm import _swap_pairs, _swap_positions, _value_swaps

from class_tables import class_cost, class_costs, descent


def test_counts_small():
    assert enumerate_monoid(1) == 2
    assert enumerate_monoid(2) == 7
    assert enumerate_monoid(3) == 34
    assert enumerate_monoid(4) == 209


def test_counts_match_formula():
    for n in range(1, 5):
        assert enumerate_monoid(n) == monoid_size(n)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        enumerate_monoid(9)


def test_second_count_is_a_cache_hit():
    # `verify --enumerate N` run twice in one process closes the monoid once
    enumerate_monoid.cache_clear()
    assert enumerate_monoid(5) == 1546
    assert enumerate_monoid(5) == 1546
    info = enumerate_monoid.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_closure_reaches_exactly_the_image_rows():
    # byte i - 1 of a row is the image of i, or 0
    for n in range(1, 6):
        assert _image_rows(n) == {bytes(p.image_row) for p in all_partial_perms(n, n)}


def test_inversion_products_stay_in_the_closure_and_rank():
    # the closure reaches every row of I_4, and an inversion on either side
    # keeps a row in it and keeps its rank
    elements = list(all_partial_perms(4, 4))
    rows = {p.image_row for p in elements}
    assert len(rows) == enumerate_monoid(4)
    for g in map(eval_generator, inversion_set(4)):
        for p in elements:
            for product in (g * p, p * g):
                assert product.image_row in rows
                assert product.rank == p.rank


# -- the class-graph route's moves -------------------------------------------------
#
# `solve_pair_via_cayley` walks the rank class (D-class) of a pairing's
# own m-by-n byte row: a row's products with each inversion on m points on
# the left (`_swap_positions`) and each on n points on the right (a
# `_value_swaps` table).

def _kit_inversions(k):
    """The inversions on k points in index order, as the kit moves by
    them: the one inversion on one point is the identity, and the kit
    lists no move for it."""
    if k == 1:
        assert eval_generator(inversion_set(1)[0]) == PartialPerm.identity(1)
        return []
    return inversion_set(k)


def test_route_moves_are_products_with_the_inversions():
    # on every m-by-n row with m, n <= 5 and for each inversion index i, a
    # left move is the row of s_{i;m} * sigma and a right move that of
    # sigma * s_{i;n}, evaluated from the model's definition
    checked = 0
    for m in range(1, 6):
        for n in range(1, 6):
            lefts = list(zip(map(eval_generator, _kit_inversions(m)), _swap_pairs(m), strict=True))
            rights = list(zip(map(eval_generator, _kit_inversions(n)), _value_swaps(n),
                              strict=True))
            for sigma in all_partial_perms(m, n):
                row = bytes(sigma.image_row)
                for g, (a, b) in lefts:
                    assert _swap_positions(row, a, b) == bytes((g * sigma).image_row)
                for g, table in rights:
                    assert row.translate(table) == bytes((sigma * g).image_row)
                checked += len(lefts) + len(rights)
    assert checked == 30_382


def _rank_rows(m, n, r):
    return sorted(bytes(p.image_row) for p in all_partial_perms(m, n) if p.rank == r)


def _products(row, n):
    """(side, inversion index, product) for every move the route tries on
    an m-by-n byte row."""
    return ([("left", gi, _swap_positions(row, a, b))
             for gi, (a, b) in enumerate(_swap_pairs(len(row)), 1)]
            + [("right", gi, row.translate(table)) for gi, table in enumerate(_value_swaps(n), 1)])


def _moving_labels(row, n, side):
    return sorted(gi for s, gi, y in _products(row, n) if s == side and y != row)


def test_rank_class_sizes():
    assert len(_rank_rows(4, 4, 0)) == 1
    assert len(_rank_rows(4, 4, 4)) == 24
    assert len(_rank_rows(4, 4, 2)) == 72
    for r in range(5):
        assert len(_rank_rows(4, 4, r)) == comb(4, r) ** 2 * factorial(r)


def test_route_moves_every_full_rank_row():
    # a move never fixes a full-rank row, so every label moves it
    for n in (3, 4, 5):
        for row in _rank_rows(n, n, n):
            assert _moving_labels(row, n, "left") == list(range(1, n + 1))
            assert _moving_labels(row, n, "right") == list(range(1, n + 1))
    checked = 0
    for row in _rank_rows(3, 4, 3):  # the left inversions on 3 points all move it
        assert _moving_labels(row, 4, "left") == [1, 2, 3]
        checked += 1
    assert checked == 24


def test_route_left_moves_follow_m():
    # X_2 has the one inversion s_{1;2}; the right products do not depend on m
    for row in _rank_rows(2, 3, 2):
        assert ([(s, gi, y + b"\0") for s, gi, y in _products(row, 3) if s == "right"]
                == [p for p in _products(row + b"\0", 3) if p[0] == "right"])
    for m, labels in ((3, {1, 2, 3}), (2, {1})):
        rows = _rank_rows(m, 3, 2)
        assert set().union(*(_moving_labels(row, 3, "left") for row in rows)) == labels


def test_route_fixes_the_rank_zero_row():
    for m in (3, 4):
        (row,) = _rank_rows(m, 4, 0)
        assert all(y == row for _, _, y in _products(row, 4))


def test_route_moves_stay_in_the_rank_class():
    # every product of a 3-by-4 row is a 3-by-4 row of the same rank
    for r in range(4):
        rows = set(_rank_rows(3, 4, r))
        for row in rows:
            for side, gi, y in _products(row, 4):
                assert y in rows
                assert 1 <= gi <= (3 if side == "left" else 4)


def test_rank_class_connected_when_m_equals_n():
    # the moves are involutions: reaching every row from one is strong connectivity
    for n in (2, 3, 4, 5):
        for r in range(n + 1):
            rows = _rank_rows(n, n, r)
            seen = {rows[0]}
            queue = deque([rows[0]])
            while queue:
                for _, _, y in _products(queue.popleft(), n):
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            assert seen == set(rows), f"n={n} r={r}"
            assert len(seen) == comb(n, r) ** 2 * factorial(r)


# -- the tests' per-class mu tables (class_tables.py) --------------------------------

def _check_words(m, n, both_ways):
    """`solve_pair`'s cost and words against the table and its descent on
    every m-by-n pairing (m <= n) and, if both_ways, on every n-by-m one;
    returns the number of pairings checked."""
    checked = 0
    for r in range(m + 1):
        table = class_costs(m, n, r)
        assert len(table) == comb(m, r) * perm(n, r), (m, n, r)
        for row, cost in table.items():
            sigma = PartialPerm.from_image(n, row)
            for s in (sigma, sigma.inverse()) if both_ways and m < n else (sigma,):
                sol = solve_pair(s)
                words = [g.i for g in sol.left_inversions], [g.i for g in sol.right_inversions]
                assert (sol.cost, words) == (cost, descent(s.image_row, s.n)), s
                checked += 1
    return checked


def test_table_equals_search_core_on_every_small_class():
    # cost and words of every pairing with m, n <= 6, both ways round
    checked = sum(_check_words(m, n, True) for m in range(1, 7) for n in range(m, 7))
    assert checked == 27461


@pytest.mark.skipif(os.environ.get("INVDEL_LONG_TESTS") != "1",
                    reason="set INVDEL_LONG_TESTS=1 for the n=7 words")
def test_table_equals_search_core_at_seven_regions():
    # cost and words of every pairing with m <= n = 7
    assert sum(_check_words(m, 7, False) for m in range(1, 8)) == 180215


def test_class_cost_capacity():
    nine = PartialPerm(9, 2, {1: 1, 2: 2})
    with pytest.raises(CapacityError):
        class_cost(nine)
    with pytest.raises(CapacityError):
        class_cost(nine.inverse())
    assert class_cost(PartialPerm(9, 2, {1: 2})) == 0  # rank <= 1 needs no table

