"""The tests' class tables: `mu` of every pairing of a rank class, filled by
their own breadth-first search over tuple image rows, the witness read
off them by a greedy descent, and the move list that search and the
tests' tie-rule reference share.

An oracle that shares no search code with the solver's routes.  The
states of the m-by-n rank-r class (m <= n) are its image rows: r defined
positions, read in position order, with an r-permutation of 1..n as
their images.  A move swaps two circularly adjacent positions (the left
side) or two circularly adjacent values (the right side); `moves` lists
them in code order.  One breadth-first search from every
orientation-preserving row fills the class's table; the moves are
involutions, so it runs outward from the targets.  A pairing with m > n
is looked up as its inverse.

The costs are exact, so the lexicographically least shortest move
sequence is a greedy descent: from each row, the first move in `moves`
order whose child costs one less (`descent`).
"""
from collections import deque
from functools import cache
from itertools import combinations, permutations

from invdel import CapacityError, PartialPerm
from invdel.cayley import MAX_ENUM
from invdel.pperm import _swap_pairs, row_is_popi

ImageRow = tuple[int, ...]


def swap_positions(row: ImageRow, a: int, b: int) -> ImageRow:
    """The row with its entries at the 0-based positions a and b exchanged."""
    swapped = list(row)
    swapped[a], swapped[b] = row[b], row[a]
    return tuple(swapped)


def swap_values(row: ImageRow, a: int, b: int) -> ImageRow:
    """The row with every entry a rewritten to b and every b to a: on a
    partial row one or both values may be absent."""
    return tuple(b if v == a else a if v == b else v for v in row)


def moves(row: ImageRow, n: int) -> list[tuple[int, int, ImageRow]]:
    """(side, index, child) for every move of an m-by-n image row, in code
    order: the side with fewer positions first (the left side, 0, when
    m = n), then by 1-based generator index."""
    left = [(0, i, swap_positions(row, a, b))
            for i, (a, b) in enumerate(_swap_pairs(len(row)), 1)]
    right = [(1, i, swap_values(row, a + 1, b + 1))
             for i, (a, b) in enumerate(_swap_pairs(n), 1)]
    return right + left if len(row) > n else left + right


@cache  # each class is searched once per test process
def class_costs(m: int, n: int, r: int) -> dict[ImageRow, int]:
    """`mu` of every image row of the m-by-n rank-r class."""
    rows = []
    for subset in combinations(range(m), r):
        for images in permutations(range(1, n + 1), r):
            row = [0] * m
            for p, v in zip(subset, images):
                row[p] = v
            rows.append(tuple(row))
    queue = deque(row for row in rows if row_is_popi(row))
    mu = dict.fromkeys(queue, 0)
    while queue:
        row = queue.popleft()
        for _, _, child in moves(row, n):
            if child not in mu:
                mu[child] = mu[row] + 1
                queue.append(child)
    if len(mu) != len(rows):
        raise AssertionError("every row reaches an orientation-preserving one")
    return mu


def class_cost(sigma: PartialPerm) -> int:
    """The alignment cost of a pairing, looked up in its class's table."""
    if sigma.rank <= 1:
        return 0
    if sigma.m > sigma.n:
        sigma = sigma.inverse()
    if sigma.n > MAX_ENUM:
        raise CapacityError(f"the class tables support up to {MAX_ENUM} regions, got {sigma.n}")
    return class_costs(sigma.m, sigma.n, sigma.rank)[tuple(sigma.image_row)]


def descent(row: ImageRow, n: int) -> tuple[list[int], list[int]]:
    """The least shortest witness of an m-by-n image row, read off its
    class's table: the left generator indices (last move first) and the
    right ones (first move first), as `solve_pair` words them.  With
    m > n each row is looked up as its inverse."""
    m, r = len(row), len(row) - row.count(0)
    if m <= n:
        cost = class_costs(m, n, r).__getitem__
    else:
        table = class_costs(n, m, r)

        def cost(row: ImageRow) -> int:
            inverse = [0] * n
            for p, v in enumerate(row, 1):
                if v:
                    inverse[v - 1] = p
            return table[tuple(inverse)]

    words: tuple[list[int], list[int]] = ([], [])
    for below in range(cost(row) - 1, -1, -1):
        step = next(((side, i, child) for side, i, child in moves(row, n)
                     if cost(child) == below), None)
        if step is None:
            raise AssertionError(f"no move lowers the cost of {row}")
        side, i, row = step
        words[side].append(i)
    if not row_is_popi(row):
        raise AssertionError(f"the descent ends on {row}, which is not orientation preserving")
    return words[0][::-1], words[1]
