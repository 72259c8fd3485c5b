"""The tests' class tables: `mu` of every pairing of a rank class, filled by
their own breadth-first search over tuple rows.

An oracle that shares no search code with the solver's routes: it reads
`mu` from a table per m-by-n rank-r class (m <= n; a pairing with m > n
is inverted first).  One breadth-first search from every target state
fills a table, and a lookup is one index at the row's arithmetic rank.
Each table is built once per test process and kept in memory, one byte
per state: all the classes with n <= MAX_ENUM come to 2,153,964 bytes,
the largest 564,480.

The states of the m-by-n rank-r class (m <= n) are its image rows: the
defined positions, a subset of C(m, r), and their images read in position
order, one of the P(n, r) r-permutations of 1..n.  A row's rank is the
lexicographic rank of its subset times P(n, r) plus the lexicographic rank
of its images, so ranks follow `combinations(range(m), r)` crossed with
`permutations(range(1, n + 1), r)`.  The table holds `mu` of every state
as one byte, in rank order.
"""
from functools import cache
from itertools import combinations, permutations
from math import comb, perm

from invdel import CapacityError, InvalidArgumentError, PartialPerm
from invdel.cayley import MAX_ENUM
from invdel.pperm import _swap_pairs, _swap_positions, _swap_values, row_is_popi

ImageRow = tuple[int, ...]

UNSEEN = 255  # byte of a state the table search has not reached yet


def class_size(m: int, n: int, r: int) -> int:
    return comb(m, r) * perm(n, r)


def class_rank(row: ImageRow, n: int) -> int:
    """Index of an m-by-n image row (m = len(row)) within its rank class."""
    m = len(row)
    r = sum(1 for v in row if v)
    subset = chosen = 0
    images = used = 0
    for p, v in enumerate(row):
        if v:
            # images before v in the order: the unused values below it
            images = images * (n - chosen) + v - 1 - (used & ((1 << v) - 1)).bit_count()
            used |= 1 << v
            chosen += 1
        elif chosen < r:
            # every subset taking position p next ranks before this one
            subset += comb(m - 1 - p, r - 1 - chosen)
    return subset * perm(n, r) + images


@cache  # kept per process: every class with n <= MAX_ENUM is 2,153,964 bytes in all
def build_table(m: int, n: int, r: int) -> bytes:
    """`mu` of every state of the m-by-n rank-r class, in rank order.

    One breadth-first search from every orientation-preserving state at
    once; the moves are involutions, so it runs outward from the targets.
    A state is (subset, images).  Swapping two values relabels the images
    and keeps the subset.  Swapping two positions is worked out once per
    subset on a row whose images are their own ordinals: the moved row
    gives the new subset and the order the images are then read in.
    """
    if not 0 <= r <= m <= n:
        raise InvalidArgumentError(f"a class needs 0 <= r <= m <= n, got ({m}, {n}, {r})")
    images = list(permutations(range(1, n + 1), r))
    size = len(images)
    index = {v: i for i, v in enumerate(images)}
    subsets = list(combinations(range(m), r))
    subset_index = {d: i for i, d in enumerate(subsets)}

    rights = [[index[_swap_values(v, a + 1, b + 1)] for v in images]
              for a, b in _swap_pairs(n)]
    reorders: dict[tuple[int, ...], list[int]] = {}
    lefts = []  # per subset: (first state of the new subset, image relabelling)
    for subset in subsets:
        ordinals = [0] * m
        for k, p in enumerate(subset):
            ordinals[p] = k + 1
        ordinals = tuple(ordinals)
        edges = []
        for a, b in _swap_pairs(m):
            moved = _swap_positions(ordinals, a, b)
            if moved == ordinals:
                continue
            order = tuple(k - 1 for k in moved if k)
            if order not in reorders:
                reorders[order] = [index[tuple(v[k] for k in order)] for v in images]
            target = tuple(p for p, k in enumerate(moved) if k)
            edges.append((subset_index[target] * size, reorders[order]))
        lefts.append(edges)

    mu = bytearray([UNSEEN]) * (len(subsets) * size)
    goals = [i for i, v in enumerate(images) if row_is_popi(v)]
    frontier = [d * size + i for d in range(len(subsets)) for i in goals]
    for state in frontier:
        mu[state] = 0
    depth = 0
    while frontier:
        depth += 1
        layer, frontier = frontier, []
        push = frontier.append
        for state in layer:
            d, i = divmod(state, size)
            base = d * size
            for table in rights:
                t = base + table[i]
                if mu[t] == UNSEEN:
                    mu[t] = depth
                    push(t)
            for first, table in lefts[d]:
                t = first + table[i]
                if mu[t] == UNSEEN:
                    mu[t] = depth
                    push(t)
    if UNSEEN in mu:
        raise AssertionError("every state reaches an orientation-preserving one")
    return bytes(mu)


def class_cost(sigma: PartialPerm) -> int:
    """The alignment cost of a pairing, looked up in its class's table."""
    if sigma.rank <= 1:
        return 0
    if sigma.m > sigma.n:
        sigma = sigma.inverse()
    if sigma.n > MAX_ENUM:
        raise CapacityError(f"the class tables support up to {MAX_ENUM} regions, got {sigma.n}")
    return build_table(sigma.m, sigma.n, sigma.rank)[class_rank(sigma.image_row, sigma.n)]
