"""Cayley graphs of partial permutations and the per-class cost tables.

Elements are represented internally as image rows: tuples whose entry for
position i is the image of i, or 0 when i is undefined.  A left move swaps
two circularly adjacent positions of a row, a right move two circularly
adjacent values; a row is a target when its defined images read in a
cyclic order (`row_is_popi`).

The cayley engine (`table_distance`, which `distance --engine cayley`
calls) reads the alignment cost `mu` from a table per m-by-n rank-r class
(m <= n): one breadth-first search from every target state fills it, and
a query is one lookup at the row's arithmetic rank.  Each table is built
once per process and kept in memory, one byte per state: all the classes
with n <= MAX_ENUM come to 2,153,964 bytes, the largest 564,480.

The square monoid on n points, generated by the circular adjacent
inversions together with the partial identity on {1..n-1}, is also
enumerated in full (a breadth-first closure from the identity in fixed
generator order gives a deterministic indexing) for the enumeration
counts.  The tests check the search against an independent route to the
same costs, `solve_pair_via_cayley`: a breadth-first search in the Cayley
graph of the pairing's rank class, walked from the pairing's own row with
an edge for each inversion composed on either side.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations, permutations
from math import comb, factorial, perm

from .errors import CapacityError, InvalidArgumentError
from .algebra import inversion_set, eval_generator
from .align import reference_pairs, solve_pair
from .distance import DistanceResult
from .genome import Genome
from .pperm import (PartialPerm, _swap_pairs, _swap_positions, _swap_values, row_is_popi,
                    sigma_from_frames)

# |I_8| is already 1.4M elements and the largest class table at n = 8,
# rank 6, has 564,480 states; anything larger is hopeless here.
MAX_ENUM = 8

ImageRow = tuple[int, ...]


def monoid_size(n: int) -> int:
    """Closed-form element count: sum over ranks of C(n,r)^2 r!."""
    return sum(comb(n, r) ** 2 * factorial(r) for r in range(n + 1))


def _compose(f: ImageRow, g: ImageRow) -> ImageRow:
    # image row of f then g
    return tuple(g[v - 1] if v else 0 for v in f)


def _rank(row: ImageRow) -> int:
    return sum(1 for v in row if v)


def _inversion_rows(m: int, size: int) -> list[ImageRow]:
    """The inversions on m points in index order, as elements of the
    monoid on `size` points (undefined beyond m)."""
    pad = (0,) * (size - m)
    return [eval_generator(g).image_row + pad for g in inversion_set(m)]


class MonoidEnumeration:
    """All elements of the partial-permutation monoid on n points, indexed
    in the order a breadth-first closure from the identity finds them.

    Never mutated after construction; safe to share across threads.
    """

    def __init__(self, n: int):
        if not 1 <= n <= MAX_ENUM:
            raise CapacityError(f"monoid enumeration supports 1 <= n <= {MAX_ENUM}, got {n}")
        self.n = n
        gen_rows = _inversion_rows(n, n) + [tuple(range(1, n)) + (0,)]
        identity = tuple(range(1, n + 1))
        elements: list[ImageRow] = [identity]
        index: dict[ImageRow, int] = {identity: 0}
        for x in elements:  # the list grows while it is read: a queue
            for g in gen_rows:
                y = _compose(x, g)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
        self.elements = elements
        self.index = index

    def __len__(self) -> int:
        return len(self.elements)


@cache  # one enumeration per n, shared: it is never mutated
def enumerate_monoid(n: int) -> MonoidEnumeration:
    return MonoidEnumeration(n)


def solve_pair_via_cayley(sigma: PartialPerm) -> int:
    """The alignment cost of a pairing, by breadth-first search in the
    Cayley graph of its rank class (a pairing with m > n is inverted first).

    The search starts at the pairing's row in the monoid on n points; a
    row's neighbours are its products with an inversion on m points on the
    left and with one on n points on the right.  Inversions are
    permutations, so every product keeps the rank and leaves the positions
    beyond m undefined.  The cost is the depth of the first row that reads
    in a cyclic order.
    """
    if sigma.m > sigma.n:
        sigma = sigma.inverse()
    m, n = sigma.m, sigma.n
    if n > MAX_ENUM:
        raise CapacityError(f"the class-graph route supports up to {MAX_ENUM} regions, got {n}")
    lefts, rights = _inversion_rows(m, n), _inversion_rows(n, n)
    start = sigma.embed(n).image_row
    seen, layer = {start}, {start}
    depth = 0
    while layer:
        if any(map(row_is_popi, layer)):
            return depth
        depth += 1
        layer = ({_compose(g, x) for x in layer for g in lefts}
                 | {_compose(x, g) for x in layer for g in rights}) - seen
        seen |= layer
    raise AssertionError("every rank class contains orientation-preserving elements")


# -- per-class mu tables ---------------------------------------------------------
#
# The states of the m-by-n rank-r class (m <= n) are its image rows: the
# defined positions, a subset of C(m, r), and their images read in position
# order, one of the P(n, r) r-permutations of 1..n.  A row's rank is the
# lexicographic rank of its subset times P(n, r) plus the lexicographic rank
# of its images, so ranks follow `combinations(range(m), r)` crossed with
# `permutations(range(1, n + 1), r)`.  The table holds `mu` of every state
# as one byte, in rank order.

UNSEEN = 255  # byte of a state the table search has not reached yet


def class_size(m: int, n: int, r: int) -> int:
    return comb(m, r) * perm(n, r)


def class_rank(row: ImageRow, n: int) -> int:
    """Index of an m-by-n image row (m = len(row)) within its rank class."""
    m = len(row)
    r = _rank(row)
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
        raise CapacityError(f"the cayley engine supports up to {MAX_ENUM} regions, got {sigma.n}")
    return build_table(sigma.m, sigma.n, sigma.rank)[class_rank(sigma.image_row, sigma.n)]


def table_distance(g1: Genome, g2: Genome) -> DistanceResult:
    """`distance.mrca_distance` by the class tables: the two reference
    pairs' costs are looked up in their class's table, the first pair of
    least cost wins, and `solve_pair` gives its witness."""
    pairs = reference_pairs(g1, g2)
    sigmas = [sigma_from_frames(f1, f2) for f1, f2 in pairs]
    costs = [class_cost(sigma) for sigma in sigmas]
    index = costs.index(min(costs))
    solution = solve_pair(sigmas[index])
    assert solution.cost == costs[index]
    return DistanceResult(len(g1.regions ^ g2.regions), pairs[index], solution)
