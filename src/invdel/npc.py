"""The partition reduction behind the hardness of balanced sorting.

A multiset of positive integers becomes a square partial permutation made
of disjoint crossing pairs, the j-th spanning a_j positions, with budget
k = sum(a).  Asking for an order-preserving result using equally many
adjacent inversions on each side within the budget is then exactly asking
for an equal-sum split of the multiset.  `solve_balancedsort` decides the
sorting question exactly, so the reduction can be machine-checked in both
directions on small instances: it searches the left moves from the pairing
and the right moves from it (as left moves from its inverse) once each,
holding only the layers next to the one it expands, and joins the two on
the order they leave the defined pairs in.  Its rows are bytes, each
stored with its inversion count and its order, and a move's child row is
built only after the count prune has let it through.  A pairing that is
its own inverse, as every reduction instance is, has one search for both
sides, each reached row read once as a left order and once as a right
order.
Every instance the reduction builds is decided; a search past `MAX_ROWS`
rows raises CapacityError.

The sorting alphabet is the linear adjacent transpositions, without the
wraparound pair: a crossing then costs exactly its width to remove, which
is what makes the encoding faithful.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import CapacityError, InvalidArgumentError
from .pperm import MAX_POSITIONS, PartialPerm, _check_int

MAX_ROWS = 400_000  # rows one balanced search may add to its layers


class BalancedSortInstance(namedtuple("BalancedSortInstance", "sigma k")):
    __slots__ = ()

    def __new__(cls, sigma: PartialPerm, k: int) -> BalancedSortInstance:
        if sigma.m != sigma.n:
            raise InvalidArgumentError("balanced sorting is defined on square partial permutations")
        _check_int("budget", k, 0)
        return tuple.__new__(cls, (sigma, k))

    @classmethod
    def _make(cls, values: Iterable) -> BalancedSortInstance:  # so `_replace` checks too
        return cls(*values)


def _multiset(values: Iterable[int]) -> tuple[int, ...]:
    """The multiset as a tuple, each element an integer of at least 1."""
    values = tuple(values)
    for a in values:
        _check_int("multiset element", a, 1)
    return values


def reduce_partition(values: Sequence[int]) -> BalancedSortInstance:
    """Encode an equal-sum-split instance as a balanced sorting instance.

    Element j contributes the involution pair (j + sum(a_1..a_{j-1})) <->
    (j + sum(a_1..a_j)); the pairs occupy disjoint stretches, so there is
    exactly one crossing per element and the j-th needs a_j adjacent
    inversions to undo.
    """
    values = _multiset(values)
    if not values:
        raise InvalidArgumentError("the multiset must be nonempty")
    total = sum(values)
    m = len(values) + total
    if m > MAX_POSITIONS:
        raise CapacityError(f"the multiset needs {m} positions; partial permutations "
                            f"are capped at {MAX_POSITIONS}")
    mapping = {}
    prefix = 0
    for j, a in enumerate(values, start=1):
        p = j + prefix
        q = j + prefix + a
        mapping[p] = q
        mapping[q] = p
        prefix += a
    return BalancedSortInstance(PartialPerm(m, m, mapping), total)


def partition_brute(values: Sequence[int]) -> bool:
    """Exact subset-sum scan for an equal split."""
    values = _multiset(values)
    if len(values) > 24:
        raise CapacityError("brute-force split check is capped at 24 elements")
    total = sum(values)
    if total % 2:
        return False
    reachable = 1
    for a in values:
        reachable |= reachable << a
    return bool((reachable >> (total // 2)) & 1)


def partition_witness(values: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """An equal-sum split (X, Y) of the multiset, or None."""
    values = _multiset(values)
    total = sum(values)
    if total % 2:
        return None
    target = total // 2
    # DP over achievable sums with one witnessing subset each.
    best: dict[int, tuple[int, ...]] = {0: ()}
    for idx, a in enumerate(values):
        for s, subset in list(best.items()):
            t = s + a
            if t <= target and t not in best:
                best[t] = subset + (idx,)
    if target not in best:
        return None
    chosen = set(best[target])
    x = tuple(values[i] for i in sorted(chosen))
    y = tuple(values[i] for i in range(len(values)) if i not in chosen)
    return x, y


# -- exact balanced search -------------------------------------------------------
#
# A state is an image row, its parity that of its layer's word length.  A left
# move swaps two adjacent entries and flips the parity; swapping two
# undefined positions leaves the row alone, so word lengths are not
# parity-pure per row, and because every move is an involution a word of
# length c reaching a row exists exactly when the row was reached with the
# matching parity at some depth <= c.
#
# The search holds the layer it expands and its two neighbours, not every
# state it reached: every move flips the parity, so the (row, parity) graph
# is bipartite, and the prune below only tightens with depth, so a state is
# first met at its breadth-first depth and its neighbours lie one layer
# before or after it.  A row met again is in one of those two layers.
#
# The moves are the linear adjacent transpositions only.  The wraparound pair
# (1, m) is left out on purpose: the per-crossing width argument that makes
# the reduction correct holds only for the linear ones, since a crossing that
# spans the line would collapse in one wraparound move.  With it available,
# the instance built from {8} is balanced-sortable in one move per side.
#
# Left and right moves commute, and L sigma R is order preserving exactly
# when L and R put the defined pairs in the same relative order.  So one
# layered search runs per side, each to depth k // 2: from sigma with left
# moves, and from the inverse of sigma with left moves, since a right move
# on a pairing is a left move on its inverse.  Each reached row is read as
# an order: its nonzero entries in position order, which on the left side
# are image values and on the right side are source positions, mapped
# through sigma to the image values they pair with.  The answer is yes when
# some order and parity is reached on both sides: two words of the same
# parity, each at most k // 2 long, are made equally long by repeating one
# move twice in the shorter.  When sigma is its own inverse the two searches
# start from the same row with the same count and depth, so they reach the
# same rows: the one search serves both sides, its orders read once as they
# are and once relabelled.
#
# Every linear adjacent move, left or right, changes the number of
# out-of-order image pairs (the inversion count) by at most one, and that
# count is 0 exactly on the order-preserving rows.  Each search drops a row
# whose count exceeds the moves still allowed: its own remaining depth plus
# the other side's whole k // 2.
#
# A row is a bytes object, one byte per position holding its image or 0
# (images are at most MAX_POSITIONS = 16), so it hashes once for the two
# membership tests and the store.  Each layer maps a row to its count and
# its order, and a move's effect on both is known before its row is built:
# a swap of two values moves the count by one and is the only move that
# changes the order; a swap of a value and a blank keeps both; a swap of two
# blanks is the row itself.  So the prune is tested first and a dropped
# child is never built, and an order is built only by a swap of two values.
#
# The rows reached grow as the factorial of the defined positions, so the
# work is bounded, not the size: each row is expanded only while at most
# `MAX_ROWS` states were added.  The largest reduction walk, from
# {3, 3, 3, 3}, reaches 16,814 rows; the reversal of 9 positions reaches 9!.

# _SWAPPED[a][b] is the pair (a, b) of adjacent entries after their swap.
_SWAPPED = [[bytes((b, a)) for b in range(MAX_POSITIONS + 1)] for a in range(MAX_POSITIONS + 1)]


def _reached(start: bytes, count: int, depth: int):
    """Yield the order and parity of every row a left-move search of depth
    `depth` reaches from `start`, whose inversion count is `count`, layer
    by layer: the row's nonzero entries in position order, as bytes, and
    its layer's parity.

    A row is dropped when its count exceeds the moves left on both sides,
    `depth` minus its own depth plus the other side's `depth`.
    """
    if count > 2 * depth:
        return
    order = start.replace(b"\0", b"")
    before, layer = {}, {start: (count, order)}
    states = 1
    yield order, 0
    for d in range(1, depth + 1):
        allowed, parity = 2 * depth - d, d % 2
        nxt = {}
        for row, (inv, order) in layer.items():
            if states > MAX_ROWS:
                raise CapacityError(f"the balanced search reached its budget of {MAX_ROWS:,} "
                                    "rows; the pairing is too large to decide exactly")
            for i in range(len(row) - 1):
                a, b = row[i], row[i + 1]
                if a and b:
                    c = inv + 1 if a < b else inv - 1
                    if c > allowed:
                        continue
                    y = row[:i] + _SWAPPED[a][b] + row[i + 2:]
                    if y in before or y in nxt:
                        continue
                    o = y.replace(b"\0", b"")
                elif inv > allowed:
                    continue
                else:
                    y = row[:i] + _SWAPPED[a][b] + row[i + 2:] if a or b else row
                    if y in before or y in nxt:
                        continue
                    c, o = inv, order
                states += 1
                nxt[y] = c, o
                yield o, parity
        before, layer = layer, nxt


def solve_balancedsort(inst: BalancedSortInstance) -> bool:
    """Decide whether equally many inversions on each side, within the
    budget, can make the pairing order preserving.

    Inversions here are the adjacent transpositions of the linear order,
    without the wraparound.  One layered search over image rows, a
    layer's parity its depth's, runs per side, pruned by the inversion
    count, and the two meet on the order of the defined pairs (see the
    comment above _reached); a pairing that is its own inverse is searched
    once for both sides.
    """
    sigma, k = inst.sigma, inst.k
    count = len(sigma.crossings())
    if count == 0:
        return True
    half = k // 2

    start, inverse = sigma.image_row, sigma.inverse().image_row
    lefts = set(_reached(start, count, half))
    rights = lefts if inverse == start else _reached(inverse, count, half)
    relabel = (b"\0" + start).ljust(256, b"\0")
    return any((order.translate(relabel), parity) in lefts for order, parity in rights)
