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
stored with its bound, its order and the move that built it.  The bound is
the inversion count plus, for each pair of a set of the start row's
crossings that share no value, the fewer of the blanks and the absent
values between its two: a crossing that spans a positions in the
reduction costs a moves, since its a - 1 blanks must be cleared first.
Every left or right move changes the bound by at most one and it is 0
exactly on order-preserving rows, so a row whose bound exceeds the moves
left is dropped without losing an answer.  A row skips the moves that undo
the move that built it or commute back past it, and a move's child row is
built only after the prune has let it through.
A pairing that is its own inverse, as every reduction instance is, has one
search for both sides, each reached row read once as a left order and once
as a right order.
Every instance the reduction builds is decided; a search past `MAX_ROWS`
rows raises CapacityError.

The sorting alphabet is the linear adjacent transpositions, without the
wraparound pair: a crossing then costs exactly its width to remove, which
is what makes the encoding faithful.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cache

from .errors import CapacityError, InvalidArgumentError
from .pperm import MAX_POSITIONS, PartialPerm, _check_int

MAX_ROWS = 400_000  # rows one balanced search may add to its layers
# Cells of the subset-sum table a split helper may read a multiset into:
# elements x (total // 2 + 1), one per element and sum up to half the
# total.  It bounds the sums `partition_witness` keeps a subset for and the
# integer `partition_brute` shifts.  The dearest multisets tried just under
# it (1,412 ones; 1..157 and a 1; the powers of two to 2**15 and 52,109)
# took at most 0.08 s of CPU and 28 MB peak RSS, 14 MB of it the
# interpreter, on a 2-core Xeon VM with Python 3.11; `partition_brute`, whose
# integer holds one bit per sum, answered each in under 1 ms at 15 MB.
MAX_SPLIT_CELLS = 1_000_000


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


def _split_multiset(values: Iterable[int]) -> tuple[int, ...]:
    """The multiset of a split helper, refused with CapacityError when its
    table would hold more than `MAX_SPLIT_CELLS` cells."""
    values = _multiset(values)
    _check_int("split table cells", len(values) * (sum(values) // 2 + 1), cap=MAX_SPLIT_CELLS)
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
    values = _split_multiset(values)
    total = sum(values)
    if total % 2:
        return False
    reachable = 1
    for a in values:
        reachable |= reachable << a
    return bool((reachable >> (total // 2)) & 1)


def partition_witness(values: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """An equal-sum split (X, Y) of the multiset, or None."""
    values = _split_multiset(values)
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
# is bipartite, and the prune below only tightens with depth and tests a
# bound that moves by at most one per move, so a state is first met at its
# breadth-first depth and its neighbours lie one layer before or after it.
# A row met again is in one of those two layers.
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
# Each search drops a row whose bound exceeds the moves still allowed: its
# own remaining depth plus the other side's whole k // 2.  The bound is the
# inversion count (the out-of-order pairs of image values) plus one term for
# each pair of M, a set of the start row's crossed pairs that share no
# value, fixed once per search (`_blank_pairs`; greedy by term, then by
# value, though any such set would do).  While its pair is crossed, a term
# is the fewer of the blank positions and the values absent from the row
# between the pair's two; once uncrossed it is 0.  In the reduction each
# crossing of width a has a - 1 of each, so the bound at the start is k,
# where the count alone is the number of elements.
#
# The bound never exceeds the left and right moves still needed.  Follow
# M's tokens by identity along any word of those moves.  A move of two
# defined tokens changes the count by one and no pair's blank or absent
# gap; a token passing a blank, or a value renamed to an absent neighbour,
# leaves the count alone and changes only its own pair's gap, by one; and a
# pair uncrosses only when its two are adjacent, at gap 0.  So every move
# changes the bound by at most one, and the bound is 0 exactly on the
# order-preserving rows.  Moving by at most one also makes it consistent,
# all that the two-layer and move-order arguments need.  A left move keeps
# every value, so in a search each pair's absent gap is fixed.
#
# A row is a bytes object, one byte per position holding its image or 0
# (images are at most MAX_POSITIONS = 16), so it hashes once for the two
# membership tests and the store.  Each layer maps a row to its bound and
# its order, and a move's effect on both is known before its row is built:
# a swap of two values moves the bound by one and is the only move that
# changes the order; a swap of a value and a blank keeps the order, and
# moves the bound only when the value's pair in M is crossed, read off one
# `bytes.index` of its partner and one count of the blanks between them; a
# swap of two blanks is the row itself.  So the prune is tested first and a
# dropped child is never built, and an order is built only by a swap of two
# values.  A row with no blanks has every value, so M is empty and the
# bound is the count.
#
# Each layer entry also holds the move that first built its row (the start
# row holds a sentinel), and a row takes only the moves `_moves_after` allows
# after it: not that move again, and no move j < i - 1 after move i.  This is
# duplicate pruning by an operator order (Taylor and Korf, AAAI 1993), as in
# align's descent.  A layer is built in the order of the one before it, and
# each row tries its moves in index order, so the first path the search
# finds to a state is that state's lexicographically least shortest move
# sequence.  That sequence takes no skipped move: the same move twice undoes
# itself, and a move j < i - 1 right after move i swaps other positions, so
# the two commute and putting j first gives a smaller sequence of the same
# length and end.  The swap keeps the prune too: the new middle row is one
# move from the end row, so its bound is at most one more than the end's,
# and the end row is allowed one move fewer than the middle one.  So every
# state is still built first from the same row by the same move, and the
# states, their order and the rows `MAX_ROWS` counts are unchanged; only
# children that would have been dropped as rows already met are no longer
# tried.  Rows already met still occur (two moves of blanks, or the braid
# i, i + 1, i against i + 1, i, i + 1), so the two layers are still tested.
#
# The rows reached grow as the factorial of the defined positions, so the
# work is bounded, not the size: each row is expanded only while at most
# `MAX_ROWS` states were added.  The largest reduction walk, from
# {3, 3, 3, 3}, reaches 1,917 rows; the reversal of 9 positions reaches 9!.

# _SWAPPED[a][b] is the pair (a, b) of adjacent entries after their swap.
_SWAPPED = [[bytes((b, a)) for b in range(MAX_POSITIONS + 1)] for a in range(MAX_POSITIONS + 1)]


@cache  # the searches on m positions share one table
def _moves_after(m: int) -> tuple[tuple[int, ...], ...]:
    """The moves a row may take after the move that first built it, indexed
    by that move, with one more entry, for the start row, holding every
    move.  Move i swaps positions i and i + 1 (0-based).  After move i a
    row skips i again and every move j < i - 1 (see the comment above)."""
    return (*(tuple(j for j in range(m - 1) if j == i - 1 or j > i) for i in range(m - 1)),
            tuple(range(m - 1)))


def _blank_pairs(start: bytes) -> tuple[list[int], list[int], int]:
    """The pairs whose blanks the prune counts, read from the start row:
    `partner` and `absent`, indexed by value, give a matched value's partner
    and the values absent between the two (0 for a value in no pair), and
    the third item is the sum of the pairs' terms at the start.

    The candidates are the crossed pairs with a value absent between them,
    each weighed by its term, the smaller of its blank positions and its
    absent values; they are taken greedily by weight, then by value, while
    they share no value with a pair already taken.
    """
    defined = [(p, x) for p, x in enumerate(start) if x]
    values = sorted(x for _, x in defined)
    below = {x: x - r for r, x in enumerate(values, 1)}  # values absent below x
    candidates = []
    for k, (p, x) in enumerate(defined):
        for q, y in defined[k + 1:]:
            if y < x and below[x] > below[y]:
                between = below[x] - below[y]
                candidates.append((-min(start.count(0, p + 1, q), between), y, x, between))
    partner, absent = [0] * (MAX_POSITIONS + 1), [0] * (MAX_POSITIONS + 1)
    terms = 0
    for weight, y, x, between in sorted(candidates):
        if not partner[x] and not partner[y]:
            partner[x], partner[y] = y, x
            absent[x] = absent[y] = between
            terms -= weight
    return partner, absent, terms


def _reached(start: bytes, count: int, depth: int):
    """Yield the order and parity of every row a left-move search of depth
    `depth` reaches from `start`, whose inversion count is `count`, layer
    by layer: the row's nonzero entries in position order, as bytes, and
    its layer's parity.

    A row is dropped when its bound, the inversion count plus the blanks
    its matched crossed pairs must still clear, exceeds the moves left on
    both sides: `depth` minus its own depth plus the other side's `depth`.
    """
    partner, absent, terms = _blank_pairs(start)
    bound = count + terms
    if bound > 2 * depth:
        return
    order = start.replace(b"\0", b"")
    after = _moves_after(len(start))
    before, layer = {}, {start: (bound, order, len(after) - 1)}
    states = 1
    yield order, 0
    for d in range(1, depth + 1):
        allowed, parity = 2 * depth - d, d % 2
        nxt = {}
        for row, (bound, order, last) in layer.items():
            if states > MAX_ROWS:
                raise CapacityError(f"the balanced search reached its budget of {MAX_ROWS:,} "
                                    "rows; the pairing is too large to decide exactly")
            for i in after[last]:
                a, b = row[i], row[i + 1]
                if a and b:
                    c = bound + 1 if a < b else bound - 1
                    if c > allowed:
                        continue
                    y = row[:i] + _SWAPPED[a][b] + row[i + 2:]
                    if y in before or y in nxt:
                        continue
                    o = y.replace(b"\0", b"")
                else:
                    c, t = bound, a or b
                    u = partner[t]
                    if u:  # t passes a blank: its pair's blank gap moves by one
                        p, j = (i if a else i + 1), row.index(u)  # t's and u's positions
                        if (t > u) == (p < j):  # the pair is crossed
                            gap = row.count(0, p + 1, j) if p < j else row.count(0, j + 1, p)
                            if (p < j) == bool(a):  # t moves toward u
                                c -= gap <= absent[t]
                            else:
                                c += gap < absent[t]
                    if c > allowed:
                        continue
                    y = row[:i] + _SWAPPED[a][b] + row[i + 2:] if t else row
                    if y in before or y in nxt:
                        continue
                    o = order
                states += 1
                nxt[y] = c, o, i
                yield o, parity
        before, layer = layer, nxt


def solve_balancedsort(inst: BalancedSortInstance) -> bool:
    """Decide whether equally many inversions on each side, within the
    budget, can make the pairing order preserving.

    Inversions here are the adjacent transpositions of the linear order,
    without the wraparound.  One layered search over image rows, a
    layer's parity its depth's, runs per side, pruned by a bound that
    counts each crossing and the blanks inside it, and the two meet on
    the order of the defined pairs (see the comment above _reached); a
    pairing that is its own inverse is searched once for both sides.
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
