"""Region alignment: fewest adjacent inversions until shared regions agree.

Given the pairing of shared regions between two frames, the solver looks
for the cheapest way to multiply on the left (inversions of the first
genome) and on the right (inversions of the second) until the pairing is
orientation preserving, i.e. the shared regions sit in the same clockwise
cyclic order on both circles.  The answer, `AlignmentSolution`, holds the
cost; its witness, the move sequence kept as one inversion word per side,
is built when first read.  The pairing it ends at is not kept.

The default engine (`solve_sources`, with `solve_pair` its one-source
case) takes one of two routes.  When one genome's regions contain the
other's (every source has full rank, min(m, n) >= 1) it needs no search;
see "Full rank" below.  Otherwise it deepens (Korf, 1985): for k = 0, 1,
2, ... it tries the sources in the order given, and the first source
within k moves of a goal, an orientation-preserving pairing, wins at
cost k.  States are byte rows (`pperm`): a left move swaps two
positions, and a right move, which swaps two values, is one
`bytes.translate` with a `_value_swaps` table.

A state is a goal when its defined images, read in position order, have
at most one cyclic descent; a move changes that count by at most one, so
a state with d descents is at least d - 1 moves away.  The search counts
each source's descents once.  At each k a goal source wins at cost k, a
source with more than k + 1 descents is skipped, and from any other a
depth-first descent looks for a path to a goal within k moves.  From
k = 2 on the descent also prunes by the compressed closed form: drop the
empty positions and values, relabel the r shared values 1..r, and take
the least of the r rotation costs of "Full rank" below (r >= 3 past the
descent prune).
This is the admissible bound of A* (Hart, Nilsson and Raphael, 1968): it
is 0 exactly on goals, and a move changes it by at most one, because a
move with two defined endpoints is a move of the compressed row, and one
with an empty endpoint leaves that row as it is or turns it cyclically
(only across the wraparound), which changes no least rotation cost.  On
a full-rank pairing the bound is exact ("Full rank" below).  A search
memoises the bound by the defined images and by its relabelled row.

Past the prunes the descent skips three kinds of move, chosen by its last
move alone: that move again, a left move after a right one, and a move
of the same side with a smaller code whose positions (left) or values
(right) are disjoint from the last move's.  This is duplicate pruning by
an operator order (Taylor and Korf, AAAI 1993), and it keeps the answer
of the tie rule below.  Left and right products commute, and so do two
moves of one side on disjoint pairs; swapping an adjacent commuting pair
that is out of code order keeps a sequence's length and its end, and
makes it lexicographically smaller, and a move made twice in a row
undoes itself.  So the least shortest sequence takes no skipped move,
and the descent still meets it first.  `_allowed_moves` lists the moves
allowed after each last move, and at a source, once per (m, n).

The descent tests each child before it builds it, by the descent count
the parent carries to it (`_carried`).  A left move with one empty
endpoint, and a right move that renames a value to its absent
neighbour, keep the defined images' cyclic order, and so the count.  A
left move of two defined images changes only the three comparisons
around them; a right move of two present values a and a + 1 only the
comparison of the two, if they are neighbours; the wraparound right
move, which swaps the least and the greatest value, is recounted.  A
move whose endpoints are both empty fixes the state and is skipped.  A
goal child returns at once, and a child past the descent prune is
neither built nor called.  On failure the descent records k as the
largest bound the state failed at, keyed by the state and its last
move, which decides the moves allowed next; a revisit within it fails
at once.  Every answer is exact: the prunes are lower bounds, and a
state that failed at k after a given move has no allowed path of at
most k moves to a goal.  No goal is listed.  The recursion passes
itself as an argument instead of reaching itself through its closure,
so no reference cycle holds the memos: they are freed when the search
returns.

The tie rule is fixed: sources are tried in the order given, and moves
go in code order, the moves of the side with fewer positions before the
other side's (the left side's when m = n; an m > n pairing is solved as
its inverse), then by generator index.  The first source of least cost
wins, and its witness is the path the search found from it.  The descent
takes the first allowed child in code order that succeeds, and k is
exact, so that path is the source's lexicographically least shortest
move sequence (above): the answer of solving every source alone and
keeping the first strict minimum, and that of a layered breadth-first
search seeded with the sources in order (the tests' reference).  A
repeated source needs no care: at every k it is tried after its first
copy has failed, and fails at once, by the same prune or by the failure
memo, so only the first copy can win.  The budget `MAX_STATES` counts
states: each source at each k and each child tested, revisits included;
a source's count is checked with the next child's.  Beyond it the search
raises CapacityError.  The budget bounds states, not time: the time a
state takes varies within one size and grows with the size, so the
budget bounds time only as measured for each size (`MAX_STATES`).

Full rank.  An n-by-n rank-n pairing is orientation preserving exactly
when it is one of the n rotations of the identity, and the fewest moves
to a given rotation is Jerrum's lifted crossing count (TCS 36, 1985).
Position p (0-based) holds the token of value row[p]; rotation c sends it
forward by b_p = (d_p + c) mod n, with d_p = (row[p] - 1 - p) mod n.  On
the line, the k = sum(b) / n tokens of largest b go backwards instead
(b_p - n; ties by position), and the cost is the number of times the
lifted tracks cross, periodic copies included: the sum over p < q of
|floor((y_p - y_q) / n) + 1|, where y_p is where token p's track ends.  A
source costs the least of its n rotation costs, and the first source of
least cost wins.

A pairing of rank min(m, n) takes the same closed form.  After the
mirror m <= n, so the pairing sigma has no empty position, and its
compressed row tau (the bound's, above) is m by m of rank m.  Then
mu(sigma) = mu(tau).  Sigma's left moves are tau's left moves.  A right
move between two used values is a move of tau; one that touches an
unused value only renames a value, or, across the wraparound, turns the
compressed order cyclically; so tau's cost is a lower bound.  And any
solution of tau carries over to the left side alone, by conjugating its
right moves by the target rotation, which keeps circular adjacency.  So
from every state some left move lowers the cost, and sigma's
lexicographically least shortest move sequence is tau's descent below,
all on the left; with m > n it is all on the right, through the mirror.
Only a pairing whose two genomes both have private regions is searched.

`_rotation_costs` counts all n rotations in one O(n^2) pass.  Sort the
tokens once by d, descending, ties by position: at every rotation the
tokens by b are this order turned cyclically, and the ones sent backwards
at rotation c are its first k(0) + c, read cyclically (a whole round
sends every token back, which moves every end by -n and changes no
crossing).  So from c to c + 1 every end moves up by one, which changes
no crossing either, except the next token in order, which also goes back
by n: only its n - 1 terms change, each by one.

The witness, built on first read, is a greedy descent that keeps the tie
rule.  Left moves come first in code order, and from every state some
left move lowers the cost (above), so the descent takes left moves only.
A left move swaps two tokens that are adjacent at the start.  Carried
over to the child, a lift changes only that pair's term, by one; and
every move is a transposition, which flips the parity of every
rotation's cost.  So a move changes each rotation's cost by exactly one,
and it lowers rotation c's cost when the pair's term drops in an optimal
lift of the parent.  Any choice among the tokens tied at the k-th largest
b gives an optimal lift, and these lifts catch every lowering left move
(on every left move with n <= 9; Jerrum's argument gives only that they
are optimal).  `_lowered` tests them all at once in O(1) per move and
rotation, from the two tokens' b and the k-th and (k+1)-th largest b.
Testing the tie-rule lift alone would be sound but misses some lowering
left moves (34,406 move and rotation pairs at n <= 7); its descent gave
the same words on every permutation with n <= 8, but no argument says it
must.  From cost d only a rotation at cost d can reach d - 1, so each
step takes the first move in code order that lowers a kept rotation and
keeps the rotations it lowered; since the costs are exact, that is the
lexicographically least shortest move sequence, the search's answer.

The exhaustive anchor is n <= 8: the kernel equals the plain count (kept
in the tests as the reference) on every permutation there, and its least
cost equals the tests' class table.  On every permutation with n <= 8
each move, left or right, changes each rotation's cost by exactly one,
and with n <= 9 each left move does and lowers just the rotations
`_lowered` names.  The route returns the search's index and solution on
every permutation with n <= 6.  Beyond that it rests on Jerrum's argument
and on drawn checks: the kernel against the reference at n = 9..16, and
the words against a plain greedy descent on the least rotation cost, on
20 seeded permutations each for n = 8..16 and on 5 seeded pairings with
m < n each for n = 8..16, both ways round
(`test_full_rank_words_descend_past_seven_regions`).  With m < n the
route equals the search, in index, cost and words, on 300 seeded pairings
with n <= 10 (`test_full_rank_pairings_are_never_searched`).  The solver
as a whole, full and partial rank, is anchored to the tests' class tables:
its cost and words equal a table's cost and the greedy descent read off
it on every pairing with m, n <= 6, both ways round, and, in a long
test, on every pairing with m <= n = 7.

The default engine is the one route the CLI and the library answer by.
Other routes to the same number serve as checks: a breadth-first search
from the pairing's row through its rank class of the monoid, composing
inversions on either side (`cayley.solve_pair_via_cayley`), and an
iterative-deepening oracle here with its own traversal and its own
orientation test (`mu_oracle`).  The tests add two of their own: a table
per rank class holding the cost of every pairing in it, filled by one
breadth-first search over tuple rows, with the witness read off it by a
greedy descent, and a decomposition into the two circles' separate
distances.  Tests hold them all together.

Minimizing over reference pairs only needs two of the 4mn frame pairs:
rotating either frame conjugates the inversion alphabet (rotations
preserve circular adjacency) and multiplies the pairing by a rotation,
which preserves orientation; reflecting both frames does the same.  So the
cost depends only on whether the second frame is read reflected relative
to the first.  `reference_pairs` returns just those two; the tests keep
the full product as the reference.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import cache, cached_property, partial
from itertools import combinations, count

from .errors import CapacityError, InvalidArgumentError
from .algebra import Generator, Word
from .genome import Genome, ReferenceFrame
from .pperm import (PartialPerm, _ReadOnly, _check_int, _descents, _swap_pairs, _swap_positions,
                    _value_swaps)

# Most states one partial-rank search may test (module docstring) before
# it gives up with CapacityError; full rank has a closed form.  Random
# pairings of 12 regions sharing 10 or 11 stay well inside it, while 6 of
# ROADMAP's 48 baseline pairs, of 16 regions sharing 13 to 15, reach it
# after 4.5-31 s of CPU each (3.7-26 microseconds a state) on a 2-core
# Xeon VM, at a peak RSS of 75-155 MB.  With the position cap lifted, a
# 24-region refusal took 57 microseconds a state, before move pruning.
MAX_STATES = 1_200_000


class AlignmentSolution(namedtuple("AlignmentSolution", "cost witness"), _ReadOnly):
    """A minimum alignment: its cost, and its witness, built on first read:
    inversion words L and R with L * sigma * R orientation preserving.

    `witness` is a function of no arguments returning the two words.  The
    class keeps an instance dict, where `cached_property` stores them, so
    `_ReadOnly`, not `__slots__`, refuses assignment."""

    @cached_property
    def _words(self) -> tuple[Word, Word]:
        return self.witness()

    left_inversions = property(lambda self: self._words[0])
    right_inversions = property(lambda self: self._words[1])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AlignmentSolution) and self._words == other._words

    def __ne__(self, other: object) -> bool:  # not tuple's, which compares the fields
        return not self == other

    def __hash__(self) -> int:
        return hash(self._words)

    def __reduce__(self):  # a pickle holds the words, not the function that builds them
        return AlignmentSolution, (self.cost, partial(tuple, self._words))

    def __repr__(self) -> str:
        return f"AlignmentSolution(cost={self.cost!r})"


def _lift(row: Sequence[int]) -> tuple[list[int], list[int], int]:
    """The shape of every rotation's lift of a full-rank row (module
    docstring): each token's displacement d_p at rotation 0, the tokens by
    d descending with ties by position, and k, the number sent backwards
    at rotation 0."""
    n = len(row)
    d = [(v - 1 - p) % n for p, v in enumerate(row)]
    return d, sorted(range(n), key=d.__getitem__, reverse=True), sum(d) // n


def _rotation_costs(row: Sequence[int]) -> list[int]:
    """Fewest cyclic adjacent swaps taking a full-rank row to each of its
    n rotations, in one O(n^2) pass (module docstring)."""
    n = len(row)
    d, order, k = _lift(row)
    y = [p + dp for p, dp in enumerate(d)]
    for p in order[:k]:
        y[p] -= n
    # p - q lies in (-n, 0) and y_p - y_q is no multiple of n, so the count
    # of multiples between them is the gap between their floors
    cost = sum(abs((yp - yq) // n + 1) for yp, yq in combinations(y, 2))
    costs = [cost]
    # from each rotation to the next every end moves up by one, which
    # changes no crossing, and the next token j in order also goes back by
    # n: each of its n - 1 terms moves by one, up when the partner's copy
    # that begins within n positions after j ends above j, down otherwise
    for j in (order[k:] + order[:k])[:-1]:
        yj = y[j]
        above = sum(map(yj.__lt__, y[j + 1:])) + sum(map((yj - n).__lt__, y[:j]))
        cost += 2 * above - n + 1
        y[j] = yj - n
        costs.append(cost)
    return costs


def _lowered(row: Sequence[int], rotations: Sequence[int]) -> Iterator[tuple[int, int, int, list[int]]]:
    """For each left move in code order, its code, the positions x and z
    of its two tokens, and the rotations among `rotations` whose cost it
    lowers, by one; it raises the others' by one.  Right moves are not
    listed: from every full-rank state some left move lowers the cost
    (module docstring), so the descent never reaches one.

    The move's two tokens x and z are adjacent at their start positions (x
    begins one behind z), and it lowers rotation c's cost exactly when
    their tracks cross in some optimal lift (module docstring).  With
    m = 1 for a token sent backwards, they cross when b_x - b_z - 1 -
    n (m_x - m_z) is positive: always when x goes forwards and z
    backwards, never the other way round, and when the two go the same
    way exactly when b_x > b_z (b_x - b_z is never 1).  In an optimal lift
    a token can go backwards when its b is at least the k-th largest,
    `top`, and forwards when it is at most the (k+1)-th largest, `bot`;
    both only in a tie.  So each test is O(1).
    """
    n = len(row)
    d, order, k = _lift(row)
    # top is 0 only when k is, at the rotation the row already is; then no
    # token can go backwards
    bounds = [(c, (d[order[(k + c - 1) % n]] + c) % n or n, (d[order[(k + c) % n]] + c) % n)
              for c in rotations]
    for code, (x, z) in enumerate(_swap_pairs(n)):
        dx, dz = d[x], d[z]
        lowered = []
        for c, top, bot in bounds:
            bx, bz = (dx + c) % n, (dz + c) % n
            # b_x <= b_z: x forwards, z backwards; otherwise anything but
            # x forced backwards and z forced forwards
            if (bx <= bot and bz >= top) if bx <= bz else (bx <= bot or bz >= top):
                lowered.append(c)
        yield code, x, z, lowered


def _solution(m: int, n: int, codes: list[int]) -> tuple[Word, Word]:
    """The words of a move sequence, given in chronological code order.
    The search's paths hold both sides' codes; the full-rank descent's
    only left ones, so its right word is empty."""
    lefts = len(_swap_pairs(m))
    left_chrono = [c + 1 for c in codes if c < lefts]
    right_chrono = [c - lefts + 1 for c in codes if c >= lefts]
    left_word = Word([Generator.inversion(gi, m) for gi in reversed(left_chrono)], m)
    right_word = Word([Generator.inversion(gi, n) for gi in right_chrono], n)
    return left_word, right_word


def _solve_full_rank(sources: Sequence[PartialPerm]) -> tuple[int, AlignmentSolution]:
    """`solve_sources` for m-by-n rank-m sources with 1 <= m <= n, without
    a search.

    A source costs the least of the m rotation costs of its compressed
    row, all found in one pass, and the first source of least cost wins.
    Its witness, built when first read, descends greedily on that row:
    each step takes the first move in code order that lowers a rotation
    still at the minimum, and keeps only the rotations it lowered.  Every
    move lowers or raises each rotation's cost by exactly one, and
    `_lowered` tells which in O(1) per rotation, so no child's cost is
    counted again.  The descent moves the left side alone, whose moves
    are the source's own left moves (module docstring).
    """
    m, n = sources[0].m, sources[0].n
    best = None
    for index, sigma in enumerate(sources):
        row = _relabelled(sigma.image_row) if m < n else sigma.image_row
        costs = _rotation_costs(row)
        cost = min(costs)
        if best is None or cost < best[0]:
            best = cost, index, row, [c for c in range(m) if costs[c] == cost]
    cost, index, start, cheapest = best

    def witness() -> tuple[Word, Word]:
        codes, row, kept = [], start, cheapest
        for _ in range(cost):
            for code, x, z, lowered in _lowered(row, kept):
                if lowered:
                    break
            else:
                raise AssertionError("a move always lowers some cheapest rotation")
            kept = lowered
            row = _swap_positions(row, x, z)
            codes.append(code)
        return _solution(m, n, codes)
    return index, AlignmentSolution(cost, witness)


def _relabelled(values: Sequence[int]) -> bytes:
    """Distinct values replaced by their ranks 1..r, in the same order."""
    rank = dict(zip(sorted(values), range(1, len(values) + 1)))
    return bytes(map(rank.__getitem__, values))


@cache  # the searches on m-by-n rows share one set of lists
def _allowed_moves(m: int, n: int) -> tuple[tuple[tuple[int, int, int, bytes | None], ...], ...]:
    """The moves the descent may take after each last move, indexed by its
    code, with one more entry, for a source, holding every move.  A move
    is (code, a, b, table): a left move swaps positions a and b and has no
    table; a right move swaps values a and b with its `_value_swaps`
    table.  After a move the descent skips that move again, every left move
    after a right one, and a move of the same side with a smaller code on
    disjoint positions (left) or values (right) (module docstring)."""
    lefts = [(code, a, b, None) for code, (a, b) in enumerate(_swap_pairs(m))]
    rights = [(code, a + 1, b + 1, table) for code, (a, b), table
              in zip(count(len(lefts)), _swap_pairs(n), _value_swaps(n))]
    allowed = []
    for side in lefts, rights:
        for last, a, b, _ in side:
            same = tuple(move for move in side if move[0] > last
                         or move[0] < last and {a, b} & {move[1], move[2]})
            allowed.append(same + tuple(rights) if side is lefts else same)
    allowed.append(tuple(lefts + rights))
    return tuple(allowed)


def _carried(row: bytes, values: bytes, drops: int, a: int, b: int,
             table: bytes | None) -> int | None:
    """The descent count of a move's child, from its parent's: the row,
    its defined images `values` and their `drops` descents, at least two
    (so three or more images), as on every row the search expands.  The
    move is one of `_allowed_moves`; None when it fixes the row.  Only a
    move that exchanges two neighbours in the cyclic order of the defined
    images can change the count, and only at the comparisons next to
    them."""
    if table is None:
        x, y = row[a], row[b]
        if x and y:
            # x and y sit next to each other in `values` too, so only the
            # three comparisons around them change
            r = len(values)
            i = values.index(x)
            before, after = values[i - 1], values[(i + 2) % r]
            return (drops + (before > y) + (y > x) + (x > after)
                    - (before > x) - (x > y) - (y > after))
        # one empty endpoint moves a defined image past no other; two
        # fix the row
        return drops if x or y else None
    if a in values and b in values:
        if a < b:
            # no value lies between a and b, so only a comparison of the
            # two with each other changes
            r = len(values)
            i = values.index(a)
            return drops + (values[(i + 1) % r] == b) - (values[i - 1] == b)
        # the wraparound move swaps the least and the greatest value
        return _descents(values.translate(table))
    # a value renamed to its absent neighbour keeps its place in the
    # cyclic order; two absent values fix the row
    return drops if a in values or b in values else None


def _search_sources(sources: Sequence[PartialPerm]) -> tuple[int, AlignmentSolution]:
    """`solve_sources` for m <= n by iterative deepening (module docstring):
    the first source with a path to a goal within the least k wins, and
    the first path found from it is the witness."""
    m, n = sources[0].m, sources[0].n
    allowed = _allowed_moves(m, n)
    root = len(allowed) - 1
    # the largest k each (row, last move code) failed at, and each row's
    # compressed bound
    failed: dict[tuple[bytes, int], int] = {}
    bounds: dict[bytes, int] = {}
    tested = 0

    # `descend` is passed itself rather than read from a closure cell, so
    # no cycle holds the memos: they go when the search returns.  It
    # returns None when no goal lies within k moves of the row, and
    # otherwise the codes of the moves to the first goal found, last first
    def descend(descend, row: bytes, drops: int, k: int, last: int) -> list[int] | None:
        # the row is no goal, and k passed its descent prune
        nonlocal tested
        if failed.get((row, last), -1) >= k:
            return None
        values = row.replace(b"\0", b"")
        if k >= 2:
            bound = bounds.get(values)
            if bound is None:
                # keyed by both rows: defined images in the same
                # relative order share a relabelled row, hence a bound
                relabelled = _relabelled(values)
                bound = bounds.get(relabelled)
                if bound is None:
                    bound = bounds[relabelled] = min(_rotation_costs(relabelled))
                bounds[values] = bound
            if bound > k:
                return None
        for code, a, b, table in allowed[last]:
            child = _carried(row, values, drops, a, b, table)
            if child is None:
                continue
            tested += 1
            if tested > MAX_STATES:
                raise CapacityError(f"the alignment search reached its budget of {MAX_STATES:,} "
                                    "states tested; the pairing is too large to solve exactly")
            if child <= 1:
                return [code]
            # the descent prune: the child is at least child - 1 moves
            # from a goal, and has k - 1 left
            if child > k:
                continue
            path = descend(descend, _swap_positions(row, a, b) if table is None
                           else row.translate(table), child, k - 1, code)
            if path is not None:
                path.append(code)
                return path
        failed[row, last] = k
        return None

    roots = [(row, _descents(row.replace(b"\0", b""))) for row in (s.image_row for s in sources)]
    for cost in count():
        for index, (row, drops) in enumerate(roots):
            tested += 1  # checked against the budget with the next child's count
            if drops <= 1:
                path = []
            elif drops - 1 > cost:
                continue
            else:
                path = descend(descend, row, drops, cost, root)
            if path is not None:
                return index, AlignmentSolution(cost, partial(_solution, m, n, path[::-1]))


def solve_sources(sources: Sequence[PartialPerm]) -> tuple[int, AlignmentSolution]:
    """The cheapest alignment over the source pairings (module docstring).

    Returns the index of the winning source and its solution: the first
    source of least cost, with its lexicographically least shortest move
    sequence (the side with fewer positions moves first, the left one when
    m = n, then by index), exactly what solving each source alone and
    keeping the first strict minimum gives.
    A repeated source can only win under its first index.
    """
    if not sources:
        raise InvalidArgumentError("the search needs at least one source pairing")
    m, n = sources[0].m, sources[0].n
    if any((s.m, s.n) != (m, n) for s in sources):
        raise InvalidArgumentError("source pairings must all be m-by-n for one m and n")
    if m > n:
        index, mirror = solve_sources([s.inverse() for s in sources])
        return index, AlignmentSolution(mirror.cost, lambda: (
            Word(reversed(mirror.right_inversions.letters), m),
            Word(reversed(mirror.left_inversions.letters), n)))
    if m >= 1 and all(s.rank == m for s in sources):
        return _solve_full_rank(sources)
    return _search_sources(sources)


def solve_pair(sigma: PartialPerm) -> AlignmentSolution:
    """Minimum inversions (left on the m side, right on the n side) making
    the pairing orientation preserving, with a lexicographically least
    shortest move sequence (the side with fewer positions moves first, the
    left one when m = n, then by index).
    """
    return solve_sources([sigma])[1]


def mu_oracle(sigma: PartialPerm, depth_cap: int) -> int | None:
    """Independent check of the alignment cost by exhaustive deepening.

    Tries every split of every total length up to the cap, enumerating
    left words then right words (any interleaving is equivalent to one of
    this shape because left and right multiplications commute).  Returns
    the exact minimum, or None when it exceeds the cap.
    """
    _check_int("depth cap", depth_cap, 0)
    m, n = sigma.m, sigma.n
    left_pairs, right_tables = _swap_pairs(m), _value_swaps(n)

    def cyclic(row: bytes) -> bool:
        images = [v for v in row if v]
        k = len(images)
        drops = 0
        for t in range(k):
            if images[t] > images[(t + 1) % k]:
                drops += 1
                if drops > 1:
                    return False
        return True

    def rights(row: bytes, b: int) -> bool:
        if b == 0:
            return cyclic(row)
        return any(rights(row.translate(table), b - 1) for table in right_tables)

    def lefts(row: bytes, a: int, b: int) -> bool:
        if a == 0:
            return rights(row, b)
        return any(lefts(_swap_positions(row, p, q), a - 1, b) for p, q in left_pairs)

    for total in range(depth_cap + 1):
        for a in range(total + 1):
            if lefts(sigma.image_row, a, total - a):
                return total
    return None


def reference_pairs(g1: Genome, g2: Genome) -> list[tuple[ReferenceFrame, ReferenceFrame]]:
    """The canonical frame of the first genome against the canonical and
    the reflected-canonical frame of the second; the two are one pair
    when the second genome has one region, and the first wins the tie."""
    c1, c2 = g1.canonical, g2.canonical
    return [(c1, c2), (c1, ReferenceFrame(c2.tokens[::-1]))]

