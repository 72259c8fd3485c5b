"""Region alignment: fewest adjacent inversions until shared regions agree.

Given the pairing of shared regions between two frames, the solver looks
for the cheapest way to multiply on the left (inversions of the first
genome) and on the right (inversions of the second) until the pairing is
orientation preserving, i.e. the shared regions sit in the same clockwise
cyclic order on both circles.

The default engine (`solve_sources`, with `solve_pair` its one-source
case) takes one of two routes.  When the two genomes have the same regions
(every source is n by n of rank n) it needs no search; see "Full rank"
below.  Otherwise it runs one search seeded with every candidate pairing
at once.  All sources of one genome pair lie in the same rank class, so
the cheapest goal reached is the cheapest over all of them.  States are
ints packing the image row and then its inverse, 4 bits per field (5 at
n = 16), so a move is a few shifts and xors.

The search has two phases.  The forward phase is a layered breadth-first
search from the sources, and only a state with exactly two cyclic descents
tests its children for the goal.  It runs while its frontier is smaller
than the goal set, whose size C(m,r) C(n,r) r is known without listing it,
so cheap searches never pay for the goals.  Then the goals are listed and
grown into a reverse ball holding each state's exact distance h* to the
nearest goal, and the search always expands the smaller frontier.  With
forward layers 0..t and the ball of radius b complete, every sequence of
at most t + b moves to a goal passes through a state in both; so the first
time the two share a state, after t or b grew by one, the cost is t + b.

The tie rule is fixed: sources are seeded in the order given (repeats
dropped, the first copy kept), each state tries left moves before right
ones, then by generator index.  On a tie the earliest source of least cost
wins, with its lexicographically least shortest move sequence: the same
answer as solving every source alone and keeping the first strict minimum.
The bidirectional phase keeps it.  Every cheapest sequence passes through
forward layer t at a state x with h*(x) = b; discovery order within a
layer is lexicographic on (source index, moves), so the first such x in
layer t carries the least prefix, and from x the suffix takes, at each
step, the first move whose child is one step closer.  The search holds at
most `MAX_STATES` states and raises CapacityError beyond that.

Full rank.  An n-by-n rank-n pairing is orientation preserving exactly
when it is one of the n rotations of the identity, and the fewest moves
to a given rotation has a closed form (`_rotation_cost`, Jerrum's lift).
A source costs the least of its n rotation costs, and the first source
of least cost wins.  The witness comes from a greedy descent that keeps
the tie rule.  A move changes each rotation's cost by at most one, so
from cost d only a rotation at cost d can reach d - 1, and a child lies on
a shortest path exactly when one of those rotations costs d - 1 there.
Each step takes the first such move in code order and keeps the rotations
it lowered; since the costs are exact, that is the lexicographically least
shortest move sequence, the search's answer.  The exhaustive anchor is
n <= 8: the closed form equals the class table on every permutation
there, the one-step bound holds on every permutation with n <= 7, and
the route returns the search's index and solution on every permutation
with n <= 6.  Beyond that it rests on Jerrum's argument and seeded checks
against the search.

The cayley engine reads the same number from a per-class table
(`cayley.class_cost`), filled by its own search over tuple rows.  Two more
routes serve as checks: a breadth-first search inside the pairing's rank
class of the enumerated monoid (`cayley.solve_pair_via_cayley`), and an
iterative-deepening oracle here with its own traversal and its own
orientation test.  Tests hold all four together.

Minimizing over reference pairs only needs two of the 4mn frame pairs:
rotating either frame conjugates the inversion alphabet (rotations
preserve circular adjacency) and multiplies the pairing by a rotation,
which preserves orientation; reflecting both frames does the same.  So the
cost depends only on whether the second frame is read reflected relative
to the first.  `reference_pairs` returns just those two; the tests keep
the full product as the reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import CapacityError, InvalidArgumentError
from .algebra import Generator, Word
from .cayley import _swap_pairs, _swap_positions, _swap_values, class_costs
from .genome import Genome, ReferenceFrame
from .pperm import PartialPerm, sigma_from_frames

ImageRow = tuple[int, ...]

# Most states (forward tree and reverse ball together) one search may hold
# before it gives up with CapacityError.  Only partial ranks search; full
# rank has a closed form.  Neither side can outgrow its rank class, so no
# pairing of at most 8 regions (largest class: 8 by 8, rank 6, 564,480
# states) comes near it, while most random 11-region pairings of rank 10
# reach it.
MAX_STATES = 1_200_000


@dataclass(frozen=True)
class AlignmentSolution:
    """A witnessing minimum: inversion words for each side plus the
    orientation-preserving pairing they produce."""

    cost: int
    left_inversions: Word
    right_inversions: Word
    witness: PartialPerm

    def __post_init__(self):
        assert self.cost == len(self.left_inversions) + len(self.right_inversions)


def _pack(sigma: PartialPerm, width: int) -> int:
    """The image row followed by the inverse row, `width` bits per field."""
    state = 0
    for i, v in enumerate(sigma.image_row + sigma.inverse().image_row):
        state |= v << (width * i)
    return state


@lru_cache(maxsize=None)  # at most one entry per (m, n) up to MAX_POSITIONS
def _moves(m: int, n: int, width: int) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
    """(code, shift, shift, xor table) per move, left moves first.

    A move swaps the two fields at the given shifts; the table then fixes
    the other half of the state: for a left move (swap two positions) it
    relabels the moved values' entries in the inverse row, for a right
    move (swap two values) the moved positions' entries in the image row.
    Entry 0 of a table is 0, so an empty endpoint needs no fix.
    """
    moves = []
    for a, b in _swap_pairs(m):
        diff = (a + 1) ^ (b + 1)
        fix = (0,) + tuple(diff << (width * (m + v - 1)) for v in range(1, n + 1))
        moves.append((len(moves), width * a, width * b, fix))
    for a, b in _swap_pairs(n):
        diff = (a + 1) ^ (b + 1)
        fix = (0,) + tuple(diff << (width * (p - 1)) for p in range(1, m + 1))
        moves.append((len(moves), width * (m + a), width * (m + b), fix))
    return tuple(moves)


def _apply(state: int, move, mask: int) -> int:
    _code, sa, sb, fix = move
    x = (state >> sa) & mask
    y = (state >> sb) & mask
    t = x ^ y
    return state ^ (t << sa) ^ (t << sb) ^ fix[x] ^ fix[y]


def _descents(state: int, shifts: range, mask: int) -> int:
    """Cyclic descents of the defined images, read off the packed row."""
    first = last = drops = 0
    for shift in shifts:
        v = (state >> shift) & mask
        if v:
            if last > v:
                drops += 1
            elif not first:
                first = v
            last = v
    return drops + (last > first)


def _goal_states(m: int, n: int, r: int, width: int) -> list[int]:
    """Every orientation-preserving packed state of the m-by-n rank-r
    class: r defined positions, r values, and one of the r rotations of
    the values in increasing order, read in position order."""
    # cell[p][v]: the bits of "position p maps to v" in both rows; the cells
    # of one state never overlap, so their sum is the state
    cell = [[v << (width * p) | (p + 1) << (width * (m + v - 1)) for v in range(n + 1)]
            for p in range(m)]
    goals = []
    for positions in combinations(range(m), r):
        rows = [cell[p] for p in positions]
        for values in combinations(range(1, n + 1), r):
            for k in range(r):
                goals.append(sum(map(list.__getitem__, rows, values[k:] + values[:k])))
    return goals


def _over_budget() -> CapacityError:
    return CapacityError(f"the alignment search reached its budget of {MAX_STATES:,} states; "
                         "the pairing is too large to solve exactly")


def _search(frontier: list[int], parent: dict[int, int], moves, shifts: range,
            mask: int, goal_count: int, goals) -> tuple[int, list[int]]:
    """Search from the queued non-goal sources until the cheapest goal.

    Returns the state where the witness leaves the forward tree and the
    move codes that lead from it to its goal.  `goals()` lists the goal
    states, of which there are `goal_count`.
    """
    # h holds, once the ball is grown, the exact distance to the nearest
    # goal of every state within `radius` of one
    h: dict[int, int] = {}
    ball: list[int] = []
    radius = 0
    while frontier:
        if not h and len(frontier) >= goal_count:
            if len(parent) + goal_count > MAX_STATES:
                raise _over_budget()
            ball = goals()
            h = dict.fromkeys(ball, 0)
        if not h or len(frontier) <= len(ball):
            layer, frontier = frontier, []
            push = frontier.append
            room = MAX_STATES - len(h)
            for state in layer:
                if len(parent) >= room:
                    raise _over_budget()
                # before the ball: a move with one empty endpoint keeps the
                # cyclic order of the defined images, and any move changes
                # the descent count by at most one, so only a two-endpoint
                # move out of a state with exactly two descents reaches a goal
                near = not h and _descents(state, shifts, mask) == 2
                for code, sa, sb, fix in moves:  # `_apply`, inlined on the hot path
                    x = (state >> sa) & mask
                    y = (state >> sb) & mask
                    if x == y:  # both endpoints empty: the move fixes the state
                        continue
                    t = x ^ y
                    nxt = state ^ (t << sa) ^ (t << sb) ^ fix[x] ^ fix[y]
                    if nxt in parent:
                        continue
                    parent[nxt] = code
                    if near and x and y and _descents(nxt, shifts, mask) <= 1:
                        return nxt, []
                    if nxt in h:
                        return nxt, _descend(nxt, h, moves, mask)
                    push(nxt)
        else:
            radius += 1
            layer, ball = ball, []
            push = ball.append
            room = MAX_STATES - len(parent)
            for state in layer:
                if len(h) >= room:
                    raise _over_budget()
                for code, sa, sb, fix in moves:
                    x = (state >> sa) & mask
                    y = (state >> sb) & mask
                    if x == y:
                        continue
                    t = x ^ y
                    nxt = state ^ (t << sa) ^ (t << sb) ^ fix[x] ^ fix[y]
                    if nxt not in h:
                        h[nxt] = radius
                        push(nxt)
            if any(state in parent for state in ball):
                meet = next(state for state in frontier if state in h)
                return meet, _descend(meet, h, moves, mask)
    raise AssertionError("every rank class contains orientation-preserving elements")


def _descend(state: int, h: dict[int, int], moves, mask: int) -> list[int]:
    """The lexicographically least shortest move sequence from a state of
    the ball to a goal: each step takes the first move one step closer."""
    codes = []
    for depth in range(h[state] - 1, -1, -1):
        for move in moves:
            nxt = _apply(state, move, mask)
            if h.get(nxt) == depth:
                codes.append(move[0])
                state = nxt
                break
    return codes


def _rotation_cost(row: ImageRow, c: int) -> int:
    """Fewest cyclic adjacent swaps taking a full-rank row to rotation c.

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


def _solution(m: int, n: int, codes: list[int], row: ImageRow) -> AlignmentSolution:
    """The words of a move sequence, given in chronological code order, and
    the goal row it ends at."""
    lefts = len(_swap_pairs(m))
    left_chrono = [c + 1 for c in codes if c < lefts]
    right_chrono = [c - lefts + 1 for c in codes if c >= lefts]
    left_word = Word([Generator.inversion(gi, m) for gi in reversed(left_chrono)], m)
    right_word = Word([Generator.inversion(gi, n) for gi in right_chrono], n)
    return AlignmentSolution(len(codes), left_word, right_word, PartialPerm.from_image(n, row))


def _solve_full_rank(sources: Sequence[PartialPerm]) -> tuple[int, AlignmentSolution]:
    """`solve_sources` for n-by-n rank-n sources, without a search.

    A source costs the least `_rotation_cost` over the n rotations, and the
    first source of least cost wins.  Its witness descends greedily: each
    step takes the first move in code order whose child costs one less on
    a rotation still at the minimum, and keeps only those rotations.
    """
    n = sources[0].n
    best = None
    for index, sigma in enumerate(sources):
        row = sigma.image_row
        costs = [_rotation_cost(row, c) for c in range(n)]
        cost = min(costs)
        if best is None or cost < best[0]:
            best = cost, index, row, [c for c in range(n) if costs[c] == cost]
    cost, index, row, kept = best
    pairs = _swap_pairs(n)
    moves = ([(_swap_positions, a, b) for a, b in pairs]
             + [(_swap_values, a + 1, b + 1) for a, b in pairs])
    codes = []
    while cost:
        for code, (swap, a, b) in enumerate(moves):
            child = swap(row, a, b)
            closer = [c for c in kept if _rotation_cost(child, c) == cost - 1]
            if closer:
                break
        else:
            raise AssertionError("a move always brings some cheapest rotation one step closer")
        codes.append(code)
        row, kept, cost = child, closer, cost - 1
    return index, _solution(n, n, codes, row)


def _search_sources(sources: Sequence[PartialPerm]) -> tuple[int, AlignmentSolution]:
    """`solve_sources` for m <= n by the packed search (module docstring)."""
    m, n = sources[0].m, sources[0].n
    width = 4 if n < 16 else 5
    mask = (1 << width) - 1
    shifts = range(0, width * m, width)
    moves = _moves(m, n, width)
    # parent maps a state to the move that reached it; a move is its own
    # inverse, so the path back is replayed from the codes alone.  Sources
    # map to -1 - index.
    parent: dict[int, int] = {}
    frontier: list[int] = []
    meet, suffix = None, []
    for index, sigma in enumerate(sources):
        state = _pack(sigma, width)
        if state in parent:
            continue
        parent[state] = -1 - index
        if _descents(state, shifts, mask) <= 1:
            meet = state
            break
        frontier.append(state)
    if meet is None:
        # moves keep the rank, so the goals are those of the sources' ranks
        ranks = sorted({s.rank for s in sources})
        meet, suffix = _search(
            frontier, parent, moves, shifts, mask,
            sum(comb(m, r) * comb(n, r) * r for r in ranks),
            lambda: [g for r in ranks for g in _goal_states(m, n, r, width)])

    codes = []
    at = meet
    while (code := parent[at]) >= 0:
        codes.append(code)
        at = _apply(at, moves[code], mask)
    codes.reverse()
    codes += suffix
    goal = meet
    for code in suffix:
        goal = _apply(goal, moves[code], mask)
    row = tuple((goal >> shift) & mask for shift in shifts)
    return -1 - parent[at], _solution(m, n, codes, row)


def solve_sources(sources: Sequence[PartialPerm]) -> tuple[int, AlignmentSolution]:
    """The cheapest alignment over the source pairings (module docstring).

    Returns the index of the winning source and its solution: the first
    source of least cost, with its lexicographically least shortest move
    sequence (left moves order before right, then by index), exactly what
    solving each source alone and keeping the first strict minimum gives.
    A repeated source can only win under its first index.
    """
    if not sources:
        raise InvalidArgumentError("the search needs at least one source pairing")
    m, n = sources[0].m, sources[0].n
    if any((s.m, s.n) != (m, n) for s in sources):
        raise InvalidArgumentError("source pairings must all be m-by-n for one m and n")
    if m > n:
        index, mirror = solve_sources([s.inverse() for s in sources])
        return index, AlignmentSolution(
            mirror.cost,
            Word(tuple(reversed(mirror.right_inversions.letters)), m),
            Word(tuple(reversed(mirror.left_inversions.letters)), n),
            mirror.witness.inverse(),
        )
    if m == n and all(s.rank == n for s in sources):
        return _solve_full_rank(sources)
    return _search_sources(sources)


def solve_pair(sigma: PartialPerm) -> AlignmentSolution:
    """Minimum inversions (left on the m side, right on the n side) making
    the pairing orientation preserving, with a lexicographically least
    shortest move sequence (left moves order before right, then by index).
    """
    return solve_sources([sigma])[1]


def mu_oracle(sigma: PartialPerm, depth_cap: int) -> int | None:
    """Independent check of the alignment cost by exhaustive deepening.

    Tries every split of every total length up to the cap, enumerating
    left words then right words (any interleaving is equivalent to one of
    this shape because left and right multiplications commute).  Returns
    the exact minimum, or None when it exceeds the cap.
    """
    if depth_cap < 0:
        raise InvalidArgumentError("depth cap must be >= 0")
    m, n = sigma.m, sigma.n
    start = sigma.image_row
    left_pairs = _swap_pairs(m)
    right_values = [(a + 1, b + 1) for a, b in _swap_pairs(n)]

    def cyclic(row: ImageRow) -> bool:
        images = [v for v in row if v]
        k = len(images)
        if k <= 1:
            return True
        drops = 0
        for t in range(k):
            if images[t] > images[(t + 1) % k]:
                drops += 1
                if drops > 1:
                    return False
        return True

    def rights(row: ImageRow, b: int) -> bool:
        if b == 0:
            return cyclic(row)
        return any(rights(_swap_values(row, u, v), b - 1) for u, v in right_values)

    def lefts(row: ImageRow, a: int, b: int) -> bool:
        if a == 0:
            return rights(row, b)
        return any(lefts(_swap_positions(row, p, q), a - 1, b) for p, q in left_pairs)

    for total in range(depth_cap + 1):
        for a in range(total + 1):
            if lefts(start, a, total - a):
                return total
    return None


def reference_pairs(g1: Genome, g2: Genome) -> list[tuple[ReferenceFrame, ReferenceFrame]]:
    """The canonical frame of the first genome against the canonical and
    the reflected-canonical frame of the second (the reflection is dropped
    when it is the same frame)."""
    c1, c2 = g1.canonical, g2.canonical
    pairs = [(c1, c2)]
    flipped = ReferenceFrame(c2.tokens[::-1])
    if flipped != c2:
        pairs.append((c1, flipped))
    return pairs


def min_over_reference_pairs(
    g1: Genome,
    g2: Genome,
    engine: str = "onthefly",
    cache_dir=None,
) -> tuple[tuple[ReferenceFrame, ReferenceFrame], AlignmentSolution]:
    """Minimize the alignment cost over reference pairs of the two genomes.

    Only the pairs of `reference_pairs` are tried; the module docstring
    says why they reach the minimum over every frame pair.  The on-the-fly
    engine searches them at once; the cayley engine looks each pair's cost
    up in its class table and then solves the winner once for its witness.
    Either way the first pair of least cost wins.
    """
    if engine not in ("onthefly", "cayley"):
        raise InvalidArgumentError(f"unknown engine {engine!r}")
    pairs = reference_pairs(g1, g2)
    sigmas = [sigma_from_frames(f1, f2) for f1, f2 in pairs]
    if engine == "onthefly":
        index, solution = solve_sources(sigmas)
        return pairs[index], solution
    costs = class_costs(sigmas, cache_dir)
    index = costs.index(min(costs))
    solution = solve_pair(sigmas[index])
    assert solution.cost == costs[index]
    return pairs[index], solution
