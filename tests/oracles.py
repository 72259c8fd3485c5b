"""The tests' independent routes to two answers the package computes: the
alignment cost of a pairing and the equal-sum split of a multiset.

Neither is called by the CLI or the package; each reaches its number
another way than the code it checks, and the tests hold the two together.

`solve_pair_via_cayley` is the class-graph route to the alignment cost
`mu`: a breadth-first search in the Cayley graph of the pairing's rank
class, walked from the pairing's own row with an edge for each inversion
composed on either side.  A product with an inversion on the left swaps
two positions (`_swap_positions`); one on the right rewrites values, one
`bytes.translate` with a `_value_swaps` table.  A row is a target when its
defined images read in a cyclic order (`row_is_popi`).  It shares the
monoid count's cap, `cayley.MAX_ENUM`.

`partition_brute` decides an equal split by a bitset scan over the
reachable sums, where `partition_witness` keeps one subset per sum.  It
refuses the multisets the package's split helpers refuse
(`npc._split_multiset`).
"""
from collections.abc import Sequence

from invdel import CapacityError, PartialPerm
from invdel.cayley import MAX_ENUM
from invdel.npc import _split_multiset
from invdel.pperm import _swap_pairs, _swap_positions, _value_swaps, row_is_popi


def solve_pair_via_cayley(sigma: PartialPerm) -> int:
    """The alignment cost of a pairing, by breadth-first search in the
    Cayley graph of its rank class.

    The search starts at the pairing's own m-by-n row; a row's neighbours
    are its products with an inversion on m points on the left and with
    one on n points on the right.  Inversions are permutations, so every
    product keeps the rank.  The cost is the depth of the first row that
    reads in a cyclic order.
    """
    m, n = sigma.m, sigma.n
    if max(m, n) > MAX_ENUM:
        raise CapacityError(f"the class-graph route supports up to {MAX_ENUM} regions, "
                            f"got {max(m, n)}")
    lefts, rights = _swap_pairs(m), _value_swaps(n)
    seen, layer = {sigma.image_row}, {sigma.image_row}
    depth = 0
    while layer:
        if any(map(row_is_popi, layer)):
            return depth
        depth += 1
        layer = ({_swap_positions(x, a, b) for x in layer for a, b in lefts}
                 | {x.translate(table) for x in layer for table in rights}) - seen
        seen |= layer
    raise AssertionError("every rank class contains orientation-preserving elements")


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
