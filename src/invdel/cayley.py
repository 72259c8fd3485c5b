"""Cayley graphs of partial permutations: the count of the monoid and the
Cayley-graph route to the alignment cost.

Elements are byte rows (`pperm`): byte i - 1 is the image of i, or 0
when i is undefined.  A row is a target when its defined images read in
a cyclic order (`row_is_popi`).  A product with an inversion on the left
swaps two positions (`_swap_positions`); one on the right rewrites
values, one `bytes.translate` with a `_value_swaps` table.

`enumerate_monoid(n)` counts the square monoid on n points, generated by
the circular adjacent inversions together with the partial identity on
{1..n-1}: the number of elements a breadth-first closure from the
identity reaches under right products, checked against the closed form
`monoid_size(n)`.

`solve_pair_via_cayley` is one of the routes to the alignment cost `mu`:
a breadth-first search in the Cayley graph of the pairing's rank class,
walked from the pairing's own row with an edge for each inversion
composed on either side.  The CLI and the library answer by the default
engine, `align.solve_sources`; this route, the deepening oracle
`align.mu_oracle`, and the tests' own class tables and circle
decomposition each reach the same number another way, and the tests hold
them together.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .errors import CapacityError
from .pperm import (PartialPerm, _check_int, _swap_pairs, _swap_positions, _value_swaps,
                    row_is_popi)

# |I_8| is already 1.4M elements; anything larger is hopeless here.
MAX_ENUM = 8


def monoid_size(n: int) -> int:
    """Closed-form element count: sum over ranks of C(n,r)^2 r!."""
    _check_int("monoid size", n, 0)
    return sum(comb(n, r) ** 2 * factorial(r) for r in range(n + 1))


def _image_rows(n: int) -> set[bytes]:
    """The byte rows that a breadth-first closure from the identity reaches
    under right products by the generators of the monoid on n points:
    the inversions, and the partial identity on {1..n-1}, which maps the
    value n to 0 (undefined)."""
    tables = _value_swaps(n) + (bytes(range(n)) + b"\0" + bytes(range(n + 1, 256)),)
    identity = bytes(range(1, n + 1))
    seen, layer = {identity}, [identity]
    while layer:
        new = []
        for x in layer:
            for table in tables:
                y = x.translate(table)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        layer = new
    return seen


# one count per n: a second `verify --enumerate` in a process is free.  Typed,
# so a cached count for 1 does not answer True without the check
@lru_cache(maxsize=None, typed=True)
def enumerate_monoid(n: int) -> int:
    """The number of elements of the partial-permutation monoid on n
    points that a breadth-first closure from the identity reaches."""
    _check_int("monoid size", n, 1, MAX_ENUM)
    return len(_image_rows(n))


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
