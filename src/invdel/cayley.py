"""The count of the partial-permutation monoid on n points.

Elements are byte rows (`pperm`): byte i - 1 is the image of i, or 0
when i is undefined.  A product with a generator on the right rewrites
values, one `bytes.translate`: an inversion's table from `_value_swaps`,
or the partial identity's, which maps n to 0.

`enumerate_monoid(n)` counts the square monoid on n points, generated by
the circular adjacent inversions together with the partial identity on
{1..n-1}: the number of elements a breadth-first closure from the
identity reaches under right products, checked against the closed form
`monoid_size(n)`.  The closure keeps a seen set and the current layer,
and is capped at `MAX_ENUM` points.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .pperm import _check_int, _value_swaps

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

