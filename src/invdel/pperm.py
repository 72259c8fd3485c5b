"""Partial permutations between finite position sets.

A partial permutation maps a subset of {1, ..., m} injectively into
{1, ..., n}.  Maps are written on the right and composed left to right:
``(f * g)(i) == g(f(i))``.  All positions are 1-based at the interface;
internally the image is a tuple of length m whose entry for position i is
either a value in 1..n or 0 for "undefined".

The alignment searches and the monoid closure walk the same row as bytes,
one byte per position, and move it with two helpers: `_swap_positions`,
the product with an inversion on the left, and the `_value_swaps`
tables, the product with one on the right.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import cache

from .errors import CapacityError, InvalidArgumentError

# The exact algorithms are only practical for small sizes; reject anything
# larger outright rather than letting searches run away.
MAX_POSITIONS = 16


def _descents(values: Sequence[int]) -> int:
    """Cyclic descents of the defined images, in position order."""
    return sum(map(int.__gt__, values, values[1:] + values[:1]))


def row_is_popi(row: Sequence[int]) -> bool:
    """True iff the defined images of an image row read in a cyclic order:
    at most one descent, counting the wraparound comparison between the
    last and first image."""
    return _descents(tuple(filter(None, row))) <= 1


def _swap_pairs(n: int) -> list[tuple[int, int]]:
    """0-based position pairs (i, i + 1 mod n) of the circular adjacent
    inversions, deduplicated."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    return [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]


def _swap_positions(row: bytes, a: int, b: int) -> bytes:
    """The byte row with the entries at positions a and b exchanged."""
    swapped = bytearray(row)
    swapped[a], swapped[b] = row[b], row[a]
    return bytes(swapped)


@cache  # the searches on n points share one set of tables
def _value_swaps(n: int) -> tuple[bytes, ...]:
    """One `bytes.translate` table per circular inversion on n points, in
    `_swap_pairs(n)` order.  Each exchanges its two values; on a row that
    holds only one of them, it rewrites that one to the other."""
    tables = []
    for a, b in _swap_pairs(n):
        table = bytearray(range(256))
        table[a + 1], table[b + 1] = b + 1, a + 1
        tables.append(bytes(table))
    return tuple(tables)


def _check_size(m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise InvalidArgumentError(f"sizes must be non-negative, got {m}, {n}")
    if m > MAX_POSITIONS or n > MAX_POSITIONS:
        raise CapacityError(
            f"partial permutations are capped at {MAX_POSITIONS} positions, got {m}x{n}"
        )


class _ReadOnly:
    """Refuses assigning or deleting any attribute; a constructor that sets
    fields does so through the slots' own setters, such as `_set_m`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PartialPerm(_ReadOnly):
    """An injective partial map from {1..m} to {1..n}."""

    __slots__ = ("m", "n", "_img")

    def __init__(self, m: int, n: int, mapping: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        _check_size(m, n)
        img = [0] * m
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        seen = set()
        for i, j in items:
            if not 1 <= i <= m:
                raise InvalidArgumentError(f"domain point {i} outside 1..{m}")
            if not 1 <= j <= n:
                raise InvalidArgumentError(f"image point {j} outside 1..{n}")
            if img[i - 1]:
                raise InvalidArgumentError(f"domain point {i} mapped twice")
            if j in seen:
                raise InvalidArgumentError(f"image point {j} hit twice (not injective)")
            seen.add(j)
            img[i - 1] = j
        _set_m(self, m)
        _set_n(self, n)
        _set_img(self, tuple(img))

    @classmethod
    def from_image(cls, n: int, image: Sequence[int]) -> PartialPerm:
        """Build from an image row (length m, entries in 0..n, 0 = undefined)."""
        return cls(len(image), n, ((i + 1, v) for i, v in enumerate(image) if v))

    @classmethod
    def _unchecked(cls, m: int, n: int, img: tuple[int, ...]) -> PartialPerm:
        self = object.__new__(cls)
        _set_m(self, m)
        _set_n(self, n)
        _set_img(self, img)
        return self

    def __reduce__(self):  # the slots cannot be set on a bare instance
        return PartialPerm, (self.m, self.n, self.pairs())

    @classmethod
    def identity(cls, n: int) -> PartialPerm:
        _check_size(n, n)
        return cls._unchecked(n, n, tuple(range(1, n + 1)))

    @classmethod
    def empty(cls, m: int, n: int) -> PartialPerm:
        _check_size(m, n)
        return cls._unchecked(m, n, (0,) * m)

    # -- basic queries ------------------------------------------------------

    def __call__(self, i: int) -> int | None:
        if not 1 <= i <= self.m:
            raise InvalidArgumentError(f"position {i} outside 1..{self.m}")
        v = self._img[i - 1]
        return v if v else None

    @property
    def image_row(self) -> tuple[int, ...]:
        return self._img

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i + 1, v) for i, v in enumerate(self._img) if v)

    @property
    def rank(self) -> int:
        return sum(1 for v in self._img if v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialPerm):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self._img == other._img

    def __hash__(self) -> int:
        return hash((self.m, self.n, self._img))

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {j}" for i, j in self.pairs())
        return f"PartialPerm({self.m}, {self.n}, {{{body}}})"

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other: PartialPerm) -> PartialPerm:
        """Left-to-right composition: apply self first, then other."""
        if not isinstance(other, PartialPerm):
            return NotImplemented
        if self.n != other.m:
            raise InvalidArgumentError(
                f"cannot compose {self.m}x{self.n} with {other.m}x{other.n}"
            )
        # entry v of (0, *other) is the image of v, and 0 stays undefined
        return PartialPerm._unchecked(self.m, other.n,
                                      tuple(map(((0,) + other._img).__getitem__, self._img)))

    def inverse(self) -> PartialPerm:
        img = [0] * self.n
        for i, v in enumerate(self._img):
            if v:
                img[v - 1] = i + 1
        return PartialPerm._unchecked(self.n, self.m, tuple(img))

    # -- order structure ----------------------------------------------------

    def crossings(self) -> list[tuple[int, int]]:
        """All pairs i < j in the domain whose images are in reversed order."""
        pts = self.pairs()
        out = []
        for a in range(len(pts)):
            i, fi = pts[a]
            for b in range(a + 1, len(pts)):
                j, fj = pts[b]
                if fi > fj:
                    out.append((i, j))
        return out

    def is_order_preserving(self) -> bool:
        """True iff the images rise along the ascending domain (no crossing)."""
        last = 0
        for v in self._img:
            if v:
                if v < last:
                    return False
                last = v
        return True

    def is_orientation_preserving(self) -> bool:
        """True iff the images along the ascending domain are cyclic."""
        return row_is_popi(self._img)


# the slots' own setters, which assignment on an instance cannot reach;
# they cost half what `object.__setattr__` does, and `_unchecked` runs in
# every product and word evaluation
_set_m, _set_n, _set_img = PartialPerm.m.__set__, PartialPerm.n.__set__, PartialPerm._img.__set__


def sigma_from_frames(tokens1: Sequence[str], tokens2: Sequence[str]) -> PartialPerm:
    """Pair the shared regions of two reference frames by position.

    Position i of the first frame maps to position j of the second exactly
    when both hold the same region.  Accepts reference frames or plain
    token sequences.
    """
    t1 = tuple(getattr(tokens1, "tokens", tokens1))
    t2 = tuple(getattr(tokens2, "tokens", tokens2))
    where = {tok: j + 1 for j, tok in enumerate(t2)}
    if len(where) != len(t2):
        raise InvalidArgumentError("second frame has repeated regions")
    if len(set(t1)) != len(t1):
        raise InvalidArgumentError("first frame has repeated regions")
    _check_size(len(t1), len(t2))
    return PartialPerm._unchecked(len(t1), len(t2), tuple(where.get(tok, 0) for tok in t1))


def all_partial_perms(m: int, n: int):
    """Yield every element of the m-by-n partial permutation set."""
    from itertools import combinations, permutations

    _check_size(m, n)
    for r in range(min(m, n) + 1):
        for dom in combinations(range(1, m + 1), r):
            for img_set in combinations(range(1, n + 1), r):
                for img in permutations(img_set):
                    yield PartialPerm(m, n, zip(dom, img))
