"""Generator alphabet for inversion/deletion/rotation/reflection events.

Words over this alphabet label paths in the size-indexed event digraph:
inversions, rotations and reflections keep the size n, a deletion drops it
to n-1.  Evaluation turns a word into the partial permutation it composes
to (left to right), and the rewriter normalizes any word into the shape
(deletions)(inversions)(dihedral) without changing its evaluation.

`eval_generator` defines each letter's map.  `eval_word` and
`apply_to_frame` build no map per letter: both move the entries of one
list the way the letters move positions (`_move`), the positions
themselves or a frame's tokens.
"""
from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cache

from .errors import InvalidArgumentError, WordTypeError
from .genome import ReferenceFrame
from .pperm import PartialPerm, _ReadOnly, _check_int, _check_size

INV, DEL, ROT, REFL = "inv", "del", "rot", "refl"


class Generator(namedtuple("Generator", "kind i n")):
    """One event symbol: inversion s, deletion d, rotation c, reflection a."""

    __slots__ = ()

    def __new__(cls, kind: str, i: int, n: int) -> Generator:
        _check_int("generator index", i)
        _check_int("generator size", n, 1)
        if kind == INV:
            if not 1 <= i <= n:
                raise InvalidArgumentError(f"inversion index {i} outside 1..{n}")
        elif kind == DEL:
            if n < 2:
                raise InvalidArgumentError("deletions need size >= 2")
            if not 1 <= i <= n:
                raise InvalidArgumentError(f"deletion index {i} outside 1..{n}")
        elif kind in (ROT, REFL):
            if i != 0:
                raise InvalidArgumentError("rotation/reflection carries no index")
        else:
            raise InvalidArgumentError(f"unknown generator kind {kind!r}")
        return tuple.__new__(cls, (kind, i, n))

    @classmethod
    def _make(cls, values: Iterable) -> Generator:  # so `_replace` checks too
        return cls(*values)

    @classmethod
    def inversion(cls, i: int, n: int) -> Generator:
        return cls(INV, i, n)

    @classmethod
    def deletion(cls, i: int, n: int) -> Generator:
        return cls(DEL, i, n)

    @classmethod
    def rotation(cls, n: int) -> Generator:
        return cls(ROT, 0, n)

    @classmethod
    def reflection(cls, n: int) -> Generator:
        return cls(REFL, 0, n)

    @property
    def src(self) -> int:
        return self.n

    @property
    def tgt(self) -> int:
        return self.n - 1 if self.kind == DEL else self.n

    @property
    def is_dihedral(self) -> bool:
        return self.kind in (ROT, REFL)

    def __str__(self) -> str:
        return format_generator(self)


def eval_generator(g: Generator) -> PartialPerm:
    """The partial permutation of one letter, checked."""
    n = g.n
    if g.kind == INV:
        # s_{i;n} swaps i and i+1; s_{n;n} is the wraparound pair (1, n).
        a, b = (g.i, g.i + 1) if g.i < n else (1, n)
        img = list(range(1, n + 1))
        img[a - 1], img[b - 1] = b, a
        return PartialPerm.from_image(n, img)
    if g.kind == DEL:
        # The order-preserving map dropping position i: later positions
        # close ranks by one.
        img = [(j if j < g.i else j - 1) for j in range(1, n + 1)]
        img[g.i - 1] = 0
        return PartialPerm.from_image(n - 1, img)
    if g.kind == ROT:
        return PartialPerm.from_image(n, [j % n + 1 for j in range(1, n + 1)])
    # Reflection: i <-> n+1-i.
    return PartialPerm.from_image(n, [n + 1 - j for j in range(1, n + 1)])


class Word(_ReadOnly):
    """A composable sequence of generators, with its source size.

    The source size is explicit so the empty word is well-typed.
    """

    __slots__ = ("letters", "src")

    def __init__(self, letters: Iterable[Generator] = (), src: int | None = None):
        letters = tuple(letters)
        for g in letters:
            if not isinstance(g, Generator):
                raise WordTypeError(f"a word's letters must be generators, got {g!r}")
        if src is None:
            if not letters:
                raise WordTypeError("empty word needs an explicit source size")
            src = letters[0].n
        _check_int("word source size", src, 0)
        size = src
        for g in letters:
            # `Generator.src` and `tgt` read from the fields: a letter starts
            # at size n, and ends there too unless it deletes
            n = g.n
            if n != size:
                raise WordTypeError(f"generator {g} expects size {n} but the word is at size {size}")
            size = n - 1 if g.kind == DEL else n
        _set_letters(self, letters)
        _set_src(self, src)

    def __reduce__(self):  # the slots cannot be set on a bare instance
        return Word, (self.letters, self.src)

    @property
    def tgt(self) -> int:
        return self.letters[-1].tgt if self.letters else self.src

    @property
    def event_length(self) -> int:
        """Number of inversion and deletion letters (dihedral letters are
        frame bookkeeping, not events)."""
        return sum(1 for g in self.letters if not g.is_dihedral)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.letters)

    def __getitem__(self, k):
        return self.letters[k]

    def __add__(self, other: Word) -> Word:
        if not isinstance(other, Word):
            return NotImplemented
        if self.tgt != other.src:
            raise WordTypeError(
                f"cannot join word ending at size {self.tgt} with word starting at {other.src}"
            )
        return Word(self.letters + other.letters, self.src)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.src == other.src and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.src, self.letters))

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, src={self.src})"

    def __str__(self) -> str:
        return format_word(self)


# the slots' own setters, which assignment on a Word cannot reach; they
# cost half what `object.__setattr__` does, and words are built by the
# thousand
_set_letters, _set_src = Word.letters.__set__, Word.src.__set__


def _move(entries: list, w: Word) -> None:
    """Move the list's entries in place the way the word's letters move
    positions: the entry at position i ends at the position the word sends
    i to, and an entry whose position is deleted is dropped.

    An inversion s_{i;n} swaps entries i - 1 and i % n (0-based), a deletion
    drops one, c_n turns the list one place right and a_n reverses it.
    """
    for g in w.letters:
        kind = g.kind
        if kind == INV:
            a, b = g.i - 1, g.i % g.n
            entries[a], entries[b] = entries[b], entries[a]
        elif kind == DEL:
            del entries[g.i - 1]
        elif kind == ROT:
            entries.insert(0, entries.pop())
        else:
            entries.reverse()


def eval_word(w: Word) -> PartialPerm:
    """The partial permutation the word composes to.

    `_move` carries the positions themselves, so entry k - 1 of the moved
    list is the position that lands on k, and the list's length is the
    target size; the image row is that list inverted.  A word over more
    than 16 positions is refused.
    """
    _check_size(w.src, w.src)
    landed = list(range(1, w.src + 1))
    _move(landed, w)
    row = bytearray(w.src)
    for k, i in enumerate(landed, start=1):
        row[i - 1] = k
    return PartialPerm._unchecked(len(landed), bytes(row))


def apply_to_frame(frame: ReferenceFrame, w: Word) -> ReferenceFrame:
    """Apply the word's events to a frame; deleted regions are dropped.

    `_move` carries the frame's tokens, so no map is built, and a frame
    of any size moves as its token list does.
    """
    if frame.n != w.src:
        raise WordTypeError(f"word starts at size {w.src} but frame has {frame.n} regions")
    tokens = list(frame.tokens)
    _move(tokens, w)
    return ReferenceFrame(tokens)


# -- serialization -----------------------------------------------------------

_TOKEN_RE = re.compile(r"^(?:([sd])(\d+);(\d+)|([ca])(\d+))$")


def format_generator(g: Generator) -> str:
    if g.kind == INV:
        return f"s{g.i};{g.n}"
    if g.kind == DEL:
        return f"d{g.i};{g.n}"
    return f"{'c' if g.kind == ROT else 'a'}{g.n}"


def parse_generator(token: str) -> Generator:
    m = _TOKEN_RE.match(token)
    if not m:
        raise WordTypeError(f"bad generator token {token!r}")
    if m.group(1):
        kind = INV if m.group(1) == "s" else DEL
        return Generator(kind, int(m.group(2)), int(m.group(3)))
    kind = ROT if m.group(4) == "c" else REFL
    return Generator(kind, 0, int(m.group(5)))


def format_word(w: Word) -> str:
    return " ".join(format_generator(g) for g in w)


def parse_word(text: str, src: int | None = None) -> Word:
    tokens = text.split()
    return Word((parse_generator(t) for t in tokens), src)


# -- generating sets ----------------------------------------------------------

def inversion_set(n: int) -> list[Generator]:
    """All circular adjacent inversions at size n, deduplicated.

    At n=2 the wraparound pair (1, n) coincides with s_{1;2}; keeping both
    would only add parallel edges.
    """
    top = n if n >= 3 else min(n, 1)
    return [Generator.inversion(i, n) for i in range(1, top + 1)]


# -- the relation table R1..R14 ----------------------------------------------

Relation = namedtuple("Relation", "rule lhs rhs")


def _w(*gens: Generator) -> Word:
    return Word(gens)


def relation_table(n: int) -> list[Relation]:
    """Every valid instance at size n of the fourteen defining relations.

    The R3 right-hand side uses c_{n-1}^(n-2), i.e. the inverse rotation
    written with positive letters; see the package notes for why the
    exponent is n-2.
    """
    _check_int("relation size", n, 2)
    # each letter is built once: s[i] and d[i] at size n, t[i] at n - 1
    # (index 0 unused), and the dihedral letters at both sizes
    s = [None] + [Generator.inversion(i, n) for i in range(1, n + 1)]
    t = [None] + [Generator.inversion(i, n - 1) for i in range(1, n)]
    d = [None] + [Generator.deletion(i, n) for i in range(1, n + 1)]
    c, c1 = Generator.rotation(n), Generator.rotation(n - 1)
    a, a1 = Generator.reflection(n), Generator.reflection(n - 1)
    out: list[Relation] = []

    for j in range(2, n):  # R1: i = n, 1 < j < n
        out.append(Relation("R1", _w(s[n], d[j]), _w(d[j], t[n - 1])))
    out.append(Relation("R2", _w(s[n], d[n]), _w(d[1], c1)))
    out.append(Relation("R3", _w(s[n], d[1]), Word((d[n],) + (c1,) * (n - 2), n)))
    for i in range(1, n):
        for j in range(1, n + 1):
            if i > j:  # R4
                out.append(Relation("R4", _w(s[i], d[j]), _w(d[j], t[i - 1])))
            elif i + 1 < j:  # R5
                out.append(Relation("R5", _w(s[i], d[j]), _w(d[j], t[i])))
            elif i == j:  # R6
                out.append(Relation("R6", _w(s[i], d[i]), _w(d[i + 1])))
            else:  # R7: j = i + 1
                out.append(Relation("R7", _w(s[i], d[i + 1]), _w(d[i])))
    for i in range(2, n + 1):  # R8
        out.append(Relation("R8", _w(c, s[i]), _w(s[i - 1], c)))
    out.append(Relation("R9", _w(c, s[1]), _w(s[n], c)))
    for i in range(2, n + 1):  # R10
        out.append(Relation("R10", _w(c, d[i]), _w(d[i - 1], c1)))
    out.append(Relation("R11", _w(c, d[1]), _w(d[n])))
    for i in range(1, n + 1):  # R12
        out.append(Relation("R12", _w(a, d[i]), _w(d[n - i + 1], a1)))
    for i in range(1, n):  # R13
        out.append(Relation("R13", _w(a, s[i]), _w(s[n - i], a)))
    out.append(Relation("R14", _w(a, s[n]), _w(s[n], a)))
    return out


# -- deletions-first rewriting -------------------------------------------------

@cache
def _rules(n: int) -> dict[tuple[Generator, Generator], tuple[Generator, ...]]:
    """The rewrite rules for pairs starting at size n: R1..R14 read left to
    right, lhs pair -> rhs letters.

    Size 1 has no relation table; there the only pairs out of order are a
    dihedral letter before the trivial inversion, which commute.  Each
    rewrite strictly decreases the measure (#inversion letters left of a
    deletion, then #dihedral letters left of a non-dihedral letter), which
    guarantees termination.
    """
    if n == 1:
        s, c, a = Generator.inversion(1, 1), Generator.rotation(1), Generator.reflection(1)
        return {(c, s): (s, c), (a, s): (s, a)}
    return {rel.lhs.letters: rel.rhs.letters for rel in relation_table(n)}


def rewrite_deletions_first(w: Word) -> Word:
    """Normalize a word to (deletions)(inversions)(dihedral) shape by
    rewriting adjacent pairs with the defining relations.

    Evaluation is preserved exactly and the event length (inversion plus
    deletion letters) never increases; dihedral letters may accumulate as
    trailing frame symmetries.
    """
    letters = list(w.letters)
    # no rule applies to a pair left of k: a rewrite changes only the pairs
    # from k - 1 on, so one pass leaves no rule to apply anywhere
    k = 0
    while k + 1 < len(letters):
        repl = _rules(letters[k].n).get((letters[k], letters[k + 1]))
        if repl is not None:
            letters[k:k + 2] = repl
            k = max(0, k - 1)
        else:
            k += 1
    return Word(letters, w.src)


def is_deletions_first(w: Word) -> bool:
    """Whether the word reads deletions, then inversions, then dihedral letters."""
    cat = {INV: "s", DEL: "d", ROT: "c", REFL: "c"}
    return bool(re.fullmatch(r"d*s*c*", "".join(cat[g.kind] for g in w)))
