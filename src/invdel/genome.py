"""Circular genomes as dihedral equivalence classes of region words.

A reference frame is one clockwise reading of the circle starting from a
distinguished point; the genome is the orbit of that word under rotations
and reflections.  Equality and hashing go through a canonical frame: the
lexicographically least word of the orbit.  A frame is nothing but its
region labels, so any two genomes compare by those labels, whatever file
or list they came from; no universe of all regions is kept.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .errors import GenomeParseError, InvalidArgumentError


def _readable(labels: tuple) -> bool:
    """Whether the labels are non-empty strings without whitespace, the
    rule a genome file's `str.split` applies: they join and split back to
    themselves."""
    try:
        return tuple(" ".join(labels).split()) == labels
    except TypeError:  # a label that is not a string
        return False


class ReferenceFrame(namedtuple("ReferenceFrame", "tokens")):
    """One concrete clockwise reading of a circular genome: its region
    labels, distinct, from position 1 on, kept as a tuple whatever
    iterable they came in.  A label is a non-empty string without
    whitespace, as a genome file reads it, so a frame prints back."""

    __slots__ = ()

    def __new__(cls, tokens: Iterable[str]) -> ReferenceFrame:
        tokens = tuple(tokens)
        if not tokens:
            raise InvalidArgumentError("a reference frame needs at least one region")
        if not _readable(tokens):
            bad = next(t for t in tokens if not _readable((t,)))
            raise InvalidArgumentError(
                f"a region label is a non-empty string without whitespace, got {bad!r}")
        if len(set(tokens)) != len(tokens):
            raise InvalidArgumentError("regions in a frame must be distinct")
        return tuple.__new__(cls, (tokens,))

    @classmethod
    def _make(cls, values: Iterable) -> ReferenceFrame:  # so `_replace` checks too
        return cls(*values)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> ReferenceFrame:
        return cls(tokens)

    @property
    def n(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return " ".join(self.tokens) if any(len(t) > 1 for t in self.tokens) else "".join(self.tokens)


def _orbit(tokens: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
    """The rotations of the word, then those of its reflection."""
    for word in (tokens, tokens[::-1]):
        for k in range(len(word)):
            yield word[k:] + word[:k]


class Genome(namedtuple("Genome", "canonical")):
    """A dihedral equivalence class of frames, keyed by its least frame:
    genomes with the same labels in the same circular order are equal.

    `Genome(frame)` takes any frame of the class and keeps the least one
    as `canonical`, the name its one argument also goes by."""

    __slots__ = ()

    def __new__(cls, canonical: ReferenceFrame) -> Genome:
        if not isinstance(canonical, ReferenceFrame):
            raise InvalidArgumentError(
                f"a genome is built from a ReferenceFrame, got {canonical!r}")
        # regions are distinct, so the least orbit word starts at the least
        # region: read forward or backward from there
        t = canonical.tokens
        k = t.index(min(t))
        forward = t[k:] + t[:k]
        return tuple.__new__(cls, (ReferenceFrame(min(forward, forward[:1] + forward[:0:-1])),))

    @classmethod
    def _make(cls, values: Iterable) -> Genome:  # so `_replace` canonicalizes too
        return cls(*values)

    @classmethod
    def from_frame(cls, frame: ReferenceFrame) -> Genome:
        # parsing comes through here, and perfbench's tracer counts
        # canonicalizations by wrapping this name
        return cls(frame)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> Genome:
        return cls.from_frame(ReferenceFrame.from_tokens(tokens))

    @property
    def n(self) -> int:
        return self.canonical.n

    @property
    def regions(self) -> frozenset[str]:
        return frozenset(self.canonical.tokens)

    def frames(self) -> list[ReferenceFrame]:
        """Every frame of the orbit, in a fixed deterministic order."""
        return [ReferenceFrame(w) for w in dict.fromkeys(_orbit(self.canonical.tokens))]

    def __str__(self) -> str:
        return str(self.canonical)


def genomes_from_token_lists(*token_lists: Sequence[str]) -> list[Genome]:
    """One genome per token list."""
    return [Genome.from_tokens(toks) for toks in token_lists]


# -- genome text files -------------------------------------------------------
#
# One genome per line: `NAME: tok1 tok2 ... tokN`.  Lines starting with `#`
# are comments; blank lines are ignored; the circular order runs left to
# right clockwise from position 1.  A name holds no whitespace.

def parse_genomes(text: str) -> list[tuple[str, Genome]]:
    rows: list[tuple[str, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise GenomeParseError("expected `NAME: tok1 tok2 ...`", lineno)
        name, _, rest = line.partition(":")
        name = name.strip()
        toks = rest.split()
        if not name:
            raise GenomeParseError("empty genome name", lineno)
        if any(ch.isspace() for ch in name):
            # matrix output separates names from distances by whitespace
            raise GenomeParseError(f"genome name {name!r} contains whitespace", lineno)
        if not toks:
            raise GenomeParseError(f"genome {name!r} has no regions", lineno)
        if len(set(toks)) != len(toks):
            raise GenomeParseError(f"genome {name!r} repeats a region", lineno)
        rows.append((name, toks))
    names = [name for name, _ in rows]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise GenomeParseError(f"duplicate genome name {dup!r}")
    return [(name, Genome.from_tokens(toks)) for name, toks in rows]


def load_genomes(path) -> list[tuple[str, Genome]]:
    """Parse a genome file; a leading byte-order mark is skipped, and a
    file that cannot be read as UTF-8 text raises GenomeParseError naming
    it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise GenomeParseError(f"cannot read {str(path)!r}: {exc.strerror or exc}") from exc
    try:
        # the mark goes after decoding, so a bad byte's offset still counts
        # from the start of the file ("utf-8-sig" would not); `splitlines`
        # in the parser ends lines at CRLF and lone CR as well as LF
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise GenomeParseError(f"{str(path)!r} is not UTF-8 text: byte {exc.start} "
                               f"cannot be decoded") from exc
    return parse_genomes(text)
