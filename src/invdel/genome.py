"""Circular genomes as dihedral equivalence classes of region words.

A reference frame is one clockwise reading of the circle starting from a
distinguished point; the genome is the orbit of that word under rotations
and reflections.  Equality and hashing go through a canonical frame: the
lexicographically least word of the orbit.  A frame is nothing but its
region labels, so any two genomes compare by those labels, whatever file
or list they came from; no universe of all regions is kept.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import GenomeParseError, InvalidArgumentError


@dataclass(frozen=True)
class ReferenceFrame:
    """One concrete clockwise reading of a circular genome: its region
    labels, distinct, from position 1 on."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise InvalidArgumentError("a reference frame needs at least one region")
        if len(set(self.tokens)) != len(self.tokens):
            raise InvalidArgumentError("regions in a frame must be distinct")

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> ReferenceFrame:
        return cls(tuple(tokens))

    @property
    def n(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return " ".join(self.tokens) if any(len(t) > 1 for t in self.tokens) else "".join(self.tokens)


def _orbit_words(tokens: tuple[str, ...]) -> list[tuple[str, ...]]:
    n = len(tokens)
    words = []
    rev = tokens[::-1]
    for k in range(n):
        words.append(tokens[k:] + tokens[:k])
    if n >= 2:
        for k in range(n):
            words.append(rev[k:] + rev[:k])
    seen = set()
    out = []
    for w in words:
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


@dataclass(frozen=True)
class Genome:
    """A dihedral equivalence class of frames, keyed by its least frame:
    genomes with the same labels in the same circular order are equal."""

    canonical: ReferenceFrame

    @classmethod
    def from_frame(cls, frame: ReferenceFrame) -> Genome:
        best = min(_orbit_words(frame.tokens))
        return cls(ReferenceFrame(best))

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
        return [ReferenceFrame(w) for w in _orbit_words(self.canonical.tokens)]

    def __str__(self) -> str:
        return str(self.canonical)


def canonicalize(frame: ReferenceFrame) -> Genome:
    return Genome.from_frame(frame)


def region_set_ops(g1: Genome, g2: Genome) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(intersection, symmetric difference, union) of the two region sets."""
    r1, r2 = g1.regions, g2.regions
    return r1 & r2, r1 ^ r2, r1 | r2


def genomes_from_token_lists(*token_lists: Sequence[str]) -> list[Genome]:
    """One genome per token list."""
    return [Genome.from_tokens(toks) for toks in token_lists]


# -- genome text files -------------------------------------------------------
#
# One genome per line: `NAME: tok1 tok2 ... tokN`.  Lines starting with `#`
# are comments; blank lines are ignored; the circular order runs left to
# right clockwise from position 1.

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
    """Parse a genome file; a file that cannot be read as UTF-8 text raises
    GenomeParseError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GenomeParseError(f"cannot read {str(path)!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise GenomeParseError(f"{str(path)!r} is not UTF-8 text: byte {exc.start} "
                               f"cannot be decoded") from exc
    return parse_genomes(text)
