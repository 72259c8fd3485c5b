"""Circular genomes as dihedral equivalence classes of region words.

A reference frame is one clockwise reading of the circle starting from a
distinguished point; the genome is the orbit of that word under rotations
and reflections.  Equality and hashing go through a canonical frame: the
lexicographically least word of the orbit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import GenomeParseError, InvalidArgumentError


@dataclass(frozen=True)
class RegionAlphabet:
    """Ordered universe of region tokens; order is lexicographic."""

    tokens: tuple[str, ...]
    _index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise InvalidArgumentError("alphabet tokens must be distinct")
        if list(self.tokens) != sorted(self.tokens):
            raise InvalidArgumentError("alphabet tokens must be sorted")
        self._index.update({t: i for i, t in enumerate(self.tokens)})

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> RegionAlphabet:
        return cls(tuple(sorted(set(tokens))))

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ReferenceFrame:
    """One concrete clockwise reading of a circular genome.

    Frames over different alphabets compare by their token words, so the
    alphabet acts only as the shared universe for region-set operations.
    """

    alphabet: RegionAlphabet = field(compare=False)
    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise InvalidArgumentError("a reference frame needs at least one region")
        if len(set(self.tokens)) != len(self.tokens):
            raise InvalidArgumentError("regions in a frame must be distinct")
        for t in self.tokens:
            if t not in self.alphabet:
                raise InvalidArgumentError(f"token {t!r} not in alphabet")

    @classmethod
    def from_tokens(cls, alphabet: RegionAlphabet, tokens: Iterable[str]) -> ReferenceFrame:
        return cls(alphabet, tuple(tokens))

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
    """A dihedral equivalence class of frames, keyed by its least frame."""

    canonical: ReferenceFrame

    @classmethod
    def from_frame(cls, frame: ReferenceFrame) -> Genome:
        best = min(_orbit_words(frame.tokens))
        return cls(ReferenceFrame(frame.alphabet, best))

    @classmethod
    def from_tokens(cls, alphabet: RegionAlphabet, tokens: Iterable[str]) -> Genome:
        return cls.from_frame(ReferenceFrame.from_tokens(alphabet, tokens))

    @property
    def n(self) -> int:
        return self.canonical.n

    @property
    def regions(self) -> frozenset[str]:
        return frozenset(self.canonical.tokens)

    @property
    def alphabet(self) -> RegionAlphabet:
        return self.canonical.alphabet

    def frames(self) -> list[ReferenceFrame]:
        """Every frame of the orbit, in a fixed deterministic order."""
        alphabet = self.canonical.alphabet
        return [ReferenceFrame(alphabet, w) for w in _orbit_words(self.canonical.tokens)]

    def __str__(self) -> str:
        return str(self.canonical)


def canonicalize(frame: ReferenceFrame) -> Genome:
    return Genome.from_frame(frame)


def region_set_ops(g1: Genome, g2: Genome) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(intersection, symmetric difference, union) of the two region sets."""
    if g1.alphabet != g2.alphabet:
        raise InvalidArgumentError("genomes must share one alphabet")
    r1, r2 = g1.regions, g2.regions
    return r1 & r2, r1 ^ r2, r1 | r2


def genomes_from_token_lists(*token_lists: Sequence[str]) -> list[Genome]:
    """Build genomes over the shared union alphabet of all the lists."""
    alphabet = RegionAlphabet.from_tokens(t for toks in token_lists for t in toks)
    return [Genome.from_tokens(alphabet, toks) for toks in token_lists]


# -- genome text files -------------------------------------------------------
#
# One genome per line: `NAME: tok1 tok2 ... tokN`.  Lines starting with `#`
# are comments; blank lines are ignored; the circular order runs left to
# right clockwise from position 1.  One shared alphabet is built per file.

def parse_genomes(text: str) -> list[tuple[str, Genome]]:
    rows: list[tuple[int, str, list[str]]] = []
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
        rows.append((lineno, name, toks))
    names = [name for _, name, _ in rows]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise GenomeParseError(f"duplicate genome name {dup!r}")
    alphabet = RegionAlphabet.from_tokens(t for _, _, toks in rows for t in toks)
    out = []
    for lineno, name, toks in rows:
        try:
            out.append((name, Genome.from_tokens(alphabet, toks)))
        except InvalidArgumentError as exc:
            raise GenomeParseError(str(exc), lineno) from exc
    return out


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
