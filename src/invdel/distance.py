"""Genome distances and reconstruction of the most recent common ancestor.

The symmetric distance between two genomes counts one deletion per region
outside the shared set plus the minimum alignment cost over reference
pairs.  The ancestor is read off a distance result alone: the witnessing
inversions are replayed on its best reference pair, the second frame is
rotated so the shared regions read in one linear order on both, and the
private regions of each side are interleaved into one circle.
"""
from __future__ import annotations

from collections import namedtuple

from .errors import InvalidArgumentError, NoPathError
from .algebra import Generator, Word, apply_to_frame
from .align import reference_pairs, solve_sources
from .genome import Genome, ReferenceFrame
from .pperm import sigma_from_frames


class DistanceResult(namedtuple("DistanceResult", "deletions best_pair solution")):
    """Deletions plus the alignment cost `mu` of the best reference pair
    (two reference frames), whose `solution` is an AlignmentSolution."""

    __slots__ = ()

    @property
    def mu(self) -> int:
        return self.solution.cost

    @property
    def total(self) -> int:
        return self.deletions + self.mu


def mrca_distance(g1: Genome, g2: Genome) -> DistanceResult:
    """Events separating the two genomes through their most recent common
    ancestor: deletions for the symmetric difference plus the minimum
    alignment cost.  The two `align.reference_pairs` reach the minimum
    over every frame pair; they are searched at once, and the first pair
    of least cost wins."""
    pairs = reference_pairs(g1, g2)
    index, solution = solve_sources([sigma_from_frames(f1, f2) for f1, f2 in pairs])
    return DistanceResult(len(g1.regions ^ g2.regions), pairs[index], solution)


# -- one-sided distance --------------------------------------------------------

def directed_distance(g1: Genome, g2: Genome) -> int:
    """Minimum inversions and deletions transforming the first genome into
    the second; only defined when the second's regions are a subset.

    Then it equals the distance through the most recent common ancestor:
    the symmetric difference is exactly the deleted regions, and the
    alignment cost matches the fewest inversions sorting the first genome's
    surviving regions into the second.  The tests check this against that
    inversion-sorting search on every pair with n <= 5; it also held on
    every subset pair with n <= 6.  The pairing of the shared regions then
    has full rank, so the alignment takes the closed form (see align.py),
    runs no search and meets no state budget, up to 16 regions.
    """
    r1, r2 = g1.regions, g2.regions
    if not r2 <= r1:
        missing = ", ".join(sorted(r2 - r1))
        raise NoPathError(
            "no inversion/deletion sequence exists: target regions not in source "
            f"(missing from source: {missing})"
        )
    return mrca_distance(g1, g2).total


# -- ancestor construction -------------------------------------------------------

class AncestorScenario(namedtuple("AncestorScenario",
                                  "ancestor_frame events_to_g1 events_to_g2 gap_sets")):
    """A most recent common ancestor with one fixed frame and the event
    words leading to each descendant; `gap_sets` holds tuples of region
    labels."""

    __slots__ = ()

    @property
    def ancestor(self) -> Genome:
        return Genome.from_frame(self.ancestor_frame)

    @property
    def event_count(self) -> int:
        return len(self.events_to_g1) + len(self.events_to_g2)


def _deletion_word(frame: ReferenceFrame, drop: frozenset[str]) -> Word:
    """Delete the given regions from the frame, rightmost position first so
    earlier positions keep their indices."""
    positions = [i for i, t in enumerate(frame.tokens, start=1) if t in drop]
    letters = []
    size = frame.n
    for p in reversed(positions):
        letters.append(Generator.deletion(p, size))
        size -= 1
    return Word(letters, frame.n)


def _stretches(frame: ReferenceFrame, shared: frozenset[str]) -> list[list[str]]:
    """The frame's private regions before, between and after its shared
    regions: one more stretch than shared regions."""
    out: list[list[str]] = [[]]
    for tok in frame.tokens:
        if tok in shared:
            out.append([])
        else:
            out[-1].append(tok)
    return out


def construct_ancestor(result: DistanceResult) -> AncestorScenario:
    """Build an ancestor realizing the result's event count from the result
    alone: its best reference pair holds frames of the two genomes.

    The witnessing inversions, applied to the best reference pair, leave
    the shared regions in one cyclic order on both frames.  The second
    frame is then rotated so the last shared region sits at its final
    position, which makes that order linear and pins a deterministic
    circular cut for the ancestor.  The ancestor merges the two frames'
    private stretches: first the second frame's stretch before the first
    shared region, then the first frame's, then each shared region in
    order followed by the first frame's stretch after it and then the
    second frame's.  The ancestor holds the union of the two region sets,
    so it may have more regions than a partial permutation can address;
    it is only ever moved as a frame.
    """
    (f1, f2), solution = result.best_pair, result.solution
    regions1, regions2 = frozenset(f1.tokens), frozenset(f2.tokens)
    m, n = f1.n, f2.n

    g1p = apply_to_frame(f1, Word(reversed(solution.left_inversions.letters), m))
    g2p = apply_to_frame(f2, solution.right_inversions)

    shared = regions1 & regions2
    order = [t for t in g1p.tokens if t in shared]
    # Rotate the second frame k places on (k letters c_n) so the last shared
    # region lands at position n; with no shared region k is 0.
    k = n - 1 - g2p.tokens.index(order[-1]) if order else 0
    f2 = ReferenceFrame(f2.tokens[-k:] + f2.tokens[:-k])
    g2p = ReferenceFrame(g2p.tokens[-k:] + g2p.tokens[:-k])
    assert [t for t in g2p.tokens if t in shared] == order

    own1, own2 = _stretches(g1p, shared), _stretches(g2p, shared)
    ancestor_tokens = own2[0] + own1[0]
    for r, mine, theirs in zip(order, own1[1:], own2[1:]):
        ancestor_tokens += [r] + mine + theirs

    ancestor_frame = ReferenceFrame(ancestor_tokens)

    del1 = _deletion_word(ancestor_frame, regions2 - regions1)
    del2 = _deletion_word(ancestor_frame, regions1 - regions2)
    events1 = del1 + solution.left_inversions
    events2 = del2 + Word([Generator.inversion((g.i - 1 + k) % n + 1, n)
                           for g in reversed(solution.right_inversions.letters)], n)

    assert apply_to_frame(ancestor_frame, events1) == f1
    assert apply_to_frame(ancestor_frame, events2) == f2
    return AncestorScenario(ancestor_frame, events1, events2, tuple(map(tuple, own2)))


def verify_scenario_report(
    scenario: AncestorScenario,
    g1: Genome,
    g2: Genome,
    expected: int,
) -> tuple[bool, str]:
    """Replay the scenario and compare against the claimed genomes and the
    distance `expected`; on failure the report says what diverged."""
    problems = []
    for side, events, genome in ((1, scenario.events_to_g1, g1), (2, scenario.events_to_g2, g2)):
        try:
            landed = Genome.from_frame(apply_to_frame(scenario.ancestor_frame, events))
            if landed != genome:
                problems.append(f"side {side} lands in {landed} instead of {genome}")
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            problems.append(f"side {side} replay failed: {exc}")
    if scenario.event_count != expected:
        problems.append(f"event count {scenario.event_count} != distance {expected}")
    return (not problems, "ok" if not problems else "; ".join(problems))


# -- all-pairs matrices ----------------------------------------------------------

def distance_matrix(genomes: list[Genome]) -> list[list[int]]:
    if len(genomes) < 2:
        raise InvalidArgumentError("a distance matrix needs at least 2 genomes")
    k = len(genomes)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            out[i][j] = out[j][i] = mrca_distance(genomes[i], genomes[j]).total
    return out


def format_phylip(names: list[str], matrix: list[list[int]]) -> str:
    for name in names:
        if len(name) > 10:
            raise InvalidArgumentError(f"PHYLIP names are capped at 10 characters: {name!r}")
    lines = [f"{len(names)}"]
    for name, row in zip(names, matrix):
        lines.append(f"{name:<10}" + " ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def format_tsv(names: list[str], matrix: list[list[int]]) -> str:
    lines = ["\t".join(["name"] + names)]
    for name, row in zip(names, matrix):
        lines.append("\t".join([name] + [str(v) for v in row]))
    return "\n".join(lines) + "\n"
