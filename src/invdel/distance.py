"""Genome distances and reconstruction of the most recent common ancestor.

The symmetric distance between two genomes counts one deletion per region
outside the shared set plus the minimum alignment cost over reference
pairs.  The ancestor construction replays the witnessing inversions, lines
the two intermediate frames up so the shared regions read in the same
order, and interleaves the private regions of each side into one circle.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, InvalidArgumentError, NoPathError
from .algebra import Generator, Word, apply_to_frame
from .align import AlignmentSolution, min_over_reference_pairs
from .genome import Genome, ReferenceFrame, canonicalize, region_set_ops
from .pperm import MAX_POSITIONS, sigma_from_frames


@dataclass(frozen=True)
class DistanceResult:
    total: int
    deletions: int
    mu: int
    best_pair: tuple[ReferenceFrame, ReferenceFrame]
    solution: AlignmentSolution

    def __post_init__(self):
        assert self.total == self.deletions + self.mu


def mrca_distance(
    g1: Genome,
    g2: Genome,
    engine: str = "onthefly",
    cache_dir=None,
) -> DistanceResult:
    """Events separating the two genomes through their most recent common
    ancestor: deletions for the symmetric difference plus the minimum
    alignment cost."""
    _, sym_diff, _ = region_set_ops(g1, g2)
    pair, solution = min_over_reference_pairs(g1, g2, engine=engine, cache_dir=cache_dir)
    return DistanceResult(len(sym_diff) + solution.cost, len(sym_diff),
                          solution.cost, pair, solution)


# -- one-sided distance --------------------------------------------------------

def directed_distance(
    g1: Genome,
    g2: Genome,
    engine: str = "onthefly",
    cache_dir=None,
) -> int:
    """Minimum inversions and deletions transforming the first genome into
    the second; only defined when the second's regions are a subset.

    Then it equals the distance through the most recent common ancestor:
    the symmetric difference is exactly the deleted regions, and the
    alignment cost matches the fewest inversions sorting the first genome's
    surviving regions into the second.  So the alignment is solved on the
    survivors alone, and its cost grows with the second genome, not the
    first.  The tests check this against that inversion-sorting search on
    every pair with n <= 5; it also held on every subset pair with n <= 6.
    The survivors and the second genome have the same regions, so the
    alignment is full rank: the default engine takes the closed form (see
    align.py), runs no search and meets no state budget, up to 16 regions.
    """
    r1, r2 = g1.regions, g2.regions
    if not r2 <= r1:
        missing = ", ".join(sorted(r2 - r1))
        raise NoPathError(
            "no inversion/deletion sequence exists: target regions not in source "
            f"(missing from source: {missing})"
        )
    survivors = Genome.from_tokens(t for t in g1.canonical.tokens if t in r2)
    mu = mrca_distance(survivors, g2, engine=engine, cache_dir=cache_dir).mu
    return len(r1 - r2) + mu


# -- ancestor construction -------------------------------------------------------

@dataclass(frozen=True)
class AncestorScenario:
    """A most recent common ancestor with one fixed frame and the event
    words leading to each descendant."""

    ancestor: Genome
    ancestor_frame: ReferenceFrame
    events_to_g1: Word
    events_to_g2: Word
    gap_sets: tuple[tuple[str, ...], ...]

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


def check_ancestor_size(g1: Genome, g2: Genome) -> None:
    """Refuse a pair whose ancestor, holding the union of the two region
    sets, has more regions than a partial permutation can address."""
    _, _, union = region_set_ops(g1, g2)
    if len(union) > MAX_POSITIONS:
        raise CapacityError(f"the ancestor has {len(union)} regions; "
                            f"partial permutations are capped at {MAX_POSITIONS}")


def construct_ancestor(
    g1: Genome,
    g2: Genome,
    result: DistanceResult | None = None,
) -> AncestorScenario:
    """Build an ancestor realizing the minimum event count.

    The witnessing inversions are applied to the best reference pair; the
    second frame is then rotated so the last shared region sits at its
    final position, which makes the pairing order preserving and pins a
    deterministic circular cut for the ancestor.  The ancestor merges the
    two frames' private stretches: first the second frame's stretch before
    the first shared region, then the first frame's, then each shared
    region in order followed by the first frame's stretch after it and
    then the second frame's.  A `result` already computed by
    `mrca_distance` for these genomes is reused instead of searching again.
    An ancestor beyond `pperm.MAX_POSITIONS` regions raises CapacityError
    before any search.
    """
    check_ancestor_size(g1, g2)
    if result is None:
        result = mrca_distance(g1, g2)
    (f1, f2), solution = result.best_pair, result.solution
    m, n = f1.n, f2.n

    g1p = apply_to_frame(f1, Word(reversed(solution.left_inversions.letters), m))
    g2p = apply_to_frame(f2, solution.right_inversions)
    right_chrono = [g.i for g in solution.right_inversions]

    witness = sigma_from_frames(g1p, g2p)
    assert witness.is_orientation_preserving()

    dom = witness.domain()
    if dom:
        # Rotate the second frame k places on (k letters c_n) so the last
        # shared region lands at position n; for an orientation-preserving
        # pairing this always yields an order-preserving one.
        k = (n - witness(dom[-1])) % n
        if k:
            f2 = ReferenceFrame(f2.tokens[-k:] + f2.tokens[:-k])
            g2p = ReferenceFrame(g2p.tokens[-k:] + g2p.tokens[:-k])
            right_chrono = [(i - 1 + k) % n + 1 for i in right_chrono]
            witness = sigma_from_frames(g1p, g2p)
    assert witness.is_order_preserving()

    shared = g1.regions & g2.regions
    own1, own2 = _stretches(g1p, shared), _stretches(g2p, shared)
    ancestor_tokens = own2[0] + own1[0]
    for r, mine, theirs in zip((t for t in g1p.tokens if t in shared), own1[1:], own2[1:]):
        ancestor_tokens += [r] + mine + theirs

    ancestor_frame = ReferenceFrame(tuple(ancestor_tokens))
    ancestor = canonicalize(ancestor_frame)

    del1 = _deletion_word(ancestor_frame, g2.regions - g1.regions)
    del2 = _deletion_word(ancestor_frame, g1.regions - g2.regions)
    events1 = del1 + solution.left_inversions
    events2 = del2 + Word([Generator.inversion(i, n) for i in reversed(right_chrono)], n)

    assert apply_to_frame(ancestor_frame, events1) == f1
    assert apply_to_frame(ancestor_frame, events2) == f2
    return AncestorScenario(ancestor, ancestor_frame, events1, events2,
                            tuple(map(tuple, own2)))


def verify_scenario(scenario: AncestorScenario, g1: Genome, g2: Genome) -> bool:
    ok, _ = verify_scenario_report(scenario, g1, g2)
    return ok


def verify_scenario_report(
    scenario: AncestorScenario,
    g1: Genome,
    g2: Genome,
    expected: int | None = None,
) -> tuple[bool, str]:
    """Replay the scenario and compare against the claimed genomes and the
    distance (`expected`, computed here when not given); on failure the
    report says what diverged."""
    problems = []
    try:
        landed1 = canonicalize(apply_to_frame(scenario.ancestor_frame, scenario.events_to_g1))
        if landed1 != g1:
            problems.append(f"side 1 lands in {landed1} instead of {g1}")
    except Exception as exc:  # noqa: BLE001 - report, do not crash
        problems.append(f"side 1 replay failed: {exc}")
    try:
        landed2 = canonicalize(apply_to_frame(scenario.ancestor_frame, scenario.events_to_g2))
        if landed2 != g2:
            problems.append(f"side 2 lands in {landed2} instead of {g2}")
    except Exception as exc:  # noqa: BLE001
        problems.append(f"side 2 replay failed: {exc}")
    if expected is None:
        expected = mrca_distance(g1, g2).total
    if scenario.event_count != expected:
        problems.append(f"event count {scenario.event_count} != distance {expected}")
    if canonicalize(scenario.ancestor_frame) != scenario.ancestor:
        problems.append("ancestor frame is not a frame of the ancestor genome")
    return (not problems, "ok" if not problems else "; ".join(problems))


# -- all-pairs matrices ----------------------------------------------------------

def distance_matrix(
    named: list[tuple[str, Genome]],
    engine: str = "onthefly",
    cache_dir=None,
) -> list[list[int]]:
    if len(named) < 2:
        raise InvalidArgumentError("a distance matrix needs at least 2 genomes")
    k = len(named)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            d = mrca_distance(named[i][1], named[j][1], engine=engine,
                              cache_dir=cache_dir).total
            out[i][j] = out[j][i] = d
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
