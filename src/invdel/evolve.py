"""Forward simulator: grow two genomes from a known ancestor.

Each branch applies a number of uniformly random single-region deletions
followed by uniformly random adjacent inversions.  The generator is the
stdlib Mersenne Twister, which is deterministic per seed and identical
across platforms, so scenarios are reproducible fixtures.
"""
from __future__ import annotations

import random
from collections import namedtuple

from .errors import CapacityError, InvalidArgumentError
from .algebra import Generator, Word, apply_to_frame
from .genome import Genome
from .pperm import MAX_POSITIONS, _check_int


class EvolutionScenario(namedtuple("EvolutionScenario",
                                   "ancestor branch1 branch2 genome1 genome2 seed")):
    """A simulated pair: the ancestor genome, the two branch words, the
    genomes they lead to, and the seed that drew them."""

    __slots__ = ()

    @property
    def event_count(self) -> int:
        return len(self.branch1) + len(self.branch2)


def random_genome(n: int, seed: int) -> Genome:
    """A uniformly random circular arrangement of the first n letters."""
    _check_int("genome size", n)
    if not 1 <= n <= MAX_POSITIONS:
        raise CapacityError(f"genome size must be 1..{MAX_POSITIONS}, got {n}")
    tokens = list("abcdefghijklmnopqrstuvwxyz"[:n])
    random.Random(seed).shuffle(tokens)
    return Genome.from_tokens(tokens)


def _random_branch(rng: random.Random, n: int, k_del: int, k_inv: int) -> Word:
    letters = []
    size = n
    for _ in range(k_del):
        letters.append(Generator.deletion(rng.randint(1, size), size))
        size -= 1
    for _ in range(k_inv):
        letters.append(Generator.inversion(rng.randint(1, size), size))
    return Word(letters, n)


def simulate(
    ancestor: Genome,
    k_del_1: int,
    k_inv_1: int,
    k_del_2: int,
    k_inv_2: int,
    seed: int,
) -> EvolutionScenario:
    """Apply deletions-then-inversions independently along two branches."""
    n = ancestor.n
    for k in (k_del_1, k_inv_1, k_del_2, k_inv_2):
        _check_int("event count", k)
    for k in (k_del_1, k_del_2):
        if k < 0 or k > n - 1:
            raise InvalidArgumentError(f"deletions per branch must be 0..{n - 1}, got {k}")
    if k_inv_1 < 0 or k_inv_2 < 0:
        raise InvalidArgumentError("inversion counts must be non-negative")
    rng = random.Random(seed)
    branch1 = _random_branch(rng, n, k_del_1, k_inv_1)
    branch2 = _random_branch(rng, n, k_del_2, k_inv_2)
    frame = ancestor.canonical
    genome1 = Genome.from_frame(apply_to_frame(frame, branch1))
    genome2 = Genome.from_frame(apply_to_frame(frame, branch2))
    return EvolutionScenario(ancestor, branch1, branch2, genome1, genome2, seed)


def replay(scenario: EvolutionScenario) -> bool:
    """Re-run the stored event words; True iff they reproduce the genomes."""
    frame = scenario.ancestor.canonical
    return (
        Genome.from_frame(apply_to_frame(frame, scenario.branch1)) == scenario.genome1
        and Genome.from_frame(apply_to_frame(frame, scenario.branch2)) == scenario.genome2
    )
