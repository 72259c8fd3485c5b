import random

import pytest

from invdel import (InvalidArgumentError, ReferenceFrame,
                    apply_to_frame, mrca_distance, parse_word, random_genome,
                    replay, simulate)
from invdel.errors import CapacityError


def test_random_genome_deterministic():
    assert random_genome(6, 99) == random_genome(6, 99)


def test_random_genome_size_one():
    g = random_genome(1, 5)
    assert g.canonical.tokens == ("a",)


def test_all_three_region_genomes_coincide():
    # (3-1)!/2 = 1 dihedral class on a fixed token set
    assert random_genome(3, 1) == random_genome(3, 2) == random_genome(3, 77)


def test_random_genome_capacity():
    with pytest.raises(CapacityError):
        random_genome(17, 0)


def test_simulate_no_events():
    anc = random_genome(5, 3)
    sc = simulate(anc, 0, 0, 0, 0, 42)
    assert sc.genome1 == anc and sc.genome2 == anc
    assert sc.event_count == 0


def test_simulate_replays():
    rng = random.Random(61)
    for seed in range(25):
        n = rng.randint(2, 8)
        anc = random_genome(n, seed)
        sc = simulate(anc, rng.randint(0, n - 1), rng.randint(0, 3),
                      rng.randint(0, n - 1), rng.randint(0, 3), seed)
        assert replay(sc)
        assert simulate(anc, len([g for g in sc.branch1 if g.kind == "del"]),
                        len([g for g in sc.branch1 if g.kind == "inv"]),
                        len([g for g in sc.branch2 if g.kind == "del"]),
                        len([g for g in sc.branch2 if g.kind == "inv"]),
                        seed).branch1 == sc.branch1


def test_simulate_rejects_too_many_deletions():
    anc = random_genome(4, 0)
    with pytest.raises(InvalidArgumentError):
        simulate(anc, 4, 0, 0, 0, 1)


@pytest.mark.parametrize("inversions1, inversions2", [(-1, 0), (0, -1)],
                         ids=["branch-1", "branch-2"])
def test_simulate_rejects_negative_inversions(inversions1, inversions2):
    with pytest.raises(InvalidArgumentError, match="inversion counts must be non-negative"):
        simulate(random_genome(4, 0), 0, inversions1, 0, inversions2, 1)


def test_worked_scenario_replay():
    # ancestor abcdefghijkl; one branch deletes positions 1, 6, 9, 10 then
    # inverts positions 6/7; the other deletes 3, 4, 7, 12 then inverts 2/3.
    frame = ReferenceFrame.from_tokens("abcdefghijkl")
    branch1 = parse_word("d10;12 d9;11 d6;10 d1;9 s6;8")
    branch2 = parse_word("d12;12 d7;11 d4;10 d3;9 s2;8")
    assert apply_to_frame(frame, branch1).tokens == tuple("bcdegkhl")
    assert apply_to_frame(frame, branch2).tokens == tuple("aebfhijk")


def test_parsimony_upper_bound():
    rng = random.Random(62)
    for seed in range(20):
        n = rng.randint(3, 7)
        anc = random_genome(n, seed)
        sc = simulate(anc, rng.randint(0, 2), rng.randint(0, 3),
                      rng.randint(0, 2), rng.randint(0, 3), seed)
        assert mrca_distance(sc.genome1, sc.genome2).total <= sc.event_count
