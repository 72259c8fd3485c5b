import random
from itertools import permutations

import pytest

from invdel import (Generator, Genome, NoPathError, PartialPerm, Word, apply_to_frame,
                    construct_ancestor, directed_distance, distance_matrix, format_phylip,
                    format_tsv, genomes_from_token_lists, load_genomes,
                    mrca_distance, mu_oracle, random_genome, sigma_from_frames,
                    simulate, verify_scenario_report)
from invdel.errors import CapacityError, InvalidArgumentError


def test_distance_zero_for_equal_genomes():
    g1, g2 = genomes_from_token_lists("abcd", "cdab")
    assert g1 == g2
    r = mrca_distance(g1, g2)
    assert (r.total, r.deletions, r.mu) == (0, 0, 0)


def test_genomes_built_apart_compare(tmp_path):
    # genomes from two files, and equal genomes from two token-list calls
    (tmp_path / "one.txt").write_text("A: a b c d e\n")
    (tmp_path / "two.txt").write_text("B: a c b d x\n")
    [(_, a)], [(_, b)] = (load_genomes(tmp_path / f) for f in ("one.txt", "two.txt"))
    r = mrca_distance(a, b)
    assert (r.total, r.deletions, r.mu) == (3, 2, 1)
    (g1,) = genomes_from_token_lists("abcd")
    g2, _ = genomes_from_token_lists("dcba", "xyz")
    assert g1 == g2
    assert mrca_distance(g1, g2).total == 0


def test_distance_two_private_regions():
    g1, g2 = genomes_from_token_lists("abc", "abd")
    r = mrca_distance(g1, g2)
    assert (r.total, r.deletions, r.mu) == (2, 2, 0)


def test_distance_worked_pair():
    # deletions 8; the shared regions already agree cyclically after a
    # reflection, so mu = 0 (frozen from the deepening oracle over every
    # reference pair).
    g1, g2 = genomes_from_token_lists("bcdegkhl", "aebfhijk")
    oracle_mu = min(
        mu_oracle(sigma_from_frames(f1, f2), 4)
        for f1 in g1.frames()
        for f2 in g2.frames()
    )
    assert oracle_mu == 0
    r = mrca_distance(g1, g2)
    assert (r.total, r.deletions, r.mu) == (8, 8, 0)
    assert r.total <= 10  # the simulated history used 8 deletions + 2 inversions


def test_distance_symmetric():
    rng = random.Random(51)
    pool = list("abcdefgh")
    for _ in range(40):
        rng.shuffle(pool)
        t1 = pool[: rng.randint(1, 6)]
        rng.shuffle(pool)
        t2 = pool[: rng.randint(1, 6)]
        g1, g2 = genomes_from_token_lists(t1, t2)
        assert mrca_distance(g1, g2).total == mrca_distance(g2, g1).total


def test_distance_zero_iff_equal():
    rng = random.Random(52)
    pool = list("abcdef")
    for _ in range(40):
        rng.shuffle(pool)
        t1 = pool[: rng.randint(1, 6)]
        rng.shuffle(pool)
        t2 = pool[: rng.randint(1, 6)]
        g1, g2 = genomes_from_token_lists(t1, t2)
        assert (mrca_distance(g1, g2).total == 0) == (g1 == g2)


# -- directed distance ---------------------------------------------------------

def test_directed_single_deletion():
    g1, g2 = genomes_from_token_lists("abcd", "abc")
    assert directed_distance(g1, g2) == 1


def test_directed_zero():
    g1, g2 = genomes_from_token_lists("abcd", "dabc")
    assert directed_distance(g1, g2) == 0


def test_directed_one_inversion():
    g1, g2 = genomes_from_token_lists("abcd", "bacd")
    assert g1 != g2
    assert directed_distance(g1, g2) == 1


def test_directed_requires_subset():
    g1, g2 = genomes_from_token_lists("abc", "abd")
    with pytest.raises(NoPathError):
        directed_distance(g1, g2)


def test_directed_bounds_mrca():
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randint(3, 7)
        ancestor = random_genome(n, rng.randrange(1 << 30))
        sc = simulate(ancestor, rng.randint(0, n - 2), rng.randint(0, 2), 0, 0, rng.randrange(1 << 30))
        g1, g2 = sc.genome2, sc.genome1  # g2's regions within g1's
        d = directed_distance(g1, g2)
        assert d >= len(g1.regions - g2.regions)
        assert mrca_distance(g1, g2).total <= d


NESTED_16_12 = ("r10 r14 r5 r1 r9 r2 r3 r11 r13 r7 r8 r4 r0 r6 r15 r12".split(),
                "r0 r3 r13 r5 r14 r10 r12 r2 r11 r7 r9 r15".split())


def test_full_rank_pairings_are_never_searched(monkeypatch):
    # when one genome's regions contain the other's, the pairing has full
    # rank and takes the closed form, however many regions are private
    from invdel import align

    # the probe stays the reference for the closed form on m < n, past the
    # class tables' anchor at seven regions
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(2, 10)
        m = rng.randint(1, n - 1)
        sources = [PartialPerm(m, n, zip(range(1, m + 1), rng.sample(range(1, n + 1), m)))
                   for _ in range(rng.randint(1, 3))]
        index, closed = align.solve_sources(sources)
        searched_index, searched = align._search_sources(sources)
        assert (index, closed.cost) == (searched_index, searched.cost), sources
        assert closed.left_inversions == searched.left_inversions, sources
        assert closed.right_inversions == searched.right_inversions, sources

    pairs = [genomes_from_token_lists("abcdefghijkl", "cahfbedg"),
             genomes_from_token_lists(*NESTED_16_12)]

    def refuse(sources):
        raise AssertionError("searched")

    monkeypatch.setattr(align, "_search_sources", refuse)
    for (g1, g2), expected in zip(pairs, (10, 20)):
        assert mrca_distance(g1, g2).total == mrca_distance(g2, g1).total == expected
        assert directed_distance(g1, g2) == expected


def test_directed_capacity(monkeypatch):
    # the size limit is not the target's region count: a close 11-region
    # target solves, and since the target's regions all lie in the source's,
    # the pairing has full rank and the distance never searches, even at
    # 16 regions to 14
    from invdel import align

    g1, g2 = genomes_from_token_lists("abcdefghijkl", "abcedfghikj")
    assert directed_distance(g1, g2) == 3  # one deletion, two inversions

    def refuse(sources):
        raise AssertionError("searched")

    monkeypatch.setattr(align, "_search_sources", refuse)
    g1, g2 = genomes_from_token_lists("abcdefghijklmnop", "abdcefghjilmno")
    # two deletions and two swaps; the deepening oracle gives the surviving
    # regions mu 2 on the direct pair and more than 2 on the reflected one
    assert directed_distance(g1, g2) == 4


# -- ancestor construction ------------------------------------------------------

def test_ancestor_worked_example():
    g1, g2 = genomes_from_token_lists("aefbgcdh", "iajkblcd")
    result = mrca_distance(g1, g2)
    sc = construct_ancestor(result)
    assert sc.ancestor_frame.tokens == tuple("iaefjkbglcdh")
    assert sc.gap_sets == (("i",), ("j", "k"), ("l",), (), ())
    assert verify_scenario_report(sc, g1, g2, expected=result.total)[0]
    assert sc.ancestor.regions == g1.regions | g2.regions


def test_ancestor_of_identical_genomes():
    g, _ = genomes_from_token_lists("abcd", "abcd")
    sc = construct_ancestor(mrca_distance(g, g))
    assert sc.ancestor == g
    assert sc.event_count == 0


def test_ancestor_round_trip_random():
    rng = random.Random(54)
    for _ in range(30):
        n = rng.randint(2, 6)
        ancestor = random_genome(n, rng.randrange(1 << 30))
        sc = simulate(ancestor, rng.randint(0, min(3, n - 1)), rng.randint(0, 3),
                      rng.randint(0, min(3, n - 1)), rng.randint(0, 3),
                      rng.randrange(1 << 30))
        result = mrca_distance(sc.genome1, sc.genome2)
        built = construct_ancestor(result)
        ok, report = verify_scenario_report(built, sc.genome1, sc.genome2, expected=result.total)
        assert ok, report
        assert built.event_count == result.total


def test_ancestor_disjoint_regions():
    g1, g2 = genomes_from_token_lists("abc", "xyz")
    result = mrca_distance(g1, g2)
    sc = construct_ancestor(result)
    assert verify_scenario_report(sc, g1, g2, expected=result.total)[0]
    assert sc.event_count == 6


def test_ancestor_round_trip_every_small_pair():
    # every genome of 1-4 regions from five letters, against every one
    genomes = list(dict.fromkeys(
        Genome.from_tokens(p) for k in range(1, 5) for p in permutations("abcde", k)))
    assert len(genomes) == 40
    turned = disjoint = 0
    for g1 in genomes:
        for g2 in genomes:
            result = mrca_distance(g1, g2)
            sc = construct_ancestor(result)
            # ok also means event_count == result.total
            ok, report = verify_scenario_report(sc, g1, g2, expected=result.total)
            assert ok, (str(g1), str(g2), report)
            # the second frame was rotated when the ancestor does not land on it
            turned += apply_to_frame(sc.ancestor_frame, sc.events_to_g2) != result.best_pair[1]
            disjoint += not g1.regions & g2.regions
    assert (turned, disjoint) == (616, 200)


def test_ancestor_beyond_the_position_cap_is_refused():
    # 9 + 9 regions sharing one: the distance is found, but the ancestor
    # needs one position more than a partial permutation can address
    g1, g2 = genomes_from_token_lists("abcdefghi", "ijklmnopq")
    result = mrca_distance(g1, g2)
    with pytest.raises(CapacityError, match="the ancestor has 17 regions"):
        construct_ancestor(result)


def test_verify_rejects_tampered_scenario():
    from invdel.distance import AncestorScenario

    g1, g2 = genomes_from_token_lists("abcd", "abdc")
    result = mrca_distance(g1, g2)
    sc = construct_ancestor(result)
    assert verify_scenario_report(sc, g1, g2, expected=result.total)[0]
    assert sc.event_count > 0
    dropped = AncestorScenario(
        sc.ancestor_frame,
        Word(sc.events_to_g1.letters[:-1], sc.events_to_g1.src)
        if len(sc.events_to_g1) else sc.events_to_g1,
        sc.events_to_g2 if len(sc.events_to_g1) else
        Word(sc.events_to_g2.letters[:-1], sc.events_to_g2.src),
        sc.gap_sets,
    )
    ok, report = verify_scenario_report(dropped, g1, g2, expected=result.total)
    assert not ok and report != "ok"


@pytest.mark.parametrize("tamper, problem", [
    (lambda sc: sc._replace(events_to_g2=sc.events_to_g2 + Word([Generator.inversion(1, 4)])),
     "side 2 lands in"),
    (lambda sc: sc._replace(events_to_g1=Word((), 3)),
     "side 1 replay failed: word starts at size 3 but frame has 4 regions"),
    (lambda sc: sc._replace(events_to_g2=Word((), 5)),
     "side 2 replay failed: word starts at size 5 but frame has 4 regions"),
], ids=["side-2-elsewhere", "replay-raises", "side-2-replay-raises"])
def test_verify_reports_a_bad_replay(tamper, problem):
    g1, g2 = genomes_from_token_lists("abcd", "abdc")
    result = mrca_distance(g1, g2)
    ok, report = verify_scenario_report(tamper(construct_ancestor(result)), g1, g2,
                                        expected=result.total)
    assert not ok and problem in report


def test_events_are_deletions_then_inversions():
    g1, g2 = genomes_from_token_lists("abcdef", "abdcfe")
    sc = construct_ancestor(mrca_distance(g1, g2))
    for word in (sc.events_to_g1, sc.events_to_g2):
        kinds = [g.kind for g in word]
        assert kinds == sorted(kinds, key=lambda k: 0 if k == "del" else 1)


# -- matrices -------------------------------------------------------------------

def test_matrix_properties():
    g = genomes_from_token_lists("abcd", "abdc", "acbd")
    m = distance_matrix(g)
    assert all(m[i][i] == 0 for i in range(3))
    assert all(m[i][j] == m[j][i] for i in range(3) for j in range(3))


def test_matrix_of_identical_genomes():
    g = genomes_from_token_lists("abc", "bca")
    m = distance_matrix(g)
    assert m == [[0, 0], [0, 0]]


def test_matrix_needs_two():
    g = genomes_from_token_lists("abc")
    with pytest.raises(InvalidArgumentError):
        distance_matrix(g)


def test_phylip_format():
    names = ["alpha", "beta"]
    text = format_phylip(names, [[0, 3], [3, 0]])
    lines = text.splitlines()
    assert lines[0] == "2"
    assert lines[1] == "alpha     0 3"
    assert lines[2] == "beta      3 0"


def test_phylip_rejects_long_names():
    with pytest.raises(InvalidArgumentError):
        format_phylip(["x" * 11], [[0]])


def test_tsv_format():
    text = format_tsv(["a", "b"], [[0, 1], [1, 0]])
    lines = text.splitlines()
    assert lines[0] == "name\ta\tb"
    assert lines[1] == "a\t0\t1"


def _sorting_distance(g1, g2):
    """Deletions, then the fewest circular adjacent swaps carrying the first
    genome's surviving regions onto a frame of the second."""
    keep = g2.regions
    start = tuple(t for t in g1.canonical.tokens if t in keep)
    targets = {f.tokens for f in g2.frames()}
    k = len(start)
    swaps = [(i, (i + 1) % k) for i in range(k)] if k > 2 else [(0, 1)][: k - 1]
    dist = {start: 0}
    layer = [start]
    while not targets & set(layer):
        nxt = []
        for tokens in layer:
            for a, b in swaps:
                lst = list(tokens)
                lst[a], lst[b] = lst[b], lst[a]
                moved = tuple(lst)
                if moved not in dist:
                    dist[moved] = dist[tokens] + 1
                    nxt.append(moved)
        layer = nxt
    return len(g1.regions) - k + dist[layer[0]]


def test_directed_equals_mrca_on_all_small_subset_pairs():
    from itertools import combinations, permutations

    checked = 0
    for n in range(2, 6):
        letters = "abcde"[:n]
        for rest in permutations(letters[1:]):
            t1 = letters[0] + "".join(rest)
            for k in range(1, n + 1):
                for subset in combinations(letters, k):
                    for tail in permutations(subset[1:]):
                        t2 = subset[0] + "".join(tail)
                        g1, g2 = genomes_from_token_lists(t1, t2)
                        d = directed_distance(g1, g2)
                        assert d == mrca_distance(g1, g2).total == _sorting_distance(g1, g2), (t1, t2)
                        checked += 1
    assert checked == 2299
