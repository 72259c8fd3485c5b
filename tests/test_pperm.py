import random

import pytest

from invdel import (CapacityError, InvalidArgumentError, PartialPerm,
                    all_partial_perms, sigma_from_frames)
from invdel.pperm import _swap_pairs, _value_swaps

# The worked composition example: f in I_{5,5}, g in I_{5,4}.
F = PartialPerm(5, 5, {1: 4, 2: 2, 4: 3, 5: 5})
G = PartialPerm(5, 4, {1: 1, 2: 4, 3: 2, 5: 3})

# The 8x6 pairing of frames "abcdefgh" / "eibach".
SIGMA86 = sigma_from_frames("abcdefgh", "eibach")


def random_pperm(rng, m, n):
    r = rng.randint(0, min(m, n))
    dom = rng.sample(range(1, m + 1), r)
    img = rng.sample(range(1, n + 1), r)
    return PartialPerm(m, n, zip(dom, img))


def test_composition_worked_example():
    assert F * G == PartialPerm(5, 4, {2: 4, 4: 2, 5: 3})


def test_composition_identity_and_empty():
    assert F * PartialPerm.identity(5) == F
    assert F * PartialPerm.empty(5, 3) == PartialPerm.empty(5, 3)


def test_composition_size_mismatch():
    with pytest.raises(InvalidArgumentError):
        F * PartialPerm(4, 4, {})


def test_inverse_swaps_pairs():
    f = PartialPerm(5, 4, {2: 4, 4: 2, 5: 3})
    assert f.inverse() == PartialPerm(4, 5, {4: 2, 2: 4, 3: 5})
    assert PartialPerm.identity(4).inverse() == PartialPerm.identity(4)
    assert PartialPerm.empty(3, 5).inverse() == PartialPerm.empty(5, 3)


def test_inverse_monoid_axioms():
    rng = random.Random(11)
    for _ in range(200):
        f = random_pperm(rng, rng.randint(0, 6), rng.randint(0, 6))
        finv = f.inverse()
        assert f * finv * f == f
        assert finv * f * finv == finv


def test_compose_associative():
    rng = random.Random(12)
    for _ in range(200):
        m, n, p, q = (rng.randint(0, 5) for _ in range(4))
        f = random_pperm(rng, m, n)
        g = random_pperm(rng, n, p)
        h = random_pperm(rng, p, q)
        assert (f * g) * h == f * (g * h)


def test_sigma_from_frames_worked_example():
    assert SIGMA86 == PartialPerm(8, 6, {1: 4, 2: 3, 3: 5, 5: 1, 8: 6})


def test_sigma_identity_and_disjoint():
    assert sigma_from_frames("abcd", "abcd") == PartialPerm.identity(4)
    assert sigma_from_frames("abc", "xyz") == PartialPerm.empty(3, 3)


def checked_pairing(t1, t2):
    """The reference: the pairs of equal regions, through the checked
    constructor."""
    where = {tok: j for j, tok in enumerate(t2, start=1)}
    return PartialPerm(len(t1), len(t2),
                       ((i, where[tok]) for i, tok in enumerate(t1, start=1) if tok in where))


def test_sigma_matches_the_checked_pairing():
    rng = random.Random(12)
    pool = ["a", "b", "r2", "r10", "geneA", "x", "y", "z", "w", "v"]
    for _ in range(500):
        t1 = rng.sample(pool, rng.randint(1, 10))
        t2 = rng.sample(pool, rng.randint(1, 10))
        assert sigma_from_frames(t1, t2) == checked_pairing(t1, t2)
    with pytest.raises(CapacityError):
        sigma_from_frames([f"r{i}" for i in range(17)], "ab")


def test_sigma_inverse_symmetry():
    rng = random.Random(13)
    pool = list("abcdefgh")
    for _ in range(100):
        rng.shuffle(pool)
        t1 = tuple(pool[: rng.randint(1, 6)])
        rng.shuffle(pool)
        t2 = tuple(pool[: rng.randint(1, 6)])
        assert sigma_from_frames(t1, t2).inverse() == sigma_from_frames(t2, t1)


def test_order_preserving():
    d25 = PartialPerm(5, 4, {1: 1, 3: 2, 4: 3, 5: 4})
    assert d25.is_order_preserving()
    assert not SIGMA86.is_order_preserving()  # (1,5) crosses: 1<5 but 4>1
    assert PartialPerm.empty(4, 4).is_order_preserving()


def test_orientation_preserving():
    assert PartialPerm(2, 2, {1: 2, 2: 1}).is_orientation_preserving()
    # images along the domain are 4,3,5,1,6: three cyclic descents
    assert not SIGMA86.is_orientation_preserving()
    for sig in all_partial_perms(3, 3):
        if sig.rank <= 1:
            assert sig.is_orientation_preserving()


def test_order_preserving_means_no_crossing():
    for m in range(5):
        for n in range(5):
            for sig in all_partial_perms(m, n):
                assert sig.is_order_preserving() == (not sig.crossings()), sig


def test_order_implies_orientation():
    for sig in all_partial_perms(4, 3):
        if sig.is_order_preserving():
            assert sig.is_orientation_preserving()


def test_crossings_worked_example():
    assert SIGMA86.crossings() == [(1, 2), (1, 5), (2, 5), (3, 5)]
    assert PartialPerm.identity(6).crossings() == []


def test_crossings_match_pairwise_oracle():
    rng = random.Random(14)
    for _ in range(100):
        f = random_pperm(rng, 6, 6)
        pairs = f.pairs()
        expected = [
            (i, j)
            for a, (i, fi) in enumerate(pairs)
            for (j, fj) in (pairs[b] for b in range(a + 1, len(pairs)))
            if fi > fj
        ]
        assert f.crossings() == expected


def test_crossing_count_is_inversion_number_for_full_perms():
    rng = random.Random(15)
    for _ in range(50):
        perm = rng.sample(range(1, 7), 6)
        f = PartialPerm(6, 6, enumerate(perm, start=1))
        inv = sum(1 for i in range(6) for j in range(i + 1, 6) if perm[i] > perm[j])
        assert len(f.crossings()) == inv


def test_injectivity_enforced():
    with pytest.raises(InvalidArgumentError):
        PartialPerm(3, 3, {1: 2, 2: 2})
    with pytest.raises(InvalidArgumentError):
        PartialPerm(3, 3, [(1, 1), (1, 2)])


@pytest.mark.parametrize("build, message", [
    (lambda: PartialPerm(-1, 3), "sizes must be non-negative"),
    (lambda: PartialPerm(2, 3, {3: 1}), "domain point 3 outside"),
    (lambda: PartialPerm(2, 3, {1: 4}), "image point 4 outside"),
    (lambda: PartialPerm(2, 3, {1: 1})(3), "position 3 outside"),
    (lambda: sigma_from_frames("aba", "ab"), "first frame has repeated regions"),
    (lambda: sigma_from_frames("ab", "abb"), "second frame has repeated regions"),
], ids=["negative-size", "domain-point", "image-point", "call", "first-frame", "second-frame"])
def test_pperm_refuses_bad_input(build, message):
    with pytest.raises(InvalidArgumentError, match=message):
        build()


def test_capacity_guard():
    with pytest.raises(CapacityError):
        PartialPerm(17, 3, {})
    with pytest.raises(CapacityError):
        PartialPerm.identity(17)


def test_counts_match_closed_formula():
    from math import comb, factorial

    for m in range(0, 5):
        for n in range(0, 5):
            expected = sum(comb(m, r) * comb(n, r) * factorial(r) for r in range(min(m, n) + 1))
            assert sum(1 for _ in all_partial_perms(m, n)) == expected


def test_value_swaps_match_the_per_entry_rewrite():
    # every row with m, n <= 6 and every value pair a right move exchanges;
    # on a partial row one or both values may be absent
    def rewrite(row, a, b):
        return tuple(b if v == a else a if v == b else v for v in row)

    def check(row, n):
        for (a, b), table in zip(_swap_pairs(n), _value_swaps(n), strict=True):
            assert bytes(row).translate(table) == bytes(rewrite(row, a + 1, b + 1))

    checked = 0
    for m in range(1, 7):
        for n in range(1, 7):
            for p in all_partial_perms(m, n):
                check(p.image_row, n)
                checked += len(_swap_pairs(n))
    assert checked == 152_568
    # 16-position rows holding 16, the highest value a table rewrites, with
    # and without 1, its partner in the wraparound pair (16, 1)
    assert _swap_pairs(16)[-1] == (15, 0)
    rng = random.Random(39)
    with_one = 0
    for _ in range(200):
        r = rng.randint(1, 16)
        values = [16] + rng.sample(range(1, 16), r - 1)
        check(PartialPerm(16, 16, zip(rng.sample(range(1, 17), r), values)).image_row, 16)
        with_one += 1 in values
    assert 0 < with_one < 200
