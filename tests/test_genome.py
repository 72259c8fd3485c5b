import random

import pytest

from invdel import (Generator, GenomeParseError,
                    InvalidArgumentError, ReferenceFrame, Word,
                    apply_to_frame, canonicalize, genomes_from_token_lists,
                    parse_genomes, region_set_ops)


def frame(tokens):
    return ReferenceFrame.from_tokens(tokens)


def test_rotation_matches_figure():
    six = Word([Generator.rotation(8)] * 6)
    assert apply_to_frame(frame("abcdefgh"), six).tokens == tuple("cdefghab")


def test_reflection_matches_figure():
    flip = Word([Generator.reflection(8)])
    assert apply_to_frame(frame("abcdefgh"), flip).tokens == tuple("hgfedcba")


def test_canonicalize_examples():
    assert canonicalize(frame("cdab")).canonical.tokens == tuple("abcd")
    assert canonicalize(frame("hgfedcba")).canonical.tokens == tuple("abcdefgh")
    assert canonicalize(frame("a")).canonical.tokens == ("a",)


def test_canonicalize_idempotent_and_orbit_invariant():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 8)
        toks = rng.sample("abcdefghij", n)
        f = frame(toks)
        g = canonicalize(f)
        assert canonicalize(g.canonical) == g
        sym = Word([Generator.rotation(n)] * rng.randrange(n)
                   + [Generator.reflection(n)] * rng.randrange(2), n)
        assert canonicalize(apply_to_frame(f, sym)) == g


def test_frames_counts_and_membership():
    g3 = canonicalize(frame("abc"))
    assert {f.tokens for f in g3.frames()} == {
        tuple("abc"), tuple("bca"), tuple("cab"),
        tuple("cba"), tuple("bac"), tuple("acb"),
    }
    g2 = canonicalize(frame("ab"))
    assert {f.tokens for f in g2.frames()} == {("a", "b"), ("b", "a")}
    g8 = canonicalize(frame("abcdefgh"))
    frames8 = {f.tokens for f in g8.frames()}
    assert len(frames8) == 16
    assert tuple("cdefghab") in frames8 and tuple("hgfedcba") in frames8
    g1 = canonicalize(frame("a"))
    assert len(g1.frames()) == 1


def test_frames_contains_original():
    rng = random.Random(24)
    for _ in range(50):
        toks = rng.sample("abcdefghij", rng.randint(1, 8))
        f = frame(toks)
        assert f in canonicalize(f).frames()


def test_genome_equality_is_dihedral():
    a, b, c = genomes_from_token_lists("abc", "bca", "acb")
    assert a == b == c
    assert len({a, b, c}) == 1
    d = genomes_from_token_lists("abcd", "abdc")
    assert d[0] != d[1]


def test_region_set_ops_figure():
    g1, g2 = genomes_from_token_lists("abcdefgh", "eibach")
    inter, sym, union = region_set_ops(g1, g2)
    assert inter == frozenset("abceh")
    assert sym == frozenset("dfgi")
    assert union == frozenset("abcdefghi")


def test_region_set_ops_trivial():
    g1, g2 = genomes_from_token_lists("abc", "abc")
    assert region_set_ops(g1, g2)[1] == frozenset()
    g3, g4 = genomes_from_token_lists("abc", "xyz")
    inter, sym, _ = region_set_ops(g3, g4)
    assert inter == frozenset() and len(sym) == 6


def test_symmetric_difference_identity():
    rng = random.Random(25)
    pool = list("abcdefghij")
    for _ in range(50):
        rng.shuffle(pool)
        t1 = pool[: rng.randint(1, 8)]
        rng.shuffle(pool)
        t2 = pool[: rng.randint(1, 8)]
        g1, g2 = genomes_from_token_lists(t1, t2)
        inter, sym, _ = region_set_ops(g1, g2)
        assert len(sym) == len(t1) + len(t2) - 2 * len(inter)


def test_separately_built_genomes_compare():
    # a genome is its region word: lists built apart give equal genomes
    # when the words match, and any two genomes have region-set operations
    (g1,) = genomes_from_token_lists("abc")
    g2, g3 = genomes_from_token_lists("cba", "abdx")
    assert g1 == g2 and len({g1, g2}) == 1
    assert region_set_ops(g1, g3) == (frozenset("ab"), frozenset("cdx"), frozenset("abcdx"))


def test_frame_validation():
    with pytest.raises(InvalidArgumentError):
        ReferenceFrame.from_tokens("aba")
    with pytest.raises(InvalidArgumentError):
        ReferenceFrame.from_tokens("")


# -- genome file parsing ------------------------------------------------------

GOOD = """\
# two small genomes
G1: a b c d
G2: a c b e

empty_ok_comment: x y
"""


def test_parse_genomes():
    named = parse_genomes(GOOD)
    assert [name for name, _ in named] == ["G1", "G2", "empty_ok_comment"]
    byname = dict(named)
    assert byname["G1"].regions == frozenset("abcd")


@pytest.mark.parametrize("text,lineno", [
    ("G1 a b c", 1),
    ("G1:", 1),
    (": a b", 1),
    ("G1: a b\nG2: a a", 2),
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(GenomeParseError) as exc:
        parse_genomes(text)
    assert exc.value.line == lineno


def test_parse_duplicate_names():
    with pytest.raises(GenomeParseError):
        parse_genomes("G: a b\nG: b a")
