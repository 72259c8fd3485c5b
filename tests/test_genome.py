import random
from itertools import permutations

import pytest

from invdel import (Generator, Genome, GenomeParseError,
                    InvalidArgumentError, ReferenceFrame, Word,
                    apply_to_frame, genomes_from_token_lists, load_genomes,
                    parse_genomes)
from invdel.genome import _orbit


def frame(tokens):
    return ReferenceFrame.from_tokens(tokens)


def test_rotation_matches_figure():
    six = Word([Generator.rotation(8)] * 6)
    assert apply_to_frame(frame("abcdefgh"), six).tokens == tuple("cdefghab")


def test_reflection_matches_figure():
    flip = Word([Generator.reflection(8)])
    assert apply_to_frame(frame("abcdefgh"), flip).tokens == tuple("hgfedcba")


def test_canonicalize_examples():
    assert Genome.from_frame(frame("cdab")).canonical.tokens == tuple("abcd")
    assert Genome.from_frame(frame("hgfedcba")).canonical.tokens == tuple("abcdefgh")
    assert Genome.from_frame(frame("a")).canonical.tokens == ("a",)


@pytest.mark.parametrize("pool", [tuple("abcdefg"), ("r2", "r10", "geneA", "r1", "b", "a1", "Zed")],
                         ids=["letters", "multi-character"])
def test_canonical_frame_is_the_least_orbit_word(pool):
    # the reference: every rotation of the word and of its reflection
    for k in range(1, len(pool) + 1):
        for toks in permutations(pool[:k]):
            assert Genome.from_frame(frame(toks)).canonical.tokens == min(_orbit(toks))


def test_canonicalize_idempotent_and_orbit_invariant():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 8)
        toks = rng.sample("abcdefghij", n)
        f = frame(toks)
        g = Genome.from_frame(f)
        assert Genome.from_frame(g.canonical) == g
        sym = Word([Generator.rotation(n)] * rng.randrange(n)
                   + [Generator.reflection(n)] * rng.randrange(2), n)
        assert Genome.from_frame(apply_to_frame(f, sym)) == g


def test_genome_constructor_canonicalizes():
    # `Genome(frame)` keeps the least frame of the class, as `from_frame` does
    assert Genome(frame("bac")) == Genome.from_tokens("bac") == Genome.from_frame(frame("cab"))
    assert Genome(frame("bac")).canonical.tokens == tuple("abc")
    assert Genome.from_tokens("abc")._replace(canonical=frame("dcab")).canonical == frame("abdc")
    # the repr reads back: the argument goes by the field's name
    shown = repr(Genome(frame("cba")))
    assert eval(shown) == Genome(canonical=frame("bca")) == Genome(frame("abc"))


def test_frame_takes_any_iterable_of_labels():
    # a frame keeps its labels as a tuple, so it hashes whatever they came in
    for tokens in (["a", "b"], iter("ab"), "ab"):
        built = ReferenceFrame(tokens)
        assert built.tokens == ("a", "b")
        assert built == frame("ab") and hash(built) == hash(frame("ab"))


def test_frames_counts_and_membership():
    g3 = Genome.from_frame(frame("abc"))
    assert {f.tokens for f in g3.frames()} == {
        tuple("abc"), tuple("bca"), tuple("cab"),
        tuple("cba"), tuple("bac"), tuple("acb"),
    }
    g2 = Genome.from_frame(frame("ab"))
    assert {f.tokens for f in g2.frames()} == {("a", "b"), ("b", "a")}
    g8 = Genome.from_frame(frame("abcdefgh"))
    frames8 = {f.tokens for f in g8.frames()}
    assert len(frames8) == 16
    assert tuple("cdefghab") in frames8 and tuple("hgfedcba") in frames8
    g1 = Genome.from_frame(frame("a"))
    assert len(g1.frames()) == 1


def test_frames_contains_original():
    rng = random.Random(24)
    for _ in range(50):
        toks = rng.sample("abcdefghij", rng.randint(1, 8))
        f = frame(toks)
        assert f in Genome.from_frame(f).frames()


def test_genome_equality_is_dihedral():
    a, b, c = genomes_from_token_lists("abc", "bca", "acb")
    assert a == b == c
    assert len({a, b, c}) == 1
    d = genomes_from_token_lists("abcd", "abdc")
    assert d[0] != d[1]


def test_region_set_ops_figure():
    g1, g2 = genomes_from_token_lists("abcdefgh", "eibach")
    r1, r2 = g1.regions, g2.regions
    inter, sym, union = r1 & r2, r1 ^ r2, r1 | r2
    assert inter == frozenset("abceh")
    assert sym == frozenset("dfgi")
    assert union == frozenset("abcdefghi")


def test_region_set_ops_trivial():
    g1, g2 = genomes_from_token_lists("abc", "abc")
    assert g1.regions ^ g2.regions == frozenset()
    g3, g4 = genomes_from_token_lists("abc", "xyz")
    inter, sym = g3.regions & g4.regions, g3.regions ^ g4.regions
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
        inter, sym = g1.regions & g2.regions, g1.regions ^ g2.regions
        assert len(sym) == len(t1) + len(t2) - 2 * len(inter)


def test_separately_built_genomes_compare():
    # a genome is its region word: lists built apart give equal genomes
    # when the words match, and any two genomes have region-set operations
    (g1,) = genomes_from_token_lists("abc")
    g2, g3 = genomes_from_token_lists("cba", "abdx")
    assert g1 == g2 and len({g1, g2}) == 1
    r1, r3 = g1.regions, g3.regions
    assert (r1 & r3, r1 ^ r3, r1 | r3) == (frozenset("ab"), frozenset("cdx"), frozenset("abcdx"))


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
    ("G1: a b\nG 2: b a", 2),
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(GenomeParseError) as exc:
        parse_genomes(text)
    assert exc.value.line == lineno


def test_parse_duplicate_names():
    with pytest.raises(GenomeParseError):
        parse_genomes("G: a b\nG: b a")


LF = b"# pair\nA: a b c d\n\nB: a c b d e\n"


@pytest.mark.parametrize("data", [
    LF.replace(b"\n", b"\r\n"),
    LF.replace(b"\n", b"\r"),
    b"\xef\xbb\xbf" + LF.replace(b"\n", b"\r\n"),
    b"\xef\xbb\xbf" + LF,
], ids=["crlf", "cr", "bom-crlf", "bom-lf"])
def test_line_endings_and_mark_parse_as_lf(tmp_path, data):
    (tmp_path / "lf.txt").write_bytes(LF)
    (tmp_path / "other.txt").write_bytes(data)
    assert load_genomes(tmp_path / "other.txt") == load_genomes(tmp_path / "lf.txt")
    # a parse error reports the same line number whatever ends the lines
    (tmp_path / "bad.txt").write_bytes(data.replace(b"e", b"a"))
    with pytest.raises(GenomeParseError, match="^line 4: genome 'B' repeats a region$"):
        load_genomes(tmp_path / "bad.txt")


def test_not_utf8_error_names_the_byte(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xef\xbb\xbfA: a b \xff\nB: a b\n")
    with pytest.raises(GenomeParseError) as exc:
        load_genomes(path)
    # the offset counts the byte-order mark: it is taken off after decoding
    assert str(exc.value) == f"{str(path)!r} is not UTF-8 text: byte 10 cannot be decoded"
