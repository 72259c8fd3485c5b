import hashlib
import random

import pytest

from invdel import (CapacityError, Generator, Genome, InvalidArgumentError, PartialPerm,
                    ReferenceFrame, Word, WordTypeError, apply_to_frame,
                    eval_generator, eval_word, format_word, parse_word,
                    relation_table, rewrite_deletions_first)
from invdel.algebra import is_deletions_first, inversion_set, parse_generator
from invdel.align import reference_pairs


def test_eval_deletion_figure():
    assert eval_generator(Generator.deletion(2, 5)) == PartialPerm(
        5, 4, {1: 1, 3: 2, 4: 3, 5: 4}
    )


def test_eval_reflection():
    assert eval_generator(Generator.reflection(4)) == PartialPerm(
        4, 4, {1: 4, 2: 3, 3: 2, 4: 1}
    )
    assert eval_generator(Generator.reflection(5)) == PartialPerm(
        5, 5, {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    )


def test_eval_degenerate_inversion():
    assert eval_generator(Generator.inversion(1, 1)) == PartialPerm.identity(1)


def test_eval_wraparound_inversion():
    assert eval_generator(Generator.inversion(5, 5)) == PartialPerm(
        5, 5, {1: 5, 2: 2, 3: 3, 4: 4, 5: 1}
    )


def frame(tokens):
    return ReferenceFrame.from_tokens(tokens)


def test_word_evaluation_deletion_chain():
    w = parse_word("d12;12 d7;11 d4;10 d3;9 s2;8")
    assert apply_to_frame(frame("abcdefghijkl"), w).tokens == tuple("aebfhijk")


def test_empty_word():
    f = frame("abcd")
    assert apply_to_frame(f, Word((), 4)) == f
    assert eval_word(Word((), 4)) == PartialPerm.identity(4)


def test_single_swap_on_frame():
    assert apply_to_frame(frame("abcd"), parse_word("s1;4")).tokens == tuple("bacd")


def test_word_type_checked():
    with pytest.raises(WordTypeError):
        Word([Generator.inversion(1, 4), Generator.inversion(1, 3)])
    with pytest.raises(WordTypeError):
        Word([Generator.deletion(1, 4), Generator.inversion(1, 4)])
    with pytest.raises(WordTypeError):
        apply_to_frame(frame("abc"), parse_word("s1;4"))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Generator("inv", 1, 0), InvalidArgumentError,
     "generator size must be at least 1, got 0"),
    (lambda: Generator.inversion(5, 4), InvalidArgumentError, "inversion index 5"),
    (lambda: Generator.deletion(0, 4), InvalidArgumentError, "deletion index 0"),
    (lambda: Generator.deletion(1, 1), InvalidArgumentError, "deletions need size >= 2"),
    (lambda: Generator("rot", 1, 4), InvalidArgumentError, "carries no index"),
    (lambda: Generator("refl", 2, 4), InvalidArgumentError, "carries no index"),
    (lambda: Generator("swap", 1, 4), InvalidArgumentError, "unknown generator kind"),
    (lambda: Word(()), WordTypeError, "explicit source size"),
    (lambda: Word([1, 2]), WordTypeError, "letters must be generators, got 1"),
    (lambda: parse_word("d1;4") + parse_word("s1;4"), WordTypeError, "cannot join"),
    (lambda: Word((), 3) + 5, TypeError,
     r"unsupported operand type\(s\) for \+: 'Word' and 'int'"),
    (lambda: parse_generator("x1"), WordTypeError, "bad generator token"),
    (lambda: relation_table(1), InvalidArgumentError, "relation size must be at least 2, got 1"),
    (lambda: relation_table(2.0), InvalidArgumentError,
     r"relation size must be an integer, got 2\.0"),
], ids=["size", "inversion-index", "deletion-index", "deletion-at-size-1", "rotation-index",
        "reflection-index", "kind", "empty-word", "not-a-letter", "join-across-sizes",
        "join-a-non-word", "token",
        "relations-floor", "float-relation-size"])
def test_algebra_refuses_bad_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_word_serialization_round_trip():
    w = parse_word("d12;12 d7;11 d4;10 a9 c9 s2;9")
    assert parse_word(format_word(w)) == w
    assert format_word(Word((), 5)) == ""


def test_dihedral_letters_generate_dihedral_group():
    for n in range(3, 7):
        c = eval_generator(Generator.rotation(n))
        a = eval_generator(Generator.reflection(n))
        group = {PartialPerm.identity(n)}
        frontier = [PartialPerm.identity(n)]
        while frontier:
            x = frontier.pop()
            for g in (c, a):
                y = x * g
                if y not in group:
                    group.add(y)
                    frontier.append(y)
        assert len(group) == 2 * n
        # the same permutations as the 2n rotations and reflections of a
        # frame by slicing: position i moves to where its token lands
        tokens = tuple(range(1, n + 1))
        readings = [tokens[k:] + tokens[:k] for k in range(n)]
        readings += [r[::-1] for r in readings]
        actions = {PartialPerm(n, n, {t: p for p, t in enumerate(r, start=1)})
                   for r in readings}
        assert group == actions


def test_relation_table_contains_figure_instances():
    rels = {(r.rule, format_word(r.lhs), format_word(r.rhs)) for r in relation_table(5)}
    assert ("R2", "s5;5 d5;5", "d1;5 c4") in rels
    assert ("R4", "s3;5 d2;5", "d2;5 s2;4") in rels


def test_relation_table_is_pinned():
    # every instance for n = 2..8, in order: the 343 that `verify --relations`
    # checks by default
    lines = [f"{r.rule}: {format_word(r.lhs)} = {format_word(r.rhs)}"
             for n in range(2, 9) for r in relation_table(n)]
    assert len(lines) == 343
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "3837a067fa649b62fe8d5431ea052ee799bacb843ae1e9d355e01ecd7067bf27"


def test_relation_table_small_sizes_evaluate_equal():
    for n in (2, 3, 4, 5):
        rels = relation_table(n)
        assert rels
        for rel in rels:
            assert eval_word(rel.lhs) == eval_word(rel.rhs), f"{rel.rule} at n={n}"


def test_relations_are_the_rewrite_rules():
    # every right-hand side is already in deletions-first shape, so each
    # relation read left to right is one rewrite step
    for n in range(2, 9):
        for rel in relation_table(n):
            assert rewrite_deletions_first(rel.lhs) == rel.rhs, f"{rel.rule} at n={n}"


def test_frame_slicing_matches_the_dihedral_letters():
    for n in range(1, 10):
        f = frame("abcdefghi"[:n])
        toks = f.tokens
        flipped = apply_to_frame(f, Word([Generator.reflection(n)]))
        assert flipped.tokens == toks[::-1]
        g = Genome.from_frame(f)  # f is already its least frame
        # one region reads the same both ways: the two pairs are equal
        assert reference_pairs(g, g) == [(f, f), (f, flipped)]
        for k in range(n):
            # the rotation construct_ancestor applies: k letters c_n
            rotated = apply_to_frame(f, Word([Generator.rotation(n)] * k, n))
            assert rotated.tokens == toks[-k:] + toks[:-k]


def test_rewriter_figure_instances():
    assert format_word(rewrite_deletions_first(parse_word("s5;5 d5;5"))) == "d1;5 c4"
    assert format_word(rewrite_deletions_first(parse_word("s3;5 d2;5"))) == "d2;5 s2;4"
    assert format_word(rewrite_deletions_first(parse_word("d2;5"))) == "d2;5"
    # size 1 states no relation: there c1 and a1 commute past s1;1
    assert format_word(rewrite_deletions_first(parse_word("c1 s1;1 a1 s1;1"))) == \
        "s1;1 s1;1 c1 a1"


def random_word(rng, max_n=8, max_len=12, min_n=2):
    n = rng.randint(min_n, max_n)
    letters = []
    size = n
    for _ in range(rng.randint(0, max_len)):
        kinds = ["inv", "rot", "refl"] + (["del"] if size >= 2 else [])
        kind = rng.choice(kinds)
        if kind == "inv":
            letters.append(Generator.inversion(rng.randint(1, size), size))
        elif kind == "del":
            letters.append(Generator.deletion(rng.randint(1, size), size))
            size -= 1
        elif kind == "rot":
            letters.append(Generator.rotation(size))
        else:
            letters.append(Generator.reflection(size))
    return Word(letters, n)


def test_rewriter_random_words():
    rng = random.Random(31)
    for _ in range(300):
        w = random_word(rng)
        out = rewrite_deletions_first(w)
        assert is_deletions_first(out), format_word(out)
        assert eval_word(out) == eval_word(w)
        assert out.event_length <= w.event_length


def test_rewriter_wraparound_over_first_deletion():
    # s_{n;n} d_{1;n} needs the inverse-rotation tail: the event length
    # drops from 2 to 1 while dihedral bookkeeping letters appear.
    w = parse_word("s5;5 d1;5")
    out = rewrite_deletions_first(w)
    assert eval_word(out) == eval_word(w)
    assert format_word(out) == "d5;5 c4 c4 c4"
    assert out.event_length == 1


def test_inversion_set_deduplicates_n2():
    assert [format_word(Word([g])) for g in inversion_set(2)] == ["s1;2"]
    assert len(inversion_set(5)) == 5
    assert len(inversion_set(1)) == 1


# -- the in-place evaluation against the product of generator maps -------------

def letters_at(size):
    """Every generator starting at `size`: all inversion indices, the
    deletions, the rotation and the reflection."""
    out = [Generator.inversion(i, size) for i in range(1, size + 1)]
    if size >= 2:
        out += [Generator.deletion(i, size) for i in range(1, size + 1)]
    return out + [Generator.rotation(size), Generator.reflection(size)]


def all_words(size, length):
    if length == 0:
        yield Word((), size)
        return
    for g in letters_at(size):
        for rest in all_words(g.tgt, length - 1):
            yield Word((g,)) + rest


def product_of_maps(w):
    """The reference evaluation: the checked generator maps, composed one
    `PartialPerm` product per letter."""
    out = PartialPerm.identity(w.src)
    for g in w:
        out = out * eval_generator(g)
    return out


def placed_by_position(frame_, w):
    """The reference replay: each token goes where the word's map sends its
    position."""
    p = product_of_maps(w)
    out = [None] * p.n
    for i, tok in enumerate(frame_.tokens, start=1):
        if p(i) is not None:
            out[p(i) - 1] = tok
    return tuple(out)


def check_word(w):
    assert eval_word(w) == product_of_maps(w), format_word(w)
    f = frame("abcdefghi"[:w.src])
    assert apply_to_frame(f, w).tokens == placed_by_position(f, w), format_word(w)


def test_eval_word_matches_the_product_on_every_short_word():
    count = 0
    for size in range(1, 5):
        for length in range(4):
            for w in all_words(size, length):
                check_word(w)
                count += 1
    assert count == 40 + 175 + 447 + 887  # from sizes 1, 2, 3 and 4


def test_eval_word_matches_the_product_on_seeded_words():
    rng = random.Random(37)
    for _ in range(2000):
        check_word(random_word(rng, max_n=9, max_len=12, min_n=5))


def test_eval_word_keeps_the_size_cap():
    with pytest.raises(CapacityError):
        eval_word(Word((), 17))
    with pytest.raises(CapacityError):
        eval_word(Word([Generator.deletion(17, 17)]))


def test_apply_to_frame_moves_a_17_region_frame_like_its_token_list():
    # past the 16 positions eval_word addresses, a frame still moves: each
    # letter does to the tokens what it does to a list of them
    tokens = [f"r{i}" for i in range(17)]
    f = frame(tokens)
    for w, moved in [
        (Word((), 17), tokens),
        (Word([Generator.deletion(17, 17)]), tokens[:16]),
        (Word([Generator.rotation(17)]), tokens[16:] + tokens[:16]),
        (Word([Generator.reflection(17)]), tokens[::-1]),
        (Word([Generator.inversion(17, 17)]), tokens[16:] + tokens[1:16] + tokens[:1]),
    ]:
        assert apply_to_frame(f, w) == frame(moved)
