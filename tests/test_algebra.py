import random

import pytest

from invdel import (Generator, Genome, PartialPerm, ReferenceFrame, Word,
                    WordTypeError, apply_to_frame,
                    eval_generator, eval_word, format_word, parse_word,
                    relation_table, rewrite_deletions_first)
from invdel.algebra import is_deletions_first, inversion_set
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
    assert apply_to_frame(f, Word.empty(4)) == f
    assert eval_word(Word.empty(4)) == PartialPerm.identity(4)


def test_single_swap_on_frame():
    assert apply_to_frame(frame("abcd"), parse_word("s1;4")).tokens == tuple("bacd")


def test_word_type_checked():
    with pytest.raises(WordTypeError):
        Word([Generator.inversion(1, 4), Generator.inversion(1, 3)])
    with pytest.raises(WordTypeError):
        Word([Generator.deletion(1, 4), Generator.inversion(1, 4)])
    with pytest.raises(WordTypeError):
        apply_to_frame(frame("abc"), parse_word("s1;4"))


def test_word_serialization_round_trip():
    w = parse_word("d12;12 d7;11 d4;10 a9 c9 s2;9")
    assert parse_word(format_word(w)) == w
    assert format_word(Word.empty(5)) == ""


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
        assert reference_pairs(g, g) == [(f, f)] + ([(f, flipped)] if n > 1 else [])
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


def random_word(rng, max_n=8, max_len=12):
    n = rng.randint(2, max_n)
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
