"""Property test: the deletions-first rewriter, whose rules are the
relations R1..R14 read left to right, keeps a word's evaluation, reaches
the (deletions)(inversions)(dihedral) shape and never adds events, on
words starting at sizes 1 to 8."""
from hypothesis import given, settings, strategies as st

from invdel import Generator, Word, eval_word, rewrite_deletions_first
from invdel.algebra import is_deletions_first


@st.composite
def words(draw):
    n = size = draw(st.integers(1, 8))
    letters = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from("sdca" if size >= 2 else "sca"))
        if kind == "s":
            letters.append(Generator.inversion(draw(st.integers(1, size)), size))
        elif kind == "d":
            letters.append(Generator.deletion(draw(st.integers(1, size)), size))
            size -= 1
        elif kind == "c":
            letters.append(Generator.rotation(size))
        else:
            letters.append(Generator.reflection(size))
    return Word(letters, n)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(w=words())
def test_rewriter_keeps_evaluation_shape_and_event_length(w):
    out = rewrite_deletions_first(w)
    assert is_deletions_first(out)
    assert eval_word(out) == eval_word(w)
    assert out.event_length <= w.event_length
    assert (out.src, out.tgt) == (w.src, w.tgt)
