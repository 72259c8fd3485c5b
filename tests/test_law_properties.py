"""Property tests of the laws the model rests on: composition of partial
permutations is associative, evaluation turns the concatenation of words
into composition, and the distance through the common ancestor is
symmetric and zero from a genome to itself, on genomes of up to 8
regions that share some of them."""
import string

from hypothesis import given, settings, strategies as st

from invdel import Generator, Genome, PartialPerm, Word, eval_word, mrca_distance


@st.composite
def pperms(draw, m, n):
    r = draw(st.integers(0, min(m, n)))
    domain = draw(st.permutations(range(1, m + 1)))[:r]
    images = draw(st.permutations(range(1, n + 1)))[:r]
    return PartialPerm(m, n, zip(domain, images))


@st.composite
def composable_triples(draw):
    a, b, c, d = (draw(st.integers(0, 7)) for _ in range(4))
    return draw(pperms(a, b)), draw(pperms(b, c)), draw(pperms(c, d))


@st.composite
def words(draw, n):
    """A word of inversion, deletion, rotation and reflection letters
    starting at size n."""
    letters = []
    size = n
    for _ in range(draw(st.integers(0, 8))):
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


@st.composite
def word_pairs(draw):
    u = draw(words(draw(st.integers(1, 8))))
    return u, draw(words(u.tgt))


@st.composite
def genome_pairs(draw):
    """Two genomes of 1 to 8 regions drawn from a pool of 10, so they
    share some regions, all or none."""
    pool = string.ascii_lowercase[:10]
    first = draw(st.permutations(pool))[:draw(st.integers(1, 8))]
    second = draw(st.permutations(pool))[:draw(st.integers(1, 8))]
    return Genome.from_tokens(first), Genome.from_tokens(second)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(triple=composable_triples())
def test_composition_is_associative(triple):
    f, g, h = triple
    assert (f * g) * h == f * (g * h)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(pair=word_pairs())
def test_evaluation_turns_concatenation_into_composition(pair):
    u, v = pair
    assert eval_word(u + v) == eval_word(u) * eval_word(v)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(pair=genome_pairs())
def test_mrca_distance_is_symmetric(pair):
    g1, g2 = pair
    forward, backward = mrca_distance(g1, g2), mrca_distance(g2, g1)
    assert (forward.total, forward.deletions, forward.mu) == \
        (backward.total, backward.deletions, backward.mu)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(pair=genome_pairs())
def test_mrca_distance_to_itself_is_zero(pair):
    for g in pair:
        assert mrca_distance(g, g).total == 0
