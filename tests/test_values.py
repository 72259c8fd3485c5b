"""The public value types: equal and hashed by value, read-only, pickled
whole, shown as `Name(field=...)`, and checked when built."""
import pickle

import pytest

from invdel import (AlignmentSolution, AncestorScenario, BalancedSortInstance, DistanceResult,
                    EvolutionScenario, Generator, Genome, PartialPerm, ReferenceFrame, Relation,
                    Word, construct_ancestor, enumerate_monoid, eval_generator,
                    genomes_from_token_lists, monoid_size, mrca_distance, mu_oracle,
                    random_genome, reduce_partition, relation_table, simulate)
from invdel.errors import CapacityError, InvalidArgumentError


def _pair():
    return genomes_from_token_lists("abcd", "abdc")


def _solution():
    word = Word([Generator.inversion(3, 4)])
    return AlignmentSolution(1, lambda: (word, Word((), 4)))


# class: (a builder of one value, a builder of an unequal one, the value's repr)
VALUES = {
    ReferenceFrame: (lambda: ReferenceFrame(("a", "b")), lambda: ReferenceFrame(("b", "a")),
                     "ReferenceFrame(tokens=('a', 'b'))"),
    Genome: (lambda: Genome.from_tokens("bca"), lambda: Genome.from_tokens("abcd"),
             "Genome(canonical=ReferenceFrame(tokens=('a', 'b', 'c')))"),
    Generator: (lambda: Generator.inversion(1, 3), lambda: Generator.deletion(1, 3),
                "Generator(kind='inv', i=1, n=3)"),
    Relation: (lambda: relation_table(3)[0], lambda: relation_table(3)[1],
               "Relation(rule='R1', lhs=Word('s3;3 d2;3', src=3), rhs=Word('d2;3 s2;2', src=3))"),
    AlignmentSolution: (_solution, lambda: AlignmentSolution(0, lambda: (Word((), 4),) * 2),
                        "AlignmentSolution(cost=1)"),
    DistanceResult: (lambda: mrca_distance(*_pair()), lambda: mrca_distance(*_pair()[::-1]),
                     "DistanceResult(deletions=0, best_pair=(ReferenceFrame(tokens=('a', 'b', "
                     "'c', 'd')), ReferenceFrame(tokens=('a', 'b', 'd', 'c'))), "
                     "solution=AlignmentSolution(cost=1))"),
    AncestorScenario: (lambda: construct_ancestor(mrca_distance(*_pair())),
                       lambda: construct_ancestor(mrca_distance(*_pair()[::-1])),
                       "AncestorScenario(ancestor_frame=ReferenceFrame(tokens=('a', 'b', 'd', "
                       "'c')), events_to_g1=Word('s3;4', src=4), events_to_g2=Word('', src=4), "
                       "gap_sets=((), (), (), (), ()))"),
    EvolutionScenario: (lambda: simulate(random_genome(4, 1), 1, 1, 0, 1, 3),
                        lambda: simulate(random_genome(4, 1), 1, 1, 0, 1, 4),
                        "EvolutionScenario(ancestor=Genome(canonical=ReferenceFrame(tokens=('a', "
                        "'c', 'b', 'd'))), branch1=Word('d2;4 s3;3', src=4), "
                        "branch2=Word('s2;4', src=4), genome1=Genome(canonical=ReferenceFrame("
                        "tokens=('a', 'b', 'd'))), genome2=Genome(canonical=ReferenceFrame("
                        "tokens=('a', 'b', 'c', 'd'))), seed=3)"),
    BalancedSortInstance: (lambda: reduce_partition([1, 1]), lambda: reduce_partition([1, 2]),
                           "BalancedSortInstance(sigma=PartialPerm(4, 4, {1: 2, 2: 1, 3: 4, "
                           "4: 3}), k=2)"),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_values_compare_freeze_pickle_and_show_their_fields(cls):
    make, other, shown = VALUES[cls]
    value = make()
    assert type(value) is cls
    assert value == make() and hash(value) == hash(make())
    assert not value != make()
    assert value != other()
    for name in (value._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is cls and back == value
    assert repr(value) == shown


def test_a_solution_keeps_its_words_read_only():
    sol = _solution()
    words = sol.left_inversions, sol.right_inversions
    for name in ("_words", "left_inversions"):
        with pytest.raises(AttributeError):
            setattr(sol, name, None)
    with pytest.raises(AttributeError):
        del sol._words
    assert (sol.left_inversions, sol.right_inversions) == words


SQUARE = PartialPerm(2, 2, {1: 2, 2: 1})

# a call that must be refused, and the message of its InvalidArgumentError
REFUSED = [
    pytest.param(lambda: ReferenceFrame(()),
                 "a reference frame needs at least one region", id="empty-frame"),
    pytest.param(lambda: ReferenceFrame(("a", "a")),
                 "regions in a frame must be distinct", id="repeated-region"),
    pytest.param(lambda: ReferenceFrame(("a",))._replace(tokens=()),
                 "a reference frame needs at least one region", id="frame-replace"),
    pytest.param(lambda: ReferenceFrame((1, 2, 3)),
                 "a region label is a non-empty string without whitespace, got 1",
                 id="label-not-a-string"),
    pytest.param(lambda: ReferenceFrame(("a b", "c")),
                 "a region label is a non-empty string without whitespace, got 'a b'",
                 id="label-with-a-space"),
    pytest.param(lambda: ReferenceFrame(("", "b")),
                 "a region label is a non-empty string without whitespace, got ''",
                 id="empty-label"),
    pytest.param(lambda: ReferenceFrame(("a",))._replace(tokens=("a\n",)),
                 "a region label is a non-empty string without whitespace, got 'a\\n'",
                 id="label-replace"),
    pytest.param(lambda: Genome("abc"),
                 "a genome is built from a ReferenceFrame, got 'abc'", id="genome-from-text"),
    pytest.param(lambda: Generator("inv", 1, 0), "generator size must be at least 1, got 0", id="size"),
    pytest.param(lambda: Generator("inv", 4, 3),
                 "inversion index 4 outside 1..3", id="inversion-index"),
    pytest.param(lambda: Generator("del", 1, 1),
                 "deletions need size >= 2", id="deletion-at-size-1"),
    pytest.param(lambda: Generator("del", 0, 3),
                 "deletion index 0 outside 1..3", id="deletion-index"),
    pytest.param(lambda: Generator("rot", 1, 3),
                 "rotation/reflection carries no index", id="rotation-index"),
    pytest.param(lambda: Generator("refl", 2, 3),
                 "rotation/reflection carries no index", id="reflection-index"),
    pytest.param(lambda: Generator("swap", 1, 3), "unknown generator kind 'swap'", id="kind"),
    pytest.param(lambda: Generator.rotation(3)._replace(i=1),
                 "rotation/reflection carries no index", id="generator-replace"),
    pytest.param(lambda: Generator("inv", 1.5, 3),
                 "generator index must be an integer, got 1.5", id="float-index"),
    pytest.param(lambda: Generator("inv", 1, 3.0),
                 "generator size must be an integer, got 3.0", id="float-size"),
    pytest.param(lambda: Word((), 3.0),
                 "word source size must be an integer, got 3.0", id="float-word-source"),
    pytest.param(lambda: BalancedSortInstance(PartialPerm(2, 3, {1: 3}), 1),
                 "balanced sorting is defined on square partial permutations", id="not-square"),
    pytest.param(lambda: BalancedSortInstance(SQUARE, -1),
                 "budget must be at least 0, got -1", id="negative-budget"),
    pytest.param(lambda: BalancedSortInstance(SQUARE, 1)._replace(k=-1),
                 "budget must be at least 0, got -1", id="instance-replace"),
    pytest.param(lambda: BalancedSortInstance(SQUARE, 4.5),
                 "budget must be an integer, got 4.5", id="float-budget"),
    pytest.param(lambda: Word((), -1),
                 "word source size must be at least 0, got -1", id="negative-word-source"),
    pytest.param(lambda: random_genome(2.5, 1),
                 "genome size must be an integer, got 2.5", id="float-genome-size"),
    pytest.param(lambda: random_genome(True, 1),
                 "genome size must be an integer, got True", id="bool-genome-size"),
    pytest.param(lambda: random_genome(0, 1),
                 "genome size must be at least 1, got 0", id="zero-genome-size"),
    pytest.param(lambda: simulate(random_genome(4, 1), 1.0, 0, 0, 0, 1),
                 "event count must be an integer, got 1.0", id="float-deletions"),
    pytest.param(lambda: simulate(random_genome(4, 1), 0, 0, 0, 2.5, 1),
                 "event count must be an integer, got 2.5", id="float-inversions"),
    pytest.param(lambda: monoid_size(-3),
                 "monoid size must be at least 0, got -3", id="negative-monoid-size"),
    pytest.param(lambda: monoid_size(2.5),
                 "monoid size must be an integer, got 2.5", id="float-monoid-size"),
    pytest.param(lambda: monoid_size(True),
                 "monoid size must be an integer, got True", id="bool-monoid-size"),
    pytest.param(lambda: enumerate_monoid(2.0),
                 "monoid size must be an integer, got 2.0", id="float-enumeration-size"),
    pytest.param(lambda: enumerate_monoid(0),
                 "monoid size must be at least 1, got 0", id="zero-enumeration-size"),
    # after a count for 1, which a cache keyed on value alone would return
    pytest.param(lambda: enumerate_monoid(1) and enumerate_monoid(True),
                 "monoid size must be an integer, got True", id="bool-enumeration-size"),
    pytest.param(lambda: mu_oracle(SQUARE, 2.5),
                 "depth cap must be an integer, got 2.5", id="float-depth-cap"),
]


@pytest.mark.parametrize("build, message", REFUSED)
def test_values_refuse_bad_fields(build, message):
    with pytest.raises(InvalidArgumentError) as caught:
        build()
    assert type(caught.value) is InvalidArgumentError and str(caught.value) == message


# a value above a capacity cap is a CapacityError, not a bad argument
CAPPED = [
    pytest.param(lambda: PartialPerm.identity(17), "size is capped at 16, got 17", id="pperm-size"),
    pytest.param(lambda: random_genome(17, 1), "genome size is capped at 16, got 17",
                 id="genome-size"),
    pytest.param(lambda: enumerate_monoid(9), "monoid size is capped at 8, got 9",
                 id="enumeration-size"),
]


@pytest.mark.parametrize("build, message", CAPPED)
def test_values_refuse_sizes_above_their_caps(build, message):
    with pytest.raises(CapacityError) as caught:
        build()
    assert type(caught.value) is CapacityError and str(caught.value) == message


def test_values_answer_foreign_operands():
    word = Word([Generator.inversion(1, 3), Generator.inversion(2, 3)])
    assert word[0] == Generator.inversion(1, 3) and word[1:] == (Generator.inversion(2, 3),)
    assert Generator.deletion(1, 3).src == 3
    sigma = PartialPerm.identity(2)
    assert word != 5 and not word == 5
    assert sigma != 5 and not sigma == 5
    with pytest.raises(TypeError):
        sigma * 5


def test_values_are_tuples_of_their_fields():
    frame = ReferenceFrame(("a", "b"))
    assert frame == (("a", "b"),) and len(frame) == 1 and tuple(frame) == (("a", "b"),)
    assert tuple(Generator.inversion(1, 3)) == ("inv", 1, 3)
    assert Generator.inversion(1, 3)._replace(i=2) == Generator.inversion(2, 3)


def test_words_and_partial_perms_are_read_only():
    g = Generator.inversion(1, 3)
    sigma = eval_generator(g)
    row = sigma.image_row
    with pytest.raises(AttributeError):
        sigma.m = 7
    with pytest.raises(AttributeError):
        del sigma._img
    # the refused writes left the map untouched
    assert (sigma.m, sigma.n, sigma.image_row) == (3, 3, row)
    word = Word([g])
    with pytest.raises(AttributeError):
        word.src = 5
    with pytest.raises(AttributeError):
        del word.letters
    assert (word.src, word.letters) == (3, (g,))
    for value in (sigma, word):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value
