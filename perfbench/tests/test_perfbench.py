"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q      # from the checkout root
"""
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import inputs  # noqa: E402
from checks import CheckError, check_mrca, compare_frozen, replay  # noqa: E402
from child import REFERENCE_UNIT_S, Speed, closed_loop  # noqa: E402
from run import tail_percentile  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first, again = inputs.build(workload, 7), inputs.build(workload, 7)
    assert {p: t.encode() for p, t in first["files"].items()} == \
        {p: t.encode() for p, t in again["files"].items()}
    assert [op["argv"] for op in first["ops"]] == [op["argv"] for op in again["ops"]]
    other = inputs.build(workload, 8)
    if first["files"]:  # verify-suite has no genomes to present
        assert first["files"] != other["files"]


def test_presentation_keeps_region_sets_consistent():
    for workload in ("random-full", "close-mrca", "cayley-matrix"):
        built = inputs.build(workload, 3)
        text = "".join(built["files"].values())
        for op in built["ops"][:20]:
            for side in ("a", "b"):
                assert " ".join(sorted(op["facts"][side])) in {
                    " ".join(sorted(line.split(":")[1].split())) for line in text.splitlines()}


# ancestor abcdef; side 1 drops f then swaps positions 1-2, side 2 swaps 3-4
GOOD = {"verify": "ok", "ancestor": "abcdef", "events_to_g1": "d6;6 s1;5",
        "events_to_g2": "s3;6", "event_count": 3}
FACTS = {"a": list("edcab"), "b": list("cefabd"), "events": 4}


def test_replay_accepts_a_correct_scenario():
    assert replay(list("abcdef"), "d6;6 s5;5") == list("ebcda")
    assert check_mrca(dict(GOOD), FACTS) == 3


@pytest.mark.parametrize("word", ["d6;6 s2;5", "d6;6 s1;6", "d6;6 x1;5", "d5;6 s1;5"])
def test_replay_rejects_a_corrupted_event_word(word):
    with pytest.raises(CheckError):
        check_mrca({**GOOD, "events_to_g1": word}, FACTS)


def test_checks_reject_a_wrong_total():
    with pytest.raises(CheckError):
        check_mrca({**GOOD, "event_count": 4}, FACTS)
    ops = [[0, 0.1, None, 5], [1, 0.1, None, 7]]
    assert compare_frozen(ops, [5, 6]) == "total 12 != frozen total 11"
    assert ops[1][2] is not None and ops[0][2] is None
    assert compare_frozen([[0, 0.1, None, 5]], [5, 6]) is None


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(11, 400):
        values = [float(v) for v in range(n)]
        p, value = tail_percentile(values)
        assert sum(1 for v in values if v > value) >= 10
        # one percentile higher would leave fewer than ten beyond
        higher = values[math.ceil((p + 1) * n / 100) - 1]
        assert sum(1 for v in values if v > higher) < 10
    assert tail_percentile([1.0, 2.0, 3.0]) == (100, 3.0)


def test_op_count_depends_on_seconds_not_speed():
    ops = [{"argv": [str(k)]} for k in range(5)]
    for latency in (0.001, 10.0):
        records, used = closed_loop(lambda op: (latency, 0, ""), ops, 3)
        assert [rec[0] for rec in records] == list(range(5)) * 3
        assert used == pytest.approx(15 * latency)
    assert inputs.passes(9.5, 20) == 2
    assert inputs.passes(10.5, 20) == 1
    assert inputs.passes(20.5, 1) == 1


def test_speed_scaling_leaves_a_program_change_in_full():
    # the same op measured at two machine speeds reads the same once scaled
    calm = Speed.scale(0.30, REFERENCE_UNIT_S, REFERENCE_UNIT_S)
    slow = Speed.scale(0.45, 1.5 * REFERENCE_UNIT_S, 1.5 * REFERENCE_UNIT_S)
    assert calm == pytest.approx(slow) == pytest.approx(0.30)
    # an op that takes 20% longer at the same speed reads 20% longer
    assert Speed.scale(0.36, REFERENCE_UNIT_S, REFERENCE_UNIT_S) == pytest.approx(1.2 * calm)
    speed = Speed()
    sample = speed.sample()
    assert sample > 0 and speed.spent >= sum(speed.samples) and len(speed.samples) == 1
    ops = [{"argv": ["x"]}, {"argv": ["y"]}]
    records, used = closed_loop(lambda op: (0.01, 0, ""), ops, 2, speed)
    assert len(speed.samples) == 1 + 1 + 4 and used == pytest.approx(0.04)
    assert all(rec[4] == 0.01 and rec[1] > 0 for rec in records)


def test_tracer_patches_every_importer_and_nests_spans():
    import tracing
    from invdel import genomes_from_token_lists
    from invdel import distance

    tracer = tracing.Tracer()
    tracer.install()
    g1, g2 = genomes_from_token_lists("abcdefg", "gfbdcae")
    tracer.enabled, tracer.op = True, 0
    result = distance.mrca_distance(g1, g2)
    tracer.enabled = False
    names = [rec[0] for rec in tracer.spans]
    assert names[0] == "distance.mrca_distance"
    assert names.count("align.solve_pair") == 3 and result.mu > 0
    parents = {rec[0]: tracer.spans[rec[3]][0] for rec in tracer.spans if rec[3] is not None}
    assert parents["align.solve_pair"] == "align.min_over_reference_pairs"
    assert tracer.counts["align.states"] > 0
    table = tracing.layer_table(tracer.spans)
    assert all(0 <= row["self_s"] <= row["s"] + 1e-9 for row in table.values())
    # spans recorded during set-up stay out of the per-op tables
    states, timed = sum(tracer.counts.values()), len(tracer.spans)
    tracer.enabled, tracer.op = True, tracing.SETUP
    distance.mrca_distance(g1, g2)
    tracer.enabled = False
    assert sum(tracer.counts.values()) == states
    assert tracing.layer_table(tracer.spans, lambda op: op != tracing.SETUP) == table
    setup = tracing.layer_table(tracer.spans, lambda op: op == tracing.SETUP)
    assert sum(row["calls"] for row in setup.values()) == len(tracer.spans) - timed
