import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from invdel import Generator, Relation, Word, cli
from invdel.cli import main

GENOMES = """\
# fixtures
G1: b c d e g k h l
G2: a e b f h i j k
SAME: l b c d e g k h
SUB: b c d e
ANC1: a e f b g c d h
ANC2: i a j k b l c d
"""


# `distance --engine cayley` and `--cache-dir` select nothing; each says so
ENGINE_WARNING = "warning: --engine cayley is ignored; distance runs the default search\n"
CACHE_DIR_WARNING = "warning: --cache-dir is ignored; invdel writes no files\n"


@pytest.fixture()
def genome_file(tmp_path):
    path = tmp_path / "genomes.txt"
    path.write_text(GENOMES)
    return str(path)


def checked(argv):
    """argv, once the grammar table has left it to argparse or read it as
    argparse does; every argv these tests pass to `main` goes through here."""
    args = cli._read_argv(argv)
    if args is not None:
        try:
            expected = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the table read {argv}, which argparse refuses")
        assert vars(args) == vars(expected), argv
    return argv


def run(capsys, *argv):
    code = main(checked(list(argv)))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_distance_report(genome_file, capsys):
    code, out, _ = run(capsys, "distance", genome_file, "G1", "G2", "--emit-events")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
    assert lines["distance"] == "8"
    assert lines["deletions"] == "8"
    assert lines["mu"] == "0"
    assert "left-inversions" in out and "right-inversions" in out


def test_distance_zero(genome_file, capsys):
    code, out, _ = run(capsys, "distance", genome_file, "G1", "SAME")
    assert code == 0
    assert out.splitlines()[0] == "distance 0"


def test_distance_json(genome_file, capsys):
    code, out, _ = run(capsys, "distance", genome_file, "G1", "G2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["distance"] == 8 and payload["mu"] == 0


def test_unknown_genome_is_usage_error(genome_file, capsys):
    code, _, err = run(capsys, "distance", genome_file, "G1", "NOPE")
    assert code == 2
    assert "NOPE" in err


def test_file_without_genomes_says_so(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no genomes here\n")
    for command in ("distance", "mrca"):
        code, out, err = run(capsys, command, str(empty), "A", "B")
        assert (code, out, err) == (2, "", "error: the file holds no genomes\n")


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("G1: a b\nbroken line\n")
    code, _, err = run(capsys, "distance", str(bad), "G1", "G1")
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("name", ["A\tX", "my genome"], ids=["tab", "space"])
def test_whitespace_in_a_genome_name_is_exit_2(tmp_path, capsys, name):
    # a name with whitespace would split a matrix header or PHYLIP row
    path = tmp_path / "genomes.txt"
    path.write_text(f"B: a c b d\n{name}: a b c d\n")
    code, out, err = run(capsys, "matrix", str(path), "--format", "tsv")
    assert code == 2 and out == ""
    assert err.startswith("error: line 2: ") and "whitespace" in err


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_genome_file_is_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "genomes.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"A: a b \xff\nB: a b\n")
    code, out, err = run(capsys, "distance", str(path), "A", "B")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err
    if kind == "not-utf8":
        assert err == f"error: {str(path)!r} is not UTF-8 text: byte 7 cannot be decoded\n"


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfA: a b c d\nB: a c b d\n")
    code, out, _ = run(capsys, "distance", str(path), "A", "B")
    assert code == 0 and out.splitlines()[0] == "distance 1"


def test_directed_distance(genome_file, capsys):
    code, out, _ = run(capsys, "distance", genome_file, "G1", "SUB", "--directed")
    assert code == 0
    assert out.startswith("directed-distance ")


def test_directed_rejects_emit_events(genome_file, capsys):
    # the one-sided distance has no witness words, so asking for them is
    # refused rather than silently dropped
    with pytest.raises(SystemExit) as exc:
        main(checked(["distance", genome_file, "G1", "SUB", "--directed", "--emit-events"]))
    assert exc.value.code == 2
    assert "not allowed with argument --directed" in capsys.readouterr().err


def test_directed_cayley_engine_is_exit_2(genome_file, capsys):
    # the directed distance ignores the engine option too
    argv = ["distance", genome_file, "G1", "SUB", "--directed"]
    expected = run(capsys, *argv)
    assert expected[0] == 0 and expected[2] == ""
    assert run(capsys, *argv, "--engine", "cayley") == (0, expected[1], ENGINE_WARNING)


def test_cache_dir_without_the_cayley_engine_is_exit_2(genome_file, tmp_path, capsys):
    # --cache-dir is ignored with or without --engine cayley, and makes no directory
    argv = ["distance", genome_file, "G1", "G2"]
    expected = run(capsys, *argv)
    assert expected[0] == 0 and expected[2] == ""
    cache = tmp_path / "cache"
    assert run(capsys, *argv, "--cache-dir", str(cache)) == (0, expected[1], CACHE_DIR_WARNING)
    assert not cache.exists()


def test_directed_no_path_is_exit_2(genome_file, capsys):
    code, _, err = run(capsys, "distance", genome_file, "G1", "G2", "--directed")
    assert code == 2
    assert "no inversion/deletion sequence" in err


def test_capacity_exit_2(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("BIG: " + " ".join(f"r{i}" for i in range(9)) + "\nT: r0 r1\n")
    code, _, err = run(capsys, "distance", str(path), "BIG", "T")
    assert code == 2
    assert "--max-n" in err
    assert main(checked(["distance", str(path), "BIG", "T", "--max-n", "9"])) == 0


def test_max_n_checks_only_the_named_genomes(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("A: " + " ".join(f"r{i}" for i in range(9)) +
                    "\nB: r0 r1 r2 r3\nC: r3 r1 r0 r5\n")
    assert run(capsys, "distance", str(path), "B", "C")[0] == 0
    code, out, _ = run(capsys, "mrca", str(path), "B", "C")
    assert code == 0 and "verify ok" in out
    for argv in (["distance", str(path), "A", "B"], ["mrca", str(path), "C", "A"],
                 ["matrix", str(path)]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "genome 'A' has 9 regions" in err and "--max-n" in err


def random_pair(n, shared):
    """Genomes A and B over n shuffled regions each, sharing `shared`."""
    rng = random.Random(0)
    a, b = [f"r{i}" for i in range(n)], [f"r{i}" for i in range(n - shared, 2 * n - shared)]
    rng.shuffle(a)
    rng.shuffle(b)
    return f"A: {' '.join(a)}\nB: {' '.join(b)}\n"


def test_search_budget_exit_2(tmp_path, capsys):
    # a random 16-region pair sharing 12 regions is partial rank, so it is
    # searched, and the search outgrows its budget of probes
    path = tmp_path / "big.txt"
    path.write_text(random_pair(16, 12))
    start = time.perf_counter()
    code, _, err = run(capsys, "distance", str(path), "A", "B", "--max-n", "16")
    assert code == 2
    assert "budget" in err
    assert time.perf_counter() - start < 60


def test_random_twelve_region_partial_rank_pair_solves(tmp_path, capsys):
    # a random 12-region pair sharing 11 regions: partial rank, searched
    # within the budget, with its cost, pairing and words as they were
    # frozen, and its ancestor replays onto both genomes
    path = tmp_path / "pair.txt"
    path.write_text(random_pair(12, 11))
    code, out, _ = run(capsys, "distance", str(path), "A", "B", "--max-n", "12",
                       "--json", "--emit-events")
    assert code == 0
    report = json.loads(out)
    assert report["mu"] == 14
    assert report["best_pair"] == ["r0 r11 r6 r1 r9 r8 r5 r10 r2 r3 r7 r4",
                                   "r1 r4 r8 r7 r12 r10 r2 r11 r5 r3 r9 r6"]
    assert report["left_inversions"] == "s7;12 s8;12 s9;12 s10;12 s8;12 s7;12 s3;12 s4;12"
    assert report["right_inversions"] == "s1;12 s8;12 s9;12 s12;12 s11;12 s10;12"
    code, out, _ = run(capsys, "mrca", str(path), "A", "B", "--max-n", "12", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ancestor"] == "r0 r11 r9 r6 r1 r8 r7 r12 r10 r2 r5 r3 r4"
    assert report["verify"] == "ok"


def test_random_full_rank_pairs_solve_without_the_budget(tmp_path, capsys):
    # genomes with the same regions take the closed form, not the search:
    # a random 14-region pair, and a random 16-region pair with its witness
    # words and ancestor
    rng = random.Random(0)
    a, b = [f"r{i}" for i in range(14)], [f"r{i}" for i in range(14)]
    rng.shuffle(a)
    rng.shuffle(b)
    c, d = [f"r{i}" for i in range(16)], [f"r{i}" for i in range(16)]
    rng.shuffle(c)
    rng.shuffle(d)
    path = tmp_path / "big.txt"
    path.write_text(f"A: {' '.join(a)}\nB: {' '.join(b)}\n"
                    f"C: {' '.join(c)}\nD: {' '.join(d)}\n")
    start = time.perf_counter()
    assert run(capsys, "distance", str(path), "A", "B", "--max-n", "14")[0] == 0
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    code, out, _ = run(capsys, "distance", str(path), "C", "D", "--max-n", "16",
                       "--emit-events")
    assert code == 0 and "left-inversions" in out
    assert time.perf_counter() - start < 1
    code, out, _ = run(capsys, "mrca", str(path), "C", "D", "--max-n", "16")
    assert code == 0 and "verify ok" in out


# the lines the console-script step of .github/workflows/tests.yml pins,
# on the same files: a genome file, the command and the names after it,
# and what report lines read, by index (0-based, -1 the last)
TIE = "A: d a c b e f\nB: a d c e\n"
NESTED16 = ("A: r10 r14 r5 r1 r9 r2 r3 r11 r13 r7 r8 r4 r0 r6 r15 r12\n"
            "B: r0 r3 r13 r5 r14 r10 r12 r2 r11 r7 r9 r15\n")
SIXTEEN_ARGV = ("--max-n", "16", "--emit-events")
OUTPUT_PINS = [
    # the tie rule: the side with fewer positions moves first
    pytest.param(TIE, ("distance", "A", "B", "--emit-events"),
                 {-1: "right-inversions s1;4"}, id="tie"),
    pytest.param(TIE, ("distance", "B", "A", "--emit-events"),
                 {4: "left-inversions s1;4"}, id="tie-reversed"),
    # a 16-region partial-rank search, both ways round
    pytest.param(random_pair(16, 15), ("distance", "A", "B") + SIXTEEN_ARGV, {
        2: "mu 25",
        -1: "right-inversions s2;16 s3;16 s6;16 s5;16 s4;16"}, id="sixteen"),
    pytest.param(random_pair(16, 15), ("distance", "B", "A") + SIXTEEN_ARGV, {
        2: "mu 25",
        4: "left-inversions s14;16 s15;16 s16;16 s13;16 s14;16 s15;16 s10;16 s11;16 s12;16 "
           "s13;16 s14;16 s12;16 s13;16 s10;16 s11;16 s10;16 s8;16 s2;16 s3;16 s4;16 s3;16 "
           "s1;16 s2;16",
        -1: "right-inversions s10;16 s9;16"}, id="sixteen-reversed"),
    # the 16-region full-rank route's witness
    pytest.param(random_pair(16, 16), ("distance", "A", "B") + SIXTEEN_ARGV, {
        4: "left-inversions s14;16 s15;16 s1;16 s16;16 s13;16 s14;16 s15;16 s2;16 s1;16 "
           "s16;16 s12;16 s13;16 s14;16 s10;16 s11;16 s12;16 s13;16 s12;16 s11;16 s8;16 s4;16 "
           "s5;16 s4;16 s2;16 s1;16"}, id="full16"),
    # a nested pair: its words on the side with fewer positions alone
    pytest.param(NESTED16, ("distance", "A", "B") + SIXTEEN_ARGV, {
        -1: "right-inversions s1;12 s6;12 s5;12 s4;12 s3;12 s8;12 s10;12 s9;12 s8;12 s11;12 "
            "s10;12 s9;12 s12;12 s1;12 s2;12 s11;12"}, id="nested16"),
    pytest.param(NESTED16, ("distance", "B", "A") + SIXTEEN_ARGV, {
        4: "left-inversions s10;12 s11;12 s1;12 s12;12 s11;12 s9;12 s8;12 s7;12 s6;12 s2;12 "
           "s3;12 s4;12 s2;12 s3;12 s1;12 s2;12"}, id="nested16-reversed"),
    # the whole mrca report of a pair whose second frame is turned
    pytest.param("A: m d a e g n\nB: d g m n j h\n", ("mrca", "A", "B", "--json"), {
        0: '{"ancestor": "admnjhge", "command": "mrca", "event_count": 5, "events_to_g1": '
           '"d6;8 d5;7", "events_to_g2": "d8;8 d1;7 s6;6", "gap_sets": [[], [], [], ["j", '
           '"h"], []], "genomes": ["A", "B"], "schema_version": 1, "verify": "ok"}'}, id="turn"),
]


@pytest.mark.parametrize("genomes, argv, lines", OUTPUT_PINS)
def test_console_script_output_pins(tmp_path, capsys, genomes, argv, lines):
    path = tmp_path / "genomes.txt"
    path.write_text(genomes)
    code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    out = out.splitlines()
    assert {index: out[index] for index in lines} == lines


def test_only_the_commands_that_print_words_run_the_descent(tmp_path, capsys, monkeypatch):
    # the full-rank route runs its greedy descent, one `_lowered` call per
    # move, only when the words are read: never for a command that prints
    # the cost alone, once for `distance --emit-events` and for `mrca`
    from invdel import align

    calls = []
    lowered = align._lowered

    def counted(row, rotations):
        calls.append(row)
        return lowered(row, rotations)

    monkeypatch.setattr(align, "_lowered", counted)
    path = tmp_path / "pair.txt"
    path.write_text(random_pair(16, 16))
    pair = ("distance", str(path), "A", "B", "--max-n", "16")
    simulated = ("simulate", "--size", "8", "--seed", "3", "--inversions1", "3",
                 "--inversions2", "2")
    for argv in (pair, pair + ("--json",), pair + ("--directed",),
                 ("matrix", str(path), "--max-n", "16"), simulated):
        assert run(capsys, *argv)[0] == 0
        assert calls == [], argv
    for argv in (pair + ("--emit-events",), ("mrca", str(path), "A", "B", "--max-n", "16")):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(calls) == 25, argv
        calls.clear()


def test_distance_formats_each_frame_once(tmp_path, capsys, monkeypatch):
    # the best pair's two frames feed both the text line and the JSON list
    from invdel.genome import ReferenceFrame

    calls = []
    fmt = ReferenceFrame.__str__

    def counted(frame):
        calls.append(frame)
        return fmt(frame)

    monkeypatch.setattr(ReferenceFrame, "__str__", counted)
    path = tmp_path / "pair.txt"
    path.write_text(random_pair(8, 8))
    pair = ("distance", str(path), "A", "B")
    for argv in (pair, pair + ("--json",), pair + ("--emit-events",)):
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 2, argv
        calls.clear()


def test_mrca_and_simulate_format_each_value_once(tmp_path, capsys, monkeypatch):
    # each frame and event word feeds both the text line and the JSON field
    from invdel import cli
    from invdel.genome import ReferenceFrame

    calls = []
    fmt, word = ReferenceFrame.__str__, cli.format_word

    def counted_frame(frame):
        calls.append("frame")
        return fmt(frame)

    def counted_word(w):
        calls.append("word")
        return word(w)

    monkeypatch.setattr(ReferenceFrame, "__str__", counted_frame)
    monkeypatch.setattr(cli, "format_word", counted_word)
    path = tmp_path / "pair.txt"
    path.write_text(random_pair(8, 6))
    mrca = ("mrca", str(path), "A", "B")
    simulate = ("simulate", "--size", "7", "--seed", "42", "--deletions1", "2",
                "--inversions1", "3", "--inversions2", "1")
    for argv, frames in ((mrca, 1), (simulate, 3)):
        for extra in ((), ("--json",)):
            assert run(capsys, *argv, *extra)[0] == 0
            assert sorted(calls) == ["frame"] * frames + ["word"] * 2, argv + extra
            calls.clear()


def test_cayley_engine_capacity_exit_2(tmp_path, capsys):
    # a 9-region pair within --max-n answers by the default search, whatever the options
    path = tmp_path / "big.txt"
    path.write_text("BIG: " + " ".join(f"r{i}" for i in range(9)) + "\nT: r0 r1 r2\n")
    argv = ["distance", str(path), "BIG", "T", "--max-n", "9"]
    expected = run(capsys, *argv)
    assert expected[0] == 0 and expected[2] == ""
    assert run(capsys, *argv, "--engine", "cayley", "--cache-dir", str(tmp_path / "cache")) \
        == (0, expected[1], ENGINE_WARNING + CACHE_DIR_WARNING)


def test_mrca_fixture(genome_file, capsys):
    code, out, _ = run(capsys, "mrca", genome_file, "ANC1", "ANC2")
    assert code == 0
    assert "ancestor iaefjkbglcdh" in out
    assert "verify ok" in out


def test_mrca_layout_fixture(tmp_path, capsys):
    # both genomes have private regions before the first shared one (b and k
    # in L1, j and a in L2), and the stretch after the fourth shared region
    # holds one of each, so the ancestor pins the merge order of the stretches
    path = tmp_path / "layout.txt"
    path.write_text("L1: i b d g l e k\nL2: j i a d e g l\n")
    code, out, _ = run(capsys, "mrca", str(path), "L1", "L2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "ancestor": "abdeglkji", "command": "mrca", "event_count": 6,
        "events_to_g1": "d8;9 d1;8 s3;7 s4;7", "events_to_g2": "d7;9 d2;8",
        "gap_sets": [["a"], [], [], [], ["j"], []], "genomes": ["L1", "L2"],
        "schema_version": 1, "verify": "ok",
    }


def test_mrca_ancestor_beyond_the_position_cap_is_exit_2(tmp_path, capsys):
    # 9 + 9 regions sharing one: the ancestor needs 17, one more than a
    # partial permutation can address, although --max-n admits both
    path = tmp_path / "wide.txt"
    path.write_text("A: a b c d e f g h i\nB: i j k l m n o p q\n")
    code, out, err = run(capsys, "mrca", str(path), "A", "B", "--max-n", "9")
    assert (code, out) == (2, "")
    assert "the ancestor has 17 regions; partial permutations are capped at 16" in err
    code, out, _ = run(capsys, "distance", str(path), "A", "B", "--max-n", "9")
    assert code == 0 and out.splitlines()[0] == "distance 16"


def test_mrca_identical(genome_file, capsys):
    code, out, _ = run(capsys, "mrca", genome_file, "G1", "SAME")
    assert code == 0
    assert "events 0" in out and "verify ok" in out


def test_matrix_phylip(genome_file, capsys):
    code, out, _ = run(capsys, "matrix", genome_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "6"
    assert lines[1].startswith("G1        ")
    cells = [row.split()[1:] for row in lines[1:]]
    assert all(cells[i][i] == "0" for i in range(6))
    assert all(cells[i][j] == cells[j][i] for i in range(6) for j in range(6))


def test_matrix_tsv(genome_file, capsys):
    code, out, _ = run(capsys, "matrix", genome_file, "--format", "tsv")
    assert code == 0
    header = out.splitlines()[0].split("\t")
    assert header == ["name", "G1", "G2", "SAME", "SUB", "ANC1", "ANC2"]


def test_matrix_json_takes_names_phylip_cannot_print(tmp_path, capsys):
    path = tmp_path / "long.txt"
    path.write_text("LONGNAME_123: a b c d\nB: a c b d\n")
    code, out, _ = run(capsys, "matrix", str(path), "--json")
    assert code == 0
    assert json.loads(out)["names"] == ["LONGNAME_123", "B"]
    code, _, err = run(capsys, "matrix", str(path), "--format", "phylip")
    assert code == 2 and "PHYLIP names are capped at 10 characters" in err


def test_matrix_needs_two(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("G1: a b c\n")
    code, _, err = run(capsys, "matrix", str(path))
    assert code == 2
    assert err == "error: a distance matrix needs at least 2 genomes\n"


def test_matrix_deterministic(genome_file, capsys):
    _, out1, _ = run(capsys, "matrix", genome_file)
    _, out2, _ = run(capsys, "matrix", genome_file)
    assert out1 == out2


def test_verify_enumerate(capsys):
    code, out, _ = run(capsys, "verify", "--enumerate", "5")
    assert code == 0
    assert out.strip() == "1546 ok"


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify", "--relations", "--max-n", "6")
    assert code == 0
    assert "all relations hold" in out


def test_verify_needs_something_to_check(capsys):
    code, out, err = run(capsys, "verify")
    assert (code, out) == (2, "")
    assert "nothing to verify" in err


def test_verify_help_describes_max_n_as_the_relation_table_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(checked(["verify", "--help"]))
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--max-n MAX_N largest n of the relation table (default 8, cap 16)" in text
    assert "genome size" not in text


def _with_a_false_relation(real):
    # one more instance per size whose sides differ: s1;n against the empty word
    return lambda n: real(n) + [Relation("R0", Word([Generator.inversion(1, n)]), Word((), n))]


@pytest.mark.parametrize("name, patch, argv, line, field, value", [
    ("relation_table", _with_a_false_relation, ["verify", "--relations", "--max-n", "3"],
     "relation FAIL R0@2: s1;2 != ", "relations_failed", 2),
    ("monoid_size", lambda real: lambda n: real(n) + 1, ["verify", "--enumerate", "3"],
     "34 MISMATCH (expected 35)", "expected", 35),
    ("solve_balancedsort", lambda real: lambda inst: not real(inst),
     ["reduce-partition", "1,1,2"], "REDUCTION MISMATCH", "mismatch", True),
], ids=["false-relation", "wrong-monoid-size", "reduction-disagrees"])
def test_failed_check_is_exit_1(capsys, monkeypatch, name, patch, argv, line, field, value):
    monkeypatch.setattr(cli, name, patch(getattr(cli, name)))
    code, out, _ = run(capsys, *argv)
    assert code == 1 and line in out.splitlines()
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1 and json.loads(out)[field] == value


def test_internal_error_is_exit_1(genome_file, capsys, monkeypatch):
    def broken(g1, g2):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "mrca_distance", broken)
    assert run(capsys, "distance", genome_file, "G1", "G2") == (1, "", "internal error: boom\n")


def test_verify_enumerate_capacity(capsys):
    expected = (2, "", "error: monoid size is capped at 8, got 9\n")
    assert run(capsys, "verify", "--enumerate", "9") == expected


# a size below its floor is a bad argument, and exits 2 as a capped one does
@pytest.mark.parametrize("argv, message", [
    (["verify", "--enumerate", "0"], "monoid size must be at least 1, got 0"),
    (["simulate", "--size", "0"], "genome size must be at least 1, got 0"),
], ids=["enumerate-0", "simulate-size-0"])
def test_size_below_its_floor_is_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("max_n", ["0", "17"])
def test_max_n_out_of_range_is_exit_2(genome_file, capsys, max_n):
    message = {"0": "--max-n must be at least 1, got 0",
               "17": "--max-n is capped at 16, got 17"}[max_n]
    for argv in (["distance", genome_file, "G1", "G2"], ["verify", "--relations"],
                 ["simulate", "--size", "4"]):
        assert run(capsys, *argv, "--max-n", max_n) == (2, "", f"error: {message}\n")


def test_verify_relations_below_the_table_floor_is_exit_2(capsys):
    # the relation table starts at n = 2, so --max-n 1 would check nothing
    code, out, err = run(capsys, "verify", "--relations", "--max-n", "1")
    assert (code, out) == (2, "")
    assert "--max-n of at least 2" in err
    assert run(capsys, "verify", "--relations", "--max-n", "2")[0] == 0


@pytest.mark.parametrize("argv", [
    ["verify", "--relations", "--engine", "cayley"],
    ["reduce-partition", "1,1", "--engine", "cayley"],
    ["reduce-partition", "1,1", "--cache-dir", "cache"],
    ["reduce-partition", "1,1", "--max-n", "3"],
    ["distance", "genomes.txt", "G1", "G2", "--full-pairs"],
    ["mrca", "genomes.txt", "G1", "G2", "--engine", "cayley"],
    ["mrca", "genomes.txt", "G1", "G2", "--cache-dir", "cache"],
    ["matrix", "genomes.txt", "--engine", "cayley"],
    ["matrix", "genomes.txt", "--cache-dir", "cache"],
    ["simulate", "--size", "5", "--engine", "cayley"],
    ["simulate", "--size", "5", "--cache-dir", "cache"],
], ids=["verify-engine", "reduce-partition-engine", "reduce-partition-cache-dir",
        "reduce-partition-max-n", "distance-full-pairs", "mrca-engine", "mrca-cache-dir",
        "matrix-engine", "matrix-cache-dir", "simulate-engine", "simulate-cache-dir"])
def test_subcommands_reject_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(checked(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_deterministic(capsys):
    args = ["simulate", "--size", "6", "--seed", "11",
            "--deletions1", "2", "--inversions1", "1",
            "--deletions2", "1", "--inversions2", "2"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert "ancestor " in out1 and "distance " in out1


def test_simulate_size_is_capped_by_max_n(capsys):
    code, _, err = run(capsys, "simulate", "--size", "9")
    assert code == 2
    assert "9 regions" in err and "--max-n" in err
    code, out, _ = run(capsys, "simulate", "--size", "9", "--max-n", "9", "--inversions1", "1")
    assert code == 0
    assert "events 1" in out


def test_reduce_partition_report(capsys):
    code, out, _ = run(capsys, "reduce-partition", "1,1,2,3,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m 16"
    assert lines[1] == "pairs 1<->2 3<->4 5<->7 8<->11 12<->16"
    assert lines[2] == "k 11"
    # the paper's worked instance: the sum, 11, is odd, so no split
    assert lines[3:] == ["balanced-sortable no", "partition no"]


def test_reduce_partition_small_decision(capsys):
    code, out, _ = run(capsys, "reduce-partition", "1,1,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["balanced_sortable"] is True
    assert payload["partition"] is True
    assert sum(payload["split"][0]) == sum(payload["split"][1])


def test_reduce_partition_even_sum_without_a_split(capsys):
    code, out, _ = run(capsys, "reduce-partition", "2,4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] is False and payload["split"] is None
    assert payload["balanced_sortable"] is False


def test_reduce_partition_decides_every_size(capsys):
    for multiset, m, split in [
        ("2,2,2,2", 12, [[2, 2], [2, 2]]),
        ("3,3,3,3", 16, [[3, 3], [3, 3]]),  # the largest walk of any reduction instance
        ("1,1,2,3,4", 16, None),
    ]:
        code, out, _ = run(capsys, "reduce-partition", multiset, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == m
        assert payload["partition"] is payload["balanced_sortable"] is (split is not None)
        assert payload["split"] == split


def test_reduce_partition_beyond_the_position_cap_is_exit_2(capsys):
    code, out, err = run(capsys, "reduce-partition", "1,1,2,3,4,5")
    assert code == 2 and out == ""
    assert "needs 22 positions" in err and "capped at 16" in err


def test_reduce_partition_bad_input(capsys):
    code, _, err = run(capsys, "reduce-partition", "1,x,3")
    assert code == 2


def test_parser_is_shared_across_calls(tmp_path, capsys):
    # one process, several commands: a --max-n or a rejected argv leaves
    # nothing behind for the next call
    from invdel.cli import build_parser

    path = tmp_path / "big.txt"
    path.write_text("BIG: " + " ".join(f"r{i}" for i in range(9)) + "\nT: r0 r1\n")
    assert run(capsys, "distance", str(path), "BIG", "T", "--max-n", "9")[0] == 0
    assert run(capsys, "distance", str(path), "BIG", "T")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(checked(["distance", str(path), "BIG", "T", "--engine", "nope"]))
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    code, out, _ = run(capsys, "distance", str(path), "BIG", "T", "--max-n", "9", "--json")
    assert code == 0 and json.loads(out)["distance"] == 7
    assert build_parser() is build_parser()


# the op shapes of the benchmark's four workloads, in perfbench/inputs.py
BENCHMARK_ARGVS = [
    ["distance", "{file}", "A", "B", "--json"],
    ["mrca", "{file}", "A", "B", "--json"],
    ["distance", "{file}", "G0", "G1", "--engine", "cayley", "--cache-dir", "cache", "--json"],
    ["reduce-partition", "1,1,2,3,4", "--json"],
    ["verify", "--relations", "--max-n", "8", "--json"],
    ["verify", "--enumerate", "6", "--json"],
]

# argv around the table's edge: help and version, the spellings only
# argparse reads ("--opt=value", abbreviations, "--", a value starting with
# "-"), and each usage error, beside well-formed argv in unusual orders
EDGE_ARGVS = [
    [], ["-h"], ["--help"], ["--version"], ["nope"], ["--json", "distance", "{file}", "A", "B"],
    ["distance"], ["distance", "-h"], ["distance", "{file}", "A", "B", "--help"],
    ["distance", "{file}", "A"], ["distance", "{file}", "A", "B", "C"],
    ["distance", "--json", "{file}", "--emit-events", "A", "--max-n", "9", "B"],
    ["distance", "{file}", "A", "B", "--json", "--json", "--max-n", "3", "--max-n", "9"],
    ["distance", "{file}", "A", "B", "--max-n=9", "--json"],
    ["distance", "{file}", "A", "B", "--max", "9"],
    ["distance", "{file}", "A", "B", "--emit"], ["distance", "{file}", "A", "B", "--e"],
    ["distance", "--", "{file}", "A", "B"], ["distance", "{file}", "A", "B", "--"],
    ["distance", "{file}", "A", "B", "--max-n"], ["distance", "{file}", "A", "B", "--max-n", "x"],
    ["distance", "{file}", "A", "B", "--max-n", "-1"], ["distance", "{file}", "A", "B", "--max-n", " 9 "],
    ["distance", "{file}", "A", "B", "--max-n", "+9"], ["distance", "{file}", "A", "B", "--max-n", ""],
    ["distance", "{file}", "A", "B", "--engine", "nope"], ["distance", "{file}", "A", "B", "--engine="],
    ["distance", "{file}", "A", "B", "--cache-dir", ""], ["distance", "{file}", "A", "B", "--cache-dir", "--json"],
    ["distance", "{file}", "A", "B", "--directed", "--emit-events"],
    ["distance", "{file}", "A", "B", "--emit-events", "--directed"],
    ["distance", "{file}", "A", "B", "--directed", "--directed"],
    ["distance", "{file}", "-", "B"], ["distance", "{file}", "", "B"], ["distance", "{file}", "A B", "-x y"],
    ["distance", "{file}", "A", "B", "--format", "tsv"], ["distance", "{file}", "A", "B", "--full-pairs"],
    ["mrca", "{file}", "A", "B", "--emit-events"], ["mrca", "--max-n", "12", "{file}", "A", "B"],
    ["matrix", "{file}", "--format", "csv"], ["matrix", "--format", "tsv", "{file}"],
    ["matrix", "{file}", "{file}"], ["matrix", "{file}", "--format"],
    ["verify"], ["verify", "--relations", "--enumerate", "4", "--max-n", "3"],
    ["verify", "--enumerate", "N"], ["verify", "--enumerate", "-3"], ["verify", "--enum", "3"],
    ["verify", "extra"], ["verify", "--relations", "--max-n", "1_0"],
    ["simulate"], ["simulate", "--seed", "3"], ["simulate", "--size", "5"], ["simulate", "--size=5"],
    ["simulate", "--size", "5", "--seed", "-1"], ["simulate", "--seed", "4", "--size", "6", "--json"],
    ["simulate", "--size", "5", "--deletions1", "1", "--inversions1", "2", "--deletions2", "0",
     "--inversions2", "1", "--max-n", "9"],
    ["simulate", "--size", "5", "--seed", "1.5"], ["simulate", "--size", "5", "--seed", "\u0663"],
    ["reduce-partition"], ["reduce-partition", "1,2", "3"], ["reduce-partition", "-1,2"],
    ["reduce-partition", "--json", "1,2"], ["reduce-partition", "1,2", "--max-n", "3"],
]


def readme_argvs():
    """The argv of each `invdel` line in README's command examples."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines()
            if line.startswith("invdel ")]


def argparse_reading(argv):
    """vars of argparse's namespace for argv, or its exit status."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def test_grammar_table_reads_argv_as_argparse_does(genome_file, monkeypatch):
    # the table reads the benchmark's ops and README's examples itself;
    # any other argv it reads as argparse does, or leaves to argparse
    readme = readme_argvs()
    assert readme, "README's command examples were not found"
    own = [[arg.format(file=genome_file) for arg in argv] for argv in BENCHMARK_ARGVS] + readme
    edge = [[arg.format(file=genome_file) for arg in argv] for argv in EDGE_ARGVS]
    for argv in own + edge:
        args = cli._read_argv(argv)
        if args is None:
            assert argv not in own, argv
        else:
            assert vars(args) == argparse_reading(argv), argv
    # a command is looked up by name, so a rebound `cmd_*` is the one run
    ran = []
    monkeypatch.setattr(cli, "cmd_distance", lambda args: ran.append(args.file) or 0)
    assert main(own[0]) == 0 and ran == [genome_file]


def test_unwritable_cache_dir_warns_once(genome_file, tmp_path, capsys):
    blocker = tmp_path / "notadir"
    blocker.write_text("")
    _, expected, _ = run(capsys, "distance", genome_file, "G1", "G2")
    code, out, err = run(capsys, "distance", genome_file, "G1", "G2",
                         "--engine", "cayley", "--cache-dir", str(blocker / "x"))
    assert (code, out) == (0, expected)
    assert err == ENGINE_WARNING + CACHE_DIR_WARNING


def test_cayley_engine_without_a_cache_dir_writes_nothing(genome_file, tmp_path,
                                                          capsys, monkeypatch):
    # no command writes a file: no platform cache directory, no home file,
    # no working-directory file, and a named --cache-dir is never made
    dirs = [tmp_path / name for name in ("home", "xdg_cache_home", "work")]
    for path in dirs:
        path.mkdir()
    monkeypatch.setenv("HOME", str(dirs[0]))
    monkeypatch.setenv("XDG_CACHE_HOME", str(dirs[1]))
    monkeypatch.chdir(dirs[2])
    cache = tmp_path / "D"
    events = ["distance", genome_file, "ANC1", "ANC2", "--json", "--emit-events"]
    _, expected, _ = run(capsys, *events)
    assert run(capsys, *events, "--engine", "cayley") == (0, expected, ENGINE_WARNING)
    for argv in [
        events,
        events + ["--engine", "cayley", "--cache-dir", str(cache)],
        ["mrca", genome_file, "ANC1", "ANC2"],
        ["matrix", genome_file],
        ["simulate", "--size", "6", "--seed", "3", "--deletions1", "1", "--inversions2", "2"],
        ["verify", "--relations", "--enumerate", "4"],
        ["reduce-partition", "1,1,2"],
    ]:
        assert run(capsys, *argv)[0] == 0, argv
        assert [path.name for path in dirs if any(path.iterdir())] == [], argv
        assert not cache.exists(), argv


def overlapping_pairs(count, seed):
    """Genome files of two genomes of 2-8 regions each that share at least
    two regions but not all of them."""
    rng = random.Random(seed)
    files = []
    while len(files) < count:
        n1, n2 = rng.randint(2, 8), rng.randint(2, 8)
        shared = rng.randint(2, min(n1, n2))
        if shared == n1 == n2:
            continue
        common = [f"s{i}" for i in range(shared)]
        a = common + [f"a{i}" for i in range(n1 - shared)]
        b = common + [f"b{i}" for i in range(n2 - shared)]
        rng.shuffle(a)
        rng.shuffle(b)
        files.append(f"A: {' '.join(a)}\nB: {' '.join(b)}\n")
    return files


def test_cayley_engine_keeps_the_tie_rule(tmp_path, capsys):
    # --engine cayley prints the default engine's report byte for byte,
    # and only its warning on stderr
    path = tmp_path / "pair.txt"
    for text in overlapping_pairs(40, seed=3):
        path.write_text(text)
        argv = ["distance", str(path), "A", "B", "--json", "--emit-events"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert run(capsys, *argv, "--engine", "cayley") == (0, out, ENGINE_WARNING), text


def _env_with_src():
    """The environment for a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_imports_only_the_standard_library():
    # A fresh interpreter, so modules that site loads count as "before".
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import invdel.cli\n"
        "print('\\n'.join(sorted({name.partition('.')[0] for name in set(sys.modules) - before})))\n"
    )
    env = _env_with_src()
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert set(done.stdout.split()) - sys.stdlib_module_names == {"invdel"}


def test_cli_leaves_the_slow_standard_modules_unloaded(tmp_path):
    # -S keeps site out, so a module in sys.modules was loaded by invdel;
    # argparse (and its gettext) loads only for help, version and errors
    path = tmp_path / "pair.txt"
    path.write_text("A: a b c d\nB: a c b d\n")
    slow = "{'dataclasses', 'inspect', 'typing', 'string', 'argparse', 'gettext'}"
    script = ("import sys, invdel.cli\n"
              f"print(' '.join(sorted({slow} & set(sys.modules))))\n"
              f"code = invdel.cli.main(['distance', {str(path)!r}, 'A', 'B', '--json'])\n"
              f"print(code, ' '.join(sorted({slow} & set(sys.modules))))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    imported, report, ran = done.stdout.split("\n")[:3]
    assert (imported, ran.strip()) == ("", "0")
    assert json.loads(report)["distance"] == 1


# a report that cannot be written exits 1; --help and --version exit 0,
# as argparse does when its own write fails
PAIR_EVENTS = ["distance", "{pair}", "A", "B", "--emit-events"]


@pytest.mark.parametrize("argv, code, unbuffered", [
    pytest.param(PAIR_EVENTS, 1, True, id="unbuffered"),
    pytest.param(PAIR_EVENTS, 1, False, id="buffered"),
    pytest.param(["--version"], 0, True, id="version-unbuffered"),
    pytest.param(["--version"], 0, False, id="version-buffered"),
    pytest.param(["--help"], 0, True, id="help-unbuffered"),
    pytest.param(["--help"], 0, False, id="help-buffered"),
    pytest.param(["distance", "--help"], 0, True, id="distance-help-unbuffered"),
    pytest.param(["distance", "--help"], 0, False, id="distance-help-buffered"),
])
def test_closed_stdout_exits_quietly(tmp_path, argv, code, unbuffered):
    # stdout is a pipe whose reader is already gone, as in `invdel ... | true`
    path = tmp_path / "pair.txt"
    path.write_text("A: a b c d\nB: a c b d\n")
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "invdel.cli",
                               *(arg.format(pair=path) for arg in argv)],
                              stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (code, b"")
