import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

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


@pytest.fixture()
def genome_file(tmp_path):
    path = tmp_path / "genomes.txt"
    path.write_text(GENOMES)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
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


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("G1: a b\nbroken line\n")
    code, _, err = run(capsys, "distance", str(bad), "G1", "G1")
    assert code == 2
    assert "line 2" in err


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


def test_directed_distance(genome_file, capsys):
    code, out, _ = run(capsys, "distance", genome_file, "G1", "SUB", "--directed")
    assert code == 0
    assert out.startswith("directed-distance ")


def test_directed_rejects_emit_events(genome_file, capsys):
    # the one-sided distance has no witness words, so asking for them is
    # refused rather than silently dropped
    with pytest.raises(SystemExit) as exc:
        main(["distance", genome_file, "G1", "SUB", "--directed", "--emit-events"])
    assert exc.value.code == 2
    assert "not allowed with argument --directed" in capsys.readouterr().err


def test_directed_cayley_engine_matches_onthefly(tmp_path, capsys):
    path = tmp_path / "subset.txt"
    path.write_text("A: a b c d e f g\nB: c a e g b\n")
    cache = tmp_path / "cache"
    code, onthefly, _ = run(capsys, "distance", str(path), "A", "B", "--directed", "--json")
    assert code == 0
    code, cayley, _ = run(capsys, "distance", str(path), "A", "B", "--directed", "--json",
                          "--engine", "cayley", "--cache-dir", str(cache))
    assert code == 0
    assert cayley == onthefly
    assert json.loads(cayley)["distance"] > 2  # two deletions and some inversions
    # the search saw only the five surviving regions
    assert [p.name for p in cache.glob("mu_*.bin")] == ["mu_5_5_5.bin"]


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
    assert main(["distance", str(path), "BIG", "T", "--max-n", "9"]) == 0


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


def test_search_budget_exit_2(tmp_path, capsys):
    # a random 14-region pair sharing 13 regions is partial rank, so it is
    # searched, and the search outgrows its state budget
    rng = random.Random(0)
    a, b = [f"r{i}" for i in range(14)], [f"r{i}" for i in range(1, 15)]
    rng.shuffle(a)
    rng.shuffle(b)
    path = tmp_path / "big.txt"
    path.write_text(f"A: {' '.join(a)}\nB: {' '.join(b)}\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "distance", str(path), "A", "B", "--max-n", "14")
    assert code == 2
    assert "budget" in err
    assert time.perf_counter() - start < 60


def test_random_full_rank_pairs_solve_without_the_budget(tmp_path, capsys):
    # genomes with the same regions take the closed form, not the search:
    # a random 14-region pair, which the search cannot solve within its
    # budget, and a random 16-region pair with its witness words and ancestor
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


def test_cayley_engine_capacity_exit_2(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("BIG: " + " ".join(f"r{i}" for i in range(9)) + "\nT: r0 r1 r2\n")
    code, _, err = run(capsys, "distance", str(path), "BIG", "T", "--max-n", "9",
                       "--engine", "cayley", "--cache-dir", str(tmp_path / "cache"))
    assert code == 2
    assert "cayley engine" in err


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


def test_verify_enumerate_capacity(capsys):
    code, _, err = run(capsys, "verify", "--enumerate", "9")
    assert code == 2


@pytest.mark.parametrize("max_n", ["0", "17"])
def test_max_n_out_of_range_is_exit_2(genome_file, capsys, max_n):
    for argv in (["distance", genome_file, "G1", "G2"], ["verify", "--relations"]):
        code, out, err = run(capsys, *argv, "--max-n", max_n)
        assert (code, out) == (2, "")
        assert "--max-n must be 1..16" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--relations", "--engine", "cayley"],
    ["reduce-partition", "1,1", "--engine", "cayley"],
    ["reduce-partition", "1,1", "--cache-dir", "cache"],
    ["reduce-partition", "1,1", "--max-n", "3"],
    ["distance", "genomes.txt", "G1", "G2", "--full-pairs"],
], ids=["verify-engine", "reduce-partition-engine", "reduce-partition-cache-dir",
        "reduce-partition-max-n", "distance-full-pairs"])
def test_subcommands_reject_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
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


def test_reduce_partition_small_decision(capsys):
    code, out, _ = run(capsys, "reduce-partition", "1,1,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["balanced_sortable"] is True
    assert payload["partition"] is True
    assert sum(payload["split"][0]) == sum(payload["split"][1])


def test_reduce_partition_decides_up_to_the_cap(capsys):
    code, out, _ = run(capsys, "reduce-partition", "2,2,2,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 12  # the largest decided size, npc.MAX_BALANCED
    assert payload["balanced_sortable"] is True
    code, out, _ = run(capsys, "reduce-partition", "1,1,2,3,4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 16
    assert "balanced_sortable" not in payload and "partition" not in payload


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
    with pytest.raises(SystemExit):
        main(["distance", str(path), "BIG", "--engine", "nope"])
    capsys.readouterr()
    code, out, _ = run(capsys, "distance", str(path), "BIG", "T", "--max-n", "9", "--json")
    assert code == 0 and json.loads(out)["distance"] == 7
    assert build_parser() is build_parser()


def test_unwritable_cache_dir_warns_once(genome_file, tmp_path, capsys):
    blocker = tmp_path / "notadir"
    blocker.write_text("")
    _, expected, _ = run(capsys, "distance", genome_file, "G1", "G2")
    code, out, err = run(capsys, "distance", genome_file, "G1", "G2",
                         "--engine", "cayley", "--cache-dir", str(blocker / "x"))
    assert (code, out) == (0, expected)
    assert len(err.splitlines()) == 1 and err.startswith("warning: not caching ")


def test_cache_dir_flag(genome_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out, _ = run(capsys, "distance", genome_file, "G1", "G2",
                       "--engine", "cayley", "--cache-dir", str(cache))
    assert code == 0
    assert out.splitlines()[0] == "distance 8"
    assert any(cache.glob("mu_*.bin"))


def test_cache_dir_is_resolved_only_for_the_cayley_engine(genome_file, tmp_path,
                                                           capsys, monkeypatch):
    import invdel.cli

    def refuse():
        raise AssertionError("the onthefly engine reads no cache directory")

    monkeypatch.setattr(invdel.cli, "default_cache_dir", refuse)
    code, out, _ = run(capsys, "distance", genome_file, "G1", "G2")
    assert code == 0 and out.splitlines()[0] == "distance 8"
    monkeypatch.undo()
    monkeypatch.setenv("INVDEL_CACHE", str(tmp_path / "env"))
    code, _, _ = run(capsys, "distance", genome_file, "G1", "G2", "--engine", "cayley")
    assert code == 0 and any((tmp_path / "env").glob("mu_*.bin"))


SMALL = "P: a b c d e\nQ: a c b e d\nR: b a d c\nS: e a c\n"


def test_matrix_cayley_engine_matches_onthefly(tmp_path, capsys):
    path = tmp_path / "small.txt"
    path.write_text(SMALL)
    cache = tmp_path / "cache"
    code, onthefly, _ = run(capsys, "matrix", str(path), "--json")
    assert code == 0
    code, cayley, _ = run(capsys, "matrix", str(path), "--json",
                          "--engine", "cayley", "--cache-dir", str(cache))
    assert code == 0
    assert json.loads(cayley) == json.loads(onthefly)
    assert any(cache.glob("mu_*.bin"))


def test_mrca_cayley_engine_matches_onthefly(tmp_path, capsys):
    path = tmp_path / "small.txt"
    path.write_text(SMALL)
    cache = tmp_path / "cache"
    code, onthefly, _ = run(capsys, "mrca", str(path), "P", "Q", "--json")
    assert code == 0
    code, cayley, _ = run(capsys, "mrca", str(path), "P", "Q", "--json",
                          "--engine", "cayley", "--cache-dir", str(cache))
    assert code == 0
    assert json.loads(cayley) == json.loads(onthefly)
    assert json.loads(onthefly)["verify"] == "ok"
    assert any(cache.glob("mu_*.bin"))


def test_cli_imports_only_the_standard_library():
    # A fresh interpreter, so modules that site loads count as "before".
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import invdel.cli\n"
        "print('\\n'.join(sorted({name.partition('.')[0] for name in set(sys.modules) - before})))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert set(done.stdout.split()) - sys.stdlib_module_names == {"invdel"}
