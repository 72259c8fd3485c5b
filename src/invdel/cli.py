"""Command-line interface: distances, ancestors, matrices, verification.

Exit codes: 0 success, 1 internal or verification failure, 2 user-input
error.  Every command accepts --json for a machine-readable mirror of its
report (schema versioned; changes are additive).

Each command's grammar is written once, in COMMANDS.  `main` reads a
well-formed argv from that table itself; argparse, whose parser is made
from the same table, is imported only for every other argv: help,
--version, the spellings only argparse reads ("--opt=value",
abbreviations, "--") and every usage error, so those print and exit as
argparse does.
"""
from __future__ import annotations

import json
import os
import sys
from functools import cache
from types import SimpleNamespace

from . import __version__
from .errors import InvdelError, CapacityError
from .algebra import eval_word, format_word, relation_table
from .cayley import enumerate_monoid, monoid_size
from .distance import (construct_ancestor, directed_distance, distance_matrix, format_phylip,
                       format_tsv, mrca_distance, verify_scenario_report)
from .evolve import random_genome, simulate
from .genome import Genome, load_genomes
from .npc import partition_witness, reduce_partition, solve_balancedsort
from .pperm import MAX_POSITIONS, _check_int

JSON_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(args, lines: list[str], payload: dict) -> None:
    if args.json:
        payload = {"schema_version": JSON_SCHEMA_VERSION, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _check_size(what: str, n: int, max_n: int) -> None:
    if n > max_n:
        raise CapacityError(
            f"{what} has {n} regions; the exact algorithm is "
            f"capped at {max_n} (override with --max-n up to {MAX_POSITIONS})"
        )


def _pick(named: dict[str, Genome], name: str, max_n: int) -> Genome:
    """The named genome, within the size cap; other genomes in the file
    are not checked."""
    if not named:
        raise InvdelError("the file holds no genomes")
    if name not in named:
        known = ", ".join(named)
        raise InvdelError(f"no genome named {name!r} in file (have: {known})")
    _check_size(f"genome {name!r}", named[name].n, max_n)
    return named[name]


# -- subcommands -----------------------------------------------------------------

def cmd_distance(args) -> int:
    if args.engine == "cayley":
        print("warning: --engine cayley is ignored; distance runs the default search",
              file=sys.stderr)
    if args.cache_dir is not None:
        print("warning: --cache-dir is ignored; invdel writes no files", file=sys.stderr)
    named = dict(load_genomes(args.file))
    g1, g2 = _pick(named, args.genome1, args.max_n), _pick(named, args.genome2, args.max_n)
    if args.directed:
        d = directed_distance(g1, g2)
        _emit(args, [f"directed-distance {d}"],
              {"command": "distance", "directed": True, "distance": d,
               "from": args.genome1, "to": args.genome2})
        return EXIT_OK
    result = mrca_distance(g1, g2)
    f1, f2 = map(str, result.best_pair)
    lines = [
        f"distance {result.total}",
        f"deletions {result.deletions}",
        f"mu {result.mu}",
        f"best-pair {f1} / {f2}",
    ]
    payload = {
        "command": "distance", "directed": False,
        "genomes": [args.genome1, args.genome2],
        "distance": result.total, "deletions": result.deletions, "mu": result.mu,
        "best_pair": [f1, f2],
    }
    if args.emit_events:
        left = format_word(result.solution.left_inversions)
        right = format_word(result.solution.right_inversions)
        lines += [f"left-inversions {left}", f"right-inversions {right}"]
        payload["left_inversions"], payload["right_inversions"] = left, right
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_mrca(args) -> int:
    named = dict(load_genomes(args.file))
    g1, g2 = _pick(named, args.genome1, args.max_n), _pick(named, args.genome2, args.max_n)
    result = mrca_distance(g1, g2)
    scenario = construct_ancestor(result)
    ok, report = verify_scenario_report(scenario, g1, g2, expected=result.total)
    ancestor = str(scenario.ancestor_frame)
    to1, to2 = map(format_word, (scenario.events_to_g1, scenario.events_to_g2))
    lines = [
        f"ancestor {ancestor}",
        f"events-to-{args.genome1} {to1}",
        f"events-to-{args.genome2} {to2}",
        f"events {scenario.event_count}",
        f"verify {report}",
    ]
    payload = {
        "command": "mrca", "genomes": [args.genome1, args.genome2],
        "ancestor": ancestor, "events_to_g1": to1, "events_to_g2": to2,
        "event_count": scenario.event_count,
        "gap_sets": [list(u) for u in scenario.gap_sets],
        "verify": report,
    }
    _emit(args, lines, payload)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_matrix(args) -> int:
    named = dict(load_genomes(args.file))
    for name, genome in named.items():
        _check_size(f"genome {name!r}", genome.n, args.max_n)
    names = list(named)
    matrix = distance_matrix(list(named.values()))
    if args.json:
        _emit(args, [], {"command": "matrix", "format": args.format,
                         "names": names, "matrix": matrix})
    else:
        render = format_phylip if args.format == "phylip" else format_tsv
        sys.stdout.write(render(names, matrix))
    return EXIT_OK


def cmd_verify(args) -> int:
    if not args.relations and args.enumerate is None:
        raise InvdelError("nothing to verify: pass --relations and/or --enumerate N")
    lines = []
    payload: dict = {"command": "verify"}
    failures = 0
    if args.relations:
        if args.max_n < 2:
            raise InvdelError("--relations needs --max-n of at least 2: "
                              "the relation table starts at n = 2")
        checked = 0
        bad = []
        for n in range(2, args.max_n + 1):
            for rel in relation_table(n):
                checked += 1
                if eval_word(rel.lhs) != eval_word(rel.rhs):
                    bad.append(f"{rel.rule}@{n}: {rel.lhs} != {rel.rhs}")
        if bad:
            failures += len(bad)
            lines.extend(f"relation FAIL {b}" for b in bad)
        else:
            lines.append(f"all relations hold ({checked} instances, n <= {args.max_n})")
        payload["relations_checked"] = checked
        payload["relations_failed"] = len(bad)
    if args.enumerate is not None:
        n = args.enumerate
        count = enumerate_monoid(n)
        expected = monoid_size(n)
        ok = count == expected
        if not ok:
            failures += 1
        lines.append(f"{count} {'ok' if ok else f'MISMATCH (expected {expected})'}")
        payload["enumerated"] = count
        payload["expected"] = expected
    payload["failures"] = failures
    _emit(args, lines, payload)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_simulate(args) -> int:
    _check_size("the simulated ancestor", args.size, args.max_n)
    ancestor = random_genome(args.size, args.seed)
    scenario = simulate(ancestor, args.deletions1, args.inversions1,
                        args.deletions2, args.inversions2, args.seed)
    result = mrca_distance(scenario.genome1, scenario.genome2)
    ancestor, genome1, genome2 = map(str, (scenario.ancestor, scenario.genome1, scenario.genome2))
    branch1, branch2 = map(format_word, (scenario.branch1, scenario.branch2))
    lines = [
        f"ancestor {ancestor}",
        f"branch-1 {branch1}",
        f"branch-2 {branch2}",
        f"genome-1 {genome1}",
        f"genome-2 {genome2}",
        f"events {scenario.event_count}",
        f"distance {result.total}",
    ]
    payload = {
        "command": "simulate", "seed": args.seed, "ancestor": ancestor,
        "branch1": branch1, "branch2": branch2, "genome1": genome1, "genome2": genome2,
        "event_count": scenario.event_count,
        "distance": result.total,
    }
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_reduce_partition(args) -> int:
    try:
        values = tuple(int(v) for v in args.multiset.split(",") if v.strip())
    except ValueError as exc:
        raise InvdelError(f"bad multiset {args.multiset!r}: {exc}") from exc
    inst = reduce_partition(values)
    pairs = sorted((i, j) for i, j in inst.sigma.pairs() if i < j)
    decision = solve_balancedsort(inst)
    witness = partition_witness(values)
    partition = witness is not None
    lines = [
        f"m {inst.sigma.m}",
        f"pairs {' '.join(f'{i}<->{j}' for i, j in pairs)}",
        f"k {inst.k}",
        f"balanced-sortable {'yes' if decision else 'no'}",
        f"partition {'yes' if partition else 'no'}",
    ]
    if witness:
        lines.append(f"split {' | '.join(','.join(map(str, side)) for side in witness)}")
    payload = {
        "command": "reduce-partition", "multiset": list(values),
        "m": inst.sigma.m, "pairs": pairs, "k": inst.k,
        "balanced_sortable": decision, "partition": partition,
        "split": [list(side) for side in witness] if witness else None,
    }
    if decision != partition:
        _emit(args, lines + ["REDUCTION MISMATCH"], {**payload, "mismatch": True})
        return EXIT_FAIL
    _emit(args, lines, payload)
    return EXIT_OK


# -- grammar ----------------------------------------------------------------------

# Each command's grammar, written once: its help, its arguments in the order
# argparse adds them (a name, then the keywords of `add_argument`), and the
# options that exclude each other.  `main` reads a well-formed argv against
# it; `build_parser` makes the argparse parser from it for every other argv.
# Each command takes only the options it reads: every one --json, the sized
# ones --max-n (verify its own, capping the relation table), and distance
# alone the two ignored options.
_JSON = ("--json", {"action": "store_true", "help": "emit a JSON report"})
_MAX_N = ("--max-n", {"type": int, "default": 8,
                      "help": f"largest genome size accepted (default 8, cap {MAX_POSITIONS})"})
_IGNORED = "ignored; kept until the benchmark's cayley-matrix workload is retired"

COMMANDS = {
    "distance": ("distance between two named genomes", [
        _JSON, _MAX_N,
        ("file", {"help": "genome text file"}), ("genome1", {}), ("genome2", {}),
        ("--engine", {"choices": ["onthefly", "cayley"], "default": "onthefly",
                      "help": _IGNORED}),
        ("--cache-dir", {"default": None, "help": _IGNORED}),
        ("--directed", {"action": "store_true",
                        "help": "one-sided inversion/deletion distance (needs R2 within R1)"}),
        ("--emit-events", {"action": "store_true",
                           "help": "also print the witnessing inversion words"}),
    ], ("--directed", "--emit-events")),  # the one-sided distance has no witness words
    "mrca": ("reconstruct the most recent common ancestor", [
        _JSON, _MAX_N, ("file", {}), ("genome1", {}), ("genome2", {}),
    ], ()),
    "matrix": ("all-pairs distance matrix", [
        _JSON, _MAX_N, ("file", {}),
        ("--format", {"choices": ["phylip", "tsv"], "default": "phylip"}),
    ], ()),
    "verify": ("run the relation suite and/or enumeration counts", [
        _JSON,
        ("--max-n", {"type": int, "default": 8,
                     "help": f"largest n of the relation table (default 8, cap {MAX_POSITIONS})"}),
        ("--relations", {"action": "store_true"}),
        ("--enumerate", {"type": int, "default": None, "metavar": "N"}),
    ], ()),
    "simulate": ("simulate a pair of genomes from a random ancestor", [
        _JSON, _MAX_N,
        ("--size", {"type": int, "required": True, "help": "ancestor region count"}),
        ("--seed", {"type": int, "default": 0}),
        ("--deletions1", {"type": int, "default": 0}),
        ("--inversions1", {"type": int, "default": 0}),
        ("--deletions2", {"type": int, "default": 0}),
        ("--inversions2", {"type": int, "default": 0}),
    ], ()),
    "reduce-partition": ("encode a multiset as a balanced sorting instance", [
        _JSON, ("multiset", {"help": "comma-separated positive integers, e.g. 1,1,2,3,4"}),
    ], ()),
}


def _command(name: str):
    """The function that runs a command, looked up when an argv is read, so
    a rebound `cmd_*` name is the one called."""
    return globals()["cmd_" + name.replace("-", "_")]


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace argparse gives `argv`, read from COMMANDS, when `argv`
    is a command name, then exact option spellings, each value not starting
    with "-" and passing its option's type and choices, and exactly the
    command's positionals, in any order; otherwise None.  Help, --version,
    "--opt=value", abbreviations, "--" and every usage error are None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, arguments, exclusive = COMMANDS[argv[0]]
    values = {"command": argv[0]}
    options, positionals = {}, []
    for name, kwargs in arguments:
        if name[0] == "-":
            dest = name[2:].replace("-", "_")
            options[name] = dest, kwargs
            values[dest] = kwargs.get("default", False if "action" in kwargs else None)
        else:
            positionals.append(name)
            values[name] = None
    given, seen = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
            continue
        if token not in options:
            return None
        dest, kwargs = options[token]
        seen.add(token)
        if "action" in kwargs:  # store_true
            values[dest] = True
            continue
        value = next(tokens, "-")
        if value[:1] == "-":
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if value not in kwargs.get("choices", (value,)):
            return None
        values[dest] = value
    if (len(given) != len(positionals) or exclusive and seen.issuperset(exclusive)
            or any(kwargs.get("required") and name not in seen for name, kwargs in arguments)):
        return None
    values.update(zip(positionals, given))
    values["func"] = _command(argv[0])
    return SimpleNamespace(**values)


@cache  # built on the first call, then shared: parsing leaves it unchanged
def build_parser():
    """The argparse parser of COMMANDS, which reads every argv that
    `_read_argv` leaves: help, version and usage errors are argparse's."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="invdel",
        description="Inversion/deletion distances and ancestors for circular genomes.",
    )
    parser.add_argument("--version", action="version", version=f"invdel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, arguments, exclusive) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        group = p.add_mutually_exclusive_group() if exclusive else p
        for name, kwargs in arguments:
            (group if name in exclusive else p).add_argument(name, **kwargs)
        p.set_defaults(func=_command(command))
    return parser


def _drop_stdout() -> None:
    """The reader is gone: send what is still buffered to devnull, so the
    flush at exit cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            # --help and --version print and exit inside the parser, which
            # ignores a failed write; a failed flush is ignored the same way
            try:
                sys.stdout.flush()
            except BrokenPipeError:
                _drop_stdout()
            raise
    try:
        if hasattr(args, "max_n"):
            _check_int("--max-n", args.max_n, 1, MAX_POSITIONS)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        _drop_stdout()  # and exit without a report
        return EXIT_FAIL
    except InvdelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
