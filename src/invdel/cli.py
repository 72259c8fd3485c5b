"""Command-line interface: distances, ancestors, matrices, verification.

Exit codes: 0 success, 1 internal or verification failure, 2 user-input
error.  Every command accepts --json for a machine-readable mirror of its
report (schema versioned; changes are additive).
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import __version__
from .errors import InvdelError, CapacityError
from .algebra import eval_word, format_word, relation_table
from .cayley import MAX_ENUM, default_cache_dir, enumerate_monoid, monoid_size
from .distance import (check_ancestor_size, construct_ancestor, directed_distance,
                       distance_matrix, format_phylip, format_tsv, mrca_distance,
                       verify_scenario_report)
from .evolve import random_genome, simulate
from .genome import Genome, load_genomes
from .npc import (MAX_BALANCED, partition_brute, partition_witness, reduce_partition,
                  solve_balancedsort)
from .pperm import MAX_POSITIONS

JSON_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _cache_dir(args) -> Path | None:
    # only the cayley engine reads a cache; precedence: --cache-dir flag,
    # then $INVDEL_CACHE, then the platform cache directory
    # (default_cache_dir handles the latter two)
    if args.engine != "cayley":
        return None
    return Path(args.cache_dir) if args.cache_dir else default_cache_dir()


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
    if name not in named:
        known = ", ".join(named)
        raise InvdelError(f"no genome named {name!r} in file (have: {known})")
    _check_size(f"genome {name!r}", named[name].n, max_n)
    return named[name]


# -- subcommands -----------------------------------------------------------------

def cmd_distance(args) -> int:
    named = dict(load_genomes(args.file))
    g1, g2 = _pick(named, args.genome1, args.max_n), _pick(named, args.genome2, args.max_n)
    if args.directed:
        d = directed_distance(g1, g2, engine=args.engine, cache_dir=_cache_dir(args))
        _emit(args, [f"directed-distance {d}"],
              {"command": "distance", "directed": True, "distance": d,
               "from": args.genome1, "to": args.genome2})
        return EXIT_OK
    result = mrca_distance(g1, g2, engine=args.engine, cache_dir=_cache_dir(args))
    f1, f2 = result.best_pair
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
        "best_pair": [str(f1), str(f2)],
    }
    if args.emit_events:
        lines.append(f"left-inversions {format_word(result.solution.left_inversions)}")
        lines.append(f"right-inversions {format_word(result.solution.right_inversions)}")
        payload["left_inversions"] = format_word(result.solution.left_inversions)
        payload["right_inversions"] = format_word(result.solution.right_inversions)
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_mrca(args) -> int:
    named = dict(load_genomes(args.file))
    g1, g2 = _pick(named, args.genome1, args.max_n), _pick(named, args.genome2, args.max_n)
    check_ancestor_size(g1, g2)
    result = mrca_distance(g1, g2, engine=args.engine, cache_dir=_cache_dir(args))
    scenario = construct_ancestor(g1, g2, result=result)
    ok, report = verify_scenario_report(scenario, g1, g2, expected=result.total)
    lines = [
        f"ancestor {scenario.ancestor_frame}",
        f"events-to-{args.genome1} {format_word(scenario.events_to_g1)}",
        f"events-to-{args.genome2} {format_word(scenario.events_to_g2)}",
        f"events {scenario.event_count}",
        f"verify {report}",
    ]
    payload = {
        "command": "mrca", "genomes": [args.genome1, args.genome2],
        "ancestor": str(scenario.ancestor_frame),
        "events_to_g1": format_word(scenario.events_to_g1),
        "events_to_g2": format_word(scenario.events_to_g2),
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
    if len(named) < 2:
        raise InvdelError("a distance matrix needs at least 2 genomes")
    names = list(named)
    matrix = distance_matrix(list(named.items()), engine=args.engine,
                             cache_dir=_cache_dir(args))
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
        if not 1 <= n <= MAX_ENUM:
            raise CapacityError(f"--enumerate supports 1..{MAX_ENUM}, got {n}")
        count = len(enumerate_monoid(n))
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
    result = mrca_distance(scenario.genome1, scenario.genome2,
                           engine=args.engine, cache_dir=_cache_dir(args))
    lines = [
        f"ancestor {scenario.ancestor.canonical}",
        f"branch-1 {format_word(scenario.branch1)}",
        f"branch-2 {format_word(scenario.branch2)}",
        f"genome-1 {scenario.genome1.canonical}",
        f"genome-2 {scenario.genome2.canonical}",
        f"events {scenario.event_count}",
        f"distance {result.total}",
    ]
    payload = {
        "command": "simulate", "seed": args.seed,
        "ancestor": str(scenario.ancestor.canonical),
        "branch1": format_word(scenario.branch1),
        "branch2": format_word(scenario.branch2),
        "genome1": str(scenario.genome1.canonical),
        "genome2": str(scenario.genome2.canonical),
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
    lines = [
        f"m {inst.sigma.m}",
        f"pairs {' '.join(f'{i}<->{j}' for i, j in pairs)}",
        f"k {inst.k}",
    ]
    payload = {
        "command": "reduce-partition", "multiset": list(values),
        "m": inst.sigma.m, "pairs": pairs, "k": inst.k,
    }
    if inst.sigma.m <= MAX_BALANCED:
        decision = solve_balancedsort(inst)
        brute = partition_brute(values)
        witness = partition_witness(values)
        lines.append(f"balanced-sortable {'yes' if decision else 'no'}")
        lines.append(f"partition {'yes' if brute else 'no'}")
        if witness:
            x, y = witness
            lines.append(f"split {','.join(map(str, x))} | {','.join(map(str, y))}")
        payload["balanced_sortable"] = decision
        payload["partition"] = brute
        payload["split"] = [list(witness[0]), list(witness[1])] if witness else None
        if decision != brute:
            _emit(args, lines + ["REDUCTION MISMATCH"], {**payload, "mismatch": True})
            return EXIT_FAIL
    _emit(args, lines, payload)
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

@cache  # built on the first call, then shared: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invdel",
        description="Inversion/deletion distances and ancestors for circular genomes.",
    )
    parser.add_argument("--version", action="version", version=f"invdel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads: every one --json,
    # the sized ones --max-n, the ones that align genomes the engine options
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true", help="emit a JSON report")
    sized = argparse.ArgumentParser(add_help=False, parents=[report])
    sized.add_argument("--max-n", type=int, default=8,
                       help=f"largest genome size accepted (default 8, cap {MAX_POSITIONS})")
    aligning = argparse.ArgumentParser(add_help=False, parents=[sized])
    aligning.add_argument("--cache-dir", default=None,
                          help="class-table cache directory (default: $INVDEL_CACHE, else "
                               "the platform cache directory, ~/.cache/invdel on Linux)")
    aligning.add_argument("--engine", choices=["onthefly", "cayley"], default="onthefly",
                          help="alignment engine (default onthefly)")

    p = sub.add_parser("distance", parents=[aligning],
                       help="distance between two named genomes")
    p.add_argument("file", help="genome text file")
    p.add_argument("genome1")
    p.add_argument("genome2")
    # the one-sided distance has no witness words to print
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--directed", action="store_true",
                      help="one-sided inversion/deletion distance (needs R2 within R1)")
    mode.add_argument("--emit-events", action="store_true",
                      help="also print the witnessing inversion words")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("mrca", parents=[aligning],
                       help="reconstruct the most recent common ancestor")
    p.add_argument("file")
    p.add_argument("genome1")
    p.add_argument("genome2")
    p.set_defaults(func=cmd_mrca)

    p = sub.add_parser("matrix", parents=[aligning], help="all-pairs distance matrix")
    p.add_argument("file")
    p.add_argument("--format", choices=["phylip", "tsv"], default="phylip")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("verify", parents=[sized],
                       help="run the relation suite and/or enumeration counts")
    p.add_argument("--relations", action="store_true")
    p.add_argument("--enumerate", type=int, default=None, metavar="N")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", parents=[aligning],
                       help="simulate a pair of genomes from a random ancestor")
    p.add_argument("--size", type=int, required=True, help="ancestor region count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deletions1", type=int, default=0)
    p.add_argument("--inversions1", type=int, default=0)
    p.add_argument("--deletions2", type=int, default=0)
    p.add_argument("--inversions2", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reduce-partition", parents=[report],
                       help="encode a multiset as a balanced sorting instance")
    p.add_argument("multiset", help="comma-separated positive integers, e.g. 1,1,2,3,4")
    p.set_defaults(func=cmd_reduce_partition)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "max_n" in args and not 1 <= args.max_n <= MAX_POSITIONS:
            raise CapacityError(f"--max-n must be 1..{MAX_POSITIONS}")
        return args.func(args)
    except InvdelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
