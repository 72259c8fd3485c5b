"""Seeded inputs for the four workloads.

Everything here uses only the standard library and this file's own
generator: nothing from `invdel` (in particular not `invdel.evolve`), so a
change to the program cannot change what the benchmark feeds it.

Inputs come in two layers.  The *design* of a workload (a fixed list of
genome pairs, up to renaming the regions) is drawn once from its
population with a fixed generator, so every run, on every commit, measures
the same ops.  The run's `--seed` then draws the *presentation*: fresh
region names (in the same alphabetical order) and a fresh rotation and
reflection of every written genome.  verify-suite has no genomes, so its
inputs are the same for every seed.  Distances and event counts do not
change under renaming, rotation or reflection, so the frozen expected
values in expected.json hold for every seed.  See README.md for why the
design is fixed.

A workload, as returned by `build`, is a plain dict:

    files        {relative path: text} written by the child before timing
    setup_argvs  CLI commands run once during set-up (cache fill)
    ops          [{"id": ..., "argv": [...], "kind": ..., "facts": {...}}]
    pass_s       seconds (scaled CPU time, see child.py) one pass over `ops`
                 took when the design was sized; a run makes
                 `passes(pass_s, seconds)` whole passes, so its op count
                 depends on --seconds only, never on how fast the program is

`facts` holds what the benchmark itself knows about an op's input (token
lists, events applied by the generator, the multiset), which the output
checks in checks.py use instead of the solver.
"""
from __future__ import annotations

import itertools
import random
import string

LETTERS = "abcdefghij"
WORKLOADS = ("random-full", "close-mrca", "cayley-matrix", "verify-suite")

# Pairs per sampled design: 40 and 48 ops, so that the tail percentile (ten
# ops beyond it) is p75 and p79.  README.md says why a run cannot afford 100.
RANDOM_FULL_PAIRS = 40
CLOSE_MRCA_PAIRS = 48


def circular_swap(tokens: list[str], i: int) -> None:
    j = (i + 1) % len(tokens)
    tokens[i], tokens[j] = tokens[j], tokens[i]


def pair_design(pairs: list[tuple], command: str, pass_s: float) -> dict:
    """One input file and one op per (a, b, events) pair, in design order."""
    files, ops = {}, []
    for k, (a, b, events) in enumerate(pairs):
        path = f"inputs/pair-{k:03d}.txt"
        files[path] = [("A", a), ("B", b)]
        ops.append({"id": k, "argv": [command, path, "A", "B", "--json"], "kind": command,
                    "facts": {"a": a, "b": b, "events": events}})
    return {"genomes": files, "setup_argvs": [], "ops": ops, "pass_s": pass_s}


def random_full(rng: random.Random) -> dict:
    """`distance` on independent uniformly random genomes over 8 regions."""
    pairs = []
    for _ in range(RANDOM_FULL_PAIRS):
        a, b = list(LETTERS[:8]), list(LETTERS[:8])
        rng.shuffle(a)
        rng.shuffle(b)
        pairs.append((a, b, None))
    return pair_design(pairs, "distance", 20.5)


def close_mrca(rng: random.Random) -> dict:
    """`mrca` on simulated pairs: a 9- or 10-region ancestor, 1 (n = 9) or
    2 (n = 10) deletions per branch of distinct regions, then 1-3 circular
    adjacent inversions per branch.  Both descendants keep 8 regions, so
    the rank (7 or 6 shared regions) is always partial.  Two thirds of the
    pairs come from 9-region ancestors: the cheaper 10-region pairs form a
    cluster of their own, and with half of each the median op fell on the
    edge between the two clusters, where it moved by 11% between runs."""
    pairs = []
    for k in range(CLOSE_MRCA_PAIRS):
        n = 10 if k % 3 == 2 else 9
        d = n - 8
        ancestor = list(LETTERS[:n])
        rng.shuffle(ancestor)
        dropped = rng.sample(ancestor, 2 * d)
        branches = []
        for gone in (dropped[:d], dropped[d:]):
            tokens = [t for t in ancestor if t not in gone]
            inversions = rng.randint(1, 3)
            for _ in range(inversions):
                circular_swap(tokens, rng.randrange(len(tokens)))
            branches.append((tokens, d + inversions))
        (a, ea), (b, eb) = branches
        pairs.append((a, b, ea + eb))
    return pair_design(pairs, "mrca", 17.5)


DELETIONS_PER_GENOME = (0, 0, 1, 1, 1, 2, 2, 2)


def cayley_matrix(rng: random.Random) -> dict:
    """`distance --engine cayley` on all pairs of 8 genomes derived from one
    7-region ancestor (0-2 deletions and 0-2 inversions each).  The mixed
    sizes make classes that differ only in m share one cache file name."""
    ancestor = list(LETTERS[:7])
    rng.shuffle(ancestor)
    deletions = list(DELETIONS_PER_GENOME)
    rng.shuffle(deletions)
    genomes, events = [], []
    for g, d in enumerate(deletions):
        gone = set(rng.sample(ancestor, d))
        tokens = [t for t in ancestor if t not in gone]
        inversions = rng.randint(0, 2)
        for _ in range(inversions):
            circular_swap(tokens, rng.randrange(len(tokens)))
        genomes.append(tokens)
        events.append(d + inversions)
    path = "inputs/matrix.txt"
    pairs = list(itertools.combinations(range(len(genomes)), 2))
    rng.shuffle(pairs)
    ops, setup_argvs, classes = [], [], set()
    for k, (i, j) in enumerate(pairs):
        argv = ["distance", path, f"G{i}", f"G{j}", "--engine", "cayley",
                "--cache-dir", "cache", "--json"]
        a, b = genomes[i], genomes[j]
        ops.append({"id": k, "argv": argv, "kind": "distance",
                    "facts": {"a": a, "b": b, "events": events[i] + events[j]}})
        # one cold build per (n, m, rank) class fills the cache in set-up
        key = (max(len(a), len(b)), min(len(a), len(b)), len(set(a) & set(b)))
        if key not in classes:
            classes.add(key)
            setup_argvs.append(argv)
    return {"genomes": {path: [(f"G{g}", tokens) for g, tokens in enumerate(genomes)]},
            "setup_argvs": setup_argvs, "ops": ops, "pass_s": 10.5}


def criterion7_multisets() -> list[tuple[int, ...]]:
    """Every multiset of at most 4 positive integers summing to at most 8."""
    out = []
    for size in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(1, 9), size):
            if sum(combo) <= 8:
                out.append(combo)
    return out


def verify_suite(rng: random.Random) -> dict:
    """The criterion-7 reduction set plus the relation table and an n = 6
    enumeration, in a fixed order: the first use of each code path inside
    the program costs extra, and with a shuffled order that cost landed on
    different ops and moved the median op by up to 20% between runs."""
    ops = [{"argv": ["reduce-partition", ",".join(map(str, values)), "--json"],
            "kind": "reduce-partition", "facts": {"values": list(values)}}
           for values in criterion7_multisets()]
    ops.append({"argv": ["verify", "--relations", "--max-n", "8", "--json"],
                "kind": "verify-relations", "facts": {}})
    ops.append({"argv": ["verify", "--enumerate", "6", "--json"],
                "kind": "verify-enumerate", "facts": {"n": 6}})
    for k, op in enumerate(ops):
        op["id"] = k
    return {"genomes": {}, "setup_argvs": [], "ops": ops, "pass_s": 9.5}


BUILDERS = {
    "random-full": random_full,
    "close-mrca": close_mrca,
    "cayley-matrix": cayley_matrix,
    "verify-suite": verify_suite,
}


def present(design: dict, rng: random.Random) -> dict:
    """Rename the regions and rotate and reflect each written genome; the op
    order stays the design's (see README.md).  New names keep the
    regions' alphabetical order, so canonical frames, pairings and every
    search the program runs stay the same: a renaming that reorders them
    changes how much of the last breadth-first layer a search visits,
    which moved the CPU time of single ops by up to 3x."""
    rename = dict(zip(LETTERS, sorted(rng.sample(string.ascii_lowercase, len(LETTERS)))))
    files = {}
    for path, genomes in design["genomes"].items():
        lines = []
        for name, tokens in genomes:
            tokens = [rename[t] for t in tokens]
            k = rng.randrange(len(tokens))
            tokens = tokens[k:] + tokens[:k]
            if rng.random() < 0.5:
                tokens.reverse()
            lines.append(f"{name}: {' '.join(tokens)}\n")
        files[path] = "".join(lines)
    ops = []
    for op in design["ops"]:
        facts = dict(op["facts"])
        for side in ("a", "b"):
            if side in facts:
                facts[side] = [rename[t] for t in facts[side]]
        ops.append({**op, "facts": facts})
    return {"files": files, "setup_argvs": design["setup_argvs"], "ops": ops,
            "pass_s": design["pass_s"]}


def passes(pass_s: float, seconds: float) -> int:
    """Whole passes over a design for a run of `seconds`: as many as fit at
    the pace the design was sized at, and at least one.  A constant of the
    design and --seconds, the same on every commit."""
    return max(1, int(seconds // pass_s))


def build(workload: str, seed: int) -> dict:
    design = BUILDERS[workload](random.Random(f"{workload}:design"))
    return present(design, random.Random(f"{workload}:{seed}"))
