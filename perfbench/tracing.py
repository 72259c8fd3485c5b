"""Per-layer spans recorded from outside the program.

`install` wraps every public module-level function of the `invdel`
modules, plus `Genome.from_frame` (the canonicalizer that parsing and
`canonicalize` both go through), and rebinds each wrapped name in every
`invdel` module that imported it (`distance.py`, for example, binds
`min_over_reference_pairs` by name).  A span is (name, start, end, parent
span, op id, note); spans recorded during set-up carry the op id SETUP.
`align.row_is_popi` runs once per search state, so it is a counter
(`align.states`, timed ops only) rather than a span.
"""
from __future__ import annotations

import functools
import importlib
import os
import types
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("genome", "pperm", "algebra", "cayley", "align", "distance", "evolve", "npc", "cli")
COUNTERS = {"align.row_is_popi": "align.states"}
SETUP = -1  # op id of the spans recorded during set-up


def _solve_note(args, kwargs, result, raised):
    if raised:
        return None
    sigma = args[0] if args else kwargs["sigma"]
    return [sigma.m, sigma.n, list(sigma.image_row), result.cost]


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _load_note(args, kwargs, result, raised):
    from invdel.cayley import cache_path

    cache_dir, n, m, r = args  # the program calls cache_load positionally
    return {"bytes": _file_size(cache_path(cache_dir, n, r)), "hit": not raised}


def _store_note(args, kwargs, result, raised):
    return {"bytes": 0 if raised else _file_size(result)}


NOTES = {
    "align.solve_pair": _solve_note,
    "cayley.cache_load": _load_note,
    "cayley.cache_store": _store_note,
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn):
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            result, raised = None, True
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if note is not None:
                    rec[5] = note(args, kwargs, result, raised)

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled and tracer.op != SETUP:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [importlib.import_module(f"invdel.{m}") for m in MODULES]
        modules.append(importlib.import_module("invdel"))
        replacements = {}
        for mod in modules[:-1]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                replacements[fn] = (self.counter(COUNTERS[name], fn) if name in COUNTERS
                                    else self.span(name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in replacements:
                    setattr(mod, attr, replacements[value])
        genome_cls = importlib.import_module("invdel.genome").Genome
        raw = genome_cls.__dict__["from_frame"].__func__
        genome_cls.from_frame = classmethod(self.span("genome.Genome.from_frame", raw))


def layer_table(spans: list[list], keep=lambda op: True) -> dict[str, dict]:
    """Calls, inclusive seconds and self seconds per span name, over the
    spans whose op id passes `keep`.  Self time is the span minus the time
    covered by its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child[rec[3]] += rec[2] - rec[1]
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, rec in enumerate(spans):
        if not keep(rec[4]):
            continue
        row = table[rec[0]]
        row["calls"] += 1
        row["s"] += rec[2] - rec[1]
        row["self_s"] += rec[2] - rec[1] - child[i]
    return dict(table)


def per_layer(tracer: Tracer, ops: int, import_ms: float) -> dict[str, float]:
    """The layer metrics named in BENCHMARK.json, except the trace overhead,
    which child.py measures.  They are per timed op, except `setup.*`: the
    import, and the cayley totals of the whole set-up (the cold cache
    fill).  A ratio whose base is zero on a workload (no cache use, say) is
    reported as 0."""
    table = layer_table(tracer.spans, lambda op: op != SETUP)
    setup = layer_table(tracer.spans, lambda op: op == SETUP)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def calls(name):
        return table.get(name, empty)["calls"] / ops

    def ms(name, key="s"):
        return table.get(name, empty)[key] * 1000 / ops

    def notes(name, in_setup=False):
        return [rec for rec in tracer.spans
                if rec[0] == name and rec[5] is not None and (rec[4] == SETUP) == in_setup]

    def setup_ms(name):
        return setup.get(name, empty)["s"] * 1000

    def setup_bytes(name):
        return sum(rec[5]["bytes"] for rec in notes(name, in_setup=True))

    solves_by_op = defaultdict(list)
    for rec in notes("align.solve_pair"):
        solves_by_op[rec[4]].append(rec[5])
    distinct = sum(len({repr(s[:3]) for s in solves}) for solves in solves_by_op.values())
    total_solves = sum(len(s) for s in solves_by_op.values())
    nonzero = [len(s) for s in solves_by_op.values() if all(x[3] > 0 for x in s)]
    loads = notes("cayley.cache_load")
    gets = table.get("cayley.get_dclass_graph", empty)["calls"]

    return {
        "setup.import_ms": import_ms,
        "setup.cayley.build_dclass_graph_ms": setup_ms("cayley.build_dclass_graph"),
        "setup.cayley.enumerate_monoid_ms": setup_ms("cayley.enumerate_monoid"),
        "setup.cayley.cache_bytes_read": setup_bytes("cayley.cache_load"),
        "setup.cayley.cache_bytes_written": setup_bytes("cayley.cache_store"),
        "cli.self_ms": sum(row["self_s"] for name, row in table.items()
                           if name.startswith("cli.")) * 1000 / ops,
        "genome.load_genomes_ms": ms("genome.load_genomes"),
        "genome.canonicalize_calls": calls("genome.Genome.from_frame"),
        "pperm.sigma_from_frames_calls": calls("pperm.sigma_from_frames"),
        "align.states": tracer.counts["align.states"] / ops,
        "align.solve_pair_ms": ms("align.solve_pair"),
        "align.solve_pair_calls": calls("align.solve_pair"),
        "align.solve_pair_calls_nonzero_ops": sum(nonzero) / len(nonzero) if nonzero else 0.0,
        "align.min_over_reference_pairs_calls": calls("align.min_over_reference_pairs"),
        "distance.mrca_distance_calls": calls("distance.mrca_distance"),
        "align.useful_solve_ratio": distinct / total_solves if total_solves else 0.0,
        "distance.construct_ancestor_self_ms": ms("distance.construct_ancestor", "self_s"),
        "distance.verify_scenario_report_self_ms": ms("distance.verify_scenario_report", "self_s"),
        "algebra.apply_to_frame_calls": calls("algebra.apply_to_frame"),
        "algebra.apply_to_frame_ms": ms("algebra.apply_to_frame"),
        "align.solve_pair_via_cayley_ms": ms("align.solve_pair_via_cayley"),
        "cayley.get_dclass_graph_calls": calls("cayley.get_dclass_graph"),
        "cayley.cache_load_ms": ms("cayley.cache_load"),
        "cayley.cache_store_calls": calls("cayley.cache_store"),
        "cayley.cache_hit_ratio": sum(1 for rec in loads if rec[5]["hit"]) / gets if gets else 0.0,
        "cayley.build_dclass_graph_ms": ms("cayley.build_dclass_graph"),
        "cayley.enumerate_monoid_ms": ms("cayley.enumerate_monoid"),
        "cayley.cache_bytes_read": sum(rec[5]["bytes"] for rec in loads) / ops,
        "cayley.cache_bytes_written": sum(rec[5]["bytes"] for rec in notes("cayley.cache_store")) / ops,
        "npc.solve_balancedsort_ms": ms("npc.solve_balancedsort"),
        "npc.partition_brute_ms": ms("npc.partition_brute"),
        "algebra.eval_word_ms": ms("algebra.eval_word"),
    }
