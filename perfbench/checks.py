"""Output checks that do not reuse the solver.

Each check reads one op's `--json` report and compares it with what the
benchmark knows from building the input (see `facts` in inputs.py).  Event
words are replayed by this file's own parser.  A check that fails raises
CheckError; the op then counts as failed.
"""
from __future__ import annotations

import json
import re
from math import comb, factorial

EVENT = re.compile(r"^([sd])(\d+);(\d+)$")


class CheckError(Exception):
    pass


def require(ok: bool, why: str) -> None:
    if not ok:
        raise CheckError(why)


def replay(start: list[str], word: str) -> list[str]:
    """Apply `s{i};{n}` (swap positions i and i+1, or 1 and n when i = n)
    and `d{i};{n}` (drop position i) letters left to right."""
    tokens = list(start)
    for letter in word.split():
        match = EVENT.match(letter)
        require(match is not None, f"unexpected event letter {letter!r}")
        kind, i, n = match.group(1), int(match.group(2)), int(match.group(3))
        require(n == len(tokens) and 1 <= i <= n,
                f"event {letter} applied to a genome of {len(tokens)} regions")
        if kind == "d":
            require(n >= 2, f"event {letter} deletes the last region")
            del tokens[i - 1]
        elif n > 1:
            j = i if i < n else 0
            tokens[i - 1], tokens[j] = tokens[j], tokens[i - 1]
    return tokens


def circular_key(tokens: list[str]) -> tuple[str, ...]:
    """The same circular genome up to rotation and reflection gives the same key."""
    n = len(tokens)
    return min(tuple(t[k:] + t[:k]) for t in (list(tokens), list(tokens)[::-1]) for k in range(n))


def parse_frame(text: str) -> list[str]:
    # the CLI prints single-letter frames without separators
    return text.split() if " " in text else list(text)


def can_split(values: list[int]) -> bool:
    total = sum(values)
    if total % 2:
        return False
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums}
    return total // 2 in sums


def check_distance(report: dict, facts: dict) -> int:
    a, b = facts["a"], facts["b"]
    require(report["deletions"] == len(set(a) ^ set(b)),
            f"deletions {report['deletions']} != symmetric difference {len(set(a) ^ set(b))}")
    require(report["mu"] >= 0, f"negative mu {report['mu']}")
    require(report["distance"] == report["deletions"] + report["mu"],
            f"distance {report['distance']} != deletions + mu")
    if facts["events"] is not None:
        require(report["distance"] <= facts["events"],
                f"distance {report['distance']} exceeds the {facts['events']} events applied")
    return report["distance"]


def check_mrca(report: dict, facts: dict) -> int:
    a, b = facts["a"], facts["b"]
    require(report["verify"] == "ok", f"verify says {report['verify']!r}")
    ancestor = parse_frame(report["ancestor"])
    words = (report["events_to_g1"], report["events_to_g2"])
    letters = [letter for w in words for letter in w.split()]
    require(report["event_count"] == len(letters),
            f"event_count {report['event_count']} != {len(letters)} letters emitted")
    deletions = sum(1 for letter in letters if letter.startswith("d"))
    require(deletions == len(set(a) ^ set(b)),
            f"{deletions} deletions emitted, symmetric difference is {len(set(a) ^ set(b))}")
    for side, (word, target) in enumerate(zip(words, (a, b)), start=1):
        landed = replay(ancestor, word)
        require(circular_key(landed) == circular_key(target),
                f"side {side} lands on {''.join(landed)}, not {''.join(target)}")
    require(report["event_count"] <= facts["events"],
            f"event_count {report['event_count']} exceeds the {facts['events']} events applied")
    return report["event_count"]


def check_reduce(report: dict, facts: dict) -> int:
    values = facts["values"]
    require(report["m"] == len(values) + sum(values), f"m {report['m']} for {values}")
    require(report["k"] == sum(values), f"k {report['k']} for {values}")
    split = can_split(values)
    require(report["partition"] == split, f"partition {report['partition']} for {values}")
    require(report["balanced_sortable"] == split,
            f"balanced_sortable {report['balanced_sortable']} for {values}")
    if split:
        x, y = report["split"]
        require(sum(x) == sum(y) and sorted(x + y) == sorted(values), f"bad split {x} | {y}")
    else:
        require(report["split"] is None, f"split given for unsplittable {values}")
    return int(split)


def check_relations(report: dict, facts: dict) -> int:
    require(report["relations_failed"] == 0 and report["failures"] == 0,
            f"{report['relations_failed']} relations failed")
    require(report["relations_checked"] > 0, "no relations checked")
    return report["relations_checked"]


def check_enumerate(report: dict, facts: dict) -> int:
    n = facts["n"]
    size = sum(comb(n, r) ** 2 * factorial(r) for r in range(n + 1))
    require(report["enumerated"] == size, f"enumerated {report['enumerated']}, closed form {size}")
    return report["enumerated"]


CHECKS = {
    "distance": check_distance,
    "mrca": check_mrca,
    "reduce-partition": check_reduce,
    "verify-relations": check_relations,
    "verify-enumerate": check_enumerate,
}


def check_op(op: dict, exit_code: int, stdout: str) -> int:
    """Validate one op's output; return the number the frozen expectations
    record for it (distance, event count, split decision or count)."""
    require(exit_code == 0, f"exit code {exit_code}")
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    try:
        return CHECKS[op["kind"]](report, op["facts"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed report: {exc!r}") from None


def compare_frozen(ops: list[list], frozen: list[int]) -> str | None:
    """Mark each checked op ([id, latency, failure, value]) whose value
    differs from its frozen value, and return a problem when the totals
    over those ops differ."""
    got = want = 0
    for op in ops:
        idx, _, why, value = op
        if why is None and idx < len(frozen):
            got += value
            want += frozen[idx]
            if value != frozen[idx]:
                op[2] = f"value {value} != frozen {frozen[idx]}"
    return None if got == want else f"total {got} != frozen total {want}"
