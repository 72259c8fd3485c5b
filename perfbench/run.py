"""invdel benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload random-full --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from `src/`.
Each workload runs in fresh child processes (child.py).  A run makes the
whole passes over the workload's fixed op list (inputs.py) that fit in
--seconds at the pace the design was sized at, at least one, so its op
count depends on --seconds only, not on how fast the program is.  Times
are CPU times scaled to a reference speed (child.py, Speed).  With
--trace 0 it sets up two or three times (set-up-only children, then the
measured one) and prints the end-to-end metrics; with --trace 1 it runs
one child that traces set-up, runs every op traced and then untraced, and
prints the per-layer metrics.  `--workload all` runs every workload.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See README.md for the workloads and what each metric should predict.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from checks import compare_frozen

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
# Set-up is timed in every child; a --trace 0 run starts set-up-only
# children until it has SETUPS_MAX samples (the measured child's own
# set-up included), or SETUPS_MIN once set-up has taken SETUP_BUDGET CPU
# seconds: three on the workloads that set up in under a second, two on
# cayley-matrix, whose cold cache fill takes about 12 s.
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET = 2, 3, 10.0
TIME_LIMIT = 170.0  # seconds for all children of one workload

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
LAYER_UNITS = {"_ms": "ms", "_calls": "count", "_ratio": "ratio", "states": "count",
               "_ops": "count", "bytes_read": "bytes", "bytes_written": "bytes"}


class BenchError(Exception):
    pass


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile p whose nearest-rank value still has at
    least ten values above it, and that value.  With ten values or fewer no
    such percentile exists; the maximum is returned as p100."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = 100 * (n - 10) // n
    return p, xs[math.ceil(p * n / 100) - 1]


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS.items() if name.endswith(suffix))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "invdel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def child_env(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    env.pop("INVDEL_CACHE", None)
    env["PYTHONPATH"] = str(root / "src")
    # Every cayley op passes --cache-dir; if the program still fell back to
    # its platform cache directory it would land here, not in the user's
    # home, and the run would be marked incorrect.
    env["XDG_CACHE_HOME"] = str(work / "user-cache")
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def run_child(work: Path, env: dict, spec: dict, deadline: float) -> dict:
    """Start one child, wait for it, and return its result."""
    home = work / f"child-{len(list(work.glob('child-*')))}"
    home.mkdir()
    spec = {**spec, "result_path": str(home / "result.json")}
    spec_path = home / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              cwd=home, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['mode']} child exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['mode']} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(Path(spec["result_path"]).read_text())
    shutil.rmtree(home)  # drop this child's inputs and cache before the next starts
    return result


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    work = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        design = inputs.build(workload, seed)
        env = child_env(root, work)
        spec = {**design, "passes": inputs.passes(design["pass_s"], seconds),
                "spans_path": str(root / ".perfbench" / f"spans-{workload}.jsonl")}
        setup_times = []

        def child(mode):
            result = run_child(work, env, {**spec, "mode": mode}, deadline)
            setup_times.append((result["setup_scaled_s"], result["setup_cpu_s"]))
            if result["setup_failures"]:
                raise BenchError("set-up failed: " + "; ".join(result["setup_failures"]))
            return result

        while not trace and (len(setup_times) < SETUPS_MIN - 1 or (
                len(setup_times) < SETUPS_MAX - 1
                and sum(cpu for _, cpu in setup_times) < SETUP_BUDGET)):
            child("setup")
        result = child("trace" if trace else "run")
        leaked = sorted(str(p.relative_to(work)) for p in (work / "user-cache").rglob("*"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, design, result, setup_times, leaked)


def summarize(workload, seed, design, result, setup_times, leaked) -> dict:
    ops = result["ops"]
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    problems = []
    if workload in expected:
        problem = compare_frozen(ops, expected[workload])
        if problem:
            problems.append(problem)
    if leaked:
        problems.append(f"the platform cache fallback was written: {leaked}")
    failures = [op for op in ops if op[2] is not None]
    summary = {
        "workload": workload, "seed": seed, "attempted": len(ops), "failed": len(failures),
        "failed_frac": len(failures) / len(ops), "problems": problems,
        "failures": [f"op {op[0]}: {op[2]}" for op in failures[:5]],
        "design_ops": len(design["ops"]),
        "versions": result["versions"],
        "correct": not failures and not problems,
    }
    if "layers" in result:
        summary["metrics"] = {name: {"value": value, "unit": layer_unit(name)}
                              for name, value in result["layers"].items()}
        return summary
    good = [op[1] for op in ops if op[2] is None]
    pct, tail = tail_percentile(good) if good else (100, math.nan)
    values = {
        "setup_s": statistics.median([s for s, _ in setup_times]),
        "ops_per_s": len(good) / result["timed_scaled_s"],
        "latency_p50_ms": statistics.median(good) * 1000 if good else math.nan,
        "latency_tail_ms": tail * 1000,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }
    summary.update(tail_percentile=pct, measured_ops=len(good), timed_s=result["timed_cpu_s"],
                   speed=result["speed"], setup_samples_s=setup_times)
    summary["metrics"] = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                          for name, value in values.items()}
    return summary


def report(summary: dict, provenance: dict) -> None:
    print(json.dumps({"provenance": {**provenance, **summary["versions"],
                                     "workload": summary["workload"], "seed": summary["seed"],
                                     "ops": summary["attempted"]}}))
    line = (f"{summary['workload']} seed {summary['seed']}: {summary['attempted']} ops "
            f"({summary['attempted'] // summary['design_ops']} passes over {summary['design_ops']}), "
            f"{summary['failed']} failed, failed_frac {summary['failed_frac']:.4f}")
    if "tail_percentile" in summary:
        line += (f"; tail = p{summary['tail_percentile']} of {summary['measured_ops']} ops"
                 f"; timed phase {summary['timed_s']:.2f} CPU s at speed {summary['speed']:.3f}"
                 " of the reference; set-ups (scaled/CPU s) "
                 + ", ".join(f"{s:.3f}/{c:.3f}" for s, c in summary["setup_samples_s"]))
    print(line)
    for name, metric in summary["metrics"].items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    for text in summary["problems"] + summary["failures"]:
        print(f"  ! {text}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=list(inputs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "invdel" / "cli.py").is_file():
        print("error: run from the root of an invdel checkout (src/invdel/cli.py not found)",
              file=sys.stderr)
        return 2
    provenance = {"cores": os.cpu_count(), "cpu_model": cpu_model(), **source_identity(root)}
    workloads = inputs.WORKLOADS if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for workload in workloads:
            summary = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
            report(summary, provenance)
            summaries.append(summary)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{name}": metric
                   for s in summaries for name, metric in s["metrics"].items()}
    print(json.dumps({"correct": all(s["correct"] for s in summaries),
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
