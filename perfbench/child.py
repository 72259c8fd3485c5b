"""One workload in a fresh interpreter: set up, then run the closed loop.

    python3 child.py SPEC.json

run.py writes the spec and starts this script with the checkout's `src`
on PYTHONPATH, in a working directory of its own.  Modes:

    setup  import invdel, write the inputs, fill the cache, then stop
    run    set up, then run the spec's `passes` whole passes over its ops
           back to back (one caller, one thread) with tracing off
    trace  the same, with spans on during set-up, and each op run twice:
           with spans on, then off

Times are CPU time of this process, scaled to a reference speed by
calibration samples taken next to them (Speed, below; see README.md).

Every op is one CLI command, `invdel.cli.main(argv)`, in this process
with stdout captured.  The result goes to the spec's `result_path`.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from checks import CheckError, check_op


def run_op(cli, argv: list[str]) -> tuple[float, object, str]:
    """Run one CLI command; return its CPU time, exit code and stdout.
    The previous op's garbage is collected first, off the clock, as a new
    process per command would start clean."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            code = f"raised {exc!r}"
        latency = time.process_time() - start
    return latency, code, out.getvalue()


# CPU seconds of one calibration unit at the reference speed: the median
# unit on the 2-vCPU Xeon virtual machine the benchmark was tuned on, in
# its calm phases.
REFERENCE_UNIT_S = 0.0045


def calibration_unit() -> int:
    """A fixed piece of pure-Python work like the program's searches:
    tuple rotations and reversals, hashed into a dict."""
    seen: dict = {}
    row = tuple(range(12))
    for i in range(6000):
        row = row[1:] + row[:1] if i % 3 else row[::-1]
        key = (row, i % 997)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


class Speed:
    """The machine's current speed, sampled with `calibration_unit`.

    On a shared virtual machine the CPU time of identical work moves by up
    to 1.5x from one minute to the next.  A CPU time measured between two
    samples is scaled by REFERENCE_UNIT_S over their mean: what it would
    have been at the reference speed.  A change to the program changes the
    measured time and not the samples, so it still shows in full."""

    def __init__(self):
        self.spent = 0.0  # CPU seconds spent sampling, kept out of every time
        self.samples: list[float] = []

    def sample(self) -> float:
        """Median CPU time of three units, with the collector off."""
        start = time.process_time()
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(3):
                t = time.process_time()
                calibration_unit()
                times.append(time.process_time() - t)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(statistics.median(times))
        self.spent += time.process_time() - start
        return self.samples[-1]

    @staticmethod
    def scale(cpu: float, before: float, after: float) -> float:
        return cpu * 2 * REFERENCE_UNIT_S / (before + after)


def closed_loop(run, ops: list[dict], passes: int,
                speed: Speed | None = None) -> tuple[list[list], float]:
    """Run `passes` whole passes over the ops back to back, `run(op)`
    doing each one, and with `speed` a calibration sample before the first
    op and after each.  The op count is fixed by the spec, never by how
    fast the ops go.  Returns records [op index, scaled latency, exit code,
    stdout, CPU latency] (scaled = CPU without `speed`) and the CPU time
    spent in ops."""
    records = []
    before = speed.sample() if speed else None
    for _ in range(passes):
        for idx, op in enumerate(ops):
            latency, code, stdout = run(op)
            scaled = latency
            if speed:
                after = speed.sample()
                scaled = speed.scale(latency, before, after)
                before = after
            records.append([idx, scaled, code, stdout, latency])
    return records, sum(rec[4] for rec in records)


def checked(ops: list[dict], records: list[list]) -> list[list]:
    """[op id, latency s, failure reason or None, checked value]."""
    out = []
    for idx, latency, code, stdout, *_ in records:
        try:
            value, why = check_op(ops[idx], code, stdout), None
        except CheckError as exc:
            value, why = None, str(exc)
        out.append([ops[idx]["id"], latency, why, value])
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    speed = Speed()
    clock = {"cpu": 0.0, "scaled": 0.0, "before": None}

    def setup_step():
        """End a set-up segment (the first starts with the process): add its
        CPU time, sampling excluded, scaled by the samples at both ends."""
        cpu = time.process_time() - speed.spent
        after = speed.sample()
        before = clock["before"] or after
        clock["scaled"] += speed.scale(cpu - clock["cpu"], before, after)
        clock["cpu"], clock["before"] = cpu, after

    setup_step()
    start = time.process_time()
    from invdel import cli
    import_ms = (time.process_time() - start) * 1000
    setup_step()

    tracer = None
    if spec["mode"] == "trace":
        import tracing

        # installed before set-up, so the cold cache fill is traced too
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled, tracer.op = True, tracing.SETUP
    for rel, text in spec["files"].items():
        path = Path(rel)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    setup_step()
    setup_failures = []
    for argv in spec["setup_argvs"]:
        _, code, _ = run_op(cli, argv)
        setup_step()
        if code != 0:
            setup_failures.append(f"{' '.join(argv)}: exit {code}")
    result = {"setup_cpu_s": clock["cpu"], "setup_scaled_s": clock["scaled"],
              "import_ms": import_ms, "setup_failures": setup_failures}
    ops = spec["ops"]
    if spec["mode"] == "run":
        records, cpu = closed_loop(lambda op: run_op(cli, op["argv"]), ops, spec["passes"], speed)
        result.update(ops=checked(ops, records), timed_cpu_s=cpu,
                      timed_scaled_s=sum(rec[1] for rec in records),
                      speed=REFERENCE_UNIT_S / statistics.median(speed.samples))
    elif spec["mode"] == "trace":
        tracer.enabled, tracer.op = False, 0
        plain = []

        def traced_then_plain(op):
            # Traced first, so spans see the state a --trace 0 run would
            # (cold first-use work included); then the same op untraced
            # from the same cache state, for the overhead ratio.
            cache = Path("cache")
            if cache.is_dir():
                shutil.copytree(cache, "cache-before")
            tracer.enabled = True
            traced = run_op(cli, op["argv"])
            tracer.enabled = False
            tracer.op += 1
            if cache.is_dir():
                shutil.rmtree(cache)
                Path("cache-before").rename(cache)
            plain.append(run_op(cli, op["argv"])[0])
            return traced

        records, cpu = closed_loop(traced_then_plain, ops, spec["passes"])
        layers = tracing.per_layer(tracer, len(records), import_ms)
        layers["trace.overhead_ratio"] = cpu / sum(plain)
        result.update(ops=checked(ops, records), layers=layers)
        with open(spec["spans_path"], "w") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec[:5]) + "\n")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    numpy = sys.modules.get("numpy")
    result["versions"] = {"python": platform.python_version(),
                          "numpy": getattr(numpy, "__version__", None)}
    Path(spec["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
