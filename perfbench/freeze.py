"""Recompute expected.json: the checked value of every op in every design.

    python3 perfbench/freeze.py          # from the checkout root; several minutes

Each op runs once in this process and must pass its checks.  The values
(distances, event counts, split decisions, counts) do not depend on the
per-seed presentation, so one pass serves every seed.  Refreezing is a
change to the benchmark's expectations: say why in the change log.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import inputs
from child import checked, run_op

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench" / "freeze"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ.pop("INVDEL_CACHE", None)
    os.environ["XDG_CACHE_HOME"] = str(work / "user-cache")
    sys.path.insert(0, str(root / "src"))
    from invdel import cli

    expected = {}
    try:
        for workload in inputs.WORKLOADS:
            design = inputs.build(workload, 0)
            home = work / workload
            home.mkdir()
            os.chdir(home)
            for rel, text in design["files"].items():
                Path(rel).parent.mkdir(parents=True, exist_ok=True)
                Path(rel).write_text(text)
            for argv in design["setup_argvs"]:
                run_op(cli, argv)
            ops = design["ops"]
            results = checked(ops, [[k, *run_op(cli, op["argv"])] for k, op in enumerate(ops)])
            bad = [r for r in results if r[2] is not None]
            if bad:
                print(f"{workload}: {len(bad)} ops fail their checks, e.g. {bad[0]}", file=sys.stderr)
                return 1
            values = dict((r[0], r[3]) for r in results)
            expected[workload] = [values[k] for k in range(len(ops))]
            print(f"{workload}: {len(ops)} ops frozen", flush=True)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
    rows = ",\n".join(f" {json.dumps(w)}: {json.dumps(v)}" for w, v in expected.items())
    (HERE / "expected.json").write_text("{\n" + rows + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
