"""Self-tests of the benchmark itself: ``python3 perfbench/selftest.py``.

1. A tiny run of each workload, untraced and traced, emits every
   end-to-end (resp. per-layer) metric named in ``layers``/``run`` with
   its unit, and passes the oracle.
2. A deliberately corrupted query reply is caught by the oracle.
3. A dropped acknowledged write is caught by the durable replay check.
4. Compare mode reads two result files.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TINY_SF = {"olap-hot": 0.002, "olap-tiered": 0.002, "htap-durable": 0.001}


def _run(out_dir: str, workload: str, trace: int, *extra: str):
    out = os.path.join(out_dir, f"{workload}-t{trace}{'-'.join(extra)}.json")
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "2",
            "--trace", str(trace), "--sf", str(TINY_SF[workload]), "--out", out, *extra,
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), out


def main() -> int:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import layers
    import run

    out_dir = os.path.join(HERE, "work", f"selftest-{os.getpid()}")
    os.makedirs(out_dir)
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    try:
        files = {}
        for workload in TINY_SF:
            for trace, names in ((0, run.END_TO_END), (1, layers.PER_LAYER)):
                line, files[workload, trace] = _run(out_dir, workload, trace)
                got = {k: v["unit"] for k, v in line["metrics"].items()}
                check(got == dict(names), f"{workload} trace {trace}: every metric with its unit")
                check(
                    line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
                    f"{workload} trace {trace}: oracle passes",
                )
        line, __ = _run(out_dir, "olap-hot", 0, "--corrupt-reply", "5")
        check(not line["correct"] and line["failed"] >= 1, "corrupted reply is caught")
        line, __ = _run(out_dir, "htap-durable", 0, "--drop-batch", "3")
        check(not line["correct"] and line["failed"] >= 1, "dropped acknowledged write is caught")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--compare",
             files["olap-hot", 0], files["olap-hot", 1]],
            capture_output=True, text=True, timeout=60,
        )
        check(proc.returncode == 0 and "query_p50_ms" in proc.stdout, "compare mode")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
