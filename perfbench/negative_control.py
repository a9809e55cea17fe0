"""Negative control for the benchmark's output checks.

    python3 perfbench/negative_control.py

Runs sweep-predicates with one pinned ``checked`` count made wrong and
analyze-instances with one expected verdict made wrong (``run.py
--negative-control``). Each run must report ``correct: false``, failed
calls, a nonzero ``failed_frac`` and exit code 1; this script exits 0
only if both do.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ok = True
    for workload in ("sweep-predicates", "analyze-instances"):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1"]
        cmd += ["--seconds", "1", "--trace", "0", "--negative-control"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = json.loads("\n".join(lines[:-1]))
        caught = (
            done.returncode == 1
            and result["correct"] is False
            and result["failed"] > 0
            and detail["end_to_end"]["failed_frac"]["value"] > 0
        )
        ok &= caught
        print(
            f"{workload}: exit {done.returncode}, correct {result['correct']}, "
            f"failed {result['failed']}/{result['attempted']}, failed_frac {detail['end_to_end']['failed_frac']['value']:.3f}, "
            f"first failure {detail['failures'][0] if detail['failures'] else None} -> "
            f"{'caught' if caught else 'NOT CAUGHT'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
