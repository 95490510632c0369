"""Check that two runs with the same seed give identical results.

    python3 perfbench/determinism.py --workload extract-train --seed 2

Runs ``perfbench/run.py`` twice, one after the other, and compares the
``digest`` of the two ``REPORT`` lines: extraction and sample checksums,
Table III indicator values and test accuracies. Exits 0 when they are
identical, 1 when they differ or a run fails or is not correct. Run from the repository root.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys


def report(workload: str, seed: int) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = p.stdout.splitlines()
    if p.returncode != 0 or len(lines) < 2 or not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"run failed or incorrect (exit {p.returncode}):\n{p.stderr[-3000:]}")
    return json.loads(lines[-2][len("REPORT "):])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    a, b = (report(args.workload, args.seed)["digest"] for _ in range(2))
    # compared as JSON text, so that NaN equals NaN
    diff = sorted(k for k in a.keys() | b.keys() if json.dumps(a.get(k)) != json.dumps(b.get(k)))
    for k in diff:
        print(f"DIFFERS {k}: {a.get(k)} != {b.get(k)}")
    print(f"{len(a) - len(diff)} of {len(a)} digests identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
