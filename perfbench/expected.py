"""Record the result digests of correct runs as the expected ones.

    python3 perfbench/expected.py

Reads every untraced result in ``.perfbench/`` that was correct and made
by the current code (same ``code_sha256``), and merges its digests into
``perfbench/expected.json`` under its workload and seed. A later run with
a recorded seed fails its checks when a digest differs. A digest that
differs from the one already recorded is reported and left as it was;
the script then exits 1. Run from the repository root.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from run import HERE, code_sha256  # noqa: E402


def main() -> int:
    root = Path.cwd()
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.is_file() else {}
    current, clashes, runs = code_sha256(root), 0, 0
    for f in sorted((root / ".perfbench").glob("*-trace0.json")):
        run = json.loads(f.read_text())
        s = run["report"]["summary"]
        if not run["result"]["correct"] or s["env"].get("code_sha256") != current:
            continue
        runs += 1
        have = expected.setdefault(s["workload"], {}).setdefault(str(s["seed"]), {})
        for op, digest in s["digest"].items():
            if have.setdefault(op, digest) != digest:
                print(f"DIFFERS {s['workload']} seed {s['seed']} {op}: {have[op]} != {digest}")
                clashes += 1
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"{runs} runs read; {sum(len(v) for v in expected.values())} workload seeds recorded")
    return 1 if clashes else 0


if __name__ == "__main__":
    sys.exit(main())
