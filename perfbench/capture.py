#!/usr/bin/env python3
"""Write expected.json: one pass of every workload at the pinned seed.

    python3 perfbench/capture.py

Run it only on a commit whose outputs are known to be right; the
benchmark then counts every later difference as a wrong output.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import DEFAULT_SEED, PASSES, make_inputs  # noqa: E402


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    captured = {}
    try:
        for name, run_pass in PASSES.items():
            inputs = make_inputs(name, DEFAULT_SEED)
            result = run_pass(inputs, workdir, lambda item: None)
            for out in result.outputs:
                for problem in out.problems:
                    print(f"{name} {out.key}: {problem}", file=sys.stderr)
            captured[name] = {
                "inputs": [list(i) for i in inputs],
                "outputs": {out.key: out.value for out in result.outputs},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps({"seed": DEFAULT_SEED, "workloads": captured}, indent=1, sort_keys=True)
    (BENCH / "expected.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
