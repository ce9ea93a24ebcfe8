"""Run every mutation of tests/mutations.json against the tier-1 suite.

    python tests/run_mutations.py

The suite first runs once on an unmodified copy of the tree; if it fails
there, no mutation is tried, since every one would read as killed.  Then,
for each entry, the tree is copied to a temporary directory, the entry's
old text is replaced by its new text, and the suite runs there with -x.
One line per mutation says whether it was killed, and by which test,
survived, or is stale (its old text no longer occurs exactly once).
Mutations run one at a time, each in one pytest process; pytest does not
collect this file.  The exit status is 0 when every entry is killed, or
survives and carries an "equivalent" note saying why it cannot be killed,
and 1 otherwise.

tests/test_mutations.py is left out of each run: it checks that every old
text occurs in its file, so it fails on any mutated tree and would kill
every mutation itself.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTATIONS = json.loads((ROOT / "tests" / "mutations.json").read_text())
NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*")
TIMEOUT_S = 1800  # a mutation that makes a kernel loop for this long counts as killed


def run(mutation: dict = None) -> str:
    """The suite's verdict on a copy of the tree, with the mutation applied if one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=NOT_COPIED)
        if mutation:
            path = tree / mutation["file"]
            text = path.read_text()
            if text.count(mutation["old"]) != 1:
                return "stale: the old text does not occur exactly once"
            path.write_text(text.replace(mutation["old"], mutation["new"]))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--ignore", "tests/test_mutations.py"]
        try:
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"killed: no result within {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "survived"
    lines = proc.stdout.splitlines()
    first = next((line for line in lines if line.startswith(("FAILED", "ERROR"))), lines[-1] if lines else "")
    return f"killed: {first.split(' - ')[0]} (pytest exit {proc.returncode})"


def main() -> int:
    baseline = run()
    if baseline != "survived":
        failure = baseline.removeprefix("killed: ")
        print(f"the unmodified tree fails the suite, so no mutation is tried: {failure}", file=sys.stderr)
        return 2
    killed, equivalent, failed = 0, 0, []
    for mutation in MUTATIONS:
        verdict = run(mutation)
        if verdict.startswith("killed"):
            killed += 1
        elif verdict == "survived" and "equivalent" in mutation:
            equivalent += 1
            verdict += " (equivalent)"
        else:
            failed.append(mutation["name"])
        print(f"{mutation['name']}: {verdict}", flush=True)
    print(f"{killed} killed, {equivalent} equivalent survived, {len(failed)} survived or stale: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
