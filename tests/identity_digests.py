"""Print one sha256 per output set, to check that a change keeps every output byte-identical.

    python tests/identity_digests.py

Run it on two checkouts and compare the lines; each checkout is imported
from its own src/.  Opt-in and serial; pytest does not collect this file.
The sets:

* k2: the `analyze` JSON and the sha256 of the 2^n table of f, for every
  (m <= 3, L1, L2) over the 24 affine forms of GF(4) that perfbench's
  `_affine_expr` draws (1728 instances);
* k1: the same over both forms of GF(2) (12 instances);
* k3: the same over 60 seeded instances of GF(8);
* verify: `verify --claims '*'` stdout with each `elapsed_ms` dropped, and
  its exit code;
* reproduce-tables: its stdout, stderr, both CSV files and its exit code.

Each set of instances shares one context, in the order listed; the memo
never changes a report (tests/test_analyzer.py checks that).
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from duperm import analyzer, cli, construct, gf2n  # noqa: E402


def affine_forms(k: int) -> list:
    """Every c*x^(2^i) + e with c = b^j nonzero, as perfbench's _affine_expr writes them."""
    power = lambda j: "1" if j == 0 else "b" if j == 1 else f"b^{j}"  # noqa: E731
    terms = [("" if j == 0 else power(j) + "*") + "x" + (f"^{1 << i}" if i else "")
             for j in range((1 << k) - 1) for i in range(k)]
    return terms + [f"{t}+{power(c)}" for t in terms for c in range((1 << k) - 1)]


def instances_digest(k: int, instances) -> str:
    ctx, h = gf2n.mk_field(k), hashlib.sha256()
    for m, l1, l2 in instances:
        f = construct.instance(ctx, m, l1, l2)
        h.update(analyzer.analyze(f).to_json().encode() + b"\n")
        h.update(hashlib.sha256(f.table.astype("<u8").tobytes()).hexdigest().encode() + b"\n")
    return h.hexdigest()


def run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    for k in (2, 1):
        forms = affine_forms(k)
        print(f"k{k} {instances_digest(k, itertools.product((1, 2, 3), forms, forms))}")
    rng, forms = random.Random("identity/k3"), affine_forms(3)
    print(f"k3 {instances_digest(3, [(1 + i % 3, rng.choice(forms), rng.choice(forms)) for i in range(60)])}")

    code, out, _ = run_cli(["verify", "--claims", "*"])
    lines = [json.loads(line) for line in out.splitlines()]
    for line in lines:
        line.pop("elapsed_ms")
    print(f"verify exit {code} {hashlib.sha256(json.dumps(lines).encode()).hexdigest()}")

    with tempfile.TemporaryDirectory() as out_dir:
        code, out, err = run_cli(["reproduce-tables", "--out", out_dir])
        h = hashlib.sha256((out + "\0" + err).encode())
        for name in ("table1.csv", "table2.csv"):
            h.update(b"\0" + (Path(out_dir) / name).read_bytes())
    print(f"reproduce-tables exit {code} {h.hexdigest()}")


if __name__ == "__main__":
    main()
