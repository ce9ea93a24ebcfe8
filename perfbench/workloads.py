"""The benchmark's workloads: inputs drawn from a seed, one pass of work, output checks.

Every workload calls duperm only through its public entry points,
`duperm.cli.main(argv)` and the library functions, always with one
worker.  Module attributes are looked up at call time (`gf2n.mk_field`,
not a bound `mk_field`), so the tracer's wrappers see every call.
README.md next to this file says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from duperm import analyzer, cli, construct, gf2n

# The seed whose outputs expected.json pins.  Any other seed is checked by
# invariants that hold for every input.
DEFAULT_SEED = 0

# The workloads BENCHMARK.json lists are sweep-n10 and verify-all;
# field-n20 is opt-in (README.md says why).

# Field degrees k each workload touches, for the provenance record.
FIELD_DEGREES = {"sweep-n10": (2,), "verify-all": (1, 2, 3), "field-n20": (4,)}

# Per-instance tail: (percentile, instances a run needs so that at least ten
# lie beyond it).  A verify-all instance is a whole pass, and no run of a
# few passes has ten samples beyond any percentile above the median.
TAIL = {"sweep-n10": (90, 100), "verify-all": (50, 1), "field-n20": (75, 40)}


@dataclass
class Output:
    """One checked output of a pass."""

    key: str
    value: object  # compared with expected.json
    seeded: bool  # depends on the workload seed, so pinned only at DEFAULT_SEED
    problems: list = field(default_factory=list)  # broken invariants


@dataclass
class PassResult:
    item_seconds: list
    outputs: list
    fields: dict  # k -> FieldCtx built by the pass itself


def _power(j: int) -> str:
    return "1" if j == 0 else "b" if j == 1 else f"b^{j}"


def _affine_expr(rng: random.Random, k: int) -> str:
    """c*x^(2^i) + e with c nonzero.

    A nonzero multiple of a Frobenius power permutes GF(2^k) whatever the
    field model, so every drawn string is a valid affine permutation.
    """
    j = rng.randrange((1 << k) - 1)
    i = rng.randrange(k)
    term = ("" if j == 0 else _power(j) + "*") + "x" + (f"^{1 << i}" if i else "")
    const = rng.randrange(1 << k)
    return term if const == 0 else f"{term}+{_power(const - 1)}"


def _instances(rng: random.Random, k: int, ms: tuple, count: int) -> list:
    seen: set = set()
    out = []
    while len(out) < count:
        inst = (ms[len(out) % len(ms)], _affine_expr(rng, k), _affine_expr(rng, k))
        if inst not in seen:
            seen.add(inst)
            out.append(inst)
    return out


def make_inputs(name: str, seed: int) -> list:
    """The (m, L1, L2) instances of a workload; the claim set takes none."""
    rng = random.Random(f"perfbench/{name}/{seed}")
    if name == "sweep-n10":
        return _instances(rng, 2, (1, 2, 3), 24)
    if name == "field-n20":
        return _instances(rng, 4, (1, 3), 6)
    if name == "verify-all":
        return []
    raise ValueError(f"unknown workload {name!r}")


def _build(ctx, m: int, l1: str, l2: str):
    L1 = construct.parse_affine_expr(ctx, l1)
    L2 = construct.parse_affine_expr(ctx, l2)
    with warnings.catch_warnings():
        # gcd(k, m) != 1 instances are analysed too, as the CLI does.
        warnings.simplefilter("ignore")
        g = construct.build_g(ctx, ctx.k, m, L1, L2)
    return construct.build_f(ctx, ctx.k, g)


def _is_permutation_by_count(table: np.ndarray, order: int) -> bool:
    return bool(np.bincount(table, minlength=order).max() == 1)


def _cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _report_problems(report: dict, f) -> list:
    n = f.ctx.n
    pairs = ((1 << n) - 1) << n
    omega = {int(i): c for i, c in report["spectrum"].items()}
    problems = []
    if sum(omega.values()) != pairs:
        problems.append(f"sum of omega_i is {sum(omega.values())}, not {pairs}")
    if sum(i * c for i, c in omega.items()) != pairs:
        problems.append(f"sum of i*omega_i is not {pairs}")
    if max(i for i, c in omega.items() if c) != report["delta"]:
        problems.append(f"delta {report['delta']} is not the largest i with omega_i != 0")
    if report["permutation"] != _is_permutation_by_count(f.table, f.ctx.order):
        problems.append("permutation flag disagrees with a bincount of the table")
    return problems


def sweep_pass(instances: list, workdir, mark) -> PassResult:
    """Round-trip and analyse every instance on one GF(2^10) context, then reproduce the tables."""
    ctx = gf2n.mk_field(2)
    times, outputs = [], []
    for i, (m, l1, l2) in enumerate(instances):
        mark(f"sweep-n10/{i}")
        path = workdir / f"sweep-{i}.lut"
        t0 = time.perf_counter()
        f = _build(ctx, m, l1, l2)
        construct.write_lut(f, path)
        back = construct.read_lut(path, ctx)
        text = analyzer.analyze(
            f, k=ctx.k, construction=f"k=2 m={m} L1={l1} L2={l2}", walsh=True, workers=1
        ).to_json()
        times.append(time.perf_counter() - t0)
        path.unlink()
        problems = _report_problems(json.loads(text), f)
        if not np.array_equal(back.table, f.table):
            problems.append("read_lut table differs from the written one")
        outputs.append(Output(f"analyze/{i}", text, True, problems))

    mark("sweep-n10/reproduce-tables")
    rc, out, err = _cli(["reproduce-tables", "--out", str(workdir), "--workers", "1"])
    outputs += [
        Output("reproduce-tables/exit", rc, False),
        Output("reproduce-tables/stdout", out, False),
        Output("reproduce-tables/stderr", err, False),
    ]
    for name in ("table1.csv", "table2.csv"):
        outputs.append(Output(f"reproduce-tables/{name}", (workdir / name).read_text(), False))
    return PassResult(times, outputs, {ctx.k: ctx})


def verify_pass(instances: list, workdir, mark) -> PassResult:
    """The whole claim set through the CLI, default seed and trials, Walsh off."""
    mark("verify-all")
    t0 = time.perf_counter()
    rc, out, _ = _cli(["verify", "--claims", "*", "--workers", "1"])
    # One instance is the whole claim set: claims range from 0.01 ms to seconds,
    # so percentiles over claims would land on millisecond claims and track noise.
    times = [time.perf_counter() - t0]
    claims = [json.loads(line) for line in out.splitlines()]
    for c in claims:
        del c["elapsed_ms"]
    outputs = [
        Output("verify/exit", rc, False),
        Output("verify/claim_ids", [c["claim_id"] for c in claims], False),
    ]
    outputs += [Output(f"verify/{c['claim_id']}", c, False) for c in claims]
    return PassResult(times, outputs, {})


def field_pass(instances: list, workdir, mark) -> PassResult:
    """Build, digest, LUT round-trip, degree and permutation scan on GF(2^20)."""
    ctx = gf2n.mk_field(4)
    times, outputs = [], []
    for i, (m, l1, l2) in enumerate(instances):
        mark(f"field-n20/{i}")
        path = workdir / f"field-{i}.lut"
        t0 = time.perf_counter()
        f = _build(ctx, m, l1, l2)
        digest = hashlib.sha256(f.table.astype("<u8").tobytes()).hexdigest()
        construct.write_lut(f, path)
        back = construct.read_lut(path, ctx)
        degree = analyzer.algebraic_degree(f)
        perm = analyzer.is_permutation(f)
        times.append(time.perf_counter() - t0)
        path.unlink()
        problems = []
        if not np.array_equal(back.table, f.table):
            problems.append("read_lut table differs from the written one")
        if perm != _is_permutation_by_count(f.table, ctx.order):
            problems.append("permutation flag disagrees with a bincount of the table")
        value = {"sha256": digest, "degree": degree, "permutation": perm}
        outputs.append(Output(f"field/{i}", value, True, problems))
    return PassResult(times, outputs, {ctx.k: ctx})


PASSES = {"sweep-n10": sweep_pass, "verify-all": verify_pass, "field-n20": field_pass}


def check(outputs: list, expected: dict, seed: int) -> tuple:
    """(outputs checked, outputs wrong, messages) against invariants and expected.json.

    The by-design failures (reproduce-tables exiting 1 with its MISMATCH
    lines, claim prop1.remark2.k3.m2 failing) are part of the expected
    outputs, so they count as passes.
    """
    failed, messages = 0, []
    for out in outputs:
        bad = list(out.problems)
        if not out.seeded or seed == DEFAULT_SEED:
            if out.key not in expected:
                bad.append("no expected value")
            elif json.loads(json.dumps(out.value)) != expected[out.key]:
                bad.append("differs from the expected output")
        if bad:
            failed += 1
            messages.append(f"{out.key}: {'; '.join(bad)}")
    return len(outputs), failed, messages
