#!/usr/bin/env python3
"""duperm benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sweep-n10 --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from its
`src/`.  The run times `setup_s` in fresh processes, then repeats
passes of the workload for `--seconds`, checking every output of every
pass.  It starts a pass only if a pass as long as the typical one so far
still ends within `--seconds`, unless the tail percentile has fewer than
ten samples beyond it yet; so a run overshoots its time only by chance.

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it alternates untraced and traced passes for
`--seconds`, and reports the per-layer metrics (per traced pass) plus the
tracing overhead; the spans go to `.perfbench-trace/`.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 5

# Fresh process: import duperm (through workloads) and draw the inputs.
_SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.make_inputs(sys.argv[3], int(sys.argv[4]))"
)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    item_seconds: list
    checked: int
    failed: int


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _setup_seconds(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
    return statistics.median(times)


def _field_models(fields: dict) -> dict:
    """The public attributes of each field context, for the provenance record."""
    return {str(k): {"n": ctx.n, "modulus": ctx.modulus, "generator": ctx.generator,
                     "subfield_generator": ctx.subfield_generator}
            for k, ctx in fields.items()}


def _one_pass(workload, inputs, expected, seed, workdir, tracer=None) -> tuple:
    """One timed and checked pass, and the models of the fields it built.

    Only the models leave the pass, so no table of this pass is still
    alive while the next one runs.
    """
    from workloads import PASSES, check

    if tracer:
        tracer.begin_pass()
    mark = tracer.mark if tracer else (lambda item: None)
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    result = PASSES[workload](inputs, workdir, mark)
    checked, failed, messages = check(result.outputs, expected, seed)
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    for line in messages:
        print(f"perfbench: {workload}: {line}", file=sys.stderr)
    return Pass(wall, cpu, result.item_seconds, checked, failed), _field_models(result.fields)


def _more(started: float, seconds: float, rounds: int) -> bool:
    """Whether another round of passes, as long as the typical one so far, ends in time."""
    now = time.perf_counter()
    return rounds == 0 or now + (now - started) / rounds <= started + seconds


def _run_passes(workload, inputs, expected, seed, workdir, seconds, min_items) -> tuple:
    passes = []
    started = time.perf_counter()
    while (_more(started, seconds, len(passes))
           or sum(len(p.item_seconds) for p in passes) < min_items):
        one, models = _one_pass(workload, inputs, expected, seed, workdir)
        passes.append(one)
    return passes, models


def _tail(samples: list, level: int) -> tuple:
    """Nearest-rank percentile at `level`, and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(level / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _end_to_end(workload, passes, setup_s) -> tuple:
    from workloads import TAIL

    items = [t for p in passes for t in p.item_seconds]
    level = TAIL[workload][0]
    tail, beyond = _tail(items, level)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "instances_per_s": len(items) / sum(p.wall_s for p in passes),
        "instance_p50_ms": statistics.median(items) * 1e3,
        "instance_tail_ms": tail * 1e3,
    }
    note = f"p{level} of {len(items)} instances, {beyond} beyond it, {len(passes)} passes"
    return metrics, note


def _provenance(workload, seed, models) -> dict:
    import duperm
    import numpy
    from duperm import gf2n
    from workloads import FIELD_DEGREES

    models = dict(models)
    for k in FIELD_DEGREES[workload]:
        if str(k) not in models:
            models.update(_field_models({k: gf2n.mk_field(k)}))
    return {"workload": workload, "seed": seed, "workers": 1, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "duperm": duperm.__version__, "fields": models}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-n10", "verify-all", "field-n20"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "duperm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no duperm sources at {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The plain single-threaded baseline: one worker, no BLAS threads.
    os.environ["DUPERM_WORKERS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    setup_s = _setup_seconds(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    import duperm

    if not Path(duperm.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported duperm from {duperm.__file__}, not from {SRC}")
    from tracer import Tracer
    from workloads import DEFAULT_SEED, TAIL, make_inputs

    pinned = json.loads((BENCH / "expected.json").read_text())
    expected = pinned["workloads"][args.workload]
    inputs = make_inputs(args.workload, args.seed)
    if pinned["seed"] != DEFAULT_SEED or [list(i) for i in make_inputs(
            args.workload, DEFAULT_SEED)] != expected["inputs"]:
        sys.exit("perfbench: expected.json was captured for other inputs; recapture it")

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if args.trace:
            # Untraced and traced passes alternate, so drift in the host's speed
            # hits both sides of the overhead alike.
            tracer = Tracer()
            untraced, traced = [], []
            started = time.perf_counter()
            while _more(started, args.seconds, len(traced)):
                one, models = _one_pass(args.workload, inputs, expected["outputs"],
                                        args.seed, workdir)
                untraced.append(one)
                with tracer.installed():
                    one, _ = _one_pass(args.workload, inputs, expected["outputs"],
                                       args.seed, workdir, tracer)
                traced.append(one)
            trace_dir = ROOT / ".perfbench-trace"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
            tracer.require(args.workload)
            passes = untraced + traced
            values = tracer.layer_metrics(len(traced))
            values["trace.overhead_s"] = statistics.median(
                t.wall_s - u.wall_s for u, t in zip(untraced, traced))
            declared = spec["per_layer"]
            note = f"per traced pass; {len(traced)} traced and {len(untraced)} untraced passes, alternating"
        else:
            passes, models = _run_passes(args.workload, inputs, expected["outputs"],
                                         args.seed, workdir, args.seconds, TAIL[args.workload][1])
            values, note = _end_to_end(args.workload, passes, setup_s)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
                 "are not both measured and declared in BENCHMARK.json")
    attempted = sum(p.checked for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"{args.workload} seed={args.seed}: {note}")
    for name, metric in metrics.items():
        computed = " (computed from n)" if name.endswith((".pairs", ".elements")) else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{computed}")
    print(f"  fail_ratio = {failed / attempted:.6g} 1 ({failed} of {attempted} outputs)")
    print("provenance " + json.dumps(_provenance(args.workload, args.seed, models)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
