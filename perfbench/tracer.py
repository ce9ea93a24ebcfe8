"""Per-layer spans of duperm's public functions, recorded from outside the package.

The tracer replaces each traced function by a wrapper under every name
a duperm module binds it to.  `prover` and `cli` import `build_g`,
`build_f`, `parse_affine_expr`, `resultant_wrt` and `exact_divide` with
`from ... import`, so wrapping only the defining module would miss
their calls.

A span records its name, start, end, parent span, the benchmark item
and pass it belongs to, and a few counts read off the arguments or the
result.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the time its child spans
cover.  Scalar field operations are counted, not timed: a clock around
each of the many calls in `prop1_hypothesis_search` would swamp what it
measures.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

_PROVER_FUNCTIONS = (
    "lemma1_exhaustive",
    "lemma1_replay",
    "coset_intersection_check",
    "theorem1_check",
    "remark2_degrees",
    "prop1_hypothesis_search",
    "prop2_bound_check",
)

# (module, function) -> span name
SPANNED = {
    ("gf2n", "mk_field"): "gf2n.mk_field",
    ("gf2n", "vec_pow_all"): "gf2n.vec_pow_all",
    ("construct", "parse_affine_expr"): "construct.parse_affine_expr",
    ("construct", "build_g"): "construct.build_g",
    ("construct", "build_f"): "construct.build_f",
    ("construct", "write_lut"): "construct.lut_io",
    ("construct", "read_lut"): "construct.lut_io",
    ("analyzer", "differential_spectrum"): "analyzer.differential_spectrum",
    ("analyzer", "walsh_max_abs"): "analyzer.walsh_max_abs",
    ("analyzer", "algebraic_degree"): "analyzer.algebraic_degree",
    ("analyzer", "is_permutation"): "analyzer.is_permutation",
    ("analyzer", "analyze"): "analyzer.analyze",
    ("polysym", "resultant_wrt"): "polysym.resultant_wrt",
    ("polysym", "exact_divide"): "polysym.exact_divide",
    **{("prover", fn): f"prover.{fn}" for fn in _PROVER_FUNCTIONS},
    ("prover", "run_claims"): "prover.run_claims",
    ("cli", "main"): "cli.main",
}

# (module, function) -> counter name; counted without a clock.
COUNTED = {
    ("gf2n", fn): "gf2n.scalar"
    for fn in ("mul", "inv", "pow", "frobenius", "subfield_coset_rep")
}

# Counts taken from a traced call: function -> (bound arguments, result) -> dict.
_ATTRS = {
    "mk_field": lambda a, r: {"k": r.k, "n": r.n},
    "differential_spectrum": lambda a, r: {"n": a["f"].ctx.n},
    "walsh_max_abs": lambda a, r: {"n": a["f"].ctx.n},
    "write_lut": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "read_lut": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "run_claims": lambda a, r: {"claims": len(r), "failed": sum(c.status == "fail" for c in r)},
}

# Functions each workload must call at least once in a traced pass.
EXPECTED_WORK = {
    "sweep-n10": (
        "gf2n.mk_field", "gf2n.vec_pow_all", "gf2n.scalar",
        "construct.parse_affine_expr", "construct.build_g", "construct.build_f",
        "analyzer.differential_spectrum", "analyzer.walsh_max_abs",
        "construct.lut_io", "analyzer.algebraic_degree", "analyzer.is_permutation",
        "analyzer.analyze", "cli.main",
    ),
    "verify-all": (
        "gf2n.mk_field", "gf2n.vec_pow_all", "gf2n.scalar",
        "construct.parse_affine_expr", "construct.build_g", "construct.build_f",
        "analyzer.differential_spectrum", "analyzer.algebraic_degree",
        "analyzer.is_permutation", "polysym.resultant_wrt", "polysym.exact_divide",
        *(f"prover.{fn}" for fn in _PROVER_FUNCTIONS), "prover.run_claims", "cli.main",
    ),
    "field-n20": (
        "gf2n.mk_field", "gf2n.vec_pow_all", "gf2n.scalar",
        "construct.parse_affine_expr", "construct.build_g", "construct.build_f",
        "construct.lut_io", "analyzer.algebraic_degree", "analyzer.is_permutation",
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.item = None
        self.pass_no = -1
        self._stack: list = []

    def mark(self, item) -> None:
        self.item = item

    def begin_pass(self) -> None:
        self.pass_no += 1

    def _spanned(self, name: str, fn):
        attrs = _ATTRS.get(fn.__name__)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": parent["id"] if parent else None,
                "item": self.item,
                "pass": self.pass_no,
                "nested": any(s["name"] == name for s in self._stack),
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs:
                span.update(attrs(sig.bind(*args, **kwargs).arguments, result))
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function under every name duperm binds it to."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "duperm" or name.startswith("duperm.")]
        patched = []
        try:
            for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
                for (module, fn_name), name in table.items():
                    original = getattr(sys.modules[f"duperm.{module}"], fn_name)
                    wrapper = make(name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def calls(self, name: str) -> int:
        return self.counts[name] + sum(1 for s in self.spans if s["name"] == name)

    def require(self, workload: str) -> None:
        """Fail loudly if a function the workload must exercise was never called."""
        missing = [name for name in EXPECTED_WORK[workload] if self.calls(name) == 0]
        if missing:
            raise RuntimeError(
                f"traced {workload} recorded no calls to: {', '.join(missing)}"
            )

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per traced pass, keyed by the names in BENCHMARK.json."""
        by_name = defaultdict(list)
        covered = defaultdict(float)
        for s in self.spans:
            by_name[s["name"]].append(s)
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]

        def per_pass(x):
            return x / passes

        def calls(name):
            return per_pass(len(by_name[name]))

        def busy(name):
            return per_pass(sum(s["end"] - s["start"] for s in by_name[name] if not s["nested"]))

        def self_s(name):
            return per_pass(sum(s["end"] - s["start"] - covered[s["id"]] for s in by_name[name]))

        def total(name, key, fn=lambda v: v):
            return per_pass(sum(fn(s[key]) for s in by_name[name]))

        seen: set = set()
        repeats = 0
        for s in by_name["gf2n.mk_field"]:
            repeats += (s["pass"], s["k"]) in seen
            seen.add((s["pass"], s["k"]))

        def pairs(n):  # (2^n - 1) * 2^n, computed from n
            return ((1 << n) - 1) << n

        metrics = {
            "gf2n.mk_field.calls": calls("gf2n.mk_field"),
            "gf2n.mk_field.busy_s": busy("gf2n.mk_field"),
            "gf2n.mk_field.elements": total("gf2n.mk_field", "n", lambda n: 1 << n),
            "gf2n.mk_field.repeat_ratio": repeats / max(1, len(by_name["gf2n.mk_field"])),
            "gf2n.vec_pow_all.calls": calls("gf2n.vec_pow_all"),
            "gf2n.vec_pow_all.busy_s": busy("gf2n.vec_pow_all"),
            "gf2n.scalar.calls": per_pass(self.counts["gf2n.scalar"]),
            "construct.lut_io.busy_s": busy("construct.lut_io"),
            "construct.lut_io.bytes": total("construct.lut_io", "bytes"),
            "analyzer.algebraic_degree.busy_s": busy("analyzer.algebraic_degree"),
            "analyzer.is_permutation.busy_s": busy("analyzer.is_permutation"),
            "analyzer.analyze.self_s": self_s("analyzer.analyze"),
            "prover.claims.run": total("prover.run_claims", "claims"),
            "prover.claims.mismatched": total("prover.run_claims", "failed"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
        }
        for name in ("construct.parse_affine_expr", "construct.build_g", "construct.build_f",
                     "polysym.resultant_wrt", "polysym.exact_divide"):
            metrics[f"{name}.calls"] = calls(name)
            metrics[f"{name}.busy_s"] = busy(name)
        for name in ("analyzer.differential_spectrum", "analyzer.walsh_max_abs"):
            metrics[f"{name}.calls"] = calls(name)
            metrics[f"{name}.busy_s"] = busy(name)
            metrics[f"{name}.pairs"] = total(name, "n", pairs)
        for fn in _PROVER_FUNCTIONS:
            metrics[f"prover.{fn}.self_s"] = self_s(f"prover.{fn}")
        return metrics

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
