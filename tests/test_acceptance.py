"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every expected value is asserted exactly (zero tolerance) together with
the criterion's runtime budget.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines as they complete.
"""

import functools
import random
import time

import numpy as np

from conftest import ddt_row, walsh_table
from duperm import gf2n, prover
from duperm.analyzer import (
    algebraic_degree,
    differential_spectrum,
    is_permutation,
    nl_lower_bound,
    nonlinearity,
)
from duperm.construct import instance, parse_affine_expr, power_function

TABLE1 = (
    ("x+1", (523776, 523776, 0), 8, 472),
    ("x+b", (525759, 519810, 1983), 8, 468),
    ("b*x+b", (525261, 520806, 1485), 8, 469),
    ("b^2*x^2+b", (524319, 522690, 543), 8, 471),
    ("b^2*x^2", (525261, 520806, 1485), 8, 469),
)
TABLE2 = (
    ("x+b", (524769, 521790, 993), 9, 470),
    ("b*x^2+b", (525309, 520710, 1533), 9, 469),
)

# Published cells that the named instances (canonical beta, L2 = x) do
# not reproduce: the cells of the MISMATCH lines of `duperm
# reproduce-tables`.  Pinned, so a change to the construction cannot move a
# cell between reproduced and refuted silently.
TABLE1_REFUTED = frozenset({
    ("x+1", "spectrum"), ("x+1", "NL"),
    ("x+b", "spectrum"),
    ("b*x+b", "spectrum"), ("b*x+b", "deg"), ("b*x+b", "NL"),
    ("b^2*x^2+b", "spectrum"), ("b^2*x^2+b", "deg"),
    ("b^2*x^2", "deg"),
})
TABLE2_REFUTED = frozenset({
    ("x+b", "spectrum"), ("x+b", "deg"), ("x+b", "NL"),
    ("b*x^2+b", "deg"),
})


def checked(name):
    """Decorator printing the criterion's pass/fail line.

    A test may return a note; it is printed after the name on the pass line.
    """

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                note = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}" + (f"; {note}" if note else ""))

        return run

    return wrap


# ---------------------------------------------------------------------------
# oracles for the published cells; they share no code with the analyzer
# ---------------------------------------------------------------------------

def _popcount_parity(v):
    return np.bitwise_count(v.astype(np.uint64)).astype(np.int64) & 1


def oracle_spectrum(f):
    """Nonzero omega_i, counted over every (a, b) pair with a != 0."""
    q = f.ctx.order
    a = np.arange(1, q)[:, None]
    x = np.arange(q)[None, :]
    b = f.table[a ^ x] ^ f.table[x]
    ddt = np.bincount((a * q + b).ravel(), minlength=q * q)[q:]
    return {i: int(w) for i, w in enumerate(np.bincount(ddt)) if w}


def oracle_degree(f):
    """Max 2-weight of an exponent i with a nonzero univariate coefficient c_i.

    c_0 = f(0), c_(q-1) = sum of f over the field (the XOR of the table),
    and c_i = sum over a != 0 of f(a) a^(q-1-i) otherwise.
    """
    ctx = f.ctx
    q = ctx.order
    coeffs = np.zeros(q, dtype=np.int64)
    coeffs[0] = f.table[0]
    coeffs[q - 1] = np.bitwise_xor.reduce(f.table)
    a = np.nonzero(f.table[1:])[0] + 1
    log_a = ctx.log[a].astype(np.int64)
    log_fa = ctx.log[f.table[a]].astype(np.int64)
    i = np.arange(1, q - 1)[:, None]
    terms = ctx.exp[(log_fa[None, :] + (q - 1 - i) * log_a[None, :]) % (q - 1)]
    coeffs[1 : q - 1] = np.bitwise_xor.reduce(terms, axis=1)
    support = np.nonzero(coeffs)[0]
    return int(np.bitwise_count(support.astype(np.uint64)).max(initial=0))


def oracle_nl(f):
    """Nonlinearity from a dense, basis-free Walsh transform.

    W[c, u] = sum over x of (-1)^(<c, f(x)> + <u, x>) for every nonzero
    output mask c, as one product with the Hadamard matrix.
    """
    q = f.ctx.order
    x = np.arange(q)
    hadamard = 1.0 - 2.0 * _popcount_parity(x[:, None] & x[None, :])
    signs = 1.0 - 2.0 * _popcount_parity(np.arange(1, q)[:, None] & f.table[None, :])
    return q // 2 - int(np.abs(signs @ hadamard).max()) // 2


def spectrum_triple(omega):
    assert set(omega) <= {0, 2, 4}, omega
    return tuple(omega.get(i, 0) for i in (0, 2, 4))


def check_published_rows(ctx, m, rows, refuted):
    """Assert every published cell of the rows: reproduced, or refuted.

    The analyzer must agree with the oracles on every cell.  A cell is
    refuted when that common value differs from the published one; the
    refuted cells must be exactly `refuted`.  Returns them with their
    oracle values.
    """
    assert nl_lower_bound(2) == 380  # the LB column of every row
    found = {}
    for l1, want_spec, want_deg, want_nl in rows:
        f = instance(ctx, m, l1)
        omega, deg, nl = oracle_spectrum(f), oracle_degree(f), oracle_nl(f)
        computed = differential_spectrum(f).spectrum
        assert {i: w for i, w in computed.items() if w} == omega, l1
        assert algebraic_degree(f) == deg, l1
        assert nonlinearity(f) == nl, l1
        for column, value, published in (
            ("spectrum", spectrum_triple(omega), want_spec),
            ("deg", deg, want_deg),
            ("NL", nl, want_nl),
        ):
            if value != published:
                found[(l1, column)] = f"{l1} {column} {value} (published {published})"
    assert set(found) == refuted, "refuted cells moved:\n" + "\n".join(
        found.get(cell, f"{cell} now reproduced") for cell in set(found) ^ refuted
    )
    return "refuted: " + ", ".join(found.values())


@checked("Reference table 1 cells, reproduced or refuted (k=2, m=2, L2=x, canonical beta)")
def test_table1_exact_reproduction(f10):
    t0 = time.perf_counter()
    note = check_published_rows(f10, 2, TABLE1, TABLE1_REFUTED)
    assert time.perf_counter() - t0 < 30.0
    return note


@checked("Reference table 2 cells, reproduced or refuted (k=2, m=1)")
def test_table2_exact_reproduction(f10):
    t0 = time.perf_counter()
    note = check_published_rows(f10, 1, TABLE2, TABLE2_REFUTED)
    assert time.perf_counter() - t0 < 15.0
    return note


@checked("Dobbertin power map: delta(x^29) = 2 at n=5, delta(x^339) = 2 non-permutation at n=10")
def test_dobbertin_apn(f5, f10):
    t0 = time.perf_counter()
    assert differential_spectrum(power_function(f5, 29)).delta == 2
    assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    f339 = power_function(f10, 339)
    assert differential_spectrum(f339).delta == 2
    assert not is_permutation(f339)
    assert time.perf_counter() - t0 < 5.0


@checked("Piecewise modification at k=1: g=x+1 gives delta 4 permutation, g=x gives delta 2")
def test_theorem1_k1(f5):
    t0 = time.perf_counter()
    modified = instance(f5, 1, "x+1")
    assert differential_spectrum(modified).delta == 4
    assert is_permutation(modified)
    degenerate = instance(f5, 1, "x")
    assert differential_spectrum(degenerate).delta == 2
    assert time.perf_counter() - t0 < 1.0


@checked("k=3 (n=15): m=2, L1=x^4, L2=x is a permutation, delta <= 4, degree 14; L1=L2=x is x^4679")
def test_theorem1_k3(f15):
    # Degree 14 needs deg(g + x^3) = 2 on the subfield; x^4 is the first
    # outer map the prop1.hypothesis.k3 claim finds with that property.
    L1 = parse_affine_expr(f15, "x^4")
    first = prover.prop1_hypothesis_search(f15).witness["examples"][0]
    assert first["coeffs"] == [int(c) for c in L1.linear_coeffs]
    assert first["constant"] == L1.constant
    f = instance(f15, 2, "x^4")
    assert is_permutation(f)
    t0 = time.perf_counter()
    ds = differential_spectrum(f)
    assert time.perf_counter() - t0 < 300.0
    assert ds.delta <= 4, f"delta_f = {ds.delta}"
    assert algebraic_degree(f) == 14

    # With L1 = L2 = x, g = x^3 agrees with x^d on GF(8) (d = 4679 = 3 mod 7),
    # so f is the power map itself, of degree wt(4679) = 6.
    identity = instance(f15, 2, "x")
    assert is_permutation(identity)
    assert np.array_equal(identity.table, power_function(f15, 4679).table)
    assert algebraic_degree(identity) == 6


@checked("k=3 (n=15): m=2, L1=x^4 has nonlinearity 16092, above the parity-branch bound")
def test_theorem1_k3_walsh(f15):
    f = instance(f15, 2, "x^4")
    t0 = time.perf_counter()
    nl = nonlinearity(f)
    assert time.perf_counter() - t0 < 5.0
    assert nl == 16092
    assert nl >= nl_lower_bound(3)


@checked("No-solution scan: zero solutions for every b in GF(2^k)* at k in {1,2,3}")
def test_lemma1_exhaustive(f5, f10, f15):
    t0 = time.perf_counter()
    for ctx, candidates, n_b in ((f5, 30, 1), (f10, 1020, 3), (f15, 32760, 7)):
        r = prover.lemma1_exhaustive(ctx)
        assert r.status == "pass"
        assert r.witness["candidates"] == candidates
        assert len(r.witness["solutions_per_b"]) == n_b
        assert set(r.witness["solutions_per_b"].values()) == {0}
    assert time.perf_counter() - t0 < 10.0


@checked("Symbolic replay: all eight elimination identities reproduced exactly")
def test_lemma1_replay():
    t0 = time.perf_counter()
    results = prover.lemma1_replay()
    assert time.perf_counter() - t0 < 30.0
    assert len(results) == 8
    failures = [r.claim_id for r in results if r.status != "pass"]
    assert not failures, failures


@checked("Coset intersection bound: max 1 exhaustively at k in {1,2}")
def test_coset_intersection(f5, f10):
    for ctx, count in ((f5, 30), (f10, 1020)):
        r = prover.coset_intersection_check(ctx)
        assert r.status == "pass"
        assert r.witness["a_checked"] == count
        assert r.witness["max_intersection"] == 1
        assert r.witness["exhaustive"] is True


# ---------------------------------------------------------------------------
# property suites (zero tolerance, exhaustive n=5 / sampled n=10)
# ---------------------------------------------------------------------------

def naive_walsh_entry(f, u, v):
    ctx = f.ctx
    acc = 0
    for x in range(ctx.order):
        bit = ctx.trace_bits[gf2n.mul(ctx, u, x) ^ gf2n.mul(ctx, v, int(f.table[x]))]
        acc += -1 if bit else 1
    return acc


def naive_delta_and_spectrum(f):
    q = f.ctx.order
    omega = {}
    for a in range(1, q):
        for b in range(q):
            c = sum(1 for x in range(q) if int(f.table[x ^ a]) ^ int(f.table[x]) == b)
            omega[c] = omega.get(c, 0) + 1
    return omega


def naive_degree(f):
    ctx = f.ctx
    q = ctx.order
    deg = 0
    for i in range(q):
        if i == 0:
            c = int(f.table[0])
        elif i == q - 1:
            c = 0
            for a in range(q):
                c ^= int(f.table[a])
        else:
            c = 0
            for a in range(1, q):
                c ^= gf2n.mul(ctx, int(f.table[a]), gf2n.pow(ctx, a, q - 1 - i))
        if c:
            deg = max(deg, bin(i).count("1"))
    return deg


@checked("Property suite: Parseval, DDT sums, spectrum identities, balancedness")
def test_property_suite(f5, f10):
    rng = random.Random(101)
    perm5 = instance(f5, 1, "x+1")
    case10 = instance(f10, 2, "x+b")
    perm10 = power_function(f10, 5)

    # Parseval, exhaustive at n=5
    ws5 = walsh_table(perm5)
    assert ((ws5.astype(np.int64) ** 2).sum(axis=1) == 1 << 10).all()
    # Parseval, sampled at n=10
    ws10 = walsh_table(case10)
    rows = [rng.randrange(1023) for _ in range(64)]
    assert ((ws10[rows].astype(np.int64) ** 2).sum(axis=1) == 1 << 20).all()

    # DDT row sums and evenness: exhaustive n=5, sampled n=10
    for a in range(1, 32):
        counts = ddt_row(perm5, a)
        assert counts.sum() == 32 and not (counts % 2).any()
    for a in [rng.randrange(1, 1024) for _ in range(64)]:
        counts = ddt_row(case10, a)
        assert counts.sum() == 1024 and not (counts % 2).any()

    # spectrum identities on both analyzed functions
    for f in (perm5, case10):
        q = f.ctx.order
        ds = differential_spectrum(f)
        assert sum(ds.spectrum.values()) == (q - 1) * q
        assert sum(i * w for i, w in ds.spectrum.items()) == (q - 1) * q

    # permutation balancedness W(0, v) = 0
    assert (ws5[:, 0] == 0).all()
    wsp10 = walsh_table(perm10)
    for v in [rng.randrange(1, 1024) for _ in range(64)]:
        assert wsp10[v - 1, 0] == 0


@checked("Oracle equivalence at n=5: Walsh, DDT and degree against naive scans")
def test_naive_oracle_equivalence(f5):
    f = instance(f5, 1, "x+1")

    ws = walsh_table(f)
    naive_max = 0
    for v in range(1, 32):
        for u in range(32):
            entry = naive_walsh_entry(f, u, v)
            assert ws[v - 1, u] == entry
            naive_max = max(naive_max, abs(entry))
    assert oracle_nl(f) == 16 - naive_max // 2
    assert nonlinearity(f) == 16 - naive_max // 2

    ds = differential_spectrum(f)
    naive = naive_delta_and_spectrum(f)
    assert {i: w for i, w in naive.items() if w} == {
        i: w for i, w in ds.spectrum.items() if w
    }
    assert ds.delta == max(i for i, w in naive.items() if i and w)
    assert oracle_spectrum(f) == {i: w for i, w in naive.items() if w}

    assert algebraic_degree(f) == naive_degree(f)
    # x^31 has a nonzero top coefficient, the case of the refuted degrees
    for func in (f, power_function(f5, 31)):
        assert oracle_degree(func) == naive_degree(func)
