import gc
import json
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ddt_row, random_affine_perm, walsh_max, walsh_rows, walsh_table
from duperm import analyzer, gf2n
from duperm.analyzer import (
    DiffSpectrum,
    algebraic_degree,
    analyze,
    anf_degree,
    differential_spectrum,
    is_permutation,
    nl_lower_bound,
    nonlinearity,
    omega_counts,
    walsh_max_abs,
    _collision_rows,
    _orbit_walsh,
    _power_off_subfield,
    _psi_table,
    _structured_omega,
    _structured_walsh,
)
from duperm.construct import (
    LutFunction,
    build_f,
    build_g,
    dobbertin_exponent,
    instance,
    power_function,
)


# ---------------------------------------------------------------------------
# naive oracles
# ---------------------------------------------------------------------------

def naive_ddt_counts(f, a):
    q = f.ctx.order
    counts = [0] * q
    for x in range(q):
        counts[int(f.table[x ^ a]) ^ int(f.table[x])] += 1
    return counts


def naive_spectrum(f):
    q = f.ctx.order
    omega = {}
    for a in range(1, q):
        counts = naive_ddt_counts(f, a)
        for b in range(q):
            omega[counts[b]] = omega.get(counts[b], 0) + 1
    return omega


def naive_walsh(f, u, v):
    ctx = f.ctx
    acc = 0
    for x in range(ctx.order):
        e = ctx.trace_bits[gf2n.mul(ctx, u, x) ^ gf2n.mul(ctx, v, int(f.table[x]))]
        acc += -1 if e else 1
    return acc


def naive_degree_univariate(f):
    """Lagrange interpolation: c_i = sum_a f(a) a^(q-1-i) for 0 < i < q-1."""
    ctx = f.ctx
    q = ctx.order
    coeffs = [0] * q
    coeffs[0] = int(f.table[0])
    for i in range(1, q - 1):
        acc = 0
        for a in range(1, q):
            acc ^= gf2n.mul(ctx, int(f.table[a]), gf2n.pow(ctx, a, q - 1 - i))
        coeffs[i] = acc
    acc = 0
    for a in range(q):
        acc ^= int(f.table[a])
    coeffs[q - 1] = acc
    # sanity: interpolation reproduces the table
    for x in (0, 1, 5, 17, 30):
        val = 0
        for i, c in enumerate(coeffs):
            if c:
                val ^= gf2n.mul(ctx, c, gf2n.pow(ctx, x, i))
        assert val == int(f.table[x])
    return max((bin(i).count("1") for i, c in enumerate(coeffs) if c), default=0)


# ---------------------------------------------------------------------------
# DDT and spectrum
# ---------------------------------------------------------------------------

def test_ddt_row_identity(f5):
    f = power_function(f5, 1)
    for a in (1, 7, 31):
        row = ddt_row(f, a)
        assert row[a] == 32
        assert row.sum() == 32


def test_ddt_rows_even_and_sum(f10):
    f = power_function(f10, 339)
    rng = random.Random(1)
    for a in [rng.randrange(1, 1024) for _ in range(64)]:
        row = ddt_row(f, a)
        assert row.sum() == 1024
        assert not (row % 2).any()


def test_ddt_row_matches_naive_exhaustive_n5(f5):
    f = instance(f5, 1, "x+1")
    for a in range(1, 32):
        assert ddt_row(f, a).tolist() == naive_ddt_counts(f, a)


def test_spectrum_matches_naive_n5(f5):
    for f in (power_function(f5, 29), instance(f5, 1, "x+1")):
        ds = differential_spectrum(f)
        naive = naive_spectrum(f)
        for i, w in ds.spectrum.items():
            assert naive.get(i, 0) == w
        assert ds.delta == max(i for i in naive if i > 0 and naive[i] > 0)


def test_dobbertin_apn_n5(f5):
    ds = differential_spectrum(power_function(f5, 29))
    assert ds.delta == 2


def test_dobbertin_n10_apn_non_permutation(f10):
    f = power_function(f10, 339)
    assert differential_spectrum(f).delta == 2
    assert not is_permutation(f)


def test_spectrum_identities(f5, f10):
    cases = [
        power_function(f5, 29),
        instance(f5, 1, "x+1"),
        power_function(f5, 1),
        power_function(f10, 339),
        instance(f10, 2, "b^2*x^2"),
    ]
    for f in cases:
        q = f.ctx.order
        ds = differential_spectrum(f)
        assert sum(ds.spectrum.values()) == (q - 1) * q
        assert sum(i * w for i, w in ds.spectrum.items()) == (q - 1) * q
        assert all(i % 2 == 0 for i in ds.spectrum)
        assert ds.delta == max(i for i, w in ds.spectrum.items() if w and i)


# ---------------------------------------------------------------------------
# structured kernel against the exhaustive oracle
# ---------------------------------------------------------------------------

def ddt_row_spectrum(f):
    """The spectrum rebuilt from the DDT rows of every a != 0."""
    q = f.ctx.order
    omega = np.zeros(q + 1, dtype=np.int64)
    for a in range(1, q):
        omega += np.bincount(ddt_row(f, a), minlength=q + 1)
    delta = int(np.nonzero(omega[1:])[0].max()) + 1
    return DiffSpectrum({i: int(omega[i]) for i in range(0, delta + 1, 2)}, delta)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    k=st.sampled_from([1, 2]),
    m=st.integers(1, 6),
    seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
)
def test_structured_spectrum_matches_ddt_rows(f5, f10, k, m, seeds):
    ctx = f5 if k == 1 else f10
    L1, L2 = (random_affine_perm(ctx, k, seed) for seed in seeds)
    f = build_f(ctx, k, build_g(ctx, k, m, L1, L2))
    ds = differential_spectrum(f)
    assert ds.kernel == "structured"
    assert ds == ddt_row_spectrum(f)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32))
def test_random_permutations_take_exhaustive_path(f5, f10, seed):
    rng = np.random.default_rng(seed)
    small = LutFunction(f5, rng.permutation(32))
    ds = differential_spectrum(small)
    assert ds.kernel == "exhaustive"
    naive = naive_spectrum(small)
    assert ds.spectrum == {i: naive.get(i, 0) for i in range(0, ds.delta + 1, 2)}
    assert differential_spectrum(LutFunction(f10, rng.permutation(1024))).kernel == "exhaustive"


def test_power_map_with_one_entry_changed_falls_back(f10):
    d = dobbertin_exponent(2)
    outside = np.nonzero(~f10.subfield_mask)[0]
    for x in (f10.generator, int(outside[0]), int(outside[-1])):
        table = power_function(f10, d).table.copy()
        table[x] ^= 1
        f = LutFunction(f10, table)
        ds = differential_spectrum(f)
        assert ds.kernel == "exhaustive"
        assert ds == ddt_row_spectrum(f)


# (k, e): exponents of x^e on GF(2^(5k)), the plain maps and the Dobbertin one
SUBFIELD_EXPONENTS = [(1, e) for e in (29, 1, 3, 5, 7, 11, 15, 31)] + [
    (2, e) for e in (339, 1, 3, 7, 11, 31, 33, 93, 341, 1021, 1023)
]


def power_off_subfield(ctx, e, seed, size, anywhere):
    """x^e off GF(2^k) and any values on a set D of |D| = size points of it,
    drawn from inside GF(2^k) or from anywhere in the field."""
    rng = np.random.default_rng(seed)
    table = power_function(ctx, e).table.copy()
    sub = np.flatnonzero(ctx.subfield_mask)
    d = np.sort(rng.choice(sub, min(size, len(sub)), replace=False))
    pool = np.arange(ctx.order) if anywhere else sub
    for s in d:
        table[s] = rng.choice(pool[pool != table[s]])
    return LutFunction(ctx, table), d


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    ke=st.sampled_from(SUBFIELD_EXPONENTS),
    seed=st.integers(0, 2**32),
    size=st.integers(0, 4),
    anywhere=st.booleans(),
)
def test_structured_spectrum_arbitrary_subfield_values(f5, f10, ke, seed, size, anywhere):
    k, e = ke
    f, d = power_off_subfield(f5 if k == 1 else f10, e, seed, size, anywhere)
    assert _power_off_subfield(f)[2].tolist() == d.tolist()
    assert differential_spectrum(f).kernel == "structured"
    assert np.array_equal(_structured_omega(f), omega_counts(f.table))


def test_structured_spectrum_every_row_exact(f5, f10, monkeypatch):
    # every row outside GF(2^k) taken for a collision row: the exact listing
    # must take back each move the histograms made and recount all rows,
    # in blocks of 60 listings, the last one short
    monkeypatch.setattr(
        analyzer, "_collision_rows", lambda ctx, *_: np.flatnonzero(~ctx.subfield_mask)
    )
    monkeypatch.setattr(analyzer, "_EXACT_LISTINGS", 60)
    for i, (k, e) in enumerate(SUBFIELD_EXPONENTS):
        ctx = f5 if k == 1 else f10
        for size in (0, 1, 2, 1 << k):
            f, _ = power_off_subfield(ctx, e, i, size, anywhere=bool(i % 2))
            assert np.array_equal(_structured_omega(f), omega_counts(f.table)), (k, e, size)


def power_row1(ctx, e):
    """The table of x^e and row 1 of its DDT."""
    p = power_function(ctx, e)
    return p.table, ddt_row(p, 1)


def listing_collisions(f, e):
    """Rows a outside GF(2^k) where two of the cells P(s) + P(s + a) and
    f(s) + P(s + a), P = x^e, s in D, agree; found by sorting each row's cells."""
    ctx = f.ctx
    p = power_function(ctx, e).table
    d = np.flatnonzero(f.table != p)
    a = np.flatnonzero(~ctx.subfield_mask)[:, None]
    cells = np.sort(np.concatenate([p[d] ^ p[d ^ a], f.table[d] ^ p[d ^ a]], axis=1), axis=1)
    return a[(cells[:, 1:] == cells[:, :-1]).any(axis=1), 0].tolist()


def test_collision_rows_match_listings(f5, f10):
    found = 0
    for i, (k, e) in enumerate(SUBFIELD_EXPONENTS):
        ctx = f5 if k == 1 else f10
        for size in (2, 3, 1 << k):
            for anywhere in (False, True):
                f, d = power_off_subfield(ctx, e, i, size, anywhere)
                rows = _collision_rows(ctx, e, *power_row1(ctx, e), f.table, d)
                assert rows.tolist() == listing_collisions(f, e), (k, e, size, anywhere)
                found += len(rows) > 0
    assert found
    # the Dobbertin map of GF(2^10) with the four points of GF(4) sent to
    # values drawn from the whole field has 24 collision rows, which the
    # structured spectrum must recount exactly
    f, d = power_off_subfield(f10, 339, 8, 4, anywhere=True)
    assert len(_collision_rows(f10, 339, *power_row1(f10, 339), f.table, d)) == 24
    assert np.array_equal(_structured_omega(f), omega_counts(f.table))


def test_structured_spectrum_huge_row1_entries_stay_bounded(f10, monkeypatch):
    # x and x^(2^n - 1) have one DDT row 1 entry near 2^n, so with all of
    # GF(2^k) changed every row collides: the collision search gives up
    # before expanding its solutions and every row is listed in blocks
    for ctx in (f10, gf2n.mk_field(3)):
        for e in (1, ctx.order - 1):
            f = _with_subfield_changed(ctx, e)
            d = np.flatnonzero(ctx.subfield_mask)
            assert _collision_rows(ctx, e, *power_row1(ctx, e), f.table, d) is None
            if ctx.n == 10:
                assert np.array_equal(_structured_omega(f), omega_counts(f.table)), e
                with monkeypatch.context() as m:  # 15 rows a block, the last one short
                    m.setattr(analyzer, "_EXACT_LISTINGS", 60)
                    assert np.array_equal(_structured_omega(f), omega_counts(f.table)), e
                continue
            tracemalloc.start()
            try:
                ds = differential_spectrum(f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ds.kernel == "structured"
            assert_spectrum_identities(ds, ctx.order)
            # the earlier kernel, which listed every row in blocks, peaked at 2.13 MB
            assert peak < 2_130_000, (e, peak)


# Full n = 15 spectra, captured once from the row-by-row exhaustive scan.
N15_SPECTRA = {
    (2, "x^4"): ({0: 536952808, 2: 536657968, 4: 98280}, 4),
    (2, "x"): ({0: 536854528, 2: 536854528}, 2),  # f = x^4679
    (1, "x+1"): ({0: 536936449, 2: 536690700, 4: 81900, 6: 0, 8: 7}, 8),
}


def assert_spectrum_identities(ds, q):
    assert sum(ds.spectrum.values()) == sum(i * w for i, w in ds.spectrum.items()) == (q - 1) * q


@pytest.mark.parametrize("m, l1", sorted(N15_SPECTRA))
def test_structured_spectrum_pinned_n15(f15, m, l1):
    ds = differential_spectrum(instance(f15, m, l1))
    assert ds.kernel == "structured"
    assert (ds.spectrum, ds.delta) == N15_SPECTRA[m, l1]
    assert_spectrum_identities(ds, f15.order)


# n = 20 (m, L1): |D|, spectrum, delta and max |W_f|, captured once from the
# earlier kernels, which listed every row in blocks and summed each Walsh
# orbit by modulo gathers, independently of the histograms and slices here
N20_CRITERIA = {
    (3, "x+1"): (16, {0: 549763683195, 2: 549738502410, 4: 8393595}, 4, 4364, 19),
    (1, "x"): (
        14,
        {0: 549762630645, 2: 549740607600, 4: 7340940, **dict.fromkeys(range(6, 16, 2), 0), 16: 15},
        16,
        4360,
        18,
    ),
}


def test_structured_criteria_pinned_n20():
    ctx = gf2n.mk_field(4)
    for (m, l1), (size, spectrum, delta, wmax, degree) in N20_CRITERIA.items():
        f = instance(ctx, m, l1)
        assert len(_power_off_subfield(f)[2]) == size
        ds = differential_spectrum(f)
        assert ds.kernel == "structured"
        assert (ds.spectrum, ds.delta) == (spectrum, delta), (m, l1)
        assert_spectrum_identities(ds, ctx.order)
        assert _structured_walsh(f) == wmax, (m, l1)
        assert algebraic_degree(f) == degree, (m, l1)


# ---------------------------------------------------------------------------
# Walsh spectrum and nonlinearity
# ---------------------------------------------------------------------------

def test_walsh_table_matches_naive_exhaustive_n5(f5):
    f = instance(f5, 1, "x+1")
    ws = walsh_table(f)
    for v in range(1, 32):
        for u in range(32):
            assert ws[v - 1, u] == naive_walsh(f, u, v)


def test_walsh_linear_function(f5):
    assert nonlinearity(power_function(f5, 1)) == 0


def test_parseval_exhaustive_n5(f5):
    ws = walsh_table(instance(f5, 1, "x+1"))
    sums = (ws.astype(np.int64) ** 2).sum(axis=1)
    assert (sums == 1 << 10).all()


def test_parseval_sampled_n10(f10):
    ws = walsh_table(power_function(f10, 339))
    rng = random.Random(2)
    rows = [rng.randrange(1023) for _ in range(64)]
    sums = (ws[rows].astype(np.int64) ** 2).sum(axis=1)
    assert (sums == 1 << 20).all()


def test_permutation_balancedness(f5, f10):
    fperm5 = instance(f5, 1, "x+1")
    assert is_permutation(fperm5)
    ws = walsh_table(fperm5)
    assert (ws[:, 0] == 0).all()
    fperm10 = power_function(f10, 5)  # gcd(5, 1023) = 1
    assert is_permutation(fperm10)
    ws10 = walsh_table(fperm10)
    rng = random.Random(3)
    for v in [rng.randrange(1, 1024) for _ in range(64)]:
        assert ws10[v - 1, 0] == 0


def test_walsh_streaming_matches_table(f10):
    f = instance(f10, 2, "x+1")
    assert walsh_max_abs(f) == walsh_max(f)


def test_nl_consistency(f10):
    f = instance(f10, 2, "x+b")
    assert nonlinearity(f) == 512 - walsh_max_abs(f) // 2


# ---------------------------------------------------------------------------
# structured Walsh kernel against the exhaustive oracle
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    k=st.sampled_from([1, 2]),
    m=st.integers(1, 6),
    seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
)
def test_structured_walsh_matches_table(f5, f10, k, m, seeds):
    ctx = f5 if k == 1 else f10
    L1, L2 = (random_affine_perm(ctx, k, seed) for seed in seeds)
    f = build_f(ctx, k, build_g(ctx, k, m, L1, L2))
    oracle = walsh_max(f)
    structured = _structured_walsh(f)
    if k == 2:
        assert structured is not None
    assert structured in (None, oracle)
    assert walsh_max_abs(f) == oracle


def test_psi_table_matches_basis_products(f5, f10, f15):
    # the n-multiply construction: bit i of psi(u) is Tr(u x^i), one
    # full-field product per basis element x^i
    for ctx in (f5, f10, f15):
        u = np.arange(1, ctx.order)
        psi = np.zeros(ctx.order, dtype=np.int64)
        for i in range(ctx.n):
            prod = ctx.exp[(ctx.log[u] + ctx.log[1 << i]) % (ctx.order - 1)]
            psi[1:] |= ctx.trace_bits[prod].astype(np.int64) << i
        assert np.array_equal(_psi_table(ctx), psi)
    # and the defining identity Tr(u x) = <psi(u), x>
    psi = _psi_table(f10)
    rng = random.Random(7)
    for _ in range(200):
        u, x = rng.randrange(1024), rng.randrange(1024)
        assert f10.trace_bits[gf2n.mul(f10, u, x)] == int(psi[u] & x).bit_count() & 1


@pytest.mark.parametrize("e", [339, 33])
def test_power_walsh_scaling_identity(f10, e):
    # W_P(w c, gamma^j c^e) = W_P(w, gamma^j): g rows give the whole table
    g = np.gcd(e, 1023)
    p = power_function(f10, e)
    table = walsh_table(p)
    rows = walsh_rows(f10, p.table, f10.exp[:g])
    assert np.array_equal(rows, table[f10.exp[:g] - 1])
    for c in (2, 77, 1000):
        wc = [gf2n.mul(f10, w, c) for w in range(1024)]
        for j in range(g):
            v = gf2n.mul(f10, int(f10.exp[j]), gf2n.pow(f10, c, e))
            assert np.array_equal(table[v - 1, wc], rows[j])


def test_orbit_walsh_matches_table(f10):
    # every pair (w c, gamma^j c^e) of an orbit, against the full table; D
    # holds 0 (with f(0) = 5) and 1 (with f(1) = 0) and one more point
    e = 339
    p = power_function(f10, e).table
    sub = np.flatnonzero(f10.subfield_mask)
    table = p.copy()
    table[sub] = (5, 0, 1000, p[sub[3]])
    f = LutFunction(f10, table)
    d = sub[:3]
    rows = walsh_rows(f10, p, f10.exp[:3])
    full = walsh_table(f)
    logc = np.arange(1023)
    for j in range(3):
        v = f10.exp[(j + e * logc) % 1023]
        for w in (0, 1, 5, 700):
            u = [gf2n.mul(f10, int(c), w) for c in f10.exp]
            assert np.array_equal(_orbit_walsh(f, e, d, j, w, rows[j, w]), full[v - 1, u])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    # exponents whose kept orbits pass the cost guard for any |D| <= 4;
    # on x and 92, 449, 757 (g = 1, max |W_P| = 80) the maximum of f moves
    # if the transform is not reindexed or the correction bound is too tight
    e=st.sampled_from([339, 1, 7, 11, 31, 33, 92, 93, 99, 341, 449, 757, 1021]),
    seed=st.integers(0, 2**32),
    anywhere=st.booleans(),
)
def test_structured_walsh_arbitrary_subfield_values(f10, e, seed, anywhere):
    # x^e off GF(4) and any values on it, inside GF(4) or anywhere in the field
    rng = np.random.default_rng(seed)
    table = power_function(f10, e).table.copy()
    sub = np.flatnonzero(f10.subfield_mask)
    table[sub] = rng.integers(0, 1024, 4) if anywhere else rng.choice(sub, 4)
    f = LutFunction(f10, table)
    assert _structured_walsh(f) == walsh_max(f)


# one exponent per gcd(e, 1023) in {1, 3, 11, 31, 33, 93, 341}
PLAIN_POWERS = [5, 3, 11, 31, 33, 93, 341]


@pytest.mark.parametrize("e", PLAIN_POWERS)
def test_structured_walsh_plain_powers(f10, e):
    f = power_function(f10, e)
    assert _structured_walsh(f) == walsh_max(f)


def test_structured_walsh_streams_small_blocks(monkeypatch):
    # the candidate orbits are kept against a running maximum, 16 components
    # at a time, so the g = 341 transforms of x^341 are never all live
    monkeypatch.setattr(analyzer, "_V_BLOCK", 16)
    ctx = gf2n.mk_field(2)
    for e in PLAIN_POWERS:
        f = power_function(ctx, e)
        oracle = walsh_max(f)
        tracemalloc.start()
        try:
            got = _structured_walsh(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == oracle, e
        if e == 341:
            assert peak < 341 * 1024 * 8


def _with_subfield_changed(ctx, e):
    """x^e with every point s of GF(2^k) sent to s^e + 1."""
    table = power_function(ctx, e).table.copy()
    table[ctx.subfield_mask] ^= 1
    return LutFunction(ctx, table)


def test_walsh_fallbacks_match_table(f10):
    one_changed = power_function(f10, dobbertin_exponent(2)).table.copy()
    one_changed[f10.generator] ^= 1
    # Tr(1000 f(x)) = 0 for every x: the maximum, 1024, lies only in the
    # last block of components the exhaustive scan visits
    last_block = np.random.default_rng(6).integers(0, 1024, 1024)
    t = next(y for y in range(1024) if f10.trace_bits[gf2n.mul(f10, 1000, y)])
    odd = f10.trace_bits[[gf2n.mul(f10, 1000, int(y)) for y in last_block]] == 1
    last_block[odd] ^= t
    cases = (
        LutFunction(f10, one_changed),  # not a power map off GF(4)
        _with_subfield_changed(f10, 3),  # Gold: 256 orbits kept, 4 points each
        power_function(f10, 1023),  # gcd(e, 1023) = 1023 transforms
        LutFunction(f10, np.random.default_rng(5).permutation(1024)),
        LutFunction(f10, last_block),
    )
    for f in cases:
        assert _structured_walsh(f) is None
        assert walsh_max_abs(f) == walsh_max(f)


def test_walsh_guard_refuses_plateaued_n15(f15):
    # Gold x^3 is plateaued: half of all w keep |W| = 256, and 16384 orbits
    # times 8 points is more than the 32767 transforms of the exhaustive scan
    assert _structured_walsh(_with_subfield_changed(f15, 3)) is None


# max |W_f| at n = 15, captured once from the exhaustive per-component scan
N15_WALSH = {(2, "x^4"): 584, (1, "x+1"): 580, (2, "x"): 576}


@pytest.mark.parametrize("m, l1", sorted(N15_WALSH))
def test_structured_walsh_pinned_n15(f15, m, l1):
    f = instance(f15, m, l1)
    assert _structured_walsh(f) == N15_WALSH[m, l1]
    assert walsh_max_abs(f) == N15_WALSH[m, l1]


# kernel of walsh_max_abs on the acceptance instances (L2 = x): max |W_f|
# from the structured kernel, or None where its cost guard declines
ACCEPTANCE_WALSH_KERNEL = {
    (1, 1, "x+1"): None,
    (1, 1, "x"): 12,
    (2, 2, "x+1"): 84,
    (2, 2, "x+b"): 88,
    (2, 2, "b*x+b"): 84,
    (2, 2, "b^2*x^2+b"): 82,
    (2, 2, "b^2*x^2"): 86,
    (2, 1, "x+b"): 86,
    (2, 1, "b*x^2+b"): 86,
}


def test_structured_walsh_kernel_choice_pinned(f5, f10):
    for (k, m, l1), want in ACCEPTANCE_WALSH_KERNEL.items():
        f = instance(f5 if k == 1 else f10, m, l1)
        assert _structured_walsh(f) == want, (k, m, l1)


# ---------------------------------------------------------------------------
# algebraic degree
# ---------------------------------------------------------------------------

def test_degree_power_functions(f5):
    assert algebraic_degree(power_function(f5, 3)) == 2
    assert algebraic_degree(power_function(f5, 29)) == 4  # 2-weight of 29
    assert algebraic_degree(power_function(f5, 1)) == 1
    assert algebraic_degree(LutFunction(f5, np.zeros(32, dtype=np.int64))) == 0


def test_degree_matches_lagrange_oracle_n5(f5):
    rng = random.Random(4)
    cases = [
        power_function(f5, 29),
        instance(f5, 1, "x+1"),
        LutFunction(f5, np.array([rng.randrange(32) for _ in range(32)])),
    ]
    for f in cases:
        assert algebraic_degree(f) == naive_degree_univariate(f)
    # a stack of tables, as the prover scores its candidate maps
    stacked = anf_degree(np.stack([f.table for f in cases] * 2).reshape(2, 3, 32))
    assert stacked.tolist() == [[naive_degree_univariate(f) for f in cases]] * 2


def test_degree_of_permutation_at_most_n_minus_1(f5):
    for l1 in ("x", "x+1"):
        f = instance(f5, 1, l1)
        if is_permutation(f):
            assert algebraic_degree(f) <= 4


def test_degree_of_power_map_is_binary_weight(f10):
    for e in range(1, f10.order):
        assert anf_degree(power_function(f10, e).table) == e.bit_count(), e


@pytest.mark.parametrize("k", [1, 2])
def test_structured_degree_matches_moebius(f5, f10, k):
    # every exponent, a random D of every size, values from GF(2^k) or anywhere
    ctx = f5 if k == 1 else f10
    for e in range(1, ctx.order):
        for size in range((1 << k) + 1):
            for anywhere in (False, True):
                f, _ = power_off_subfield(ctx, e, e << 4 | size << 1 | anywhere, size, anywhere)
                assert algebraic_degree(f) == anf_degree(f.table), (e, size, anywhere)


def test_degree_tie_takes_whole_table(f5, monkeypatch):
    # k = 1: a nonzero constant H on GF(2) gives (n - k) + deg H = 4 = wt(29)
    moebius, lengths = anf_degree, []
    monkeypatch.setattr(analyzer, "anf_degree", lambda t: lengths.append(t.shape[-1]) or moebius(t))
    p = power_function(f5, 29).table
    for c in (1, 7, 30):
        table = p.copy()
        table[[0, 1]] ^= c
        assert algebraic_degree(LutFunction(f5, table)) == moebius(table), c
    assert lengths.count(32) == 3
    # H non-constant: 4 + 1 > wt(29) decides without the whole table
    table = p.copy()
    table[1] ^= 5
    assert algebraic_degree(LutFunction(f5, table)) == 5 == moebius(table)
    assert lengths.count(32) == 3


# ---------------------------------------------------------------------------
# bounds and invariants
# ---------------------------------------------------------------------------

def test_nl_lower_bound_values():
    assert nl_lower_bound(2) == 380  # 512 - 128 - 2 - 2
    assert nl_lower_bound(1) == 6  # 16 - 8 - 1 - 1
    # odd branch with fractional exponent: floor(2^10.5) = 1448
    assert nl_lower_bound(3) == 16384 - 1448 - 2 - 16 // 4
    assert nl_lower_bound(3) == 14930
    with pytest.raises(ValueError):
        nl_lower_bound(0)


def test_fingerprint_invariant_under_affine_composition(f10):
    """Spectrum, nonlinearity and degree survive x -> f(c x + e)."""
    f = instance(f10, 2, "x+b")
    c, e = 77, 513
    table = np.array([int(f.table[gf2n.mul(f10, c, x) ^ e]) for x in range(1024)])
    composed = LutFunction(f10, table)
    for criterion in (differential_spectrum, nonlinearity, algebraic_degree):
        assert criterion(composed) == criterion(f)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def test_analyze_report(f5):
    f = instance(f5, 1, "x+1")
    rep = analyze(f, k=1, construction="k=1 x+1")
    assert rep.delta == 4
    assert rep.is_permutation
    assert rep.nl == 16 - walsh_max(f) // 2
    assert rep.lb == 6
    assert set(rep.runtime_ms) == {"spectrum", "walsh", "degree", "permutation"}
    payload = json.loads(rep.to_json())
    assert list(payload) == [
        "n", "k", "construction", "spectrum", "delta", "nl",
        "degree", "permutation", "lb", "runtime_ms",
    ]
    assert payload["runtime_ms"] is None
    assert list(payload["spectrum"]) == sorted(payload["spectrum"], key=int)
    assert rep.to_json() == analyze(f, k=1, construction="k=1 x+1").to_json()


def test_analyze_without_walsh(f5):
    rep = analyze(power_function(f5, 29), k=1, walsh=False)
    assert rep.nl is None and "walsh" not in rep.runtime_ms
    assert json.loads(rep.to_json())["nl"] is None


# ---------------------------------------------------------------------------
# per-context memo
# ---------------------------------------------------------------------------

def _sweep_forms():
    """Every affine form c*x^(2^i) + e of GF(4) with c nonzero, as perfbench draws them."""
    coeffs = ("1", "b", "b^2")
    terms = [("" if c == "1" else c + "*") + ("x" if i == 0 else "x^2")
             for c in coeffs for i in (0, 1)]
    return terms + [f"{t}+{c}" for t in terms for c in coeffs]


SWEEP_INSTANCES = [
    (m, l1, _sweep_forms()[(5 * i + m) % 24])
    for m in (1, 2, 3)
    for i, l1 in enumerate(_sweep_forms())
]


def _report(ctx, inst):
    m, l1, l2 = inst
    return analyze(instance(ctx, m, l1, l2), k=2).to_json()


def test_memo_never_changes_a_report():
    # cold: a fresh context per instance; warm: one context in order, then in
    # reverse, with the plain power map x^7 in between so that the memo's
    # exponent is replaced before every instance
    cold = {inst: _report(gf2n.mk_field(2), inst) for inst in SWEEP_INSTANCES}
    ctx = gf2n.mk_field(2)
    x7 = analyze(power_function(ctx, 7), k=2).to_json()
    for order in (SWEEP_INSTANCES, SWEEP_INSTANCES[::-1]):
        warm = {}
        for inst in order:
            warm[inst] = _report(ctx, inst)
            assert analyze(power_function(ctx, 7), k=2).to_json() == x7
            assert ctx._memo["e"] == 7
        assert warm == cold
    # one context through all of them keeps one exponent and each histogram
    # the spectrum met, trimmed: under ten int64 tables of the field in all
    ctx = gf2n.mk_field(2)
    assert {inst: _report(ctx, inst) for inst in SWEEP_INSTANCES} == cold
    assert sum(a.nbytes for a in _memo_arrays(ctx)) <= 10 * 8 * ctx.order


def _memo_arrays(ctx):
    entries = [v for key, v in ctx._memo.items() if key not in ("e", "power")]
    entries += ctx._memo["power"].values()
    return [a for v in entries for a in (v if isinstance(v, tuple) else (v,))]


def test_memo_arrays_are_read_only():
    ctx = gf2n.mk_field(2)
    f = instance(ctx, 2, "x+b")
    analyze(f, k=2)
    arrays = _memo_arrays(ctx)
    assert len(arrays) >= 7  # x^d, DDT row 1 and its histogram, psi, signs, orbits
    assert any(a is gf2n.vec_pow_all(ctx, dobbertin_exponent(2)) for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_memo_lives_and_dies_with_its_context():
    ctx = gf2n.mk_field(1)
    f = instance(ctx, 1, "x+1")
    analyze(f, k=1)
    assert ctx._memo
    ref = weakref.ref(ctx)
    del ctx, f
    gc.collect()
    assert ref() is None
