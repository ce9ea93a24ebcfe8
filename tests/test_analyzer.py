import functools
import gc
import itertools
import json
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ddt_row,
    ddt_row_spectrum,
    dobbertin_power,
    every_affine_perm,
    fresh_field,
    is_bijective,
    patch,
    power_function,
    random_affine_perm,
    walsh_max,
    walsh_rows,
    walsh_table,
)
from duperm import analyzer, gf2n, prover
from duperm.analyzer import (
    algebraic_degree,
    analyze,
    anf_degree,
    differential_spectrum,
    is_permutation,
    nl_lower_bound,
    nonlinearity,
    omega_counts,
    walsh_max_abs,
    _psi_table,
)
from duperm.construct import (
    LUT_MAGIC,
    LutFunction,
    build_f,
    build_g,
    dobbertin_exponent,
    instance,
    read_lut,
)


# ---------------------------------------------------------------------------
# naive oracles
# ---------------------------------------------------------------------------

def naive_ddt_counts(table, a):
    q = len(table)
    counts = [0] * q
    for x in range(q):
        counts[int(table[x ^ a]) ^ int(table[x])] += 1
    return counts


def naive_spectrum(table):
    q = len(table)
    omega = {}
    for a in range(1, q):
        counts = naive_ddt_counts(table, a)
        for b in range(q):
            omega[counts[b]] = omega.get(counts[b], 0) + 1
    return omega


def naive_walsh(ctx, table, u, v):
    acc = 0
    for x in range(ctx.order):
        e = ctx.trace_bits[gf2n.mul(ctx, u, x) ^ gf2n.mul(ctx, v, int(table[x]))]
        acc += -1 if e else 1
    return acc


def naive_degree_univariate(ctx, table):
    """Lagrange interpolation: c_i = sum_a f(a) a^(q-1-i) for 0 < i < q-1."""
    q = ctx.order
    coeffs = [0] * q
    coeffs[0] = int(table[0])
    for i in range(1, q - 1):
        acc = 0
        for a in range(1, q):
            acc ^= gf2n.mul(ctx, int(table[a]), gf2n.pow(ctx, a, q - 1 - i))
        coeffs[i] = acc
    acc = 0
    for a in range(q):
        acc ^= int(table[a])
    coeffs[q - 1] = acc
    # sanity: interpolation reproduces the table
    for x in (0, 1, 5, 17, 30):
        val = 0
        for i, c in enumerate(coeffs):
            if c:
                val ^= gf2n.mul(ctx, c, gf2n.pow(ctx, x, i))
        assert val == int(table[x])
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
        assert ddt_row(f.table, a).tolist() == naive_ddt_counts(f.table, a)


def test_spectrum_matches_naive_n5(f5):
    for f in (dobbertin_power(f5), instance(f5, 1, "x+1")):
        ds = differential_spectrum(f)
        naive = naive_spectrum(f.table)
        for i, w in ds.items():
            assert naive.get(i, 0) == w
        assert max(ds) == max(i for i in naive if i > 0 and naive[i] > 0)
    # omega_counts takes any table, here a random permutation of GF(32)
    table = np.random.default_rng(0).permutation(32)
    omega = omega_counts(table)
    assert {i: int(w) for i, w in enumerate(omega) if w} == naive_spectrum(table)


def test_dobbertin_apn_n5(f5):
    assert max(differential_spectrum(dobbertin_power(f5))) == 2


def test_structural_permutation_status_matches_the_scan(f5, f10, f15):
    # is_permutation reads gcd(d, 2^n - 1) and f on GF(2^k); the oracle
    # scans the whole table: every map of GF(2^k) into itself at k = 1 and
    # 2 placed on the subfield, and seeded ones at k = 1, 2, 3
    seen = {True: 0, False: 0}
    for ctx in (f5, f10):
        maps = list(itertools.product(ctx.subfield_elems, repeat=1 << ctx.k))
        assert len(maps) == {1: 4, 2: 256}[ctx.k]
        for values in maps:
            f = LutFunction(ctx, np.array(values))
            assert is_permutation(f) == is_bijective(f.table), (ctx.k, values)
            seen[is_permutation(f)] += 1
    for ctx in (f5, f10, f15):
        for seed in range(12):  # at k = 3 some permute
            f, _ = power_off_subfield(ctx, seed, 2)
            assert is_permutation(f) == is_bijective(f.table), (ctx.k, seed)
            seen[is_permutation(f)] += 1
    assert min(seen.values()) >= 10
    # gcd 1 at odd k, 3 at even k, up to k = 5: also the number of rows
    # of x^d the Walsh kernel transforms
    gcds = [math.gcd(dobbertin_exponent(k), (1 << 5 * k) - 1) for k in range(1, 6)]
    assert gcds == [1, 3, 1, 3, 1]


def test_dobbertin_n10_apn_non_permutation(f10):
    f = dobbertin_power(f10)
    assert max(differential_spectrum(f)) == 2
    assert not is_permutation(f)


def test_spectrum_identities(f5, f10):
    cases = [
        dobbertin_power(f5),
        instance(f5, 1, "x+1"),
        dobbertin_power(f10),
        instance(f10, 2, "b^2*x^2"),
    ]
    for f in cases:
        q = f.ctx.order
        ds = differential_spectrum(f)
        assert sum(ds.values()) == (q - 1) * q
        assert sum(i * w for i, w in ds.items()) == (q - 1) * q
        assert all(i % 2 == 0 for i in ds)
        assert max(ds) == max(i for i, w in ds.items() if w and i)


# ---------------------------------------------------------------------------
# structured kernel against the exhaustive oracle
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    k=st.sampled_from([1, 2]),
    m=st.integers(1, 6),
    seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
)
def test_structured_spectrum_matches_ddt_rows(k, m, seeds):
    # a fresh context per table: the kernel runs, no orbit entry answers
    ctx = fresh_field(k)
    L1, L2 = (random_affine_perm(ctx, seed) for seed in seeds)
    f = build_f(ctx, k, build_g(ctx, k, m, L1, L2))
    assert differential_spectrum(f) == ddt_row_spectrum(f.table)


# (k, d): the Dobbertin exponent of GF(2^(5k)), the one power the criteria admit
SUBFIELD_EXPONENTS = [(k, dobbertin_exponent(k)) for k in (1, 2)]


def power_off_subfield(ctx, seed, size):
    """x^d off GF(2^k) and other values of GF(2^k) on a set D of |D| = size
    points of it; f and the positions of D in the sorted subfield."""
    rng = np.random.default_rng(seed)
    sub = ctx.subfield_index
    values = power_function(ctx, dobbertin_exponent(ctx.k))[sub]
    at = np.sort(rng.choice(len(sub), min(size, len(sub)), replace=False))
    for i in at:
        values[i] = rng.choice(sub[sub != values[i]])
    return LutFunction(ctx, values), at


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    k=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32),
    size=st.integers(0, 4),
)
def test_structured_spectrum_arbitrary_subfield_values(k, seed, size):
    f, at = power_off_subfield(fresh_field(k), seed, size)
    assert patch(f).tolist() == at.tolist()
    assert differential_spectrum(f) == ddt_row_spectrum(f.table)


def test_structured_spectrum_largest_cells():
    # f constant on GF(2^k): in each row a of GF(2^k)* every subfield pair
    # lands in cell 0, the largest count a cell reaches here
    for k in (1, 2):
        ctx = fresh_field(k)
        for c in ctx.subfield_elems:
            f = LutFunction(ctx, np.full(1 << k, c))
            ds = differential_spectrum(f)
            assert ds == ddt_row_spectrum(f.table), (k, c)
            assert max(ds) >= 1 << k


def gathered_counts(ctx):
    """c(r, shift) for every r in GF(2^k) and both shifts, one gather each:
    the up cell exp[(d log w + log r) mod (2^n - 1)] + P(w + 1) (+ 1 for
    shift 0; P(w + 1) or 1 for r = 0) of every w outside GF(2^k), counted
    by count_nonzero on a mask of Im Delta built here."""
    q1, e = ctx.order - 1, dobbertin_exponent(ctx.k)
    p = power_function(ctx, e)
    im_delta = np.zeros(ctx.order, dtype=bool)
    im_delta[p[0::2] ^ p[1::2]] = True
    w = np.flatnonzero(~ctx.subfield_mask)
    elog = e * ctx.log[w] % q1
    counts = {}
    for r in ctx.subfield_elems:
        up = ctx.exp[(elog + ctx.log[r]) % q1] if r else np.zeros_like(w)
        for shift in (0, 1):
            counts[r, shift] = int(np.count_nonzero(im_delta[up ^ (p[w ^ 1] if shift else 1)]))
    return counts


def closed_form_spectrum(f, counts):
    """omega_P + C (1, -2, 1) + omega(G) - omega(C) as differential_spectrum
    returns it, C the sum of counts[r_s, s != 0] over the points s of D,
    r_s = f(s) / s^d (f(0) for s = 0) by scalar field operations."""
    ctx = f.ctx
    q, e = ctx.order, dobbertin_exponent(ctx.k)
    c = 0
    for i in patch(f).tolist():
        s, fs = int(ctx.subfield_index[i]), int(f.values[i])
        r = gf2n.mul(ctx, fs, gf2n.pow(ctx, s, q - 1 - e)) if s else fs
        c += counts[r, int(s != 0)]
    half = q // 2 * (q - 1)
    omega = np.zeros(max(5, (1 << ctx.k) + 1), dtype=np.int64)
    omega[0:5:2] = half + c, half - 2 * c, c
    g, cmap = f.subfield_maps
    omega[: len(g) + 1] += omega_counts(g) - omega_counts(cmap)
    return {i: int(omega[i]) for i in range(0, int(np.flatnonzero(omega)[-1]) + 1, 2)}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_walsh_counts_give_every_spectrum(k):
    # the kernel's count table comes from the Walsh rows; the gathered
    # counts, which share no code with it, rebuild the spectrum of every map
    # of GF(2) and GF(4) and of seeded maps of GF(8), and equal the table at
    # every (y, i): c(sub[y] / sub[i]^d, 1) for i != 0, c(sub[y], 0) at
    # i = 0, and 0 where sub[y] = sub[i]^d
    ctx = fresh_field(k)
    counts = gathered_counts(ctx)
    sub = ctx.subfield_elems
    if k < 3:
        maps = itertools.product(sub, repeat=1 << k)
    else:
        rng = random.Random(k)
        maps = [tuple(rng.choice(sub) for _ in range(8)) for _ in range(300)]
    for values in maps:
        f = LutFunction(ctx, np.array(values))
        assert differential_spectrum(f) == closed_form_spectrum(f, counts), values
    q, e = ctx.order, dobbertin_exponent(k)
    want = np.zeros((len(sub), len(sub)), dtype=np.int64)
    for (y, fs), (i, s) in itertools.product(enumerate(sub), enumerate(sub)):
        if fs != gf2n.pow(ctx, s, e):
            want[y, i] = counts[gf2n.mul(ctx, fs, gf2n.pow(ctx, s, q - 1 - e)), 1] if s else counts[fs, 0]
    cmap = dobbertin_power(ctx).subfield_maps[1]
    assert not want[cmap, np.arange(len(sub))].any()
    assert ctx._memo["counts"].tolist() == want.tolist()


def test_spectrum_memo_holds_x_d_the_im_delta_mask_and_counts():
    # after every spectrum of GF(4): x^d is the one int64 table of the
    # field, Im Delta a bool mask and the g = 3 Walsh rows the only other
    # arrays of 2^n entries or more, and the counts one 4 x 4 int64 table,
    # 0 where f(s) = s^d, among them (0, 0) and (1, 1), which APN fixes at
    # 2^n - 2^k
    ctx = fresh_field(2)
    for values in itertools.product(ctx.subfield_elems, repeat=4):
        differential_spectrum(LutFunction(ctx, np.array(values)))
    full = [a for a in _memo_arrays(ctx) if a.dtype == np.int64 and a.size == ctx.order]
    assert len(full) == 1 and full[0] is gf2n.vec_pow_all(ctx, dobbertin_exponent(2))
    im_delta = ctx._memo["im_delta"]
    assert im_delta.dtype == bool and im_delta.shape == (ctx.order,)
    rows = ctx._memo["walsh_rows"]
    assert (rows.dtype, rows.shape) == (np.int64, (3, ctx.order))
    large = [a for a in _memo_arrays(ctx) if a.size >= ctx.order]
    assert len(large) == 3 and {id(a) for a in large} == {id(full[0]), id(im_delta), id(rows)}
    counts = ctx._memo["counts"]
    assert (counts.dtype, counts.shape) == (np.int64, (4, 4))
    cmap = dobbertin_power(ctx).subfield_maps[1]
    assert not counts[cmap, np.arange(4)].any() and counts[0, 0] == counts[1, 1] == 0


def test_a_walsh_value_off_the_multiples_of_4_to_the_k_is_refused(monkeypatch):
    # the counts divide every W_j(u), u != 0, by 2^(2k) before their int64
    # sums; a row holding W + 1 at one u != 0 is refused, not rounded
    ctx = fresh_field(2)
    rows = analyzer._walsh_rows(ctx).copy()
    rows[1, 7] += 1
    monkeypatch.setattr(analyzer, "_walsh_rows", lambda ctx: rows)
    with pytest.raises(ValueError, match=f"x\\^{dobbertin_exponent(2)} on GF\\(2\\^10\\) is not a multiple of 2\\^4"):
        differential_spectrum(instance(ctx, 2, "x+b"))


def test_one_transform_per_field_and_none_for_x_d(monkeypatch):
    # the g Walsh rows are transformed once per field and read by both
    # criteria, through several orbits; the spectrum of x^d (G = C)
    # needs no count, so it starts no transform
    calls = []
    fwht = analyzer._fwht_lastaxis
    monkeypatch.setattr(analyzer, "_fwht_lastaxis", lambda a: calls.append(a.shape) or fwht(a))
    for k in (1, 2, 3):
        ctx = fresh_field(k)
        differential_spectrum(dobbertin_power(ctx))
        assert calls == [], k
        for l1 in ("x+1", "x", "b*x+b", "x^2")[: 2 if k == 1 else 4]:
            analyze(instance(ctx, 1, l1))
        assert calls == [(math.gcd(dobbertin_exponent(k), ctx.order - 1), ctx.order)], k
        calls.clear()


def test_spectrum_refuses_a_power_map_that_is_not_apn(monkeypatch):
    # the closed form holds for an APN x^d alone: Im Delta of the identity
    # is {1}, not 2^(n - 1) points
    ctx = fresh_field(2)
    f = instance(ctx, 2, "x+b")
    monkeypatch.setattr(gf2n, "vec_pow_all", lambda ctx, e: np.arange(ctx.order))
    with pytest.raises(ValueError, match=f"x\\^{dobbertin_exponent(2)} is not APN on GF\\(2\\^10\\)"):
        differential_spectrum(f)


def listing_collisions(f):
    """Rows a outside GF(2^k) where two of the cells P(s) + P(s + a) and
    f(s) + P(s + a), P = x^d, s in D, agree; found by sorting each row's
    cells, in blocks of rows so that n = 20 stays small."""
    ctx = f.ctx
    p = power_function(ctx, dobbertin_exponent(ctx.k))
    d = np.flatnonzero(f.table != p)
    outside = np.flatnonzero(~ctx.subfield_mask)
    rows = []
    for lo in range(0, len(outside), 1 << 15):
        a = outside[lo : lo + (1 << 15), None]
        cells = np.sort(np.concatenate([p[d] ^ p[d ^ a], f.table[d] ^ p[d ^ a]], axis=1), axis=1)
        rows += a[(cells[:, 1:] == cells[:, :-1]).any(axis=1), 0].tolist()
    return rows


def test_constructed_functions_have_no_collision_rows(f5, f10, f15):
    # Lemma 1 rules collision rows out for values in GF(2^k), so the kernel
    # returns none without a search; the oracle searches every row: every
    # (m, L1, L2) at k = 1 and 2, a seeded sample at k = 3
    built = 0
    for ctx in (f5, f10):
        perms = every_affine_perm(ctx)
        assert len(perms) == {1: 2, 2: 24}[ctx.k]
        for m, L1, L2 in itertools.product((1, 2, 3), perms, perms):
            f = build_f(ctx, ctx.k, build_g(ctx, ctx.k, m, L1, L2))
            assert listing_collisions(f) == [], (ctx.k, m, L1, L2)
            built += 1
    patched = 0
    for seed in range(24):
        L1, L2 = (random_affine_perm(f15, 2 * seed + i) for i in (0, 1))
        f = build_f(f15, 3, build_g(f15, 3, 1 + seed % 3, L1, L2))
        assert listing_collisions(f) == [], (seed, L1, L2)
        built += 1
        patched += len(patch(f)) >= 2
    assert built == 3 * 2 * 2 + 3 * 24 * 24 + 24
    assert patched >= 20  # rows can collide only where |D| >= 2


def subfield_ddt(t):
    """DDT[a, b] of a 2^k-entry table, row by row."""
    x = np.arange(len(t))
    return np.array([np.bincount(t[x ^ a] ^ t, minlength=len(t)) for a in x])


def subfield_tables(ctx, count, seed):
    """Maps of GF(2^k) into itself as 2^k-entry tables in subfield
    coordinates: every one at k = 1 and 2, count drawn from seed at k = 3."""
    q = 1 << ctx.k
    if ctx.k <= 2:
        return [np.array(values) for values in itertools.product(range(q), repeat=q)]
    rng = np.random.default_rng(seed)
    return [rng.integers(0, q, q) for _ in range(count)]


def test_lemma1_block_is_the_ddt_of_g(f5, f10, f15):
    # for a in GF(2^k)* and b in GF(2^k) no x outside GF(2^k) solves
    # f(x + a) + f(x) = b, so these cells of f's DDT hold g's counts, and
    # those of x^d the counts of x^3 (d = 3 mod 2^k - 1), in subfield
    # coordinates: every map of GF(2) and GF(4) into itself, 24 of GF(8)
    for ctx in (f5, f10, f15):
        sub, q = ctx.subfield_index, 1 << ctx.k
        p = power_function(ctx, dobbertin_exponent(ctx.k))
        cube = np.searchsorted(sub, [gf2n.pow(ctx, int(s), 3) for s in sub])
        ddt = subfield_ddt(cube)
        for a in range(1, q):
            assert ddt_row(p, sub[a])[sub].tolist() == ddt[a].tolist(), (ctx.k, a)
        tables = subfield_tables(ctx, 24, ctx.k)
        assert len(tables) == {1: 4, 2: 256, 3: 24}[ctx.k]
        for g in tables:
            f = LutFunction(ctx, sub[g])
            assert [t.tolist() for t in f.subfield_maps] == [g.tolist(), cube.tolist()]
            ddt = subfield_ddt(g)
            for a in range(1, q):
                assert ddt_row(f.table, sub[a])[sub].tolist() == ddt[a].tolist(), (ctx.k, g, a)


# Full n = 15 spectra, captured once from the row-by-row exhaustive scan.
N15_SPECTRA = {
    (2, "x^4"): ({0: 536952808, 2: 536657968, 4: 98280}, 4),
    (2, "x"): ({0: 536854528, 2: 536854528}, 2),  # f = x^4679
    (1, "x+1"): ({0: 536936449, 2: 536690700, 4: 81900, 6: 0, 8: 7}, 8),
}


def assert_spectrum_identities(ds, q):
    assert sum(ds.values()) == sum(i * w for i, w in ds.items()) == (q - 1) * q


@pytest.mark.parametrize("m, l1", sorted(N15_SPECTRA))
def test_structured_spectrum_pinned_n15(f15, m, l1):
    ds = differential_spectrum(instance(f15, m, l1))
    assert (ds, max(ds)) == N15_SPECTRA[m, l1]
    assert_spectrum_identities(ds, f15.order)


# n = 20 (m, L1): |D|, spectrum, delta and max |W_f|, captured once from
# earlier kernels, which listed every row in blocks and summed each Walsh
# orbit by modulo gathers, independently of the Walsh-row counts here
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


def test_structured_criteria_pinned_n20(f20):
    ctx = f20
    for (m, l1), (size, spectrum, delta, wmax, degree) in N20_CRITERIA.items():
        f = instance(ctx, m, l1)
        assert len(patch(f)) == size
        ds = differential_spectrum(f)
        assert (ds, max(ds)) == (spectrum, delta), (m, l1)
        assert_spectrum_identities(ds, ctx.order)
        assert walsh_max_abs(f) == wmax, (m, l1)
        assert algebraic_degree(f) == degree, (m, l1)


def test_lemma1_and_no_collision_rows_n20(f20):
    # the argument that generic rows are exact at k = 4: Lemma 1 holds on GF(2^20),
    # and the pinned instances, whose values lie in GF(16), list no row
    assert prover.lemma1_exhaustive(f20).status == "pass"
    for m, l1 in N20_CRITERIA:
        f = instance(f20, m, l1)
        assert f20.subfield_mask[f.values].all()
        assert listing_collisions(f) == [], (m, l1)


# ---------------------------------------------------------------------------
# Walsh spectrum and nonlinearity
# ---------------------------------------------------------------------------

def test_walsh_table_matches_naive_exhaustive_n5(f5):
    f = instance(f5, 1, "x+1")
    ws = walsh_table(f5, f.table)
    for v in range(1, 32):
        for u in range(32):
            assert ws[v - 1, u] == naive_walsh(f5, f.table, u, v)


def test_walsh_linear_function(f5):
    # the oracle on x, whose nonlinearity is 0: one component is constant
    assert walsh_max(f5, power_function(f5, 1)) == 32


def test_parseval_exhaustive_n5(f5):
    ws = walsh_table(f5, instance(f5, 1, "x+1").table)
    sums = (ws.astype(np.int64) ** 2).sum(axis=1)
    assert (sums == 1 << 10).all()


def test_parseval_sampled_n10(f10):
    ws = walsh_table(f10, power_function(f10, 339))
    rng = random.Random(2)
    rows = [rng.randrange(1023) for _ in range(64)]
    sums = (ws[rows].astype(np.int64) ** 2).sum(axis=1)
    assert (sums == 1 << 20).all()


def test_permutation_balancedness(f5, f10):
    fperm5 = instance(f5, 1, "x+1")
    assert is_permutation(fperm5)
    ws = walsh_table(f5, fperm5.table)
    assert (ws[:, 0] == 0).all()
    perm10 = power_function(f10, 5)  # gcd(5, 1023) = 1; not x^d, so the oracle
    assert is_bijective(perm10)
    ws10 = walsh_table(f10, perm10)
    rng = random.Random(3)
    for v in [rng.randrange(1, 1024) for _ in range(64)]:
        assert ws10[v - 1, 0] == 0


def test_walsh_max_matches_table_n10(f10):
    f = instance(f10, 2, "x+1")
    assert walsh_max_abs(f) == walsh_max(f10, f.table)


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
def test_structured_walsh_matches_table(k, m, seeds):
    ctx = fresh_field(k)
    L1, L2 = (random_affine_perm(ctx, seed) for seed in seeds)
    f = build_f(ctx, k, build_g(ctx, k, m, L1, L2))
    assert walsh_max_abs(f) == walsh_max(ctx, f.table)


def fwht_by_butterflies(a):
    """The radix-2 butterflies along the last axis, one stage per bit."""
    a = a.astype(np.int64)
    q, h = a.shape[-1], 1
    while h < q:
        view = a.reshape(a.shape[:-1] + (q // (2 * h), 2, h))
        top = view[..., 0, :].copy()
        view[..., 0, :] += view[..., 1, :]
        view[..., 1, :] = top - view[..., 1, :]
        h *= 2
    return a


def test_fwht_matches_butterflies():
    # the float64 blocks of 32, written back in place, against the integer
    # butterflies, at every length up to 2^20 and on stacks of rows
    rng = np.random.default_rng(3)
    for j in range(21):
        a = (1 - 2 * rng.integers(0, 2, (3 if j <= 15 else 1, 1 << j))).astype(np.int32)
        expected = fwht_by_butterflies(a)
        out = analyzer._fwht_lastaxis(a)
        assert out is a and out.dtype == np.int32 and np.array_equal(out, expected), j
    a = rng.integers(-1000, 1000, (2, 3, 1 << 10))
    expected = fwht_by_butterflies(a)
    assert np.array_equal(analyzer._fwht_lastaxis(a), expected)


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


def psi_by_parity_passes(ctx):
    """The n-pass construction: bit i of psi(u) is the parity of u & M_i,
    where bit j of M_i is Tr(x^(i+j))."""
    n = ctx.n
    powers = [1]
    for _ in range(2 * n - 2):
        t = powers[-1] << 1
        powers.append(t ^ ctx.modulus if t >> n else t)
    tr = ctx.trace_bits[powers].astype(np.int64)
    idx = np.arange(ctx.order, dtype=np.int64)
    psi = np.zeros(ctx.order, dtype=np.int64)
    for i in range(n):
        mask = int((tr[i : i + n] << np.arange(n)).sum())
        psi |= (np.bitwise_count(idx & mask) & 1).astype(np.int64) << i
    return psi


def test_psi_doubling_matches_parity_passes(f5, f10, f15):
    for ctx in (f5, f10, f15, gf2n.mk_field(4)):
        psi = _psi_table(ctx)
        assert psi.dtype == np.int64
        assert np.array_equal(psi, psi_by_parity_passes(ctx)), ctx.n


def test_log_rows_rotate_into_the_rows_of_every_multiple():
    # the kernel's rows, built by rotation in the log domain, are the
    # transform rows of x^d read in log order with u = 0 last; and for each
    # r in GF(2^k)* and j < g, W_P(u, gamma^j r) is row j' = (j + log r) mod
    # g rolled by log l, l^d = gamma^(j + log r - j'), l found by search
    for k in (1, 2):
        ctx = fresh_field(k)
        q1, e = ctx.order - 1, dobbertin_exponent(k)
        p, g = power_function(ctx, e), math.gcd(e, q1)
        rows = analyzer._walsh_rows(ctx)
        want = walsh_rows(ctx, p, ctx.exp[:g])
        assert rows.shape == (g, ctx.order)
        assert np.array_equal(rows[:, :-1], want[:, ctx.exp]) and np.array_equal(rows[:, -1], want[:, 0])
        powers = [gf2n.pow(ctx, x, e) for x in range(ctx.order)]
        for r in ctx.subfield_elems[1:]:
            lr = int(ctx.log[r])
            direct = walsh_rows(ctx, p, np.array([gf2n.mul(ctx, int(ctx.exp[j]), r) for j in range(g)]))
            for j in range(g):
                jr = (j + lr) % g
                lam = powers.index(int(ctx.exp[(j + lr - jr) % q1]))
                assert rows[jr, -1] == direct[j, 0], (k, r, j)
                assert np.array_equal(np.roll(rows[jr, :-1], int(ctx.log[lam])), direct[j, ctx.exp]), (k, r, j)


@pytest.mark.parametrize("e", [339, 33])
def test_power_walsh_scaling_identity(f10, e):
    # W_P(w c, gamma^j c^e) = W_P(w, gamma^j): g rows give the whole table
    g = np.gcd(e, 1023)
    p = power_function(f10, e)
    table = walsh_table(f10, p)
    rows = walsh_rows(f10, p, f10.exp[:g])
    assert np.array_equal(rows, table[f10.exp[:g] - 1])
    for c in (2, 77, 1000):
        wc = [gf2n.mul(f10, w, c) for w in range(1024)]
        for j in range(g):
            v = gf2n.mul(f10, int(f10.exp[j]), gf2n.pow(f10, c, e))
            assert np.array_equal(table[v - 1, wc], rows[j])


def class_of(ctx, y):
    """U(y) for an array of field elements: bit t is Tr(y sub[2^t]), by
    exp/log products."""
    q1, sub = ctx.order - 1, ctx.subfield_index
    out = np.zeros(len(y), dtype=np.int64)
    nz = y != 0
    for t in range(ctx.k):
        prod = ctx.exp[(ctx.log[y[nz]] + ctx.log[sub[1 << t]]) % q1]
        out[nz] |= ctx.trace_bits[prod].astype(np.int64) << t
    return out


def subfield_walsh(t):
    """W[beta, alpha] = sum_i (-1)^(<beta, t[i]> + <alpha, i>), term by term."""
    q = len(t)

    def sign(x):
        return -1 if int(x).bit_count() % 2 else 1

    return np.array([[sum(sign(beta & t[i]) * sign(alpha & i) for i in range(q))
                      for alpha in range(q)] for beta in range(q)])


def test_walsh_correction_is_read_off_gf2k(f5, f10):
    # W_f - W_P = Delta[V(v), U(u)] over the whole table, Delta = W_G - W_C:
    # every map of GF(2) into itself at n = 5; at n = 10 the subfield table
    # of every constructed (m, L1, L2), m <= 3, and 16 drawn maps of GF(4)
    for ctx in (f5, f10):
        sub, e = ctx.subfield_index, dobbertin_exponent(ctx.k)
        field = np.arange(ctx.order)
        u, v = class_of(ctx, field), class_of(ctx, field[1:])
        if ctx.k == 1:
            tables = {tuple(g.tolist()) for g in subfield_tables(ctx, 0, 0)}
        else:
            perms = every_affine_perm(ctx)
            tables = {tuple(build_f(ctx, 2, build_g(ctx, 2, m, L1, L2)).subfield_maps[0].tolist())
                      for m, L1, L2 in itertools.product((1, 2, 3), perms, perms)}
            rng = np.random.default_rng(5)
            tables |= {tuple(rng.integers(0, 4, 4).tolist()) for _ in range(16)}
        assert len(tables) >= {1: 4, 2: 40}[ctx.k]
        wc = subfield_walsh(dobbertin_power(ctx).subfield_maps[1])
        for g in sorted(tables):
            f = LutFunction(ctx, sub[list(g)])
            full = walsh_table(ctx, f.table)
            delta = subfield_walsh(g) - wc
            assert np.array_equal(full - power_walsh_table(ctx, e), delta[v[:, None], u]), (ctx.k, g)
            assert walsh_max_abs(f) == int(np.abs(full).max()), (ctx.k, g)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_walsh_cover_matches_every_candidate_orbit(k):
    # top and bottom come from the first orbits of a signed walk; the
    # oracle takes the extremes of W_P over every candidate orbit holding a
    # class, with each orbit's classes from exp/log products; a class that
    # no candidate holds is left out (its entry is -+2^(n + 1)); the
    # candidates are the orbits (w, gamma^j) with |W_P| >= max |W_P| - 4 * 2^k
    ctx = fresh_field(k)
    walsh_max_abs(instance(ctx, 1, "x+1"))
    top, bottom = ctx._memo["walsh_cover"]
    q1, e, cells = ctx.order - 1, dobbertin_exponent(k), 1 << 2 * k
    rows = analyzer._walsh_rows(ctx)  # W_P(gamma^i, gamma^j), and W_P(0, gamma^j) last
    kept = np.abs(rows) >= np.abs(rows).max() - (4 << k)
    orbits = [(j, int(ctx.exp[i]) if i < q1 else 0, int(rows[j, i])) for j, i in zip(*np.nonzero(kept))]
    want_top, want_bottom = np.full(cells, -(2 << ctx.n)), np.full(cells, 2 << ctx.n)
    i = np.arange(q1)
    for j, w, w_p in orbits:
        us = ctx.exp[(ctx.log[w] + i) % q1] if w else np.zeros(q1, dtype=np.int64)
        held = np.unique(class_of(ctx, us) + (class_of(ctx, ctx.exp[(j + e * i) % q1]) << k))
        want_top[held] = np.maximum(want_top[held], w_p)
        want_bottom[held] = np.minimum(want_bottom[held], w_p)
    assert top.tolist() == want_top.tolist()
    assert bottom.tolist() == want_bottom.tolist()
    assert len(orbits) == {1: 26, 2: 79, 3: 1}[k]  # so the walk's stop matters at k = 1, 2


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    k=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32),
)
def test_structured_walsh_arbitrary_subfield_values(k, seed):
    # x^d off GF(2^k) and any values of GF(2^k) on it
    ctx, e = fresh_field(k), dobbertin_exponent(k)
    rng = np.random.default_rng(seed)
    sub = ctx.subfield_index
    f = LutFunction(ctx, rng.choice(sub, len(sub)))
    full = walsh_table(ctx, f.table)
    assert walsh_max_abs(f) == int(np.abs(full).max())
    # the bound the kernel's choice of orbits rests on, |W_f - W_P| <= 2 |D|;
    # the maximum alone cannot check it, because on x^d the top orbits of
    # |W_P| held max |W_f| in every table tried (all 1024 at n = 5, 400
    # random at n = 10, 300 random at n = 15)
    size = len(patch(f))
    assert np.abs(full - power_walsh_table(ctx, e)).max() <= 2 * size


@functools.cache
def power_walsh_table(ctx, e):
    return walsh_table(ctx, power_function(ctx, e))


@pytest.mark.parametrize("k, e", SUBFIELD_EXPONENTS)
def test_structured_walsh_plain_powers(f5, f10, k, e):
    ctx = f5 if k == 1 else f10
    assert walsh_max_abs(dobbertin_power(ctx)) == walsh_max(ctx, power_function(ctx, e))


# tables refused where they enter, so that no criterion sees them: (field k, table kind, parameter)
REFUSED = [
    (1, "random-permutation", 0),
    (2, "random-permutation", 1),
    (2, "one-point-changed", "generator"),
    (2, "one-point-changed", "first"),
    (2, "one-point-changed", "last"),
    *[(k, kind, e) for k in (1, 2) for kind in ("power", "power-subfield-changed")
      for e in (1, 3, (1 << 5 * k) - 1)],
    # x^d with the generator, outside GF(2^k), at the first or last subfield point
    *[(k, "value-outside-subfield", at) for k in (1, 2) for at in ("first", "last")],
]


def subfield_point(ctx, at):
    return ctx.subfield_index[{"first": 0, "last": -1}[at]]


def refused_table(ctx, kind, arg):
    if kind == "random-permutation":
        return np.random.default_rng(arg).permutation(ctx.order)
    if kind == "one-point-changed":  # x^d with one point outside GF(2^k) changed
        outside = np.flatnonzero(~ctx.subfield_mask)
        x = {"generator": ctx.generator, "first": outside[0], "last": outside[-1]}[arg]
        table = power_function(ctx, dobbertin_exponent(ctx.k)).copy()
        table[x] ^= 1
        return table
    if kind == "value-outside-subfield":
        table = power_function(ctx, dobbertin_exponent(ctx.k)).copy()
        table[subfield_point(ctx, arg)] = ctx.generator
        return table
    table = power_function(ctx, arg).copy()  # x^e, e != d
    if kind == "power-subfield-changed":
        table[ctx.subfield_mask] ^= 1
    return table


def lut_file(path, table):
    """A lookup-table file holding the table as it stands, unchecked."""
    path.write_bytes(LUT_MAGIC + bytes([len(table).bit_length() - 1]) + table.astype("<u8").tobytes())
    return path


@pytest.mark.parametrize("k, kind, arg", REFUSED, ids=[f"k{k}-{kind}-{a}" for k, kind, a in REFUSED])
def test_admission_refuses_tables_off_the_construction(f5, f10, tmp_path, k, kind, arg):
    # a table enters by from_table alone, read_lut included, and no
    # LutFunction off the construction exists for a criterion to read
    ctx = f5 if k == 1 else f10
    table = refused_table(ctx, kind, arg)
    pattern = f"x\\^{dobbertin_exponent(k)}"
    if kind == "value-outside-subfield":  # the message names the point and the value
        pattern = f"value {ctx.generator} at {subfield_point(ctx, arg)} .*" + pattern
    elif kind == "one-point-changed":  # the message names the point
        pattern = f"{pattern} at {np.flatnonzero(table != power_function(ctx, dobbertin_exponent(k)))[0]},"
    path = lut_file(tmp_path / "refused.lut", table)
    for admit in (lambda: LutFunction.from_table(ctx, table), lambda: read_lut(path, ctx)):
        with pytest.raises(ValueError, match=pattern):
            admit()


# max |W_f| at n = 15, captured once from the exhaustive per-component scan
N15_WALSH = {(2, "x^4"): 584, (1, "x+1"): 580, (2, "x"): 576}


@pytest.mark.parametrize("m, l1", sorted(N15_WALSH))
def test_structured_walsh_pinned_n15(f15, m, l1):
    assert walsh_max_abs(instance(f15, m, l1)) == N15_WALSH[m, l1]


# max |W_f| on the acceptance instances (L2 = x), each also checked against the oracle
ACCEPTANCE_WALSH_KERNEL = {
    (1, 1, "x+1"): 12,
    (1, 1, "x"): 12,
    (2, 2, "x+1"): 84,
    (2, 2, "x+b"): 88,
    (2, 2, "b*x+b"): 84,
    (2, 2, "b^2*x^2+b"): 82,
    (2, 2, "b^2*x^2"): 86,
    (2, 1, "x+b"): 86,
    (2, 1, "b*x^2+b"): 86,
}


def test_structured_walsh_pinned_acceptance_instances(f5, f10):
    for (k, m, l1), want in ACCEPTANCE_WALSH_KERNEL.items():
        f = instance(f5 if k == 1 else f10, m, l1)
        assert walsh_max_abs(f) == want == walsh_max(f.ctx, f.table), (k, m, l1)


# ---------------------------------------------------------------------------
# algebraic degree
# ---------------------------------------------------------------------------

def test_degree_power_functions(f5, f10):
    assert algebraic_degree(dobbertin_power(f5)) == 4  # 2-weight of 29
    assert algebraic_degree(dobbertin_power(f10)) == 5
    assert anf_degree(power_function(f5, 3)) == 2
    assert anf_degree(np.zeros(32, dtype=np.int64)) == 0


def test_degree_matches_lagrange_oracle_n5(f5):
    rng = random.Random(4)
    built = [dobbertin_power(f5), instance(f5, 1, "x+1")]
    for f in built:
        assert algebraic_degree(f) == naive_degree_univariate(f5, f.table)
    # a stack of tables, as the prover scores its candidate maps
    tables = [f.table for f in built] + [np.array([rng.randrange(32) for _ in range(32)])]
    stacked = anf_degree(np.stack(tables * 2).reshape(2, 3, 32))
    assert stacked.tolist() == [[naive_degree_univariate(f5, t) for t in tables]] * 2


def test_degree_of_permutation_at_most_n_minus_1(f5):
    for l1 in ("x", "x+1"):
        f = instance(f5, 1, l1)
        if is_permutation(f):
            assert algebraic_degree(f) <= 4


def test_degree_of_power_map_is_binary_weight():
    # the memo keeps every exponent's table, so 1023 of them go on a context
    # that dies with the test, not on the shared one
    ctx = fresh_field(2)
    for e in range(1, ctx.order):
        assert anf_degree(power_function(ctx, e)) == e.bit_count(), e


@pytest.mark.parametrize("k", [1, 2])
def test_structured_degree_matches_moebius(k):
    # x^d with a random D of every size, values from GF(2^k)
    for seed in range(64):
        for size in range((1 << k) + 1):
            ctx = fresh_field(k)
            f, _ = power_off_subfield(ctx, seed << 4 | size << 1, size)
            assert algebraic_degree(f) == anf_degree(f.table), (seed, size)


def test_degree_tie_takes_whole_table(monkeypatch):
    # k = 1: the nonzero constant H = 1 on GF(2) gives (n - k) + deg H = 4 =
    # wt(29), the only tie, since wt(d) = k + 3 and n - k = 4k; a fresh
    # context per table, so that no orbit entry answers
    moebius, lengths = anf_degree, []
    monkeypatch.setattr(analyzer, "anf_degree", lambda t: lengths.append(t.shape[-1]) or moebius(t))
    f = LutFunction(fresh_field(1), np.array([1, 0]))  # x^29 on GF(2) plus 1
    assert algebraic_degree(f) == moebius(f.table)
    assert lengths.count(32) == 1
    # H non-constant: 4 + 1 > wt(29) decides without the whole table
    f = LutFunction(fresh_field(1), np.array([0, 0]))
    assert algebraic_degree(f) == 5 == moebius(f.table)
    assert lengths.count(32) == 1


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
    """Spectrum, Walsh maximum and degree survive x -> f(c x + e).

    f(c x + e) is not x^d off GF(4), so the oracles measure it.
    """
    f = instance(f10, 2, "x+b")
    c, e = 77, 513
    composed = np.array([int(f.table[gf2n.mul(f10, c, x) ^ e]) for x in range(1024)])
    assert ddt_row_spectrum(composed) == differential_spectrum(f)
    assert walsh_max(f10, composed) == walsh_max_abs(f)
    assert anf_degree(composed) == algebraic_degree(f)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def test_analyze_report(f5):
    f = instance(f5, 1, "x+1")
    rep = analyze(f, k=1, construction="k=1 x+1")
    assert rep.delta == 4
    assert rep.is_permutation
    assert rep.nl == 16 - walsh_max(f5, f.table) // 2
    assert rep.lb == 6
    assert list(rep.runtime_ms) == ["spectrum", "walsh", "degree", "permutation"]
    payload = json.loads(rep.to_json())
    assert list(payload) == [
        "n", "k", "construction", "spectrum", "delta", "nl",
        "degree", "permutation", "lb", "runtime_ms",
    ]
    assert payload["runtime_ms"] is None
    assert list(payload["spectrum"]) == sorted(payload["spectrum"], key=int)
    assert rep.to_json() == analyze(f, k=1, construction="k=1 x+1").to_json()


def test_analyze_takes_k_from_the_field(f10):
    f = instance(f10, 2, "x+1")
    rep = analyze(f)
    assert (rep.k, rep.lb) == (2, nl_lower_bound(2)) == (2, 380)
    assert rep.to_json() == analyze(f, k=2).to_json()
    with pytest.raises(ValueError, match="field context"):
        analyze(f, k=3)


def test_analyze_refuses_walsh_off(f5):
    # every report carries the nonlinearity; walsh is kept as a keyword
    # only because the benchmark workloads pass walsh=True
    f = dobbertin_power(f5)
    with pytest.raises(ValueError, match="walsh=False"):
        analyze(f, walsh=False)
    assert analyze(f, walsh=True).to_json() == analyze(f).to_json()


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
    # reverse, with the table of x^7 built in between, so that the memo holds
    # a foreign power map next to x^d
    cold = {inst: _report(fresh_field(2), inst) for inst in SWEEP_INSTANCES}
    ctx = fresh_field(2)
    for order in (SWEEP_INSTANCES, SWEEP_INSTANCES[::-1]):
        warm = {}
        for inst in order:
            warm[inst] = _report(ctx, inst)
            gf2n.vec_pow_all(ctx, 7)
        assert warm == cold
    # one context through all of them keeps one power map, the Im Delta
    # mask, the three Walsh rows, the 4 x 4 count table and three small
    # entries per orbit met: under five int64 tables of the field in all
    ctx = fresh_field(2)
    assert {inst: _report(ctx, inst) for inst in SWEEP_INSTANCES} == cold
    # a view keeps its whole base alive, so count the base
    assert sum((a if a.base is None else a.base).nbytes for a in _memo_arrays(ctx)) <= 5 * 8 * ctx.order


def _memo_arrays(ctx):
    return [a for v in ctx._memo.values() for a in (v if isinstance(v, tuple) else (v,))]


def test_memo_arrays_are_read_only():
    ctx = fresh_field(2)
    f = instance(ctx, 2, "x+b")
    analyze(f, k=2)
    # x^d, the Im Delta mask, the Walsh rows, the count table, x^d on GF(4)
    # with its omega, the class extremes, the orbit maps and the three
    # criteria of f's orbit
    arrays = _memo_arrays(ctx)
    assert len(arrays) >= 14
    assert {"im_delta", "walsh_rows", "counts", "walsh_cover"} <= set(ctx._memo)
    assert any(a is gf2n.vec_pow_all(ctx, dobbertin_exponent(2)) for a in arrays)
    per_orbit = [key[0] for key in ctx._memo
                 if isinstance(key, tuple) and key[0] in ("spectrum", "walsh", "degree")]
    assert sorted(per_orbit) == ["degree", "spectrum", "walsh"]
    assert "orbit_maps" in ctx._memo
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_memo_lives_and_dies_with_its_context():
    ctx = fresh_field(1)
    f = instance(ctx, 1, "x+1")
    analyze(f, k=1)
    assert ctx._memo
    ref = weakref.ref(ctx)
    del ctx, f
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# one analysis per orbit of the scaling and Frobenius maps
# ---------------------------------------------------------------------------

def orbit_images(f, points):
    """A f B on the given points, for B(x) = c sigma^i(x) and A(y) =
    sigma^(-i)(c^(-d) y), every c in GF(2^k)* and i < n, sigma(x) = x^2;
    each image is f's table with those points replaced, by scalar operations."""
    ctx = f.ctx
    q1, e = ctx.order - 1, dobbertin_exponent(ctx.k)
    images = []
    for c in ctx.subfield_elems[1:]:
        c_e = gf2n.pow(ctx, c, q1 - e)
        for i in range(ctx.n):
            table = f.table.copy()
            for x in points:
                y = int(f.table[gf2n.mul(ctx, c, gf2n.frobenius(ctx, x, i))])
                table[x] = gf2n.frobenius(ctx, gf2n.mul(ctx, c_e, y), (ctx.n - i) % ctx.n)
            images.append(LutFunction.from_table(ctx, table))
    return images


def cold_report(f):
    """f's criteria from the kernels themselves, never from an orbit entry."""
    return tuple(analyzer._spectrum(f).tolist()), analyzer._walsh(f), analyzer._degree(f)


def test_orbit_maps_keep_x_d_off_the_subfield(f10):
    # A (x^d) B = x^d on the whole field, so A f B is admitted again
    p = dobbertin_power(f10)
    for image in orbit_images(p, range(f10.order))[::7]:
        assert np.array_equal(image.table, p.table)


@pytest.mark.parametrize("k, orbits", [(1, 4), (2, 56)])
def test_every_subfield_table_reads_its_cold_report(k, orbits):
    # every table with values in GF(2^k): through one context, forward and
    # backward, each report equals the report of a fresh context
    maps = [np.array(values) for values in itertools.product(fresh_field(k).subfield_elems, repeat=1 << k)]
    cold = [analyze(LutFunction(fresh_field(k), g)).to_json() for g in maps]
    for step in (1, -1):
        ctx = fresh_field(k)
        warm = [analyze(LutFunction(ctx, g)).to_json() for g in maps[::step]]
        assert warm[::step] == cold
        # one spectrum per orbit: a key that merged two orbits or missed a
        # symmetry would count fewer or more
        assert sum(key[0] == "spectrum" for key in ctx._memo if isinstance(key, tuple)) == orbits


@pytest.mark.parametrize("k, seed", [(2, 0), (2, 1), (2, 2), (3, 3)])
def test_orbit_images_share_key_and_report(k, seed):
    # all n (2^k - 1) images, i < n, share the key, which reads i < k alone
    # and is the least image itself, and the criteria computed afresh on each
    ctx = fresh_field(k)
    f, _ = power_off_subfield(ctx, seed, 1 << k)
    sub = list(ctx.subfield_elems)
    images = orbit_images(f, sub)
    assert len(images) == ctx.n * ((1 << k) - 1)
    least = min(image.values.tolist() for image in images)
    assert {image.orbit_key for image in images} == {
        np.array(least, dtype=np.int64).tobytes()
    }
    assert len({cold_report(image) for image in images}) == 1
    assert len({analyze(image).to_json() for image in images}) == 1


def spy_on_key(monkeypatch):
    """Record each orbit key taken (on return from orbit_key)."""
    calls = []
    func = vars(LutFunction)["orbit_key"].func

    def spy(f):
        value = func(f)
        calls.append("orbit_key")
        return value

    prop = functools.cached_property(spy)
    prop.__set_name__(LutFunction, "orbit_key")
    monkeypatch.setattr(LutFunction, "orbit_key", prop)
    return calls


def test_one_instance_is_compared_and_keyed_once(monkeypatch):
    # theorem 1 reads the spectrum, proposition 2 the nonlinearity and
    # analyze all three criteria: f is keyed once, by the first criterion
    calls = spy_on_key(monkeypatch)
    f = instance(fresh_field(2), 2, "x+b")
    prover.theorem1_check(f, "k2 m2 x+b")
    prover.prop2_bound_check(f, "k2 m2 x+b")
    analyze(f)
    analyze(f)
    assert calls == ["orbit_key"]


def test_refused_table_raises_on_every_call_and_is_never_keyed(f10, tmp_path, monkeypatch):
    # admission keeps nothing between calls: each one compares again and
    # refuses, and no function is made, so none is keyed
    calls = spy_on_key(monkeypatch)
    table = refused_table(f10, "one-point-changed", "generator")
    path = lut_file(tmp_path / "refused.lut", table)
    for admit in (lambda: LutFunction.from_table(f10, table), lambda: read_lut(path, f10)) * 2:
        with pytest.raises(ValueError, match=f"x\\^{dobbertin_exponent(2)} at {f10.generator}, outside GF"):
            admit()
    assert calls == []


def test_another_exponents_table_evicts_nothing(monkeypatch):
    # the memo is one flat dict: x^7 next to x^d adds its table and drops no
    # entry, so an orbit met before is still read, with no kernel run
    ctx = fresh_field(2)
    report = analyze(instance(ctx, 2, "x+b")).to_json()
    keys = set(ctx._memo)
    gf2n.vec_pow_all(ctx, 7)
    assert set(ctx._memo) == keys | {("pow", 7)} and len(ctx._memo) == len(keys) + 1
    ran = []
    for name in ("_spectrum", "_walsh", "_degree"):
        fn = getattr(analyzer, name)
        monkeypatch.setattr(analyzer, name, lambda f, fn=fn, name=name: ran.append(name) or fn(f))
    assert analyze(instance(ctx, 2, "b^2*x^2")).to_json() != report
    assert analyze(instance(ctx, 2, "x+b")).to_json() == report
    assert ran == ["_spectrum", "_walsh", "_degree"]
