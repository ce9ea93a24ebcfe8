import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    affine_eval,
    closed_form_eval,
    dobbertin_power,
    every_affine_perm,
    fresh_field,
    power_function,
    random_affine_form,
    random_affine_perm,
)
from duperm import construct, gf2n
from duperm.analyzer import algebraic_degree, analyze, differential_spectrum, is_permutation
from duperm.construct import (
    LutFunction,
    affine_map,
    build_f,
    build_g,
    dobbertin_exponent,
    instance,
    parse_affine_expr,
    read_lut,
    write_lut,
)


def ref_pow(ctx, a, e):
    r = 1
    a0 = a
    while e:
        if e & 1:
            r = gf2n.mul(ctx, r, a0)
        a0 = gf2n.mul(ctx, a0, a0)
        e >>= 1
    return r


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def test_dobbertin_exponent_values():
    assert dobbertin_exponent(1) == 29
    assert dobbertin_exponent(2) == 339
    assert dobbertin_exponent(3) == 4679


def test_dobbertin_diagnostics():
    # d mod (2^k - 1) and gcd(d, 2^(5k) - 1)
    d3 = dobbertin_exponent(3)
    assert d3 % 7 == 3
    assert math.gcd(d3, (1 << 15) - 1) == math.gcd(4679, (1 << 15) - 1) == 1
    d2 = dobbertin_exponent(2)
    assert d2 % 3 == 3 % 3 == 0
    d1 = dobbertin_exponent(1)
    assert math.gcd(d1, 31) == 1


# ---------------------------------------------------------------------------
# power functions
# ---------------------------------------------------------------------------

def test_power_function_identity(f5):
    assert np.array_equal(power_function(f5, 1), np.arange(32))


def test_power_function_zero_exponent(f5):
    assert set(power_function(f5, 0).tolist()) == {1}  # 0^0 = 1 when d = 0


def test_power_function_matches_square_multiply(f5):
    table = power_function(f5, 29)
    for a in range(32):
        assert int(table[a]) == ref_pow(f5, a, 29)
    assert table[0] == 0


# ---------------------------------------------------------------------------
# affine permutations
# ---------------------------------------------------------------------------

def test_affine_xor_constant_permutes(f10):
    L = affine_map(f10, (1, 0), 1)
    sub = f10.subfield_elems
    assert {affine_eval(f10, (1, 0), 1, a) for a in sub} == set(sub)
    for a in sub:
        assert affine_eval(f10, (1, 0), 1, a) == a ^ 1
    assert L.tolist() == [a ^ 1 for a in sub]


def test_affine_frobenius_scaling_permutes(f10):
    b2 = gf2n.mul(f10, f10.subfield_generator, f10.subfield_generator)
    L = affine_map(f10, (0, b2), 0)  # b^2 * x^2
    sub = f10.subfield_elems
    assert {affine_eval(f10, (0, b2), 0, a) for a in sub} == set(sub)
    assert set(L.tolist()) == set(sub)


def test_affine_image_matches_scalar_evaluation(f5, f10, f15):
    # affine_map, by exp/log tables, against the scalar oracle
    for ctx in (f5, f10, f15):
        for seed in range(8):
            coeffs, constant = random_affine_form(ctx, seed)
            want = [affine_eval(ctx, coeffs, constant, a) for a in ctx.subfield_elems]
            assert random_affine_perm(ctx, seed).tolist() == want


def test_affine_rejects_non_bijections(f10):
    with pytest.raises(ValueError):
        affine_map(f10, (0, 0), 0)  # constant map
    with pytest.raises(ValueError):
        affine_map(f10, (2, 0), 0)  # coefficient outside the subfield


def test_affine_coefficient_count_is_the_field_k(f10):
    with pytest.raises(ValueError, match="exactly 2 linear coefficients"):
        affine_map(f10, (0, 0, 1), 0)  # x^4, a k = 3 map, on GF(4)


def test_affine_eval_outside_subfield(f10):
    with pytest.raises(ValueError):
        affine_eval(f10, (1, 0), 0, 2)


@pytest.mark.parametrize("value", [5000, 1024, -1, -1023])
def test_values_outside_the_field_are_refused(f10, value):
    # a negative value would index subfield_mask from the end (-1023 reads
    # slot 1, which is in GF(4)), a large one past it
    with pytest.raises(ValueError, match=f"coefficient {value} lies outside"):
        affine_map(f10, (1, 0), value)
    with pytest.raises(ValueError, match=f"coefficient {value} lies outside"):
        affine_map(f10, (value, 0), 0)
    with pytest.raises(ValueError, match=f"^{value} is not a subfield element"):
        affine_eval(f10, (1, 0), 0, value)


def test_parse_affine_expr(f10):
    beta = f10.subfield_generator
    b2 = gf2n.mul(f10, beta, beta)
    # a sum c_i x^(2^i) + e with i < k is fixed by its values on GF(2^k)
    L = parse_affine_expr(f10, "b^2*x^2 + b")
    assert L.tolist() == affine_map(f10, (0, b2), beta).tolist()
    assert parse_affine_expr(f10, "x+1").tolist() == affine_map(f10, (1, 0), 1).tolist()
    assert parse_affine_expr(f10, "b*x").tolist() == affine_map(f10, (beta, 0), 0).tolist()
    # each refusal names the expression, whichever term is bad
    for bad in ("x^3", "x^4", "q+1", "", "x+", "b^", "x^y", "b^-1*x", "x^-2"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            parse_affine_expr(f10, bad)


# the characters of the affine-expression grammar, plus space and minus
AFFINE_ALPHABET = "xb^+*0123456789 -"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.text(alphabet=AFFINE_ALPHABET, max_size=16))
def test_parse_affine_expr_fuzz(f10, text):
    # any text parses to an affine permutation, read-only int64 values that
    # are the 2^k distinct subfield elements, or is refused by ValueError
    try:
        L = parse_affine_expr(f10, text)
    except ValueError:
        return
    assert isinstance(L, np.ndarray) and L.dtype == np.int64 and not L.flags.writeable
    assert sorted(L.tolist()) == list(f10.subfield_elems)


def test_table_l1_matches_canonical_beta(f10):
    # "x + b" row: constant is the canonical subfield generator
    L = parse_affine_expr(f10, "x+b")
    assert L.tolist() == affine_map(f10, (1, 0), f10.subfield_generator).tolist()


# ---------------------------------------------------------------------------
# g and f builders
# ---------------------------------------------------------------------------

def test_build_g_m1_is_affine_composition(f10):
    L1 = parse_affine_expr(f10, "b*x+b")
    L2 = parse_affine_expr(f10, "x+1")
    g = build_g(f10, 2, 1, L1, L2)  # g's values on the sorted subfield
    beta = f10.subfield_generator
    want = [affine_eval(f10, (beta, 0), beta, affine_eval(f10, (1, 0), 1, a)) for a in f10.subfield_elems]
    assert g.tolist() == want


def test_build_g_direct_composition(f10):
    L1 = parse_affine_expr(f10, "x+1")
    L2 = parse_affine_expr(f10, "x")
    g = build_g(f10, 2, 2, L1, L2)  # gcd(2, 2) != 1
    assert g.tolist() == [gf2n.pow(f10, a, 3) ^ 1 for a in f10.subfield_elems]


@pytest.mark.parametrize("m", [60, 64, 100])
def test_build_g_large_m_matches_scalar_powers(f10, m):
    # log y (2^m - 1) would wrap in int64 for large m unless reduced first
    L1 = parse_affine_expr(f10, "b*x+1")
    L2 = parse_affine_expr(f10, "x^2+b")
    g = build_g(f10, 2, m, L1, L2)
    beta = f10.subfield_generator
    inner = [gf2n.pow(f10, affine_eval(f10, (0, 1), beta, a), (1 << m) - 1) for a in f10.subfield_elems]
    want = [affine_eval(f10, (beta, 0), 1, y) for y in inner]
    assert g.tolist() == want


def test_build_g_inner_map_apn_on_subfield(f15):
    ident = parse_affine_expr(f15, "x")
    sub = f15.subfield_elems
    g = dict(zip(sub, build_g(f15, 3, 2, ident, ident).tolist()))
    best = 0
    for a in sub:
        if a == 0:
            continue
        for b in sub:
            count = sum(1 for c in sub if g[c ^ a] ^ g[c] == b)
            best = max(best, count)
    assert best == 2  # x^3 is APN on GF(2^3)


def test_build_g_permutation_iff_gcd(f10, f15):
    for ctx, k in ((f10, 2), (f15, 3)):
        ident = parse_affine_expr(ctx, "x")
        sub = ctx.subfield_elems
        for m in range(1, k + 1):
            g = build_g(ctx, k, m, ident, ident)
            bijective = len(set(g.tolist())) == len(sub)
            assert bijective == (math.gcd(m, k) == 1)


def test_build_f_restriction_and_outside(f10):
    L1 = parse_affine_expr(f10, "x+b")
    g = build_g(f10, 2, 2, L1, parse_affine_expr(f10, "x"))
    f = build_f(f10, 2, g)
    assert f.values.tolist() == g.tolist()
    d, on_subfield = dobbertin_exponent(2), dict(zip(f10.subfield_elems, g.tolist()))
    for a in range(f10.order):
        if f10.subfield_mask[a]:
            assert int(f.table[a]) == on_subfield[a]
        else:
            assert int(f.table[a]) == gf2n.pow(f10, a, d)


def test_build_f_closed_form_agrees_exhaustively(f5, f10, f15):
    for ctx, m, l1 in ((f5, 1, "x+1"), (f10, 2, "x+b"), (f15, 2, "x^4")):
        g = build_g(ctx, ctx.k, m, parse_affine_expr(ctx, l1), parse_affine_expr(ctx, "x"))
        f = build_f(ctx, ctx.k, g)
        assert f.table.tolist() == [closed_form_eval(ctx, g, x) for x in range(ctx.order)]


def test_build_f_refuses_g_with_values_outside_the_subfield(f10):
    # g with the values [0, 1, 5, 700] on the sorted subfield [0, 1, 236,
    # 237] of GF(2^10): f would take values outside GF(4) there, which no
    # LutFunction holds, so build_f refuses g
    sub = f10.subfield_index
    with pytest.raises(ValueError, match=rf"value 5 at {sub[2]} lies outside GF\(2\^2\).*x\^339"):
        build_f(f10, 2, np.array([0, 1, 5, 700]))


def test_build_f_identity_g_gives_power_map(f5):
    ident = parse_affine_expr(f5, "x")
    g = build_g(f5, 1, 1, ident, ident)
    f = build_f(f5, 1, g)
    assert np.array_equal(f.table, power_function(f5, 29))


@pytest.mark.parametrize("k,m", [(1, 1), (3, 2)])
def test_build_f_is_permutation_for_odd_k(k, m):
    ctx = gf2n.mk_field(k)
    ident = parse_affine_expr(ctx, "x")
    g = build_g(ctx, k, m, ident, ident)
    f = build_f(ctx, k, g)
    seen = np.zeros(ctx.order, dtype=bool)
    seen[f.table] = True
    assert seen.all()


def test_lut_function_rejects_tables_outside_the_field(f5):
    # an entry outside the field differs from x^d off GF(2^k) and lies
    # outside GF(2^k) on it; a -1 entry would index the last slot of a
    # numpy scan, and 2^63 and 2^64 - 1 wrap to negative int64 values
    for table in (np.arange(32) - 1, np.arange(32) + 1, np.full(32, 2**63, dtype=np.uint64)):
        with pytest.raises(ValueError, match=r"differs from x\^29 at 2, outside GF\(2\^1\)"):
            LutFunction.from_table(f5, table)
    for value, wrapped in ((-1, -1), (32, 32), (2**64 - 1, -1), (2**63, -(2**63))):
        table = power_function(f5, 29).astype(np.uint64 if value >= 2**63 else np.int64)
        table[1] = value
        with pytest.raises(ValueError, match=rf"the value {wrapped} at 1 lies outside GF\(2\^1\)"):
            LutFunction.from_table(f5, table)
    with pytest.raises(ValueError, match="integers"):
        LutFunction.from_table(f5, np.arange(32, dtype=float))


def test_lut_function_admits_only_subfield_values(f10):
    # the 2^k values are the check LutFunction runs on every f
    sub = f10.subfield_index
    with pytest.raises(ValueError, match=r"values length must be 2\^2, not 3"):
        LutFunction(f10, sub[:3])
    with pytest.raises(ValueError, match="values must hold integers, not float64"):
        LutFunction(f10, sub.astype(float))
    for i, value in ((0, 2), (1, 5), (2, -1), (3, 1024)):
        values = sub.copy()
        values[i] = value
        with pytest.raises(ValueError, match=rf"the value {value} at {sub[i]} lies outside GF\(2\^2\).*x\^339"):
            LutFunction(f10, values)
    assert LutFunction(f10, sub).patch.tolist() == [2, 3]  # x^339 = x^3 swaps 236 and 237


@pytest.mark.parametrize("dtype", [np.uint64, np.int32, np.uint16])
def test_lut_function_stores_int64(dtype):
    # the kernels index and XOR in int64: a uint64 table made the spectrum
    # index the log table with floats and the degree XOR uint64 with int64;
    # fresh contexts, so that the kernels run on the converted arrays
    built = construct.instance(fresh_field(2), 2, "b^2*x^2+b", "b*x+1")
    for f in (LutFunction.from_table(fresh_field(2), built.table.astype(dtype)),
              LutFunction(fresh_field(2), built.values.astype(dtype))):
        for a in (f.table, f.values):
            assert a.dtype == np.int64 and not a.flags.writeable
        assert analyze(f).to_json() == analyze(built).to_json()


def test_lut_function_rejects_tables_not_one_dimensional(f5):
    # a (32, 2) table has 32 rows and passed the length check
    for admit, size in ((LutFunction.from_table, 32), (LutFunction, 2)):
        for shape in ((size, 2), (2, size), (1, size), ()):
            with pytest.raises(ValueError, match="one-dimensional"):
                admit(f5, np.zeros(shape, dtype=np.int64))


def test_lut_function_tables_are_read_only(tmp_path, f10):
    table = power_function(f10, 339).copy()
    path = tmp_path / "f.lut"
    built = construct.instance(f10, 2, "x+b")
    write_lut(built, path)
    for f in (built, read_lut(path, f10), LutFunction.from_table(f10, table)):
        for a in (f.table, f.values):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
    assert not table.flags.writeable  # the array handed in, not a copy
    assert not built.patch.flags.writeable  # shared by every criterion that reads it


def test_lut_function_copies_a_view(f5):
    # a view's base stays writeable: a write through it must not reach
    # f.table or f.values
    base = power_function(f5, 29).copy()
    f = LutFunction.from_table(f5, base[:])
    assert f.patch.tolist() == []
    base[1] ^= 1
    base[3] ^= 1
    assert int(f.table[3]) == gf2n.pow(f5, 3, 29)
    assert f.values.tolist() == [0, 1]
    assert base.flags.writeable  # the base is not made read-only either


def test_lut_function_refuses_what_is_not_an_array(f5):
    with pytest.raises(ValueError, match="table must be a numpy array, not list"):
        LutFunction.from_table(f5, [0] * 32)
    with pytest.raises(ValueError, match="values must be a numpy array, not list"):
        LutFunction(f5, [0, 1])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_from_table_round_trip(k):
    # f read back from its own table is f: every (m, L1, L2), m <= 3, at
    # k = 1 and 2, a seeded sample at k = 3; each side on its own context,
    # so that the kernels run for both
    built_ctx, read_ctx = fresh_field(k), fresh_field(k)
    perms = every_affine_perm(built_ctx) if k <= 2 else [random_affine_perm(built_ctx, s) for s in range(6)]
    cases = list(itertools.product((1, 2, 3), perms, perms))
    assert len(cases) == {1: 12, 2: 1728, 3: 108}[k]
    for m, L1, L2 in cases:
        f = build_f(built_ctx, k, build_g(built_ctx, k, m, L1, L2))
        back = LutFunction.from_table(read_ctx, f.table)
        assert back.values.tolist() == f.values.tolist()
        assert back.patch.tolist() == f.patch.tolist()
        assert back.orbit_key == f.orbit_key
        assert analyze(back).to_json() == analyze(f).to_json(), (m, L1, L2)


# sha256 of the 2^n table, as `duperm construct` prints it
LAZY_TABLE_DIGESTS = {
    (3, 2, "x^4"): "50480e3b7c6c0c1f544091173ab36ee6d63efbc98ecd16732c866f0a151da56c",
    (4, 3, "x+1"): "992db9d9443924b075cb1caab3279d4e43586061756b8fdae7baef35eadec00d",
}


@pytest.mark.parametrize("k, m, l1", sorted(LAZY_TABLE_DIGESTS))
def test_built_function_holds_no_table(tmp_path, k, m, l1):
    # building, keying, degree and permutation status read the 2^k values
    # alone, so the context builds no 2^n table of x^d for them; at n = 15
    # the spectrum reads no table of f either; f's table is built for write_lut
    ctx = fresh_field(k)
    f = instance(ctx, m, l1)
    f.orbit_key, algebraic_degree(f), is_permutation(f)
    assert ("pow", dobbertin_exponent(k)) not in ctx._memo
    if k == 3:
        differential_spectrum(f)
    assert "table" not in f.__dict__
    path = tmp_path / "f.lut"
    write_lut(f, path)
    for table in (f.table, read_lut(path, ctx).table):
        assert hashlib.sha256(table.astype("<u8").tobytes()).hexdigest() == LAZY_TABLE_DIGESTS[k, m, l1]


# ---------------------------------------------------------------------------
# binary table format
# ---------------------------------------------------------------------------

def test_lut_roundtrip(tmp_path, f10):
    f = instance(f10, 2, "x+b")
    path = tmp_path / "f.lut"
    write_lut(f, path)
    back = read_lut(path, f10)
    assert np.array_equal(back.table, f.table)
    raw = path.read_bytes()
    assert raw[:8] == construct.LUT_MAGIC
    assert raw[8] == 10
    assert len(raw) == 9 + 1024 * 8


def test_lut_errors(tmp_path, f5, f10):
    path = tmp_path / "bad.lut"
    path.write_bytes(b"NOTMAGIC" + bytes([5]) + b"\x00" * 256)
    with pytest.raises(ValueError):
        read_lut(path, f5)
    good = tmp_path / "good.lut"
    write_lut(dobbertin_power(f10), good)
    with pytest.raises(ValueError):
        read_lut(good, f5)  # wrong field degree
    truncated = tmp_path / "short.lut"
    truncated.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_lut(truncated, f10)
    truncated.write_bytes(construct.LUT_MAGIC)  # ends before the degree byte
    with pytest.raises(ValueError, match="truncated"):
        read_lut(truncated, f10)


def test_lut_oversized_file(tmp_path, f10):
    path = tmp_path / "long.lut"
    write_lut(dobbertin_power(f10), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="oversized"):
        read_lut(path, f10)


def test_lut_entry_beyond_int64(tmp_path, f5):
    # 2^64 - 1 would wrap to -1 in a signed table and pass an upper-bound
    # check; off GF(2) it differs from x^29, on it it lies outside GF(2)
    path = tmp_path / "wide.lut"
    for x, message in ((3, r"differs from x\^29 at 3,"), (1, r"the value -1 at 1 lies outside")):
        table = power_function(f5, 29).astype("<u8")
        table[x] = 2**64 - 1
        path.write_bytes(construct.LUT_MAGIC + bytes([5]) + table.tobytes())
        with pytest.raises(ValueError, match=message):
            read_lut(path, f5)
