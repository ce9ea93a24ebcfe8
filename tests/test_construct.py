import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duperm import construct, gf2n
from duperm.construct import (
    AffinePerm,
    LutFunction,
    affine_eval,
    build_f,
    build_g,
    closed_form_eval,
    dobbertin_exponent,
    parse_affine_expr,
    power_function,
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
    f = power_function(f5, 1)
    assert np.array_equal(f.table, np.arange(32))


def test_power_function_zero_exponent(f5):
    f = power_function(f5, 0)
    assert set(f.table.tolist()) == {1}  # 0^0 = 1 when d = 0


def test_power_function_matches_square_multiply(f5):
    f = power_function(f5, 29)
    for a in range(32):
        assert int(f.table[a]) == ref_pow(f5, a, 29)
    assert f.table[0] == 0


# ---------------------------------------------------------------------------
# affine permutations
# ---------------------------------------------------------------------------

def test_affine_xor_constant_permutes(f10):
    L = AffinePerm(f10, (1, 0), 1)
    sub = f10.subfield_elems
    assert {affine_eval(L, a) for a in sub} == set(sub)
    for a in sub:
        assert affine_eval(L, a) == a ^ 1


def test_affine_frobenius_scaling_permutes(f10):
    b2 = gf2n.mul(f10, f10.subfield_generator, f10.subfield_generator)
    L = AffinePerm(f10, (0, b2), 0)  # b^2 * x^2
    sub = f10.subfield_elems
    assert {affine_eval(L, a) for a in sub} == set(sub)


def test_affine_rejects_non_bijections(f10):
    with pytest.raises(ValueError):
        AffinePerm(f10, (0, 0), 0)  # constant map
    with pytest.raises(ValueError):
        AffinePerm(f10, (2, 0), 0)  # coefficient outside the subfield


def test_affine_coefficient_count_is_the_field_k(f10):
    with pytest.raises(ValueError, match="exactly 2 linear coefficients"):
        AffinePerm(f10, (0, 0, 1), 0)  # x^4, a k = 3 map, on GF(4)


def test_affine_eval_outside_subfield(f10):
    L = parse_affine_expr(f10, "x")
    with pytest.raises(ValueError):
        affine_eval(L, 2)


def test_parse_affine_expr(f10):
    beta = f10.subfield_generator
    b2 = gf2n.mul(f10, beta, beta)
    L = parse_affine_expr(f10, "b^2*x^2 + b")
    assert L.linear_coeffs == (0, b2)
    assert L.constant == beta
    assert parse_affine_expr(f10, "x+1").constant == 1
    assert parse_affine_expr(f10, "b*x").linear_coeffs == (beta, 0)
    for bad in ("x^3", "x^4", "q+1", "", "x+"):
        with pytest.raises(ValueError):
            parse_affine_expr(f10, bad)


# the characters of the affine-expression grammar, plus space and minus
AFFINE_ALPHABET = "xb^+*0123456789 -"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.text(alphabet=AFFINE_ALPHABET, max_size=16))
def test_parse_affine_expr_fuzz(f10, text):
    # any text parses to an affine permutation or is refused by ValueError
    try:
        L = parse_affine_expr(f10, text)
    except ValueError:
        return
    assert isinstance(L, AffinePerm)


def test_table_l1_matches_canonical_beta(f10):
    # "x + b" row: constant is the canonical subfield generator
    L = parse_affine_expr(f10, "x+b")
    assert L.constant == f10.subfield_generator


# ---------------------------------------------------------------------------
# g and f builders
# ---------------------------------------------------------------------------

def test_build_g_m1_is_affine_composition(f10):
    L1 = parse_affine_expr(f10, "b*x+b")
    L2 = parse_affine_expr(f10, "x+1")
    g = build_g(f10, 2, 1, L1, L2)
    for a in f10.subfield_elems:
        assert int(g.table[a]) == affine_eval(L1, affine_eval(L2, a))
    assert not g.table[~f10.subfield_mask].any()


def test_build_g_direct_composition(f10):
    L1 = parse_affine_expr(f10, "x+1")
    L2 = parse_affine_expr(f10, "x")
    g = build_g(f10, 2, 2, L1, L2)  # gcd(2, 2) != 1
    for a in f10.subfield_elems:
        assert int(g.table[a]) == gf2n.pow(f10, a, 3) ^ 1


def test_build_g_inner_map_apn_on_subfield(f15):
    ident = parse_affine_expr(f15, "x")
    g = build_g(f15, 3, 2, ident, ident)
    sub = f15.subfield_elems
    best = 0
    for a in sub:
        if a == 0:
            continue
        for b in sub:
            count = sum(1 for c in sub if int(g.table[c ^ a]) ^ int(g.table[c]) == b)
            best = max(best, count)
    assert best == 2  # x^3 is APN on GF(2^3)


def test_build_g_permutation_iff_gcd(f10, f15):
    for ctx, k in ((f10, 2), (f15, 3)):
        ident = parse_affine_expr(ctx, "x")
        sub = ctx.subfield_elems
        for m in range(1, k + 1):
            g = build_g(ctx, k, m, ident, ident)
            bijective = len({int(g.table[c]) for c in sub}) == len(sub)
            assert bijective == (math.gcd(m, k) == 1)


def test_build_f_restriction_and_outside(f10):
    L1 = parse_affine_expr(f10, "x+b")
    g = build_g(f10, 2, 2, L1, parse_affine_expr(f10, "x"))
    f = build_f(f10, 2, g)
    d = dobbertin_exponent(2)
    for a in range(f10.order):
        if f10.subfield_mask[a]:
            assert int(f.table[a]) == int(g.table[a])
        else:
            assert int(f.table[a]) == gf2n.pow(f10, a, d)


def test_build_f_closed_form_agrees_exhaustively(f5, f10):
    L1 = parse_affine_expr(f5, "x+1")
    g = build_g(f5, 1, 1, L1, parse_affine_expr(f5, "x"))
    f = build_f(f5, 1, g)
    for x in range(32):
        assert int(f.table[x]) == closed_form_eval(f5, g, x)
    g10 = build_g(f10, 2, 2, parse_affine_expr(f10, "x+b"), parse_affine_expr(f10, "x"))
    f10_fun = build_f(f10, 2, g10)
    for x in range(f10.order):
        assert int(f10_fun.table[x]) == closed_form_eval(f10, g10, x)
    # the array form, as build_f calls it, and the int form agree
    assert type(closed_form_eval(f10, g10, 5)) is int
    assert np.array_equal(closed_form_eval(f10, g10, np.arange(f10.order)), f10_fun.table)


def test_build_f_closed_form_catches_a_wrong_power_table(f10, monkeypatch):
    # build_f samples 64 points with random.Random(0x5B0C); corrupt x^d at the
    # first one outside GF(4) and the closed form, which computes x^d itself,
    # must name that point
    rng = random.Random(0x5B0C)
    x = next(x for x in (rng.randrange(f10.order) for _ in range(64))
             if not f10.subfield_mask[x])
    original = gf2n.vec_pow_all

    def corrupted(ctx, e):
        table = original(ctx, e).copy()
        table[x] ^= 1
        return table

    monkeypatch.setattr(gf2n, "vec_pow_all", corrupted)
    g = build_g(f10, 2, 2, parse_affine_expr(f10, "x+b"), parse_affine_expr(f10, "x"))
    with pytest.raises(RuntimeError, match=rf"disagree at {x}$"):
        build_f(f10, 2, g)


def test_build_f_identity_g_gives_power_map(f5):
    ident = parse_affine_expr(f5, "x")
    g = build_g(f5, 1, 1, ident, ident)
    f = build_f(f5, 1, g)
    assert np.array_equal(f.table, power_function(f5, 29).table)


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
    # a -1 entry would index the last slot of a numpy scan and pass unseen
    for table in (np.arange(32) - 1, np.arange(32) + 1):
        with pytest.raises(ValueError, match="outside the field"):
            LutFunction(f5, table)
    with pytest.raises(ValueError, match="integers"):
        LutFunction(f5, np.arange(32, dtype=float))


# ---------------------------------------------------------------------------
# binary table format
# ---------------------------------------------------------------------------

def test_lut_roundtrip(tmp_path, f10):
    f = power_function(f10, 339)
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
    f = power_function(f10, 3)
    good = tmp_path / "good.lut"
    write_lut(f, good)
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
    write_lut(power_function(f10, 3), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="oversized"):
        read_lut(path, f10)


def test_lut_entry_beyond_int64(tmp_path, f5):
    # 2^64 - 1 would wrap to -1 in a signed table and pass an upper-bound check
    table = power_function(f5, 3).table.astype("<u8")
    table[3] = 2**64 - 1
    path = tmp_path / "wide.lut"
    path.write_bytes(construct.LUT_MAGIC + bytes([5]) + table.tobytes())
    with pytest.raises(ValueError, match="outside the field"):
        read_lut(path, f5)
