import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duperm import gf2n, polysym
from duperm.construct import dobbertin_exponent
from duperm.polysym import VARS, ExactDivisionError, MultiPoly, exact_divide, resultant_wrt

X, Y, Z, U, V, B = (MultiPoly.var(n) for n in "xyzuvb")
ONE = MultiPoly.one()


# ---------------------------------------------------------------------------
# ring basics
# ---------------------------------------------------------------------------

def test_add_characteristic_two():
    p = X * Y + B + ONE
    assert not p + p
    assert p + MultiPoly.zero() == p


def test_mul_freshman_dream():
    assert (X + ONE) * (X + ONE) == X ** 2 + ONE


def test_pow():
    assert (X + Y) ** 2 == X ** 2 + Y ** 2
    assert (X + ONE) ** 0 == ONE
    with pytest.raises(ValueError):
        (X + ONE) ** -1


def test_rendering_graded_lex():
    assert str(MultiPoly.zero()) == "0"
    assert str(X * Y + X + ONE) == "x*y + x + 1"
    assert str(Y ** 2 * Z + B * X * U) == "x*u*b + y^2*z"
    assert str(X ** 2) == "x^2"


def test_degree_and_coefficient():
    p = X ** 2 * Y + X * Y + B
    assert p.degree_in("x") == 2
    assert p.degree_in("z") == 0
    assert MultiPoly.zero().degree_in("x") == -1
    assert p.coefficient("x", 1) == Y
    assert p.coefficient("x", 0) == B


# ---------------------------------------------------------------------------
# against a set-of-exponent-tuples oracle
# ---------------------------------------------------------------------------

def oracle_mul(p: frozenset, q: frozenset) -> frozenset:
    acc = set()
    for s in p:
        for t in q:
            acc ^= {tuple(a + b for a, b in zip(s, t))}
    return frozenset(acc)


def oracle_pow(p: frozenset, e: int) -> frozenset:
    out = frozenset({(0,) * len(VARS)})
    for _ in range(e):
        out = oracle_mul(out, p)
    return out


def oracle_str(p: frozenset) -> str:
    """Terms in descending graded-lex order: total degree, then x > y > ... > b."""
    parts = []
    for t in sorted(p, key=lambda t: (sum(t), t), reverse=True):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(VARS, t) if e]
        parts.append("*".join(factors) or "1")
    return " + ".join(parts) or "0"


polys = st.frozensets(
    st.tuples(*[st.integers(0, 3)] * len(VARS)), max_size=6
)


def agrees(got: MultiPoly, want: frozenset) -> bool:
    return got == MultiPoly(want) and str(got) == oracle_str(want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=polys, q=polys, e=st.integers(0, 4))
def test_ring_matches_tuple_oracle(p, q, e):
    P, Q = MultiPoly(p), MultiPoly(q)
    assert agrees(P, p)
    assert agrees(P + Q, p ^ q)
    assert agrees(P * Q, oracle_mul(p, q))
    assert agrees(P ** e, oracle_pow(p, e))
    for i, name in enumerate(VARS):
        assert P.degree_in(name) == max((t[i] for t in p), default=-1)
        cleared = {t[:i] + (0,) + t[i + 1 :] for t in p if t[i] == 1}
        assert agrees(P.coefficient(name, 1), frozenset(cleared))
    if q:
        assert exact_divide(P * Q, Q) == P


def test_degree_past_the_field_width_raises():
    limit = polysym._MAX_DEGREE
    assert str(X ** limit) == f"x^{limit}"
    assert str(X ** (limit - 1) * B) == f"x^{limit - 1}*b"
    for build in (
        lambda: X ** (limit + 1),
        lambda: X ** limit * X,
        lambda: X ** (limit // 2 + 1) * Y ** (limit // 2 + 1),
        lambda: MultiPoly([(limit + 1, 0, 0, 0, 0, 0)]),
        lambda: MultiPoly([(1, 0, 0, 0, 0, limit)]),
        # one field past a full byte would carry into its neighbour
        lambda: MultiPoly([(0, 300, 0, 0, 0, 0)]),
        lambda: MultiPoly([(0, 200, 0, 0, 0, 0)]) * MultiPoly([(0, 100, 0, 0, 0, 0)]),
    ):
        with pytest.raises(OverflowError):
            build()
    with pytest.raises(ValueError):
        MultiPoly([(-1, 0, 0, 0, 0, 1)])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(poly: MultiPoly, assignment: dict, ctx) -> int:
    """poly at a point of GF(2^n), one field element per variable it uses."""
    exps = [polysym._unpack(m) for m in poly.terms]
    used = {v for t in exps for v, e in zip(VARS, t) if e}
    missing = [v for v in VARS if v in used and v not in assignment]
    if missing:
        raise ValueError(f"assignment missing variables: {missing}")
    acc = 0
    for t in exps:
        prod = 1
        for name, e in zip(VARS, t):
            if e:
                prod = gf2n.mul(ctx, prod, gf2n.pow(ctx, assignment[name], e))
        acc ^= prod
    return acc


def test_eval_missing_variable(f5):
    with pytest.raises(ValueError):
        evaluate(X + Y, {"x": 1}, f5)


def test_eval_simple(f5):
    val = evaluate(X * Y + ONE, {"x": 2, "y": 3}, f5)
    assert val == gf2n.mul(f5, 2, 3) ^ 1


def test_eval_conjugate_tuple_satisfies_first_equation(f10):
    """The first conjugate equation encodes x(x+1)((x+1)^d + x^d + b) = 0."""
    one = ONE
    eq_a = (
        Y * Z * U * V * (X + one)
        + X * (Y + one) * (Z + one) * (U + one) * (V + one)
        + B * X * (X + one)
    )
    d = dobbertin_exponent(f10.k)
    rng = random.Random(5)
    for _ in range(20):
        x0 = rng.randrange(f10.order)
        b0 = gf2n.pow(f10, x0 ^ 1, d) ^ gf2n.pow(f10, x0, d)
        conj = [x0]
        for _ in range(4):
            conj.append(gf2n.frobenius(f10, conj[-1], f10.k))
        assign = dict(zip("xyzuv", conj))
        assign["b"] = b0
        assert evaluate(eq_a, assign, f10) == 0


def test_eval_subfield_solution_tuple(f5):
    """x0 in the subfield with b = (x0+1)^d + x0^d zeroes the whole system."""
    one = ONE
    eqs = [
        Y * Z * U * V * (X + one)
        + X * (Y + one) * (Z + one) * (U + one) * (V + one)
        + B * X * (X + one)
    ]
    shift = {"x": "y", "y": "z", "z": "u", "u": "v", "v": "x"}
    for _ in range(4):
        eqs.append(eqs[-1].substitute_variables(shift))
    d = dobbertin_exponent(f5.k)
    for x0 in f5.subfield_elems:
        b0 = gf2n.pow(f5, x0 ^ 1, d) ^ gf2n.pow(f5, x0, d)
        assign = {v: x0 for v in "xyzuv"}
        assign["b"] = b0
        for eq in eqs:
            assert evaluate(eq, assign, f5) == 0


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def test_exact_divide_basic():
    assert exact_divide(X ** 2 + ONE, X + ONE) == X + ONE
    p = X * Y * B + Z ** 3 + ONE
    assert exact_divide(p, ONE) == p


def test_exact_divide_published_cofactor():
    cof = (
        B * X * Y * Z + B * X * Y * U + B * X * Z * U + B * X * U
        + Y ** 2 * Z ** 2 + Y ** 2 * Z + Y * Z ** 2 + B * Y * Z * U
        + B * Y * Z + Y * Z
    )
    product = (X + U) ** 2 * cof
    assert exact_divide(product, (X + U) ** 2) == cof


def test_exact_divide_nonexact_raises():
    with pytest.raises(ExactDivisionError):
        exact_divide(X ** 2 + X + ONE, X + ONE)
    # the remainder's leading term is larger, but not a multiple
    for p, q in ((Y ** 2, X), (X * B, Y), (X ** 3 * Z, X * Y), (Y * Z, Z ** 2)):
        with pytest.raises(ExactDivisionError):
            exact_divide(p, q)
    with pytest.raises(ZeroDivisionError):
        exact_divide(X, MultiPoly.zero())


def test_exact_divide_random_roundtrip():
    rng = random.Random(9)
    names = ("x", "y", "b")
    for _ in range(30):
        def rand_poly():
            terms = []
            for _ in range(rng.randrange(1, 5)):
                e = [0] * 6
                for nm in names:
                    e[VARS.index(nm)] = rng.randrange(3)
                terms.append(tuple(e))
            return MultiPoly(terms)
        p, q = rand_poly(), rand_poly()
        if not p or not q:
            continue
        assert exact_divide(p * q, q) == p


# ---------------------------------------------------------------------------
# multivariate resultants
# ---------------------------------------------------------------------------

def test_resultant_wrt_hand_expanded():
    # 2x2 Sylvester determinant of y + x and y + x + 1
    assert resultant_wrt(Y + X, Y + X + ONE, "y") == ONE


def test_resultant_wrt_equal_inputs_vanish():
    p = X * Y + Y + B
    assert not resultant_wrt(p, p, "y")


def test_resultant_wrt_var_absent():
    with pytest.raises(ValueError):
        resultant_wrt(X + ONE, Y + X, "y")


def test_resultant_wrt_eliminates_variable():
    F = Y ** 2 + X * Y + B
    G = Y + X ** 2 + ONE
    res = resultant_wrt(F, G, "y")
    assert res.degree_in("y") <= 0


def test_resultant_common_zero_property(f5):
    F = X * Y + ONE
    G = Y + X
    res = resultant_wrt(F, G, "y")
    for x0 in range(32):
        for y0 in range(32):
            assign = {"x": x0, "y": y0}
            if evaluate(F, assign, f5) == 0 and evaluate(G, assign, f5) == 0:
                assert evaluate(res, {"x": x0}, f5) == 0


def rand_poly_xyb(rng, max_deg_y):
    terms = []
    for _ in range(rng.randrange(2, 6)):
        e = [0] * 6
        e[0] = rng.randrange(3)  # x
        e[1] = rng.randrange(max_deg_y + 1)  # y
        e[5] = rng.randrange(2)  # b
        terms.append(tuple(e))
    return MultiPoly(terms)


def sylvester_resultant(ctx, f, g):
    """Resultant of two univariate polynomials over the field, coefficients ascending.

    The Sylvester determinant by Gaussian elimination; no signs in
    characteristic 2.
    """
    n, m = len(f) - 1, len(g) - 1
    rows = [[0] * i + f[::-1] + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + g[::-1] + [0] * (n - 1 - i) for i in range(n)]
    det = 1
    for col in range(n + m):
        pivot = next((r for r in range(col, n + m) if rows[r][col]), None)
        if pivot is None:
            return 0
        rows[col], rows[pivot] = rows[pivot], rows[col]
        det = gf2n.mul(ctx, det, rows[col][col])
        inv = gf2n.inv(ctx, rows[col][col])
        for r in range(col + 1, n + m):
            factor = gf2n.mul(ctx, rows[r][col], inv)
            rows[r] = [a ^ gf2n.mul(ctx, factor, b) for a, b in zip(rows[r], rows[col])]
    return det


def test_sylvester_resultant_oracle(f5):
    assert sylvester_resultant(f5, [1, 1], [0, 1]) == 1  # x + 1 and x
    assert sylvester_resultant(f5, [0, 1, 1], [1, 1]) == 0  # common root 1
    # f = (x + r1)(x + r2) is monic, so Res(f, g) = g(r1) g(r2)
    rng = random.Random(31)
    for _ in range(20):
        r1, r2 = rng.randrange(32), rng.randrange(32)
        g = [rng.randrange(32), rng.randrange(32), rng.randrange(1, 32)]
        f = [gf2n.mul(f5, r1, r2), r1 ^ r2, 1]
        values = [g[0] ^ gf2n.mul(f5, g[1], r) ^ gf2n.mul(f5, g[2], gf2n.mul(f5, r, r))
                  for r in (r1, r2)]
        assert sylvester_resultant(f5, f, g) == gf2n.mul(f5, *values)


def test_resultant_specialization_soundness(f5):
    rng = random.Random(41)
    done = 0
    while done < 40:
        F = rand_poly_xyb(rng, 3)
        G = rand_poly_xyb(rng, 2)
        if F.degree_in("y") < 1 or G.degree_in("y") < 1:
            continue
        res = resultant_wrt(F, G, "y")
        assign = {"x": rng.randrange(32), "b": rng.randrange(32)}
        fu = [evaluate(F.coefficient("y", i), assign, f5) for i in range(F.degree_in("y") + 1)]
        gu = [evaluate(G.coefficient("y", i), assign, f5) for i in range(G.degree_in("y") + 1)]
        if fu[-1] == 0 or gu[-1] == 0:
            continue
        assert evaluate(res, assign, f5) == sylvester_resultant(f5, fu, gu)
        done += 1
