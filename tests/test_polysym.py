import random

import pytest

from duperm import gf2n
from duperm.construct import dobbertin_exponent
from duperm.polysym import ExactDivisionError, MultiPoly, exact_divide, resultant_wrt

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


def test_mixed_universes_rejected():
    other = MultiPoly.var("x", variables=("x", "y"))
    with pytest.raises(ValueError):
        X + other


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
# evaluation
# ---------------------------------------------------------------------------

def test_eval_missing_variable(f5):
    with pytest.raises(ValueError):
        (X + Y).evaluate({"x": 1}, f5)


def test_eval_simple(f5):
    val = (X * Y + ONE).evaluate({"x": 2, "y": 3}, f5)
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
        assert eq_a.evaluate(assign, f10) == 0


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
    for x0 in gf2n.subfield_elements(f5):
        b0 = gf2n.pow(f5, x0 ^ 1, d) ^ gf2n.pow(f5, x0, d)
        assign = {v: x0 for v in "xyzuv"}
        assign["b"] = b0
        for eq in eqs:
            assert eq.evaluate(assign, f5) == 0


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
                    e[MultiPoly.var(nm).variables.index(nm)] = rng.randrange(3)
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
            if F.evaluate(assign, f5) == 0 and G.evaluate(assign, f5) == 0:
                assert res.evaluate({"x": x0}, f5) == 0


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
        fu = [F.coefficient("y", i).evaluate(assign, f5) for i in range(F.degree_in("y") + 1)]
        gu = [G.coefficient("y", i).evaluate(assign, f5) for i in range(G.degree_in("y") + 1)]
        if fu[-1] == 0 or gu[-1] == 0:
            continue
        assert res.evaluate(assign, f5) == sylvester_resultant(f5, fu, gu)
        done += 1
