import itertools
import random

import pytest

from duperm import gf2n


# ---------------------------------------------------------------------------
# independent reference arithmetic (carry-less multiply, no tables)
# ---------------------------------------------------------------------------

def ref_clmul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def ref_pmod(p, m):
    dm = m.bit_length() - 1
    while p and p.bit_length() - 1 >= dm:
        p ^= m << (p.bit_length() - 1 - dm)
    return p


def ref_mul(ctx, a, b):
    return ref_pmod(ref_clmul(a, b), ctx.modulus)


def ref_pow(ctx, a, e):
    r = 1
    while e:
        if e & 1:
            r = ref_mul(ctx, r, a)
        a = ref_mul(ctx, a, a)
        e >>= 1
    return r


def ref_is_irreducible(modulus):
    """Trial division by every polynomial of degree 1 .. n//2."""
    n = modulus.bit_length() - 1
    for d in range(1, n // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if ref_pmod(modulus, q) == 0:
                return False
    return True


# ---------------------------------------------------------------------------
# moduli and generators
# ---------------------------------------------------------------------------

def test_modulus_values(f5, f10, f15):
    assert f5.modulus == 0b100101  # x^5 + x^2 + 1
    assert f10.modulus == 0b10000001001  # x^10 + x^3 + 1
    assert f15.modulus == 0b1000000000000011  # x^15 + x + 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_modulus_is_lowest_irreducible(k):
    n = 5 * k
    modulus = gf2n.lowest_irreducible(n)
    assert ref_is_irreducible(modulus)
    # nothing of lower weight, or same weight and lower value, is irreducible
    weight = bin(modulus).count("1")
    base = (1 << n) | 1
    for w in range(3, weight + 1, 2):
        for comb in itertools.combinations(range(1, n), w - 2):
            cand = base | sum(1 << i for i in comb)
            if (w, cand) < (weight, modulus):
                assert not ref_is_irreducible(cand)


def test_weak_irreducibility_criterion(f5, f10, f15):
    # x^(2^n) == x mod modulus and x^(2^(n/p)) != x for each prime p | n
    for ctx in (f5, f10, f15):
        n = ctx.n
        assert ref_pow(ctx, 2, 1 << n) == 2
        for p in {p for p in (2, 3, 5) if n % p == 0}:
            assert ref_pow(ctx, 2, 1 << (n // p)) != 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_generator_order(k):
    ctx = gf2n.mk_field(k)
    q1 = ctx.order - 1
    rem = q1
    primes = []
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            primes.append(p)
            while rem % p == 0:
                rem //= p
        p += 1
    if rem > 1:
        primes.append(rem)
    assert ref_pow(ctx, ctx.generator, q1) == 1
    for p in primes:
        assert ref_pow(ctx, ctx.generator, q1 // p) != 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tables_match_scalar_chain(k):
    ctx = gf2n.mk_field(k)
    q = ctx.order
    exp = [1]
    for _ in range(q - 2):
        exp.append(ref_mul(ctx, exp[-1], ctx.generator))
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    assert ctx.exp.tolist() == exp and ctx._expl == exp
    assert ctx.log.tolist() == log and ctx._logl == log
    # the trace is linear: Tr(x) is the parity of x masked by the basis traces
    tmask = 0
    for i in range(ctx.n):
        acc, cur = 0, 1 << i
        for _ in range(ctx.n):
            acc ^= cur
            cur = ref_mul(ctx, cur, cur)
        assert acc in (0, 1)
        tmask |= acc << i
    assert ctx.trace_bits.tolist() == [bin(x & tmask).count("1") & 1 for x in range(q)]
    frob_k = [0] + [exp[(log[x] << k) % (q - 1)] for x in range(1, q)]
    assert ctx.subfield_mask.tolist() == [frob_k[x] == x for x in range(q)]


def test_mk_field_errors():
    with pytest.raises(ValueError):
        gf2n.mk_field(0)
    with pytest.raises(gf2n.FieldSizeError):
        gf2n.mk_field(5)  # n = 25 over the default budget


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_mul_matches_clmul_oracle_exhaustive_n5(f5):
    for a in range(32):
        for b in range(32):
            assert gf2n.mul(f5, a, b) == ref_mul(f5, a, b)


def test_mul_example_n5(f5):
    # x^2 * x^3 = x^5 = x^2 + 1 mod x^5 + x^2 + 1
    assert gf2n.mul(f5, 0b100, 0b1000) == 0b101


def test_pow_lagrange(f5):
    for a in range(1, 32):
        assert gf2n.pow(f5, a, f5.order - 1) == 1


def test_pow_edge_cases(f5):
    assert gf2n.pow(f5, 0, 0) == 1
    assert gf2n.pow(f5, 0, 7) == 0
    assert gf2n.pow(f5, 3, 0) == 1
    with pytest.raises(ValueError):
        gf2n.pow(f5, 3, -1)


@pytest.mark.parametrize("k", [1, 2])
def test_inv_exhaustive(k):
    ctx = gf2n.mk_field(k)
    for a in range(1, ctx.order):
        assert gf2n.mul(ctx, a, gf2n.inv(ctx, a)) == 1


def test_inv_zero_raises(f5):
    with pytest.raises(ZeroDivisionError):
        gf2n.inv(f5, 0)


def test_field_axioms_exhaustive_n5(f5):
    for a in range(32):
        for b in range(32):
            assert gf2n.mul(f5, a, b) == gf2n.mul(f5, b, a)
            for c in range(32):
                ab_c = gf2n.mul(f5, gf2n.mul(f5, a, b), c)
                a_bc = gf2n.mul(f5, a, gf2n.mul(f5, b, c))
                assert ab_c == a_bc
                left = gf2n.mul(f5, a, b ^ c)
                right = gf2n.mul(f5, a, b) ^ gf2n.mul(f5, a, c)
                assert left == right


def test_field_axioms_random_n10_n15(f10, f15):
    rng = random.Random(7)
    for ctx in (f10, f15):
        for _ in range(300):
            a, b, c = (rng.randrange(ctx.order) for _ in range(3))
            assert gf2n.mul(ctx, a, b) == ref_mul(ctx, a, b)
            assert gf2n.mul(ctx, a, gf2n.mul(ctx, b, c)) == gf2n.mul(
                ctx, gf2n.mul(ctx, a, b), c
            )
            assert gf2n.mul(ctx, a, b ^ c) == gf2n.mul(ctx, a, b) ^ gf2n.mul(ctx, a, c)


# ---------------------------------------------------------------------------
# frobenius, trace, subfield
# ---------------------------------------------------------------------------

def test_frobenius_basics(f5, f10):
    assert gf2n.frobenius(f5, 2, 1) == 4  # x^2
    for a in range(32):
        assert gf2n.frobenius(f5, a, 0) == a
    rng = random.Random(3)
    for _ in range(100):
        a = rng.randrange(f10.order)
        cur = a
        for _ in range(5):
            cur = gf2n.frobenius(f10, cur, f10.k)
        assert cur == a
    with pytest.raises(ValueError):
        gf2n.frobenius(f5, 1, 5)


def test_frobenius_is_field_automorphism_n5(f5):
    for j in range(5):
        for a in range(32):
            for b in range(32):
                assert gf2n.frobenius(f5, a ^ b, j) == gf2n.frobenius(
                    f5, a, j
                ) ^ gf2n.frobenius(f5, b, j)
                assert gf2n.frobenius(f5, gf2n.mul(f5, a, b), j) == gf2n.mul(
                    f5, gf2n.frobenius(f5, a, j), gf2n.frobenius(f5, b, j)
                )


def test_trace_abs(f5, f10):
    assert f5.trace_bits[0] == 0
    assert f5.trace_bits[1] == 1  # n = 5 summands of 1
    for ctx in (f5, f10):
        zeros = sum(1 for a in range(ctx.order) if ctx.trace_bits[a] == 0)
        assert zeros == ctx.order // 2


def test_trace_abs_matches_direct_sum(f5):
    for a in range(32):
        acc = 0
        for j in range(5):
            acc ^= gf2n.frobenius(f5, a, j)
        assert acc == f5.trace_bits[a]


def test_trace_rel_lands_in_subfield_exhaustive_n10(f10):
    # the relative trace onto GF(2^k) sums the five k-step conjugates
    for a in range(f10.order):
        t = 0
        for i in range(5):
            t ^= gf2n.frobenius(f10, a, i * f10.k)
        assert gf2n.in_subfield(f10, t)


def test_subfield_membership(f5, f10, f15):
    assert gf2n.in_subfield(f5, 0) and gf2n.in_subfield(f5, 1)
    for ctx in (f5, f10, f15):
        count = sum(1 for a in range(ctx.order) if gf2n.in_subfield(ctx, a))
        assert count == 1 << ctx.k
        assert gf2n.in_subfield(ctx, ctx.subfield_generator)
        assert set(gf2n.subfield_elements(ctx)) == {
            a for a in range(ctx.order) if gf2n.in_subfield(ctx, a)
        }


def test_subfield_generator(f5, f10):
    assert f5.subfield_generator == 1  # GF(2)* = {1}
    beta = f10.subfield_generator
    assert beta == gf2n.pow(f10, f10.generator, 341)
    assert beta != 1
    assert gf2n.pow(f10, beta, 3) == 1
    assert gf2n.frobenius(f10, beta, f10.k) == beta


def test_coset_representatives(f10):
    sub = gf2n.subfield_elements(f10)
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randrange(f10.order)
        r = gf2n.subfield_coset_rep(f10, a)
        for s in sub:
            assert gf2n.subfield_coset_rep(f10, a ^ s) == r
    reps = {gf2n.subfield_coset_rep(f10, a) for a in range(f10.order)}
    assert len(reps) == f10.order >> f10.k


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------

def test_vec_pow_all(f5):
    for e in (0, 1, 2, 29):
        table = gf2n.vec_pow_all(f5, e)
        for a in range(32):
            assert int(table[a]) == gf2n.pow(f5, a, e)
