"""GF(2^n) arithmetic with a distinguished subfield GF(2^k), n = 5k.

Field elements are plain Python ints: bit i of an element is the
coefficient of x^i in the polynomial basis {1, x, ..., x^(n-1)}.
Addition is XOR, 0 and 1 are the additive and multiplicative
identities, and every element doubles as its own lookup-table index.

A FieldCtx bundles the irreducible modulus, a verified multiplicative
generator, discrete log / antilog tables, the absolute-trace table and
the subfield membership mask.  Contexts and their tables are immutable
after construction and every function here is pure.  Each table is
held once, as a numpy array; the scalar operations index it with
.item, so they return Python ints.

Each context also carries a memo (FieldCtx.memo) of read-only tables
derived from the field; vec_pow_all, LutFunction and the analyzer's
kernels keep their tables there.  It is a cache that never changes a result.

The subfield is found without Frobenius passes over the field:
GF(2^k)* is the unique subgroup of order 2^k - 1 of the cyclic group
GF(2^n)*, so GF(2^k) is 0 together with every ((2^n - 1)/(2^k - 1))-th
entry of exp, and its generator beta is the first of them after 1.

Modulus convention: for each degree n the constructor picks the
irreducible polynomial of lowest weight first and lowest integer value
second (x^5 + x^2 + 1 for n = 5).  All criteria computed downstream
are invariant under field isomorphism; fixing the modulus only makes
exported lookup tables byte-identical across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FieldCtx",
    "FieldSizeError",
    "mk_field",
    "mul",
    "inv",
    "pow",
    "frobenius",
    "subfield_coset_rep",
    "vec_pow_all",
    "is_irreducible",
    "lowest_irreducible",
]

class FieldSizeError(ValueError):
    """Requested extension degree would blow the table memory budget."""


# ---------------------------------------------------------------------------
# Table-free polynomial arithmetic over GF(2), used only during construction.
# Polynomials over GF(2) are ints, bit i = coefficient of x^i.
# ---------------------------------------------------------------------------

def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _pmod(p: int, m: int) -> int:
    dm = m.bit_length() - 1
    while p.bit_length() - 1 >= dm and p:
        p ^= m << (p.bit_length() - 1 - dm)
    return p


def _mulmod(a: int, b: int, m: int) -> int:
    return _pmod(_clmul(a, b), m)


def _powmod(a: int, e: int, m: int) -> int:
    r = 1
    a = _pmod(a, m)
    while e:
        if e & 1:
            r = _mulmod(r, a, m)
        a = _mulmod(a, a, m)
        e >>= 1
    return r


# _BYTE_BITS[i, b] is bit i of the byte b
_BYTE_BITS = (np.arange(256, dtype=np.int64) >> np.arange(8)[:, None]) & 1


def _vec_mulmod(arr: np.ndarray, c: int, m: int) -> np.ndarray:
    """Elementwise _mulmod(a, c, m) over an int64 array of reduced polynomials.

    a * c mod m is GF(2)-linear in a, so byte j of a selects one of the
    256 subset XORs of the columns x^(8j + i) * c mod m, i < 8.
    """
    dm = m.bit_length() - 1
    nbytes = -(-dm // 8)
    cols = [c]
    for _ in range(8 * nbytes - 1):
        t = cols[-1] << 1
        cols.append(t ^ m if t >> dm else t)
    cols = np.array(cols, dtype=np.int64).reshape(nbytes, 8).T
    tables = np.bitwise_xor.reduce(_BYTE_BITS[:, None, :] * cols[:, :, None], axis=0)
    r = tables[0][arr & 255]
    for j in range(1, nbytes):
        r ^= tables[j][(arr >> 8 * j) & 255]
    return r


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _prime_factors(m: int) -> list[int]:
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def is_irreducible(modulus: int) -> bool:
    """Rabin test: x^(2^n) == x mod f and gcd(x^(2^(n/p)) - x, f) = 1 per prime p|n."""
    n = modulus.bit_length() - 1
    if n < 1:
        return False
    if n == 1:
        return True
    checkpoints = {n // p for p in _prime_factors(n)}
    cur = 2
    for i in range(1, n + 1):
        cur = _mulmod(cur, cur, modulus)
        if i in checkpoints and _poly_gcd(cur ^ 2, modulus) != 1:
            return False
    return cur == 2


def lowest_irreducible(n: int) -> int:
    """Lowest-weight then lowest-value irreducible polynomial of degree n."""
    if n == 1:
        return 0b10  # x
    base = (1 << n) | 1
    for weight in range(3, n + 2, 2):
        middles = sorted(
            sum(1 << i for i in comb)
            for comb in itertools.combinations(range(1, n), weight - 2)
        )
        for mid in middles:
            cand = base | mid
            if is_irreducible(cand):
                return cand
    raise ValueError(f"no irreducible polynomial of degree {n}")  # unreachable for n >= 1


def _find_generator(modulus: int, n: int) -> int:
    q1 = (1 << n) - 1
    primes = _prime_factors(q1)
    for g in range(2, 1 << n):
        if all(_powmod(g, q1 // p, modulus) != 1 for p in primes):
            return g
    raise ValueError("no generator found; modulus is not irreducible")


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FieldCtx:
    """A concrete model of GF(2^n) with its subfield GF(2^k), n = 5k.

    exp/log are discrete log tables for the stored generator; trace_bits
    holds the absolute trace of every element; subfield_mask flags the
    2^k elements of GF(2^k) and subfield_elems lists them in order.
    log[0] is a sentinel 0 and must never be read for the zero element.
    The tables are never written after mk_field returns; _memo holds
    the entries of memo, a cache that never changes a result.
    """

    n: int
    k: int
    modulus: int
    generator: int
    subfield_generator: int
    exp: np.ndarray = field(repr=False)
    log: np.ndarray = field(repr=False)
    trace_bits: np.ndarray = field(repr=False)
    subfield_mask: np.ndarray = field(repr=False)
    subfield_elems: tuple = field(repr=False)
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def order(self) -> int:
        return 1 << self.n

    @property
    def subfield_index(self) -> np.ndarray:
        """subfield_elems as a read-only array, the index of GF(2^k) into any table."""
        return self.memo("subfield_index", lambda: np.flatnonzero(self.subfield_mask))

    def memo(self, key: str | tuple, build):
        """build(), computed once per context and stored read-only under key.

        Every entry is a function of the field, of the field and a
        power map (vec_pow_all's x^e; the analyzer's entries all belong
        to x^d), or of those and one orbit of tables under the linear
        maps that fix x^d (construct.LutFunction.orbit_key), whose
        members share every criterion; so the memo changes when a result
        is computed, never the result.  A tuple key also names a
        parameter of build: an exponent, a field element and a shift
        (the spectrum's counts) or an orbit key.  Nothing is evicted; the memo
        is freed with the context.  build returns an array or a tuple of
        arrays.
        """
        memo = self._memo
        if key not in memo:
            value = build()
            for arr in value if isinstance(value, tuple) else (value,):
                arr.flags.writeable = False
            memo[key] = value
        return memo[key]


def mk_field(k: int, max_bits: int = 20) -> FieldCtx:
    """Build the GF(2^(5k)) context with its canonical subfield GF(2^k).

    Raises FieldSizeError when the 2^n element tables would exceed the
    configured budget (n > max_bits).
    """
    if k < 1:
        raise ValueError(f"subfield degree must be positive, got {k}")
    n = 5 * k
    if n > max_bits:
        raise FieldSizeError(
            f"n = {n} needs 2^{n}-entry tables, over the {max_bits}-bit budget"
        )
    modulus = lowest_irreducible(n)
    gen = _find_generator(modulus, n)
    q = 1 << n

    # block doubling: exp[h:2h] = exp[:h] * gen^h, gen^(2h) = (gen^h)^2
    exp = np.ones(q - 1, dtype=np.int64)
    h, gen_h = 1, gen
    while h < q - 1:
        step = min(h, q - 1 - h)
        exp[h : h + step] = _vec_mulmod(exp[:step], gen_h, modulus)
        h, gen_h = 2 * h, _mulmod(gen_h, gen_h, modulus)
    if _mulmod(int(exp[-1]), gen, modulus) != 1:
        raise ValueError("generator order check failed")
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1, dtype=np.int64)
    idx = np.arange(q, dtype=np.int64)
    # 2^n = 1 mod 2^n - 1, so x^(2^n) = x for every x exactly when exp and
    # log are inverse bijections on the nonzero elements
    if not np.array_equal(exp[log[1:]], idx[1:]):
        raise ValueError("exp/log bijection check failed")

    # the trace is GF(2)-linear: Tr(x) is the parity of x & mask, where
    # bit i of mask is the trace of the basis element x^i, the XOR of its
    # conjugates (x^i)^(2^j) = exp[2^j log x^i]
    shifts = np.arange(n, dtype=np.int64)
    conjugates = exp[(log[1 << shifts][:, None] << shifts) % (q - 1)]
    basis_tr = np.bitwise_xor.reduce(conjugates, axis=1)
    if not set(basis_tr.tolist()) <= {0, 1}:
        raise ValueError("trace values left the prime field")
    mask = int((basis_tr << shifts).sum())
    trace_bits = (np.bitwise_count(idx & mask) & 1).astype(np.uint8)

    # GF(2^k)* is the subgroup of order 2^k - 1 of GF(2^n)*
    stride = (q - 1) // ((1 << k) - 1)
    subfield_mask = np.zeros(q, dtype=bool)
    subfield_mask[0] = True
    subfield_mask[exp[::stride]] = True
    sub_elems = tuple(np.flatnonzero(subfield_mask).tolist())
    if len(sub_elems) != 1 << k:
        raise ValueError("subfield size check failed")

    beta = exp.item(stride % (q - 1))

    return FieldCtx(
        n=n,
        k=k,
        modulus=modulus,
        generator=gen,
        subfield_generator=beta,
        exp=exp,
        log=log,
        trace_bits=trace_bits,
        subfield_mask=subfield_mask,
        subfield_elems=sub_elems,
    )


# ---------------------------------------------------------------------------
# Scalar operations.  exp has one entry per exponent mod 2^n - 1, so
# len(exp) is the order of GF(2^n)*.
# ---------------------------------------------------------------------------

def mul(ctx: FieldCtx, a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    exp = ctx.exp
    return exp.item((ctx.log.item(a) + ctx.log.item(b)) % len(exp))


def inv(ctx: FieldCtx, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    exp = ctx.exp
    return exp.item(-ctx.log.item(a) % len(exp))


def pow(ctx: FieldCtx, a: int, e: int) -> int:
    """a^e with the exponent taken mod 2^n - 1 for nonzero a; 0^0 = 1."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    if a == 0:
        return 1 if e == 0 else 0
    exp = ctx.exp
    return exp.item(ctx.log.item(a) * e % len(exp))


def frobenius(ctx: FieldCtx, a: int, j: int) -> int:
    """a^(2^j); j = k steps through the conjugates over the subfield."""
    if not 0 <= j < ctx.n:
        raise ValueError(f"frobenius power {j} outside [0, {ctx.n})")
    if a == 0:
        return 0
    exp = ctx.exp
    return exp.item((ctx.log.item(a) << j) % len(exp))


def subfield_coset_rep(ctx: FieldCtx, a):
    """Least element of the additive coset a + GF(2^k).

    a is one element or an integer array of them, reduced elementwise;
    an int gets an int back.
    """
    rep = np.minimum.reduce([a ^ s for s in ctx.subfield_elems])
    return int(rep) if isinstance(a, int) else rep


# ---------------------------------------------------------------------------
# Power-map tables: x^e at every field element, memoised
# ---------------------------------------------------------------------------

def vec_pow_all(ctx: FieldCtx, e: int) -> np.ndarray:
    """Table of i^e for every field element i (0^0 = 1, else 0^e = 0).

    The table is read-only and kept in ctx's memo under ("pow", e), so
    repeated calls with one exponent build it once.
    """
    if e < 0:
        raise ValueError("exponent must be non-negative")

    def build() -> np.ndarray:
        q = ctx.order
        if e == 0:
            return np.ones(q, dtype=np.int64)
        q1 = q - 1
        out = np.zeros(q, dtype=np.int64)
        out[1:] = ctx.exp[(ctx.log[1:] * (e % q1)) % q1]
        return out

    return ctx.memo(("pow", e), build)
