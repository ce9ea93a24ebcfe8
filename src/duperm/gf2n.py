"""GF(2^n) arithmetic with a distinguished subfield GF(2^k), n = 5k.

Field elements are plain Python ints: bit i of an element is the
coefficient of x^i in the polynomial basis {1, x, ..., x^(n-1)}.
Addition is XOR, 0 and 1 are the additive and multiplicative
identities, and every element doubles as its own lookup-table index.

A FieldCtx bundles the irreducible modulus, a verified multiplicative
generator, discrete log / antilog tables, the absolute-trace table and
the subfield membership mask.  Contexts are immutable after
construction and every function here is pure.

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
    "in_subfield",
    "subfield_elements",
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


def _vec_mulmod(arr: np.ndarray, c: int, m: int) -> np.ndarray:
    """Elementwise _mulmod(a, c, m) over an int64 array of reduced polynomials."""
    r = np.zeros_like(arr)
    for i in range(c.bit_length()):
        if (c >> i) & 1:
            r ^= arr << i
    dm = m.bit_length() - 1
    for j in range(dm + c.bit_length() - 2, dm - 1, -1):
        r ^= ((r >> j) & 1) * (m << (j - dm))
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
    2^k elements fixed by the k-fold Frobenius map.  log[0] is a
    sentinel 0 and must never be read for the zero element.
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
    _expl: list = field(repr=False)
    _logl: list = field(repr=False)
    _coset_basis: tuple = field(repr=False)

    @property
    def order(self) -> int:
        return 1 << self.n


def _rref_basis(vectors: list[int]) -> tuple:
    """Reduced row-echelon basis of a span of GF(2) bit vectors, as (pivot, vec) pairs."""
    basis: dict[int, int] = {}
    for v in vectors:
        cur = v
        while cur:
            p = cur.bit_length() - 1
            if p in basis:
                cur ^= basis[p]
            else:
                basis[p] = cur
                break
    for p in sorted(basis):
        for p2 in basis:
            if p2 != p and (basis[p2] >> p) & 1:
                basis[p2] ^= basis[p]
    return tuple(sorted(basis.items(), reverse=True))


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

    # block doubling: exp[h:2h] = exp[:h] * gen^h
    exp = np.ones(q - 1, dtype=np.int64)
    h = 1
    while h < q - 1:
        step = min(h, q - 1 - h)
        exp[h : h + step] = _vec_mulmod(exp[:step], _powmod(gen, h, modulus), modulus)
        h *= 2
    if _mulmod(int(exp[-1]), gen, modulus) != 1:
        raise ValueError("generator order check failed")
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1, dtype=np.int64)
    expl = exp.tolist()
    logl = log.tolist()

    # frobenius passes, vectorised over the whole field
    def _vec_frob(arr: np.ndarray, j: int) -> np.ndarray:
        out = np.zeros_like(arr)
        nz = arr != 0
        out[nz] = exp[(log[arr[nz]] << j) % (q - 1)]
        return out

    idx = np.arange(q, dtype=np.int64)
    frob_k = _vec_frob(idx, k)
    subfield_mask = frob_k == idx
    curv = frob_k
    for _ in range(4):
        curv = _vec_frob(curv, k)
    if not np.array_equal(curv, idx):
        raise ValueError("Frobenius orbit check failed")

    # the trace is GF(2)-linear: Tr(x) is the parity of x & mask, where
    # bit i of mask is the trace of the basis element x^i
    basis = 1 << np.arange(n, dtype=np.int64)
    basis_tr = np.zeros(n, dtype=np.int64)
    curv = basis
    for _ in range(n):
        basis_tr ^= curv
        curv = _vec_frob(curv, 1)
    if not set(basis_tr.tolist()) <= {0, 1}:
        raise ValueError("trace values left the prime field")
    mask = int((basis_tr << np.arange(n)).sum())
    trace_bits = (np.bitwise_count(idx & mask) & 1).astype(np.uint8)

    sub_elems = tuple(int(v) for v in idx[subfield_mask])
    if len(sub_elems) != 1 << k:
        raise ValueError("subfield size check failed")

    beta = expl[((q - 1) // ((1 << k) - 1)) % (q - 1)]
    coset_basis = _rref_basis([e for e in sub_elems if e])

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
        _expl=expl,
        _logl=logl,
        _coset_basis=coset_basis,
    )


# ---------------------------------------------------------------------------
# Scalar operations
# ---------------------------------------------------------------------------

def mul(ctx: FieldCtx, a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    q1 = ctx.order - 1
    return ctx._expl[(ctx._logl[a] + ctx._logl[b]) % q1]


def inv(ctx: FieldCtx, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    q1 = ctx.order - 1
    return ctx._expl[(q1 - ctx._logl[a]) % q1]


def pow(ctx: FieldCtx, a: int, e: int) -> int:
    """a^e with the exponent taken mod 2^n - 1 for nonzero a; 0^0 = 1."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    if a == 0:
        return 1 if e == 0 else 0
    q1 = ctx.order - 1
    return ctx._expl[(ctx._logl[a] * (e % q1)) % q1]


def frobenius(ctx: FieldCtx, a: int, j: int) -> int:
    """a^(2^j); j = k steps through the conjugates over the subfield."""
    if not 0 <= j < ctx.n:
        raise ValueError(f"frobenius power {j} outside [0, {ctx.n})")
    if a == 0:
        return 0
    q1 = ctx.order - 1
    return ctx._expl[(ctx._logl[a] << j) % q1]


def in_subfield(ctx: FieldCtx, a: int) -> bool:
    return bool(ctx.subfield_mask[a])


def subfield_elements(ctx: FieldCtx) -> tuple:
    return ctx.subfield_elems


def subfield_coset_rep(ctx: FieldCtx, a: int) -> int:
    """Canonical representative of the additive coset a + GF(2^k)."""
    for pivot, vec in ctx._coset_basis:
        if (a >> pivot) & 1:
            a ^= vec
    return a


# ---------------------------------------------------------------------------
# Vectorised helpers for the exhaustive-scan modules
# ---------------------------------------------------------------------------

def vec_pow_all(ctx: FieldCtx, e: int) -> np.ndarray:
    """Table of i^e for every field element i (0^0 = 1, else 0^e = 0)."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    q = ctx.order
    if e == 0:
        return np.ones(q, dtype=np.int64)
    q1 = q - 1
    out = np.zeros(q, dtype=np.int64)
    out[1:] = ctx.exp[(ctx.log[1:] * (e % q1)) % q1]
    return out
