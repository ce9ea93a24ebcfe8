"""Builders for the analysed functions over GF(2^(5k)).

Three families are materialised as full lookup tables:

* power maps x^d, in particular the Dobbertin exponent
  d = 2^(4k) + 2^(3k) + 2^(2k) + 2^k - 1;
* subfield maps g = L1 o x^(2^m - 1) o L2 for affine permutations
  L1, L2 of GF(2^k), stored in big-field coordinates with the
  non-subfield slots zeroed;
* the piecewise modification f that agrees with g on the subfield and
  with x^d everywhere else.  The closed form
  f(x) = g(x) + (g(x) + x^d) (x + x^(2^k))^(2^n - 1)
  is implemented as an independent evaluation path and cross-checked
  against the piecewise table on a fixed sample of points.

Tables are immutable once built and serialise to a binary format
(magic "SBLUT1\\0\\0", one byte n, 2^n little-endian 8-byte values).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import gf2n

__all__ = [
    "LutFunction",
    "AffinePerm",
    "dobbertin_exponent",
    "power_function",
    "affine_eval",
    "parse_affine_expr",
    "build_g",
    "build_f",
    "instance",
    "closed_form_eval",
    "write_lut",
    "read_lut",
    "LUT_MAGIC",
]

LUT_MAGIC = b"SBLUT1\x00\x00"


@dataclass(frozen=True, eq=False)
class LutFunction:
    """A function GF(2^n) -> GF(2^n) materialised as a table of 2^n values."""

    ctx: gf2n.FieldCtx
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.table) != self.ctx.order:
            raise ValueError("table length must be 2^n")
        if not np.issubdtype(self.table.dtype, np.integer):
            raise ValueError(f"table must hold integers, not {self.table.dtype}")
        if self.table.min() < 0 or self.table.max() >= self.ctx.order:
            raise ValueError("table entry outside the field")

    def __call__(self, x: int) -> int:
        return int(self.table[x])


@dataclass(frozen=True)
class AffinePerm:
    """Affine permutation of the subfield GF(2^k): sum c_i x^(2^i) + constant."""

    ctx: gf2n.FieldCtx
    linear_coeffs: tuple
    constant: int

    def __post_init__(self):
        k = self.ctx.k
        if len(self.linear_coeffs) != k:
            raise ValueError(f"need exactly {k} linear coefficients")
        for c in (*self.linear_coeffs, self.constant):
            if not self.ctx.subfield_mask[c]:
                raise ValueError(f"coefficient {c} lies outside GF(2^{k})")
        sub = self.ctx.subfield_elems
        image = {affine_eval(self, a) for a in sub}
        if len(image) != len(sub):
            raise ValueError("affine map is not a bijection of the subfield")


def affine_eval(L: AffinePerm, a: int) -> int:
    if not L.ctx.subfield_mask[a]:
        raise ValueError(f"{a} is not a subfield element")
    acc = L.constant
    for i, c in enumerate(L.linear_coeffs):
        if c:
            acc ^= gf2n.mul(L.ctx, c, gf2n.frobenius(L.ctx, a, i))
    return acc


def parse_affine_expr(ctx: gf2n.FieldCtx, text: str) -> AffinePerm:
    """Parse 'c*x^(2^i)' sums like "x+1", "b*x+b" or "b^2*x^2 + b".

    Coefficients are 0, 1 or powers b^j of the canonical subfield
    generator; x exponents must be powers of two below 2^k.
    """
    k = ctx.k
    beta = ctx.subfield_generator

    def const_value(tok: str) -> int:
        if tok == "0":
            return 0
        if tok == "1":
            return 1
        if tok == "b":
            return beta
        if tok.startswith("b^"):
            return gf2n.pow(ctx, beta, int(tok[2:]))
        raise ValueError(f"cannot parse coefficient {tok!r} in {text!r}")

    coeffs = [0] * k
    constant = 0
    for term in text.replace(" ", "").split("+"):
        if not term:
            raise ValueError(f"empty term in affine expression {text!r}")
        if "x" not in term:
            constant ^= const_value(term)
            continue
        head, _, tail = term.partition("x")
        coef = const_value(head.rstrip("*")) if head else 1
        if tail == "":
            exp = 1
        elif tail.startswith("^"):
            exp = int(tail[1:])
        else:
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
        i = exp.bit_length() - 1
        if exp <= 0 or (1 << i) != exp or i >= k:
            raise ValueError(
                f"x exponent {exp} is not a power of two below 2^{k} in {text!r}"
            )
        coeffs[i] ^= coef
    return AffinePerm(ctx, tuple(coeffs), constant)


_DOB_TERMS = (4, 3, 2, 1)


def dobbertin_exponent(k: int) -> int:
    if k < 1:
        raise ValueError("k must be positive")
    return sum(1 << (j * k) for j in _DOB_TERMS) - 1


def power_function(ctx: gf2n.FieldCtx, d: int) -> LutFunction:
    """The power map x^d as a full table; 0^0 = 1 only when d = 0."""
    return LutFunction(ctx, gf2n.vec_pow_all(ctx, d))


def build_g(
    ctx: gf2n.FieldCtx,
    k: int,
    m: int,
    L1: AffinePerm,
    L2: AffinePerm,
) -> LutFunction:
    """g = L1 o x^(2^m - 1) o L2 on the subfield, zero elsewhere.

    For gcd(k, m) != 1 the inner power map, and so g, is not a subfield
    permutation.  Those instances are built and analysed all the same;
    the permutation scan of the analyzer reports the property.
    """
    if k != ctx.k:
        raise ValueError("k does not match the field context")
    if m < 1:
        raise ValueError("m must be positive")
    e = (1 << m) - 1
    table = np.zeros(ctx.order, dtype=np.int64)
    for a in ctx.subfield_elems:
        table[a] = affine_eval(L1, gf2n.pow(ctx, affine_eval(L2, a), e))
    return LutFunction(ctx, table)


def closed_form_eval(ctx: gf2n.FieldCtx, g: LutFunction, x):
    """f(x) = g(x) + (g(x) + x^d)(x + x^(2^k))^(2^n - 1), evaluated directly.

    x is one element or an integer array of them; the result has the same
    form.  x^d and the indicator are computed here from the exp/log
    tables, not read from vec_pow_all, so build_f's check compares two
    independent paths.
    """
    exp, log = ctx.exp, ctx.log
    q1 = ctx.order - 1

    def power(a, e):  # a^e elementwise for e > 0
        return np.where(a != 0, exp[log[a] * e % q1], 0)

    def mul(a, b):
        return np.where((a != 0) & (b != 0), exp[(log[a] + log[b]) % q1], 0)

    x = np.asarray(x, dtype=np.int64)
    indicator = power(x ^ power(x, 1 << ctx.k), q1)
    gx = g.table[x]
    out = gx ^ mul(gx ^ power(x, dobbertin_exponent(ctx.k)), indicator)
    return int(out) if out.ndim == 0 else out


def build_f(ctx: gf2n.FieldCtx, k: int, g: LutFunction) -> LutFunction:
    """Piecewise function: g on the subfield, x^d elsewhere.

    Cross-checks the table against the closed-form evaluation on 64
    deterministic sample points, drawn once per context (its memo).
    """
    if k != ctx.k:
        raise ValueError("k does not match the field context")
    d = dobbertin_exponent(k)
    table = np.where(ctx.subfield_mask, g.table, gf2n.vec_pow_all(ctx, d))

    def samples() -> np.ndarray:
        rng = random.Random(0x5B0C)
        return np.array([rng.randrange(ctx.order) for _ in range(64)], dtype=np.int64)

    xs = ctx.memo("build_f_samples", samples)
    bad = xs[table[xs] != closed_form_eval(ctx, g, xs)]
    if len(bad):
        raise RuntimeError(f"piecewise and closed-form paths disagree at {bad[0]}")
    return LutFunction(ctx, table)


def instance(ctx: gf2n.FieldCtx, m: int, l1: str, l2: str = "x") -> LutFunction:
    """f for g = L1 o x^(2^m - 1) o L2 on GF(2^k), x^d elsewhere.

    L1 and L2 are affine expressions as parse_affine_expr reads them.
    """
    L1 = parse_affine_expr(ctx, l1)
    L2 = parse_affine_expr(ctx, l2)
    return build_f(ctx, ctx.k, build_g(ctx, ctx.k, m, L1, L2))


# ---------------------------------------------------------------------------
# Binary lookup-table format
# ---------------------------------------------------------------------------

def write_lut(f: LutFunction, path) -> None:
    data = LUT_MAGIC + bytes([f.ctx.n]) + f.table.astype("<u8").tobytes()
    with open(path, "wb") as fh:
        fh.write(data)


def read_lut(path, ctx: gf2n.FieldCtx) -> LutFunction:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(LUT_MAGIC)] != LUT_MAGIC:
        raise ValueError("bad magic; not a lookup-table file")
    if len(blob) == len(LUT_MAGIC):
        raise ValueError("truncated lookup-table file: no field degree byte")
    n = blob[len(LUT_MAGIC)]
    if n != ctx.n:
        raise ValueError(f"table is over GF(2^{n}), context is GF(2^{ctx.n})")
    body = blob[len(LUT_MAGIC) + 1 :]
    size = (1 << n) * 8
    if len(body) < size:
        raise ValueError(f"truncated lookup-table file: {len(body)} of {size} table bytes")
    if len(body) > size:
        raise ValueError(f"oversized lookup-table file: {len(body) - size} bytes past the table")
    # 2^63 and above wrap to negative values, which LutFunction rejects
    return LutFunction(ctx, np.frombuffer(body, dtype="<u8").astype(np.int64))
