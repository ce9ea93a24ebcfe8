"""Builders for the analysed functions over GF(2^(5k)).

Two families are materialised as full lookup tables, for the Dobbertin
exponent d = 2^(4k) + 2^(3k) + 2^(2k) + 2^k - 1:

* subfield maps g = L1 o x^(2^m - 1) o L2 for affine permutations
  L1, L2 of GF(2^k), stored in big-field coordinates with the
  non-subfield slots zeroed;
* the piecewise modification f that agrees with g on the subfield and
  with x^d everywhere else.  The closed form
  f(x) = g(x) + (g(x) + x^d) (x + x^(2^k))^(2^n - 1)
  is implemented as an independent evaluation path and cross-checked
  against the piecewise table on a fixed sample of points.

Tables are immutable once built (LutFunction makes the table it is
handed read-only, and copies it first, as int64, when it is a view of
another array or holds another integer dtype) and serialise to a
binary format (magic "SBLUT1\\0\\0", one byte n, 2^n little-endian
8-byte values).

For c in GF(2^k)* and i < n the linear maps B(x) = c x^(2^i) and A(y) =
(c^(-d) y)^(2^(n - i)) fix x^d, so A f B is again x^d off GF(2^k), with
f's spectrum, nonlinearity and degree.  A LutFunction finds on first use
and keeps the points where it differs from x^d (patch, ValueError if one
lies outside GF(2^k) or takes a value outside GF(2^k)) and the key of its
orbit under those maps (orbit_key).  build_f refuses a g with a value
outside GF(2^k) on it, knows the patch from g's 2^k values and hands it
over.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

import numpy as np

from . import gf2n

__all__ = [
    "LutFunction",
    "AffinePerm",
    "dobbertin_exponent",
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
    """A function GF(2^n) -> GF(2^n) materialised as a read-only table of 2^n values."""

    ctx: gf2n.FieldCtx
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.table, np.ndarray):
            raise ValueError(f"table must be a numpy array, not {type(self.table).__name__}")
        if self.table.ndim != 1:
            raise ValueError(f"table must be one-dimensional, not of shape {self.table.shape}")
        if len(self.table) != self.ctx.order:
            raise ValueError("table length must be 2^n")
        if not np.issubdtype(self.table.dtype, np.integer):
            raise ValueError(f"table must hold integers, not {self.table.dtype}")
        if self.table.min() < 0 or self.table.max() >= self.ctx.order:
            raise ValueError("table entry outside the field")
        # the kernels index and XOR in int64; a view is copied too, since a
        # writeable base could change it after patch
        if self.table.dtype != np.int64 or not self.table.flags.owndata:
            object.__setattr__(self, "table", self.table.astype(np.int64))
        self.table.flags.writeable = False

    @functools.cached_property
    def patch(self) -> np.ndarray:
        """The sorted points where the table differs from x^d: ValueError unless
        all lie in GF(2^k) and take values in GF(2^k)."""
        ctx, e = self.ctx, dobbertin_exponent(self.ctx.k)
        d = np.flatnonzero(self.table != gf2n.vec_pow_all(ctx, e))
        if not ctx.subfield_mask[d].all():
            raise ValueError(
                f"the table differs from x^{e} at {int(d[~ctx.subfield_mask[d]][0])}, "
                f"outside GF(2^{ctx.k}); only f = x^{e} off the subfield is analysed"
            )
        # off d the table is x^d, which maps GF(2^k) into itself
        _refuse_values_off_subfield(ctx, d, self.table[d])
        d.flags.writeable = False  # every criterion reads this one array
        return d

    @functools.cached_property
    def orbit_key(self) -> bytes:
        """The least image of the subfield table under f -> A f B, as bytes.

        B(x) = c sigma^i(x) and A(y) = sigma^(-i)(c^(-d) y), sigma(x) = x^2,
        for every c in GF(2^k)* and i < k: f takes its values on GF(2^k)
        in GF(2^k), where sigma^k is the identity, so i < k gives every
        image.  Two tables share a key exactly when they lie in one orbit;
        a table that patch refuses gets none.
        """
        self.patch  # raises for a table off the construction
        ctx, q1, e = self.ctx, self.ctx.order - 1, dobbertin_exponent(self.ctx.k)

        def maps() -> tuple:
            # column c k + i: B(s) for each s of the sorted subfield (B(0) = 0),
            # and log A(y) = log y * mult + shift
            logc = ctx.log[ctx.subfield_index[1:]]
            frob = 1 << np.arange(ctx.k)  # log sigma^i(y) = 2^i log y
            at = np.zeros((len(logc) + 1, len(logc) * ctx.k), dtype=np.int64)
            at[1:] = ctx.exp[(logc[:, None, None] + frob[:, None] * logc) % q1].reshape(-1, len(logc)).T
            mult = np.tile((1 << ctx.n) // frob % q1, len(logc))  # 2^(n - i) mod 2^n - 1
            shift = -e * np.repeat(logc, ctx.k) % q1 * mult % q1
            # full-shape copies: elementwise without broadcasting is faster here
            return at, *(np.repeat(a[None], len(at), axis=0) for a in (mult, shift))

        at, mult, shift = ctx.memo("orbit_maps", maps)
        v = self.table[at]
        t = ctx.log[v] * mult
        t += shift
        t %= q1
        image = ctx.exp[t]
        image[v == 0] = 0
        return image[:, np.lexsort(image[::-1])[0]].tobytes()

    @functools.cached_property
    def subfield_maps(self) -> tuple:
        """(G, C): f and x^d on GF(2^k) in sorted-subfield coordinates.

        G[i] = j when f(sub[i]) = sub[j], sub the sorted subfield.  The sorted
        subfield is a linear coordinate system, sub[i ^ j] = sub[i] ^ sub[j]:
        every nonzero element leads with a pivot bit of the echelon basis, so
        the order is that of the coordinate vectors.  C is x^d there, which
        acts as x^3 (d = 3 mod 2^k - 1); it depends on the field alone and is
        kept in the memo.  A table that patch refuses has neither.
        """
        self.patch  # raises for a table off the construction
        ctx, sub = self.ctx, self.ctx.subfield_index
        power = ctx.memo("subfield_power", lambda: np.searchsorted(
            sub, gf2n.vec_pow_all(ctx, dobbertin_exponent(ctx.k))[sub]))
        coords = np.searchsorted(sub, self.table[sub])
        coords.flags.writeable = False
        return coords, power

    def __call__(self, x: int) -> int:
        return int(self.table[x])


def _refuse_values_off_subfield(ctx: gf2n.FieldCtx, points: np.ndarray, values: np.ndarray) -> None:
    """ValueError naming the first of the points of GF(2^k) whose value lies outside it."""
    off = np.flatnonzero(~ctx.subfield_mask[values])
    if len(off):
        e, i = dobbertin_exponent(ctx.k), off[0]
        raise ValueError(
            f"the value {int(values[i])} at {int(points[i])} lies outside GF(2^{ctx.k}); "
            f"only f = x^{e} off the subfield with values in GF(2^{ctx.k}) on it is analysed"
        )


def _assembled(ctx: gf2n.FieldCtx, table: np.ndarray, patch: np.ndarray | None = None) -> LutFunction:
    """A LutFunction over a new table of checked field elements, with no range
    scan, and with the patch build_f found on GF(2^k), so no compare with x^d."""
    f = object.__new__(LutFunction)
    table.flags.writeable = False
    f.__dict__.update(ctx=ctx, table=table)
    if patch is not None:
        patch.flags.writeable = False
        f.__dict__["patch"] = patch  # what the cached_property would store
    return f


@dataclass(frozen=True)
class AffinePerm:
    """Affine permutation of the subfield GF(2^k): sum c_i x^(2^i) + constant.

    image[i] is the image of the i-th element of the sorted subfield, a
    read-only array computed once from the exp/log tables.
    """

    ctx: gf2n.FieldCtx
    linear_coeffs: tuple
    constant: int
    image: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ctx, k = self.ctx, self.ctx.k
        if len(self.linear_coeffs) != k:
            raise ValueError(f"need exactly {k} linear coefficients")
        for c in (*self.linear_coeffs, self.constant):
            if not (0 <= c < ctx.order and ctx.subfield_mask[c]):  # c < 0 would wrap
                raise ValueError(f"coefficient {c} lies outside GF(2^{k})")
        logs = ctx.log[ctx.subfield_index[1:]]
        image = np.zeros(len(logs) + 1, dtype=np.int64)
        for i, c in enumerate(self.linear_coeffs):
            if c:  # c a^(2^i) = gamma^(log c + 2^i log a)
                image[1:] ^= ctx.exp[(ctx.log.item(c) + (logs << i)) % (ctx.order - 1)]
        image ^= self.constant
        if len(set(image.tolist())) != len(image):  # the values lie in GF(2^k)
            raise ValueError("affine map is not a bijection of the subfield")
        image.flags.writeable = False
        object.__setattr__(self, "image", image)


def parse_affine_expr(ctx: gf2n.FieldCtx, text: str) -> AffinePerm:
    """Parse 'c*x^(2^i)' sums like "x+1", "b*x+b" or "b^2*x^2 + b".

    Coefficients are 0, 1 or powers b^j of the canonical subfield
    generator; x exponents must be powers of two below 2^k.
    """
    k = ctx.k
    beta = ctx.subfield_generator

    def digits(tok: str) -> bool:  # int() would also take a sign, "_" or non-ASCII digits
        return tok.isascii() and tok.isdigit()

    def const_value(tok: str) -> int:
        if tok in ("0", "1"):
            return int(tok)
        if tok == "b":
            return beta
        if tok.startswith("b^") and digits(tok[2:]):
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
        elif tail.startswith("^") and digits(tail[1:]):
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


def build_g(
    ctx: gf2n.FieldCtx,
    k: int,
    m: int,
    L1: AffinePerm,
    L2: AffinePerm,
) -> LutFunction:
    """g = L1 o x^(2^m - 1) o L2 on the subfield, zero elsewhere.

    Composes the images of L2 and L1 with the inner power map, all on
    the 2^k subfield points.  For gcd(k, m) != 1 the inner power map,
    and so g, is not a subfield permutation.  Those instances are built
    and analysed all the same; is_permutation reports the property.
    """
    if k != ctx.k:
        raise ValueError("k does not match the field context")
    if m < 1:
        raise ValueError("m must be positive")
    sub, q1 = ctx.subfield_index, ctx.order - 1
    y = L2.image  # the exponent reduced first: an int64 product would wrap for large m
    inner = np.where(y != 0, ctx.exp[ctx.log[y] * (((1 << m) - 1) % q1) % q1], 0)
    table = np.zeros(ctx.order, dtype=np.int64)
    table[sub] = L1.image[np.searchsorted(sub, inner)]
    return _assembled(ctx, table)


def _power(ctx, a, e):  # a^e elementwise for e > 0
    return np.where(a != 0, ctx.exp[ctx.log[a] * e % (ctx.order - 1)], 0)


def _closed_form_parts(ctx: gf2n.FieldCtx, x: np.ndarray) -> tuple:
    """x^d and the indicator (x + x^(2^k))^(2^n - 1), from the exp/log tables."""
    indicator = _power(ctx, x ^ _power(ctx, x, 1 << ctx.k), ctx.order - 1)
    return _power(ctx, x, dobbertin_exponent(ctx.k)), indicator


def _closed_form(ctx, gx, xd, indicator):  # g(x) + (g(x) + x^d) * indicator, by exp/log
    a, q1 = gx ^ xd, ctx.order - 1
    return gx ^ np.where((a != 0) & (indicator != 0), ctx.exp[(ctx.log[a] + ctx.log[indicator]) % q1], 0)


def closed_form_eval(ctx: gf2n.FieldCtx, g: LutFunction, x):
    """f(x) = g(x) + (g(x) + x^d)(x + x^(2^k))^(2^n - 1), evaluated directly.

    x is one element or an integer array of them; the result has the same
    form.  x^d and the indicator are computed here from the exp/log
    tables, not read from vec_pow_all, so build_f's check compares two
    independent paths.
    """
    x = np.asarray(x, dtype=np.int64)
    out = _closed_form(ctx, g.table[x], *_closed_form_parts(ctx, x))
    return int(out) if out.ndim == 0 else out


def build_f(ctx: gf2n.FieldCtx, k: int, g: LutFunction) -> LutFunction:
    """Piecewise function: g on the subfield, x^d elsewhere.

    g must map GF(2^k) into itself (ValueError naming the first point that
    it does not, as LutFunction.patch).  The patch, the points of GF(2^k)
    where g differs from x^d, comes from a 2^k compare and goes to f with
    its table.  The table is checked against the closed-form evaluation on
    64 deterministic sample points; the points, with x^d and the indicator
    there, are drawn and computed once per context (its memo).
    """
    if k != ctx.k:
        raise ValueError("k does not match the field context")
    sub = ctx.subfield_index
    values = g.table[sub]
    _refuse_values_off_subfield(ctx, sub, values)
    table = gf2n.vec_pow_all(ctx, dobbertin_exponent(k)).copy()
    patch = sub[values != table[sub]]
    table[sub] = values

    def samples() -> tuple:
        rng = random.Random(0x5B0C)
        xs = np.array([rng.randrange(ctx.order) for _ in range(64)], dtype=np.int64)
        return xs, *_closed_form_parts(ctx, xs)

    xs, xd, indicator = ctx.memo("build_f_samples", samples)
    bad = xs[table[xs] != _closed_form(ctx, g.table[xs], xd, indicator)]
    if len(bad):
        raise RuntimeError(f"piecewise and closed-form paths disagree at {bad[0]}")
    return _assembled(ctx, table, patch)


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
