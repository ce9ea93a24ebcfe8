"""Builders for the analysed functions over GF(2^(5k)).

For the Dobbertin exponent d = 2^(4k) + 2^(3k) + 2^(2k) + 2^k - 1, the
analysed f is g on the subfield GF(2^k) and x^d everywhere else, for a
map g of GF(2^k) into itself, so g's 2^k values fix f.  Every map of
GF(2^k) here is its 2^k values on the sorted subfield, as int64:

* affine_map gives an affine permutation sum c_i x^(2^i) + e of GF(2^k)
  from its coefficients, and parse_affine_expr from text like "b*x + 1";
* build_g gives g = L1 o x^(2^m - 1) o L2 from two of them;
* build_f gives f for any such g, as the LutFunction of its values.

A LutFunction holds f as those 2^k values, read-only int64, and
LutFunction(ctx, values) is its one constructor, which refuses a value
outside GF(2^k).  A table of all 2^n values enters only through
LutFunction.from_table (read_lut calls it), which refuses a table that
is not x^d off GF(2^k).  f.table is built on first read and kept; the
criteria read the values.  Tables serialise to a binary format (magic
"SBLUT1\\0\\0", one byte n, 2^n little-endian 8-byte values).

For c in GF(2^k)* and i < n the linear maps B(x) = c x^(2^i) and A(y) =
(c^(-d) y)^(2^(n - i)) fix x^d, so A f B is again x^d off GF(2^k), with
f's spectrum, nonlinearity and degree.  A LutFunction finds on first use
and keeps the positions where it differs from x^d (patch) and the key
of its orbit under those maps (orbit_key).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import gf2n

__all__ = [
    "LutFunction",
    "affine_map",
    "dobbertin_exponent",
    "parse_affine_expr",
    "build_g",
    "build_f",
    "instance",
    "write_lut",
    "read_lut",
    "LUT_MAGIC",
]

LUT_MAGIC = b"SBLUT1\x00\x00"


@dataclass(frozen=True, eq=False)
class LutFunction:
    """f on GF(2^n): values[i] at sub[i], sub the sorted subfield, and x^d elsewhere.

    values is stored as a read-only int64 array of 2^k elements of
    GF(2^k); ValueError names the first point whose value is not one.
    """

    ctx: gf2n.FieldCtx
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        ctx, values = self.ctx, _int64(self.values, self.ctx.k, "values")
        sub, listed = ctx.subfield_elems, values.tolist()
        if not set(sub).issuperset(listed):  # on 2^k Python ints: cheaper than numpy calls
            e, i = dobbertin_exponent(ctx.k), next(i for i, v in enumerate(listed) if v not in sub)
            raise ValueError(
                f"the value {listed[i]} at {sub[i]} lies outside GF(2^{ctx.k}); "
                f"only f = x^{e} off the subfield with values in GF(2^{ctx.k}) on it is analysed"
            )
        object.__setattr__(self, "values", values)

    @classmethod
    def from_table(cls, ctx: gf2n.FieldCtx, table: np.ndarray) -> LutFunction:
        """f from a table of its 2^n values, which f keeps as its table.

        ValueError unless the table is x^d off GF(2^k), naming the first
        point where it is not, and takes values in GF(2^k) on it.
        """
        table, e = _int64(table, ctx.n, "table"), dobbertin_exponent(ctx.k)
        d = (table != gf2n.vec_pow_all(ctx, e)).nonzero()[0]
        off = d[~ctx.subfield_mask[d]]
        if len(off):
            raise ValueError(
                f"the table differs from x^{e} at {int(off[0])}, outside GF(2^{ctx.k}); "
                f"only f = x^{e} off the subfield is analysed"
            )
        f = cls(ctx, table[ctx.subfield_index])
        f.__dict__["table"] = table  # what the cached_property would store
        return f

    @functools.cached_property
    def table(self) -> np.ndarray:
        """f at every point of GF(2^n), read-only: x^d with the values written in on GF(2^k)."""
        table = gf2n.vec_pow_all(self.ctx, dobbertin_exponent(self.ctx.k)).copy()
        table[self.ctx.subfield_index] = self.values
        table.flags.writeable = False
        return table

    @functools.cached_property
    def patch(self) -> np.ndarray:
        """The positions i, ascending, where f differs from x^d: G[i] != C[i]
        in subfield_maps, that is f(sub[i]) != sub[i]^d."""
        g, c = self.subfield_maps
        i = (g != c).nonzero()[0]
        i.flags.writeable = False  # every criterion reads this one array
        return i

    @functools.cached_property
    def orbit_key(self) -> bytes:
        """The least image of the values under f -> A f B, as bytes.

        B(x) = c sigma^i(x) and A(y) = sigma^(-i)(c^(-d) y), sigma(x) = x^2,
        for every c in GF(2^k)* and i < k: f takes its values on GF(2^k)
        in GF(2^k), where sigma^k is the identity, so i < k gives every
        image.  Two functions share a key exactly when they lie in one orbit.
        """
        ctx, q1, e = self.ctx, self.ctx.order - 1, dobbertin_exponent(self.ctx.k)

        def maps() -> tuple:
            # column c k + i: the position of B(s) for each s of the sorted
            # subfield (B(0) = 0), and log A(y) = log y * mult + shift
            logc = ctx.log[ctx.subfield_index[1:]]
            frob = 1 << np.arange(ctx.k)  # log sigma^i(y) = 2^i log y
            at = np.zeros((len(logc) + 1, len(logc) * ctx.k), dtype=np.int64)
            at[1:] = ctx.exp[(logc[:, None, None] + frob[:, None] * logc) % q1].reshape(-1, len(logc)).T
            mult = np.tile((1 << ctx.n) // frob % q1, len(logc))  # 2^(n - i) mod 2^n - 1
            shift = -e * np.repeat(logc, ctx.k) % q1 * mult % q1
            # full-shape copies: elementwise without broadcasting is faster here
            return _subfield_coords(ctx, at), *(np.repeat(a[None], len(at), axis=0) for a in (mult, shift))

        at, mult, shift = ctx.memo("orbit_maps", maps)
        v = self.values[at]
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
        kept in the memo.
        """
        coords = _subfield_coords(self.ctx, self.values)
        coords.flags.writeable = False
        return coords, _subfield_power(self.ctx)


def _int64(array: np.ndarray, bits: int, name: str) -> np.ndarray:
    """array, one-dimensional with 2^bits integer entries (ValueError otherwise),
    made read-only as int64.

    The kernels index and XOR in int64; a view is copied too, since a
    writeable base could change it later.
    """
    if not isinstance(array, np.ndarray):
        raise ValueError(f"{name} must be a numpy array, not {type(array).__name__}")
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, not of shape {array.shape}")
    if len(array) != 1 << bits:
        raise ValueError(f"{name} length must be 2^{bits}, not {len(array)}")
    if array.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, not {array.dtype}")
    if array.dtype != np.int64 or not array.flags.owndata:
        array = array.astype(np.int64)
    array.flags.writeable = False
    return array


def _subfield_coords(ctx: gf2n.FieldCtx, values) -> np.ndarray:
    """Elements of GF(2^k) as their positions in the sorted subfield, the
    linear coordinates of LutFunction.subfield_maps.  A map of GF(2^k)
    written in them is a 2^k-entry table the analyzer kernels take as they are.
    """
    return np.searchsorted(ctx.subfield_index, values)


def _subfield_power(ctx: gf2n.FieldCtx) -> np.ndarray:
    """C, x^d on the sorted subfield in subfield coordinates; kept in the memo."""

    def build() -> np.ndarray:
        return _subfield_coords(ctx, _power(ctx, ctx.subfield_index, dobbertin_exponent(ctx.k)))

    return ctx.memo("subfield_power", build)


def affine_map(ctx: gf2n.FieldCtx, linear_coeffs, constant: int) -> np.ndarray:
    """The affine permutation sum c_i x^(2^i) + constant of GF(2^k), c_i the
    k linear coefficients, as its values on the sorted subfield, read-only int64.

    ValueError unless there are exactly k coefficients, each of them and
    the constant lie in GF(2^k), and the map is a bijection.
    """
    k = ctx.k
    if len(linear_coeffs) != k:
        raise ValueError(f"need exactly {k} linear coefficients")
    for c in (*linear_coeffs, constant):
        if not (0 <= c < ctx.order and ctx.subfield_mask[c]):  # c < 0 would wrap
            raise ValueError(f"coefficient {c} lies outside GF(2^{k})")
    logs = ctx.log[ctx.subfield_index[1:]]
    image = np.zeros(len(logs) + 1, dtype=np.int64)
    for i, c in enumerate(linear_coeffs):
        if c:  # c a^(2^i) = gamma^(log c + 2^i log a)
            image[1:] ^= ctx.exp[(ctx.log.item(c) + (logs << i)) % (ctx.order - 1)]
    image ^= constant
    if len(set(image.tolist())) != len(image):  # the values lie in GF(2^k)
        raise ValueError("affine map is not a bijection of the subfield")
    image.flags.writeable = False
    return image


def parse_affine_expr(ctx: gf2n.FieldCtx, text: str) -> np.ndarray:
    """Parse 'c*x^(2^i)' sums like "x+1", "b*x+b" or "b^2*x^2 + b" into
    the map's values on the sorted subfield, as affine_map gives them.

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
    return affine_map(ctx, coeffs, constant)


_DOB_TERMS = (4, 3, 2, 1)


def dobbertin_exponent(k: int) -> int:
    if k < 1:
        raise ValueError("k must be positive")
    return sum(1 << (j * k) for j in _DOB_TERMS) - 1


def build_g(
    ctx: gf2n.FieldCtx,
    k: int,
    m: int,
    L1: np.ndarray,
    L2: np.ndarray,
) -> np.ndarray:
    """g = L1 o x^(2^m - 1) o L2 as its 2^k values on the sorted subfield.

    L1 and L2 are affine permutations as affine_map gives them; g composes
    their values with the inner power map, all on the 2^k subfield points.
    For gcd(k, m) != 1 the inner power map, and so g, is not a subfield
    permutation.  Those instances are built and analysed all the same;
    is_permutation reports the property.
    """
    if k != ctx.k:
        raise ValueError("k does not match the field context")
    if m < 1:
        raise ValueError("m must be positive")
    return L1[_subfield_coords(ctx, _power(ctx, L2, (1 << m) - 1))]


def _power(ctx, a, e):  # a^e elementwise for e > 0
    q1 = ctx.order - 1  # e reduced first: an int64 product would wrap for large e
    return np.where(a != 0, ctx.exp[ctx.log[a] * (e % q1) % q1], 0)


def build_f(ctx: gf2n.FieldCtx, k: int, g: np.ndarray) -> LutFunction:
    """f = g on the subfield and x^d elsewhere, g given by its 2^k values
    on the sorted subfield, as build_g returns them.

    g must map GF(2^k) into itself (ValueError naming the first point that
    it does not, as LutFunction does).
    """
    if k != ctx.k:
        raise ValueError("k does not match the field context")
    return LutFunction(ctx, g)


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
    # 2^63 and above wrap to negative values, which from_table refuses
    return LutFunction.from_table(ctx, np.frombuffer(body, dtype="<u8").astype(np.int64))
