"""Criteria computations on the modified Dobbertin functions.

Every LutFunction equals the Dobbertin power map P = x^d, d =
dobbertin_exponent(k), outside the subfield GF(2^k) and maps GF(2^k)
into itself: that is what it stores, its 2^k values there, and a table
that is not of this shape is refused where it enters
(LutFunction.from_table, which read_lut calls), before any criterion
sees it.  So d is fixed by the field, and every kernel reads it from
ctx.k (as e, since d names the points D in the code) and P from
vec_pow_all.  f then differs from P only on the points D of GF(2^k)
where G != C (below), and each criterion has one kernel:

* differential spectrum, in closed form: P is APN, so row 1 holds 2 on
  Im Delta, Delta(x) = P(x) + P(x + 1), and 0 elsewhere, and only the
  pairs through D move a cell.  In the rows outside GF(2^k) (generic
  rows) each point of D moves 2^n - 2^k cells from 2 to 0 and as many
  from 0 or 2 up by 2, and a table of the field, read at G, says how
  many land on 2: moments of the Walsh rows of P (_spectrum, _counts);
  the rows of GF(2^k)* come from GF(2^k) (below);
* Walsh maximum max |W(u, v)|, read by nonlinearity: the g = gcd(d,
  2^n - 1) rows W_P(u, gamma^j), j < g, one fast transform each per
  field, shared with the spectrum, give W_P on every orbit of (u, v);
  the few orbits that can still hold the maximum are kept, and the
  correction W_f - W_P comes from GF(2^k) (below);
* algebraic degree: the paper's degree formula, max(wt(d), (n - k) +
  deg H) with H = f + x^d on GF(2^k), a 2^k-entry transform; on a tie
  of the two terms the subset-XOR (Moebius) transform of the whole
  table, f.table, all output coordinates in parallel (anf_degree, along
  the last axis of any stack of tables);
* permutation status: from the structure, gcd(d, 2^n - 1) = 1 and f
  maps GF(2^k) onto itself, read off the 2^k values of f there.

f.subfield_maps holds G = f and C = x^d on GF(2^k) as 2^k-entry tables
in subfield coordinates (x^d acts as x^3 there), and two identities
reduce the rest to them.

Rows of GF(2^k)*: for a in GF(2^k)* and b in GF(2^k), x and x + a lie
in GF(2^k) together, and no x outside it solves P(x + a) + P(x) = b.
For b != 0, x = a z gives (z + 1)^d + z^d = b / a^d in GF(2^k)*, which
by Lemma 1 has no solution z outside GF(2^k); for b = 0, (x + a) / x
would be a gcd(d, 2^n - 1)-th root of unity other than 1: none for odd
k, a cube root of unity w in GF(4), a subfield of GF(2^k), for even k,
and then x = a / (w + 1) lies in GF(2^k).  So those cells hold the DDT
of G, the other cells of those rows that of P, and omega trades
omega_counts(C) for omega_counts(G).  The same argument makes the
generic rows, a outside GF(2^k), exact: pairs {s, s + a} and {s', s' +
a}, s != s' in D, share a cell only when, with y = s + a and alpha =
s + s', P(y) + P(y + alpha) is beta = P(s) + P(s'), f(s) + f(s') or
f(s) + P(s'); then y = alpha z with P(z) + P(z + 1) = beta / alpha^d in
GF(2^k), so z, and with it y and a, lie in GF(2^k).  So in a generic
row each pair through D moves its own cells.

Walsh correction: E(u, v) = W_f - W_P = sum over y in GF(2^k) of
((-1)^Tr(v f(y)) - (-1)^Tr(v y^d)) (-1)^Tr(u y).  For y in GF(2^k),
Tr_n(v y) = Tr_k(y Tr_{n/k}(v)), so in subfield coordinates
Tr_n(v sub[i]) = <V(v), i>, bit t of V(v) being Tr(v sub[2^t]) (U the
same map, for u).  So E = Delta[V(v), U(u)], Delta = W_G - W_C the
difference of the 2^k x 2^k Walsh tables of G and C, and E depends on
(u, v) only through its class (U(u), V(v)).  For each class the memo
keeps top and bottom, the largest and the least W_P over the kept
orbits that hold it, and max |W_f| is the largest of top + Delta and
-(bottom + Delta).  The cover rule: the kept orbits are walked in
descending order of W_P for top, ascending for bottom; the first orbit
that holds a class sets it, the walk stops once every class is set, and
a class no kept orbit holds is left out.

omega_counts and anf_degree take plain integer arrays of length 2^j,
so they also run on maps of GF(2^k) written in subfield coordinates;
omega_counts takes O(4^j) memory and is meant for such small tables.
Everything runs in one process.

What depends on the field and x^d alone is kept in the context's memo
(gf2n.FieldCtx.memo), keyed by name alone, since x^d is the only power
map admitted: x^d, the bool mask of Im Delta, the Walsh rows of P, the
2^k x 2^k count table, C with its omega, and top and bottom of each
class over the orbits any f over the field could keep.

What depends on f is kept per orbit of the linear equivalences
f -> A f B that fix x^d (see construct): f and A f B have the same
spectrum, max |W| and degree.  Each criterion is computed for the
first f of an orbit met on a context and stored in the memo under
(criterion, f.orbit_key): the spectrum up to delta, max |W|, the
degree.  A later f of the orbit reads them.  f finds its orbit key on
first use and keeps it, so one f read by several criteria or claims is
keyed once.  A cold context gives the same reports.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import gf2n
from .construct import LutFunction, dobbertin_exponent

__all__ = [
    "CriteriaReport",
    "differential_spectrum",
    "omega_counts",
    "walsh_max_abs",
    "nonlinearity",
    "algebraic_degree",
    "anf_degree",
    "is_permutation",
    "nl_lower_bound",
    "analyze",
]


def omega_counts(table: np.ndarray) -> np.ndarray:
    """omega[i] = #{(a, b), a != 0 : #{x : t(x + a) + t(x) = b} = i}.

    t is an integer table of length 2^j with values below 2^j; one
    bincount counts the (2^j - 1) 2^j cells (a, b), a second their counts.
    Meant for small tables, the 2^k-entry maps of GF(2^k): the cells and
    the first bincount take O(4^j) memory.
    """
    q = len(table)
    x = np.arange(q)
    cells = (x[1:, None] * q) | (table[x ^ x[1:, None]] ^ table)
    return np.bincount(np.bincount(cells.ravel(), minlength=q * q)[q:], minlength=q + 1)


def _per_orbit(f: LutFunction, criterion: str, kernel) -> np.ndarray:
    """kernel(f), run for the first f of its orbit met on the context and memoised."""
    return f.ctx.memo((criterion, f.orbit_key), lambda: np.atleast_1d(kernel(f)))


def differential_spectrum(f: LutFunction) -> dict:
    """{i: omega_i} for even i up to delta, the largest key: omega_i counts
    the pairs (a, b), a != 0, with i solutions of f(x + a) + f(x) = b."""
    omega = _per_orbit(f, "spectrum", _spectrum)
    return {i: int(omega[i]) for i in range(0, len(omega), 2)}


def _spectrum(f: LutFunction) -> np.ndarray:
    """omega_0 .. omega_delta of f, in closed form.

    x^d is APN (Dobbertin), so row 1 of P = x^d holds 2 on the 2^(n-1)
    cells of Im Delta, Delta(x) = P(x) + P(x + 1), and 0 elsewhere; the
    mask of Im Delta is built once per field, and its size checks that x^d
    is APN.  As delta_P(a, b) = delta_P(1, b a^(-d)), omega_P is 2^(n-1)
    (2^n - 1) at i = 0 and at i = 2.  Each pair {s, s + a}, s in D, moves
    its cell P(s) + P(s + a) down by 2 and f(s) + f(s + a) up by 2.
    * Generic rows, a outside GF(2^k): with a = s / w (a = 1 / w for s =
      0) the down cell is row1[P(w) + P(w + 1)] = 2 (row1[1] for s = 0),
      and the up cell row1[r P(w) + P(w + 1)] (row1[r P(w) + 1] for s =
      0), r = f(s) / s^d (f(0) for s = 0).  So s moves N = 2^n - 2^k
      cells down from 2 to 0 and N up: c(r, [s != 0]), the w outside
      GF(2^k) whose up cell lies in Im Delta, from 2 to 4, and N - c from
      0 to 2, each move exact (module docstring).  C = sum over D of c
      gives omega_P + C (1, -2, 1) on i = 0, 2, 4.  c depends on s only
      through (f(s), s), so the count table T of the field (_counts)
      gives C = sum_i T[G[i], i]; T is 0 where f(s) = s^d, s outside D.
      f = x^d (G = C) has C = 0, so it builds no T and no transform.
    * Rows of GF(2^k)*: omega trades omega_counts(C) for omega_counts(G)
      (see the module docstring).
    """
    gmap, cmap = f.subfield_maps
    ctx, k, q, e = f.ctx, f.ctx.k, f.ctx.order, dobbertin_exponent(f.ctx.k)

    def im_delta() -> np.ndarray:
        mask = np.zeros(q, dtype=bool)
        pairs = gf2n.vec_pow_all(ctx, e).reshape(-1, 2)  # x and x + 1 differ in bit 0 only
        mask[pairs[:, 0] ^ pairs[:, 1]] = True
        if np.count_nonzero(mask) != q >> 1:
            raise ValueError(f"x^{e} is not APN on GF(2^{ctx.n}): |Im Delta| != 2^{ctx.n - 1}")
        return mask

    mask = ctx.memo("im_delta", im_delta)
    c = 0
    if not np.array_equal(gmap, cmap):
        c = int(ctx.memo("counts", lambda: _counts(ctx, mask, cmap))[gmap, np.arange(len(gmap))].sum())
    half = (q >> 1) * (q - 1)
    omega = np.zeros(max(5, (1 << k) + 1), dtype=np.int64)
    omega[0:5:2] = half + c, half - 2 * c, c
    omega[: len(gmap) + 1] += omega_counts(gmap) - ctx.memo("subfield_omega", lambda: omega_counts(cmap))
    return omega[: np.flatnonzero(omega)[-1] + 1]


def _counts(ctx: gf2n.FieldCtx, mask: np.ndarray, cmap: np.ndarray) -> np.ndarray:
    """The count table T of _spectrum, 2^k x 2^k int64: T[y, i] = c(sub[y]
    / sub[i]^d, 1) for i != 0, c(sub[y], 0) at i = 0, 0 where y = C[i].

    q = 2^n.  c is half the pairs (x, w) with Delta(x) the up cell of w,
    less the 2^k w of GF(2^k), counted on the mask.  Put v = gamma^j t^d
    (j < g = gcd(d, q - 1); each v != 0 is met g times over t != 0) and
    W_j(u) = W_P(u, gamma^j).  Over x, (-1)^Tr(v Delta(x)) sums to sum_u
    W_j(u)^2 (-1)^Tr(u t) / q; over w, (-1)^Tr(v cell) sums to sum_u W_j(u)
    X_j(u) (-1)^Tr(u t) / q, X_j(u) = W_P(u, gamma^j r) at shift 1 (q [u =
    0] for r = 0) and W_P(0, gamma^j r) at shift 0 (Tr(v) = Tr(gamma^j
    P(t))).  Summing over t != 0, with Parseval: 2 q^2 g c = q^3 g + sum_j
    sum_u (W_j^3 - q W_j)(u) X_j(u).  With j' = (j + log r) mod g and l^d =
    gamma^(j + log r - j'), W_P(u, gamma^j r) = W_j'(u / l), row j' of
    _walsh_rows (log order) rotated by log l, so a count at shift 1 is g
    contiguous dot products, and at shift 0 reads each row's sum.  Odd k:
    g = 1 and x^d permutes, so W(0) = 0, and c = q / 2 except at shift 1,
    r != 0: 2 q^2 c = q^3 + sum_u W(u)^3 W(u / l).  Even k: g = 3, and the
    W_j(0) enter.  Each W_j(u), u != 0, is a multiple of 2^(2k) (Canteaut,
    Charpin, Dobbertin), checked here, so the sums over u != 0 run exactly
    in int64 on (W^3 - q W) / 2^(6k), built in place one row at a time.
    """
    k, q, q1, e = ctx.k, ctx.order, ctx.order - 1, dobbertin_exponent(ctx.k)
    g = math.gcd(e, q1)
    p = gf2n.vec_pow_all(ctx, e)
    rows, sub = _walsh_rows(ctx), ctx.subfield_index
    logs = ctx.log[sub]
    totals = [[q**3 * g] * len(sub) for _ in (0, 1)]  # 2 q^2 g c(sub[y], shift) before the w of GF(2^k)
    for j in range(g):
        if (rows[j, :-1] & ((1 << 2 * k) - 1)).any():
            raise ValueError(f"a Walsh value of x^{e} on GF(2^{ctx.n}) is not a multiple of 2^{2 * k}")
        w = rows[j, :-1] >> 2 * k
        a = w * w  # (W_j(u)^3 - q W_j(u)) / 2^(6k) over u != 0, in log order
        a -= 1 << k
        a *= w
        del w
        a_sum, w0 = int(a.sum()), int(rows[j, -1])
        for y, (r, lr) in enumerate(zip(sub.tolist(), logs.tolist())):
            jr = (j + lr) % g
            x0 = int(rows[jr, -1]) if r else q  # X_j(0)
            for shift in (0, 1):
                if r and shift:  # row j' rotated by log l, l^d = gamma^(j + log r - j')
                    s = (j + lr - jr) // g * pow(e // g, -1, q1 // g) % (q1 // g)
                    dot = int(a[s:] @ rows[jr, : q1 - s]) + int(a[:s] @ rows[jr, q1 - s : q1])
                else:  # X_j(u) is X_j(0) on every u != 0, or 0 for r = 0
                    dot = a_sum * x0 if r else 0
                totals[shift][y] += (w0**3 - q * w0) * x0 + (dot << 6 * k)
    counts = np.array([[t // (2 * q * q * g) for t in row] for row in totals])
    # r P(w) for r = sub[y] down and w = sub[i] across: the w of GF(2^k), counted on the mask
    up = np.where((p[sub] != 0) & (sub[:, None] != 0), ctx.exp[(ctx.log[p[sub]] + logs[:, None]) % q1], 0)
    for shift in (0, 1):
        counts[shift] -= np.count_nonzero(mask[up ^ (p[sub ^ 1] if shift else 1)], axis=1)
    ratio = np.where(sub[:, None] != 0, ctx.exp[(logs[:, None] - e * logs) % q1], 0)  # sub[y] / sub[i]^d
    table = counts[1, np.searchsorted(sub, ratio)]
    table[:, 0] = counts[0]
    table[cmap, np.arange(len(sub))] = 0
    return table


# ---------------------------------------------------------------------------
# Walsh spectrum
# ---------------------------------------------------------------------------

def _fwht_lastaxis(a: np.ndarray) -> np.ndarray:
    """In-place fast transform along the last axis (length a power of two)
    of a C-contiguous integer array; returns a.

    The index splits into digits of up to 5 bits, and each pass multiplies
    one digit by the Hadamard matrix of its size, so one BLAS product in
    float64 does the butterflies of five stages.  A pass runs on blocks of
    at most _FWHT_BLOCK entries and writes each back into a, so the float64
    scratch stays that small whatever the length.  The sums are exact:
    every partial sum is an integer below 2^53 that a's dtype holds.
    """
    q = a.shape[-1]
    h = min(q, 32)
    rows = a.reshape(-1, h)
    step = _FWHT_BLOCK // h
    for i in range(0, len(rows), step):
        rows[i : i + step] = rows[i : i + step] @ _hadamard(h)
    while h < q:
        r = min(q // h, 32)
        blocks = a.reshape(-1, r, h)
        step, width = max(1, _FWHT_BLOCK // (r * h)), min(h, _FWHT_BLOCK // r)
        for i in range(0, len(blocks), step):
            for j in range(0, h, width):
                view = blocks[i : i + step, :, j : j + width]
                view[...] = _hadamard(r) @ view
        h *= r
    return a


_FWHT_BLOCK = 1 << 14  # 128 KiB of float64 scratch: the fastest of 2^11 .. 2^18 at n = 15 and 20


@functools.cache
def _hadamard(q: int) -> np.ndarray:
    """H[a, b] = (-1)^<a, b> for a, b < q, in float64, read-only."""
    a = np.arange(q)
    h = 1.0 - 2 * (np.bitwise_count(a[:, None] & a) & 1)
    h.flags.writeable = False
    return h


def _psi_table(ctx: gf2n.FieldCtx) -> np.ndarray:
    """Bit-linear reindexing with Tr(u x) = <psi(u), x> in the standard basis.

    Bit j of psi(u) is Tr(u x^j), which is GF(2)-linear in u, so the
    table doubles one basis element at a time: psi[h:2h] = psi[:h] ^
    psi(x^i) for h = 2^i, where bit j of psi(x^i) is Tr(x^(i+j)).
    """
    n = ctx.n
    powers = [1]  # x^t for t <= 2n - 2, reduced by the modulus
    for _ in range(2 * n - 2):
        t = powers[-1] << 1
        powers.append(t ^ ctx.modulus if t >> n else t)
    tr = ctx.trace_bits[powers].astype(np.int64)
    bits = np.arange(n)
    psi = np.zeros(ctx.order, dtype=np.int64)
    for i in range(n):
        h = 1 << i
        np.bitwise_xor(psi[:h], int((tr[i : i + n] << bits).sum()), out=psi[h : 2 * h])
    return psi


def _walsh_rows(ctx: gf2n.FieldCtx) -> np.ndarray:
    """The g = gcd(d, 2^n - 1) Walsh rows of P = x^d in log order, in the
    memo: rows[j, i] = W_P(gamma^i, gamma^j), rows[j, -1] = W_P(0, gamma^j).

    Tr(gamma^j x^d) is trace_bits[exp] rotated by j, read at d log x (0 at
    x = 0).  A fast transform per row gives W_P at psi(u) (_psi_table).
    """

    def build() -> np.ndarray:
        q1, e = ctx.order - 1, dobbertin_exponent(ctx.k)
        tr, at = ctx.trace_bits[ctx.exp], ctx.log[1:] * e
        at %= q1
        signs = np.zeros((math.gcd(e, q1), ctx.order), dtype=np.int32)
        for j, row in enumerate(signs):
            row[1:] = np.roll(tr, -j)[at]
        del at
        signs *= -2
        signs += 1
        by_log = _psi_table(ctx)[np.append(ctx.exp, 0)]  # psi(gamma^i), and psi(0) last
        rows = np.empty(signs.shape, dtype=np.int64)
        for out, row in zip(rows, _fwht_lastaxis(signs)):  # row by row, the int32 gathers stay in cache
            out[:] = row[by_log]
        return rows

    return ctx.memo("walsh_rows", build)


def _walsh_cover(ctx: gf2n.FieldCtx) -> tuple:
    """(top, bottom) per class U + 2^k V by the cover rule (module docstring);
    -+2^(n + 1) for a class that no kept orbit holds.

    Along an orbit (w gamma^i, gamma^(j + d i)), U is a rotation of the
    sequence U(gamma^i), whose bits are rotations of Tr(gamma^i), and V
    one gather of it.
    """
    k, q1, cells, e = ctx.k, ctx.order - 1, 1 << 2 * ctx.k, dobbertin_exponent(ctx.k)
    # kept: the orbits any f over the field could keep, none below max |wp| - 4 * 2^k (_walsh)
    wp = _walsh_rows(ctx)
    bound = max(wp.max(), -wp.min()) - (4 << k)
    j, i = np.nonzero(np.abs(wp) >= bound)  # |wp| is freed before the arrays below
    orbits, wp = j * ctx.order + ctx.exp[i % q1] * (i < q1), wp[j, i]
    tr = ctx.trace_bits[ctx.exp]  # Tr(gamma^i), bit 0 of U(gamma^i) since sub[1] = 1
    useq = tr.astype(np.min_scalar_type(cells - 1))  # U(gamma^i); the dtype holds U + 2^k V < 4^k
    for t in range(1, k):
        lt = int(ctx.log[ctx.subfield_index[1 << t]])
        useq |= np.concatenate((tr[lt:], tr[:lt])) << t
    vseq, held = {}, {}

    def classes_of(i: int) -> np.ndarray:
        if i not in held:
            j, w = divmod(int(orbits[i]), ctx.order)
            if j not in vseq:
                at = np.arange(j, j + e * q1, e)
                at %= q1  # in place: one int64 2^n temporary, not two
                vseq[j] = useq[at] << k
            cls = vseq[j]
            if w:
                lw = int(ctx.log[w])
                cls = cls + np.concatenate((useq[lw:], useq[:lw]))
            held[i] = np.zeros(cells, dtype=bool)
            held[i][cls] = True  # bincount would cast cls to a 2^n int64 array
        return held[i]

    sides = []
    for sign in (1, -1):
        side, free = np.full(cells, -sign << (ctx.n + 1)), np.ones(cells, dtype=bool)
        for i in np.argsort(-sign * wp, kind="stable").tolist():
            new = classes_of(i) & free
            side[new] = wp[i]
            free ^= new
            if not free.any():
                break
        sides.append(side)
    return tuple(sides)


def walsh_max_abs(f: LutFunction) -> int:
    """max |W_f(u, v)| over all u and nonzero v."""
    return int(_per_orbit(f, "walsh", _walsh)[0])


def _walsh(f: LutFunction) -> int:
    """max |W_f(u, v)| from transforms of P = x^d.

    With g = gcd(d, 2^n - 1), 1 or 3, and gamma the generator, every
    nonzero v is gamma^j c^d with j < g, and W_P(u, gamma^j c^d) =
    W_P(u / c, gamma^j).  So the g rows wp[j, w] = W_P(w, gamma^j) of
    _walsh_rows cover every (u, v), and on the orbit {(w c, gamma^j c^d)}
    W_f = wp[j, w] + E, E = sum_s ((-1)^Tr(v f(s)) - (-1)^Tr(v s^d))
    (-1)^Tr(u s) over s in D, |E| <= 2 |D|.  Only the orbits with |wp| >=
    max |wp| - 4 |D| can hold max |W_f|; the memo keeps top and bottom over
    the orbits any f over the field could keep (|D| <= 2^k).
    E = Delta[V(v), U(u)] with Delta = W_G - W_C (module docstring), and
    max |W_f| is the largest of top + Delta and -(bottom + Delta).
    """
    gmap, cmap = f.subfield_maps
    top, bottom = f.ctx.memo("walsh_cover", lambda: _walsh_cover(f.ctx))
    h = _hadamard(1 << f.ctx.k)  # W_G[beta, alpha] = sum_i H[beta, G[i]] H[i, alpha]
    delta = ((h[:, gmap] - h[:, cmap]) @ h).ravel()
    return max(int((top + delta).max()), -int((bottom + delta).min()))


def nonlinearity(f: LutFunction) -> int:
    return (f.ctx.order >> 1) - walsh_max_abs(f) // 2


# ---------------------------------------------------------------------------
# Algebraic degree and permutation status
# ---------------------------------------------------------------------------

def anf_degree(tables: np.ndarray) -> np.ndarray:
    """Algebraic degree of each integer table along the last axis (length 2^j).

    The Moebius transform gives the algebraic normal form, every output
    coordinate at once; the degree is the largest bit count of a
    monomial index with a nonzero coefficient, 0 for the zero map.
    """
    anf = tables.astype(np.int64)
    q = anf.shape[-1]
    h = 1
    while h < q:
        view = anf.reshape(anf.shape[:-1] + (q // (2 * h), 2, h))
        view[..., 1, :] ^= view[..., 0, :]
        h *= 2
    return np.where(anf != 0, _bit_weights(q), 0).max(axis=-1)


@functools.cache
def _bit_weights(q: int) -> np.ndarray:
    """The bit count of each index below q, read-only."""
    weights = np.bitwise_count(np.arange(q, dtype=np.uint64))
    weights.flags.writeable = False
    return weights


def algebraic_degree(f: LutFunction) -> int:
    """Max monomial degree of the algebraic normal form, all coordinates at once."""
    return int(_per_orbit(f, "degree", _degree)[0])


def _degree(f: LutFunction) -> int:
    """The degree by the paper's degree formula.

    f = P + Delta with P = x^d and Delta zero off GF(2^k).
    deg P = wt(d), the binary weight of d.  In coordinates whose last
    n - k vanish on GF(2^k), Delta is H(y) times the indicator prod
    (z_i + 1), so deg Delta = (n - k) + deg H, H = G + C = f + x^d on
    GF(2^k) in sorted-subfield coordinates (f.subfield_maps, a linear
    coordinate system of inputs and outputs alike).  The
    degree of the sum is the larger of the two unless they tie; a tie
    takes the Moebius transform of the whole table.
    """
    ctx, weight = f.ctx, dobbertin_exponent(f.ctx.k).bit_count()
    g, c = f.subfield_maps
    if np.array_equal(g, c):
        return weight
    deg_delta = ctx.n - ctx.k + int(anf_degree(g ^ c))
    return max(weight, deg_delta) if deg_delta != weight else int(anf_degree(f.table))


def is_permutation(f: LutFunction) -> bool:
    """Whether f permutes GF(2^n), from the structure: gcd(d, 2^n - 1) = 1 and
    f maps GF(2^k) onto itself.

    x^d acts as x^3 on GF(2^k) (d = 3 mod 2^k - 1).  When the gcd is 1,
    x^d permutes GF(2^n) and GF(2^k), so it maps the rest of the field
    onto the rest, and f permutes exactly when it permutes GF(2^k).  When
    it is 3 (even k), y, w y and w^2 y, w a cube root of unity in GF(4),
    lie off GF(2^k) for y off it and share one image.
    """
    ctx = f.ctx
    if math.gcd(dobbertin_exponent(ctx.k), ctx.order - 1) != 1:
        return False
    return bool(np.array_equal(np.sort(f.values), ctx.subfield_index))


def nl_lower_bound(k: int) -> int:
    """Nonlinearity floor for the subfield-modified Dobbertin functions.

    Odd k:  2^(n-1) - 2^((3n-3)/4) - 2^((k-1)/2) - 2^(k-1)
    Even k: 2^(n-1) - 2^((3n-2)/4) - 2^(k/2)     - 2^(k-1)
    Fractional powers of two are floored to report an integer.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = 5 * k
    if k % 2:
        big = math.isqrt(math.isqrt(1 << (3 * n - 3)))
        small = 1 << ((k - 1) // 2)
    else:
        big = math.isqrt(math.isqrt(1 << (3 * n - 2)))
        small = 1 << (k // 2)
    return (1 << (n - 1)) - big - small - (1 << (k - 1))


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

@dataclass
class CriteriaReport:
    n: int
    k: int
    construction: str | None
    spectrum: dict
    delta: int
    nl: int
    degree: int
    is_permutation: bool
    lb: int
    runtime_ms: dict

    def to_json_dict(self, include_runtime: bool = False) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "construction": self.construction,
            "spectrum": {str(i): self.spectrum[i] for i in sorted(self.spectrum)},
            "delta": self.delta,
            "nl": self.nl,
            "degree": self.degree,
            "permutation": self.is_permutation,
            "lb": self.lb,
            "runtime_ms": self.runtime_ms if include_runtime else None,
        }

    def to_json(self, include_runtime: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_runtime))

    def spectrum_triple(self) -> tuple:
        return tuple(self.spectrum.get(i, 0) for i in (0, 2, 4))

    def csv_row(self, label: str) -> list:
        return [label, "{%d, %d, %d}" % self.spectrum_triple(), str(self.degree), str(self.nl), str(self.lb)]


def analyze(
    f: LutFunction,
    k: int | None = None,
    construction: str | None = None,
    walsh: bool = True,
    workers: int = 1,
) -> CriteriaReport:
    """Compute every criterion on f, timing each one.

    f keeps its orbit key, taken by the first criterion that reads it;
    each criterion then runs for the first f of its orbit met
    on the context and is a memo lookup for the rest.  The report's k is
    f.ctx.k.  k, walsh and workers are accepted only because
    perfbench/workloads.py still passes k=ctx.k, walsh=True and
    workers=1; a k that disagrees with the field, or walsh=False, raises
    ValueError.
    """
    if k is not None and k != f.ctx.k:
        raise ValueError("k does not match the field context")
    if not walsh:
        raise ValueError("every report carries the nonlinearity; walsh=False is refused")
    runtime: dict[str, float] = {}

    def timed(name: str, criterion):
        t0 = time.perf_counter()
        value = criterion(f)
        runtime[name] = (time.perf_counter() - t0) * 1e3
        return value

    # each criterion is looked up by its module-level name on every call,
    # so a wrapper set on the module is the one that runs and is timed
    spectrum = timed("spectrum", differential_spectrum)
    nl = timed("walsh", nonlinearity)
    degree = timed("degree", algebraic_degree)
    perm = timed("permutation", is_permutation)
    return CriteriaReport(
        n=f.ctx.n,
        k=f.ctx.k,
        construction=construction,
        spectrum=spectrum,
        delta=max(spectrum),
        nl=nl,
        degree=degree,
        is_permutation=perm,
        lb=nl_lower_bound(f.ctx.k),
        runtime_ms=runtime,
    )
