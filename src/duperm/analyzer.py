"""Criteria computations on lookup-table functions.

* differential spectrum: when the table equals a power map P = x^e
  outside the subfield GF(2^k), as every constructed f does, DDT row 1
  of P gives every row, and only the pairs through the points D of
  GF(2^k) where f and P differ move a cell: by memoised histograms in
  the rows outside GF(2^k) (generic rows), cell by cell in the rows of
  GF(2^k)* and where two pairs share a cell (exact rows).  Any other
  table gets the exhaustive scan omega_counts, one DDT row per nonzero
  a, which is also the structured kernel's test oracle;
* Walsh maximum max |W(u, v)|, read by nonlinearity: the exhaustive
  scan runs the sign table of Tr(v f(x)) of each component v through a
  fast transform over u, a block of components at a time, reindexed to
  the definition's u by the bit-linear map _psi_table.
  For x^e off GF(2^k) the structured kernel needs gcd(e, 2^n - 1)
  transforms of x^e plus an exact correction over D on the few orbits
  of (u, v) that can still hold the maximum, each a sum of slices of
  memoised int8 sign sequences.  A cost guard hands the table to the
  exhaustive scan, the kernel's oracle, whenever the structured work
  would reach the 2^n - 1 transforms of that scan;
* algebraic degree: for x^e off GF(2^k) the paper's degree formula,
  max(wt(e), (n - k) + deg H) with H = f + x^e on GF(2^k), a 2^k-entry
  transform; on a tie of the two terms, or for any other table, the
  subset-XOR (Moebius) transform of the whole table, all output
  coordinates in parallel (anf_degree, along the last axis of any stack
  of tables), which is also the formula's oracle;
* permutation status: bijectivity scan.

omega_counts and anf_degree take plain integer arrays of length 2^j,
so they also run on maps of GF(2^k) written in subfield coordinates.
Everything runs in one process.

What depends on the field and x^e alone is kept in the context's memo
(gf2n.FieldCtx.memo): x^e, DDT row 1 with its histogram and inverse,
the generic histograms (at most 2 * 2^n, one per value met), psi, the
sign sequences and the orbits any f over the field could keep.  What
depends on f stays per call; a cold context gives the same reports.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import gf2n
from .construct import LutFunction

__all__ = [
    "DiffSpectrum",
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

_V_BLOCK = 256
_EXACT_LISTINGS = 8192


@dataclass(frozen=True)
class DiffSpectrum:
    """omega_i counts and their maximum; kernel names the scan that produced them."""

    spectrum: dict
    delta: int
    kernel: str = field(default="exhaustive", compare=False)


def omega_counts(table: np.ndarray) -> np.ndarray:
    """omega[i] = #{(a, b), a != 0 : #{x : t(x + a) + t(x) = b} = i}.

    t is an integer table of length 2^j with values below 2^j; the scan
    goes row by row over every nonzero a.
    """
    q = len(table)
    idx = np.arange(q)
    omega = np.zeros(q + 1, dtype=np.int64)
    for a in range(1, q):
        row = np.bincount(table[idx ^ a] ^ table, minlength=q)
        hist = np.bincount(row)
        omega[: len(hist)] += hist
    return omega


def _power_off_subfield(f: LutFunction) -> tuple[int, np.ndarray, np.ndarray] | None:
    """(e, table of x^e, D) when f equals the power map x^e outside GF(2^k), else None.

    D lists, in ascending order, the points of GF(2^k) where f and x^e
    differ.  The generator lies outside GF(2^k), so e = log f(generator),
    with e = 0 taken as 2^n - 1 so that x^e maps 0 to 0; one O(2^n)
    comparison confirms or refutes the guess.
    """
    ctx, tab = f.ctx, f.table
    v = int(tab[ctx.generator])
    if v == 0:
        return None
    e = int(ctx.log[v]) or ctx.order - 1
    p = gf2n.vec_pow_all(ctx, e)
    d = np.flatnonzero(tab != p)
    if not ctx.subfield_mask[d].all():
        return None
    return e, p, d


def _collision_rows(ctx, e: int, p, row1, tab, d: np.ndarray) -> np.ndarray | None:
    """Rows a outside GF(2^k) in which two listings of s != s' in D share a cell.

    Cells P(s) + P(s + a) or f(s) + P(s + a) agree when, with y = s + a
    and alpha = s + s', P(y) + P(y + alpha) is P(s) + P(s'), f(s) + f(s')
    or f(s) + P(s'): then y = alpha z, and z solves P(z) + P(z + 1) =
    beta / alpha^e, read off the memoised inverse of row1 (DDT row 1 of
    P).  None when the even z outnumber _EXACT_LISTINGS, as for linear P.
    """
    if len(d) < 2:
        return d[:0]
    log, exp, q1 = ctx.log, ctx.exp, ctx.order - 1
    i = np.flatnonzero(~np.eye(len(d), dtype=bool))
    s, s2 = d[i // len(d)], d[i % len(d)]
    alpha = s ^ s2
    beta = np.stack([p[s] ^ p[s2], tab[s] ^ tab[s2], tab[s] ^ p[s2]])
    b = np.where(beta != 0, exp[(log[beta] - e * log[alpha]) % q1], 0).ravel()
    cnt = row1[b] // 2  # even z; z + 1 is the other solution
    if cnt.sum() > _EXACT_LISTINGS:
        return None

    def row1_inverse() -> tuple:  # even z by P(z) + P(z + 1), where each value starts
        return 2 * np.argsort(p[0::2] ^ p[1::2], kind="stable"), np.cumsum(row1 // 2) - row1 // 2

    order, start = ctx.memo("row1_inverse", row1_inverse, e)
    at = np.repeat(np.arange(len(b)), cnt)
    z = order[(start[b] - np.cumsum(cnt) + cnt)[at] + np.arange(len(at))]
    z, at = np.concatenate([z, z + 1]), np.concatenate([at, at]) % len(s)
    a = np.where(z != 0, exp[(log[z] + log[alpha[at]]) % q1], 0) ^ s[at]
    return np.flatnonzero((np.bincount(a, minlength=ctx.order) > 0) & ~ctx.subfield_mask)


def _structured_omega(f: LutFunction) -> np.ndarray | None:
    """omega via power-map homogeneity, or None unless f is x^e off GF(2^k).

    For P = x^e, delta_P(a, b) = delta_P(1, b a^(-e)): omega starts as
    2^n - 1 times the histogram of row 1, and each pair {s, s + a}, s in
    D, moves its cell P(s) + P(s + a) down and f(s) + f(s + a) up.
    * Generic rows, a outside GF(2^k): with a = s u (a = u for s = 0)
      the old counts are row1[(r + P(u + 1)) / u^e], r = 1 before and
      r = f(s) / s^e after (row1[(r + P(u)) / u^e], r = 0 and f(0), for
      s = 0); memoised histograms over u move all those rows at once.
    * Exact rows, GF(2^k)* and the collision rows where two listings
      share a cell (their generic moves taken back), or every row when
      _collision_rows gives up, are listed _EXACT_LISTINGS pairs at a time.
    """
    power = _power_off_subfield(f)
    if power is None:
        return None
    e, p, d = power
    ctx, tab, log = f.ctx, f.table, f.ctx.log
    q, q1 = ctx.order, ctx.order - 1

    def ddt_row1() -> tuple:
        pairs = p.reshape(-1, 2)  # x and x + 1 differ in bit 0 only
        row1 = 2 * np.bincount(pairs[:, 0] ^ pairs[:, 1], minlength=q)
        return row1, np.bincount(row1, minlength=q + 1) * q1

    def relabel(b, elog):  # b / a^e for elog = e log a, 0 where b is 0
        return np.where(b != 0, ctx.exp[(log[b] - elog) % q1], 0)

    def outside() -> tuple:  # for w outside GF(2^k): e log w and P(w + 1)
        w = np.flatnonzero(~ctx.subfield_mask)
        return (e * log[w] % q1).astype(np.int32), p[w ^ 1].astype(np.int32)

    def hist(r: int, shift: int) -> np.ndarray:
        # w = 1 / u: counts row1[r P(w) + P(w + 1)], row1[r P(w) + 1] for s = 0
        def build() -> np.ndarray:
            elog, p1 = ctx.memo("outside", outside, e)
            cell = np.roll(ctx.exp, -int(log[r]))[elog] if r else np.zeros_like(elog)
            return np.bincount(row1[cell ^ (p1 if shift else 1)])

        return ctx.memo(("hist", r, shift), build, e)

    row1, omega_p = ctx.memo("ddt_row1", ddt_row1, e)
    omega, collide = omega_p.copy(), _collision_rows(ctx, e, p, row1, tab, d)
    step = max(1, _EXACT_LISTINGS // max(len(d), 1))
    if collide is None:
        blocks = (np.arange(lo, min(lo + step, q))[:, None] for lo in range(1, q, step))
    else:
        rows = np.concatenate([np.flatnonzero(ctx.subfield_mask)[1:], collide])
        blocks = (rows[lo : lo + step, None] for lo in range(0, len(rows), step))
        for s, fs in zip(d.tolist(), tab[d].tolist()):
            shift = int(s != 0)
            r = int(relabel(fs, e * int(log[s]) % q1)) if s else fs
            for h, w in ((hist(shift, shift), -2), (hist(r, shift), 2)):
                # h[i] cells move from count i to i + w (a before cell counts >= 2)
                omega[: len(h)] -= h
                omega[max(w, 0) : len(h) + w] += h[max(-w, 0) :]

    for a in blocks:
        x = d ^ a
        # a pair {s, s + a} stands for its two inputs; one with both ends
        # in D is listed from each end, and each listing counts once
        w = np.where(tab[x] != p[x], 1, 2).ravel()
        before = ((a << ctx.n) | (p[d] ^ p[x])).ravel()
        after = ((a << ctx.n) | (tab[d] ^ tab[x])).ravel()
        keys, inv = np.unique(np.concatenate([before, after]), return_inverse=True)
        w = np.concatenate([-w, w])
        net = np.bincount(inv, w, minlength=len(keys)).astype(np.int64)
        ra = keys >> ctx.n
        old = row1[relabel(keys & q1, e * log[ra] % q1)]
        np.add.at(omega, old, -1)
        np.add.at(omega, old + net, 1)
        if collide is not None:  # take back the histogram move of each listing
            generic = ~ctx.subfield_mask[ra[inv]]
            np.add.at(omega, old[inv][generic], 1)
            np.add.at(omega, old[inv][generic] + w[generic], -1)
    return omega


def differential_spectrum(f: LutFunction) -> DiffSpectrum:
    """omega_i counts over all (a, b) pairs with a != 0, plus the maximum.

    Tables equal to a power map outside GF(2^k) take the structured
    kernel; any other table is scanned row by row by omega_counts.
    """
    omega = _structured_omega(f)
    kernel = "structured"
    if omega is None:
        omega, kernel = omega_counts(f.table), "exhaustive"
    delta = int(np.nonzero(omega[1:])[0].max()) + 1
    spectrum = {i: int(omega[i]) for i in range(0, delta + 1, 2)}
    return DiffSpectrum(spectrum, delta, kernel)


# ---------------------------------------------------------------------------
# Walsh spectrum
# ---------------------------------------------------------------------------

def _fwht_lastaxis(a: np.ndarray) -> np.ndarray:
    """In-place fast transform along the last axis (length a power of two)."""
    q = a.shape[-1]
    h = 1
    while h < q:
        view = a.reshape(a.shape[:-1] + (q // (2 * h), 2, h))
        top = view[..., 0, :].copy()
        view[..., 0, :] += view[..., 1, :]
        view[..., 1, :] = top - view[..., 1, :]
        h *= 2
    return a


def _psi_table(ctx: gf2n.FieldCtx) -> np.ndarray:
    """Bit-linear reindexing with Tr(u x) = <psi(u), x> in the standard basis.

    Bit i of psi(u) is Tr(u x^i), which is GF(2)-linear in u: the parity
    of u & M_i, where bit j of M_i is Tr(x^(i+j)).  So n parity passes
    build the table, as mk_field builds trace_bits.  It depends on the
    field alone and is kept in the context's memo.
    """

    def build() -> np.ndarray:
        n = ctx.n
        powers = [1]  # x^t for t <= 2n - 2, reduced by the modulus
        for _ in range(2 * n - 2):
            t = powers[-1] << 1
            powers.append(t ^ ctx.modulus if t >> n else t)
        tr = ctx.trace_bits[powers].astype(np.int64)
        bits = np.arange(n)
        idx = np.arange(ctx.order, dtype=np.int64)
        psi = np.zeros(ctx.order, dtype=np.int64)
        for i in range(n):
            mask = int((tr[i : i + n] << bits).sum())
            psi |= (np.bitwise_count(idx & mask) & 1).astype(np.int64) << i
        return psi

    return ctx.memo("psi", build)


def _walsh_blocks(ctx: gf2n.FieldCtx, tab: np.ndarray, vs: np.ndarray):
    """Transforms of the signs (-1)^Tr(v tab[x]), v in vs, _V_BLOCK rows at a time.

    Row i of a block is sum_x (-1)^(Tr(vs[i] tab[x]) + <t, x>) over t; the
    definition's u sits at t = psi(u), so block[:, _psi_table(ctx)] is in
    field coordinates.  A scan holds a block or two, never all its rows.
    """
    nz = tab != 0
    logs_f = ctx.log[tab[nz]]
    for lo in range(0, len(vs), _V_BLOCK):
        v = vs[lo : lo + _V_BLOCK]
        prod = np.zeros((len(v), ctx.order), dtype=np.int64)
        prod[:, nz] = ctx.exp[(logs_f + ctx.log[v][:, None]) % (ctx.order - 1)]
        yield _fwht_lastaxis(1 - 2 * ctx.trace_bits[prod].astype(np.int32))


def _orbit_walsh(f: LutFunction, e: int, d: np.ndarray, j: int, w: int, wp_jw: int) -> np.ndarray:
    """W_f(w c, gamma^j c^e) for c = gamma^i, i = 0 .. 2^n - 2.

    f equals x^e except on the points d; wp_jw = W_P(w, gamma^j) for P = x^e.
    Each term is a sign (-1)^Tr(gamma^(e i + t)) or (-1)^Tr(gamma^(i + t)).
    With g = gcd(e, 2^n - 1), rho = t mod g and e t' = t - rho, the first
    is entry i + t' of the base sequence (-1)^Tr(gamma^(e i + rho)), which
    the memo keeps per rho, like the trace signs, in int8 and long enough
    that every term is a slice.
    """
    ctx, log, q1 = f.ctx, f.ctx.log, f.ctx.order - 1
    g = math.gcd(e, q1)
    period = q1 // g
    step = pow(e // g, -1, period)  # t' = step (t - rho) / g mod period
    # (-1)^Tr(gamma^t), t = 0 .. 2 (2^n - 1) - 1
    sgn = ctx.memo("trace_signs", lambda: np.tile(1 - 2 * ctx.trace_bits[ctx.exp].astype(np.int8), 2))

    def term(t: int) -> np.ndarray:
        rho = t % g
        base = ctx.memo(("walsh_base", rho),
                        lambda: np.tile(sgn[e * np.arange(period) % q1 + rho], g + 1), e)
        lo = (t - rho) // g * step % period
        return base[lo : lo + q1]

    walsh = np.full(q1, wp_jw, dtype=np.int64)
    for s, fs in zip(d.tolist(), f.table[d].tolist()):
        # ((-1)^Tr(v f(s)) - (-1)^Tr(v s^e)) (-1)^Tr(u s)
        diff = (term(j + int(log[fs])) if fs else 1) - (term(j + e * int(log[s])) if s else 1)
        if w and s:
            t = int(log[w] + log[s]) % q1
            diff = diff * sgn[t : t + q1]
        walsh += diff
    return walsh


def _structured_walsh(f: LutFunction) -> int | None:
    """max |W_f| from the transforms of a power map, or None to fall back.

    f must equal P = x^e outside GF(2^k); with g = gcd(e, 2^n - 1) and
    gamma the generator, every nonzero v is gamma^j c^e with j < g, and
    W_P(u, gamma^j c^e) = W_P(u / c, gamma^j).  So g transforms give
    wp[j, w] = W_P(w, gamma^j), and on the orbit {(w c, gamma^j c^e)}
    W_f = wp[j, w] + C with |C| <= 2 |D|.  The orbits with
    |wp| >= max |wp| - 4 |D| are evaluated exactly, largest |wp| first,
    until none left can win; the kernel is refused (None) when
    g + (orbits kept) |D| >= 2^n - 1, the rows of the exhaustive scan.
    The memo keeps, per exponent, the orbits any f over the field could
    keep, in descending order of |wp|, so the guard is one binary search.
    """
    power = _power_off_subfield(f)
    if power is None:
        return None
    e, p, d = power
    ctx, q1 = f.ctx, f.ctx.order - 1
    g = math.gcd(e, q1)
    if g >= q1:
        return None

    def candidates() -> tuple:
        # |D| <= 2^k, so no f over this field keeps an orbit below
        # max |wp| - 4 * 2^k; each block is filtered against the running
        # maximum, and what it kept against the final one
        psi = _psi_table(ctx)
        slack = 4 << ctx.k
        top, lo, found = 0, 0, []
        for block in _walsh_blocks(ctx, p, ctx.exp[:g]):
            wp = block[:, psi].ravel()
            mag = np.abs(wp)
            top = max(top, int(mag.max()))
            keep = np.flatnonzero(mag >= top - slack)
            found.append((keep + lo * ctx.order, wp[keep]))
            lo += len(block)
        flat, wp = (np.concatenate(c) for c in zip(*found))
        mag = np.abs(wp)
        keep = np.flatnonzero(mag >= top - slack)
        order = keep[np.argsort(-mag[keep], kind="stable")]
        return flat[order], wp[order], -mag[order]

    orbits, wp, neg_mag = ctx.memo("walsh_orbits", candidates, e)
    top = -int(neg_mag[0])
    cmax = 2 * len(d)
    kept = int(np.searchsorted(neg_mag, 2 * cmax - top, side="right"))
    if g + kept * len(d) >= q1:
        return None

    best = 0
    for i in range(kept):
        if cmax - int(neg_mag[i]) <= best:
            break
        j, w = divmod(int(orbits[i]), ctx.order)
        best = max(best, int(np.abs(_orbit_walsh(f, e, d, j, w, int(wp[i]))).max()))
    return best


def walsh_max_abs(f: LutFunction) -> int:
    """max |W(u, v)| over all u and nonzero v, without storing the table.

    Tables equal to a power map outside GF(2^k) take the structured
    kernel when its cost guard admits them; any other table is scanned
    in blocks of _V_BLOCK components.
    """
    best = _structured_walsh(f)
    if best is not None:
        return best
    ctx = f.ctx
    blocks = _walsh_blocks(ctx, f.table, np.arange(1, ctx.order))
    return max(int(np.abs(block).max()) for block in blocks)


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
    weights = np.bitwise_count(np.arange(q, dtype=np.uint64))
    return np.where(anf != 0, weights, 0).max(axis=-1)


def algebraic_degree(f: LutFunction) -> int:
    """Max monomial degree of the algebraic normal form, all coordinates at once.

    When f equals P = x^e outside GF(2^k), f = P + Delta with Delta zero
    off GF(2^k).  deg P = wt(e), the binary weight of e.  In coordinates
    whose last n - k vanish on GF(2^k), Delta is H(y) times the indicator
    prod (z_i + 1), so deg Delta = (n - k) + deg H, H = (f + x^e) on
    GF(2^k) in sorted-subfield coordinates (a linear coordinate system).
    The degree of the sum is the larger of the two unless they tie; a
    tie, or any other table, takes the Moebius transform of the whole
    table, which is also the oracle.
    """
    power = _power_off_subfield(f)
    if power is not None:
        e, p, d = power
        weight = e.bit_count()
        if not len(d):
            return weight
        ctx = f.ctx
        sub = np.array(ctx.subfield_elems)
        patch = ctx.n - ctx.k + int(anf_degree(f.table[sub] ^ p[sub]))
        if patch != weight:
            return max(weight, patch)
    return int(anf_degree(f.table))


def is_permutation(f: LutFunction) -> bool:
    q = f.ctx.order
    seen = np.zeros(q, dtype=bool)
    seen[f.table] = True
    return bool(seen.all())


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
    k: int | None
    construction: str | None
    spectrum: dict
    delta: int
    nl: int | None
    degree: int
    is_permutation: bool
    lb: int | None
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
        return (
            self.spectrum.get(0, 0),
            self.spectrum.get(2, 0),
            self.spectrum.get(4, 0),
        )

    def csv_row(self, label: str) -> list:
        w0, w2, w4 = self.spectrum_triple()
        return [
            label,
            "{%d, %d, %d}" % (w0, w2, w4),
            str(self.degree),
            str(self.nl) if self.nl is not None else "",
            str(self.lb) if self.lb is not None else "",
        ]


def analyze(
    f: LutFunction,
    k: int | None = None,
    construction: str | None = None,
    walsh: bool = True,
    workers: int = 1,
) -> CriteriaReport:
    """Compute every criterion on f, timing each one.

    workers is read by nothing: it is accepted only because
    perfbench/workloads.py still passes workers=1.
    """
    runtime: dict[str, float] = {}

    t0 = time.perf_counter()
    ds = differential_spectrum(f)
    runtime["spectrum"] = (time.perf_counter() - t0) * 1e3

    nl = None
    if walsh:
        t0 = time.perf_counter()
        nl = nonlinearity(f)
        runtime["walsh"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    degree = algebraic_degree(f)
    runtime["degree"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    perm = is_permutation(f)
    runtime["permutation"] = (time.perf_counter() - t0) * 1e3

    return CriteriaReport(
        n=f.ctx.n,
        k=k,
        construction=construction,
        spectrum=ds.spectrum,
        delta=ds.delta,
        nl=nl,
        degree=degree,
        is_permutation=perm,
        lb=nl_lower_bound(k) if k is not None else None,
        runtime_ms=runtime,
    )
