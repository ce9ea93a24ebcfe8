"""Criteria computations on lookup-table functions.

* differential spectrum: when the table equals a power map x^e outside
  the subfield GF(2^k), as every constructed f does, one DDT row of x^e
  gives every row (power maps are homogeneous) and only the pairs
  through GF(2^k) are counted again, O(2^n 2^k) work in all.  Any
  other table gets the exhaustive scan, omega_counts: one
  difference-distribution row per nonzero a (2^n counters live at a
  time, never the full 2^n x 2^n matrix), with the per-row histograms
  aggregated into the omega_i counts.  The scan is also the oracle the
  structured kernel is tested against;
* Walsh spectrum: the exhaustive scan runs the sign table of
  Tr(v f(x)) of each component v through a fast transform over u; the
  u axis of the transform output is related to the definition's u by
  the nondegenerate bilinear form Tr(ux), a fixed bit-linear reindexing
  (_psi_table).  When the table equals x^e outside GF(2^k), the
  structured kernel needs only gcd(e, 2^n - 1) transforms of x^e, one
  per coset class of the e-th powers, plus an exact correction over the
  points of GF(2^k) where f and x^e differ, evaluated on the few orbits
  of (u, v) that can still hold the maximum.  A cost guard hands the
  table to the exhaustive scan, which stays the kernel's oracle,
  whenever the structured work (transforms plus orbits times differing
  points) would reach the 2^n - 1 transforms of that scan;
* algebraic degree: subset-XOR (Moebius) transform of the whole table,
  all output coordinates in parallel, degree = max bit count over the
  support of the transform (anf_degree, along the last axis of any
  stack of tables);
* permutation status: bijectivity scan.

omega_counts and anf_degree take plain integer arrays of length 2^j,
so they also run on maps of GF(2^k) written in subfield coordinates.
Everything runs in one process.
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
    "DdtRow",
    "DiffSpectrum",
    "WalshSpectrum",
    "CriteriaReport",
    "ddt_row",
    "differential_spectrum",
    "omega_counts",
    "walsh_spectrum",
    "walsh_max_abs",
    "nonlinearity",
    "algebraic_degree",
    "anf_degree",
    "is_permutation",
    "nl_lower_bound",
    "analyze",
]

_WALSH_TABLE_MAX_N = 12
_V_BLOCK = 256
_A_BLOCK = 512


@dataclass(frozen=True, eq=False)
class DdtRow:
    """Difference-distribution counts for one nonzero input difference."""

    a: int
    counts: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class DiffSpectrum:
    """omega_i counts and their maximum; kernel names the scan that produced them."""

    spectrum: dict
    delta: int
    kernel: str = field(default="exhaustive", compare=False)


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    max_abs: int
    table: np.ndarray = field(repr=False, default=None)


def ddt_row(f: LutFunction, a: int) -> DdtRow:
    """counts[b] = #{x : f(x + a) + f(x) = b}."""
    if a == 0:
        raise ValueError("input difference a must be nonzero")
    q = f.ctx.order
    tab = f.table
    row = np.bincount(tab[np.arange(q) ^ a] ^ tab, minlength=q)
    return DdtRow(a, row)


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


def _power_off_subfield(f: LutFunction) -> tuple[int, np.ndarray] | None:
    """(e, table of x^e) when f equals the power map x^e outside GF(2^k), else None.

    The generator lies outside GF(2^k), so e = log f(generator); e = 0 is
    taken as 2^n - 1 so that x^e maps 0 to 0.  One O(2^n) comparison then
    confirms or refutes the guess.
    """
    ctx = f.ctx
    tab = f.table
    v = int(tab[ctx.generator])
    if v == 0:
        return None
    e = int(ctx.log[v]) or ctx.order - 1
    p = gf2n.vec_pow_all(ctx, e)
    if not np.all((tab == p) | ctx.subfield_mask):
        return None
    return e, p


def _structured_omega(f: LutFunction) -> np.ndarray | None:
    """omega via power-map homogeneity, or None unless f is x^e off GF(2^k).

    For P = x^e every DDT row is a relabelled copy of row 1:
    delta_P(a, b) = delta_P(1, b a^(-e)).  Row a of f differs from row a
    of P only through the pairs {s, s + a} with s in S = GF(2^k), so the
    histogram of row 1 times (2^n - 1) is corrected by moving one counter
    per (a, b) those pairs touch.  Rows are taken in blocks of _A_BLOCK
    so the correction arrays stay small.
    """
    power = _power_off_subfield(f)
    if power is None:
        return None
    e, p = power
    ctx = f.ctx
    q = ctx.order
    q1 = q - 1
    tab = f.table

    pairs = p.reshape(-1, 2)  # x and x + 1 differ in bit 0 only
    row1 = 2 * np.bincount(pairs[:, 0] ^ pairs[:, 1], minlength=q)
    omega = np.bincount(row1, minlength=q + 1) * q1
    sub = np.array(ctx.subfield_elems, dtype=np.int64)
    for lo in range(1, q, _A_BLOCK):
        a = np.arange(lo, min(lo + _A_BLOCK, q), dtype=np.int64)[:, None]
        x = sub ^ a
        before = ((a << ctx.n) | (p[sub] ^ p[x])).ravel()
        after = ((a << ctx.n) | (tab[sub] ^ tab[x])).ravel()
        keys, inv = np.unique(np.concatenate([before, after]), return_inverse=True)
        net = np.bincount(inv[len(before):], minlength=len(keys))
        net -= np.bincount(inv[: len(before)], minlength=len(keys))
        ra, b = keys >> ctx.n, keys & q1
        # a pair {s, s + a} stands for its two inputs, unless a lies in S:
        # then s and s + a both run over S and each input is listed once
        net *= np.where(ctx.subfield_mask[ra], 1, 2)
        old = row1[np.where(b, ctx.exp[(ctx.log[b] - e * ctx.log[ra]) % q1], 0)]
        np.add.at(omega, old, -1)
        np.add.at(omega, old + net, 1)
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


def _sign_block(ctx: gf2n.FieldCtx, tab: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Sign matrix (-1)^Tr(v f(x)) for a block of components v."""
    q = ctx.order
    q1 = q - 1
    logs_f = ctx.log[tab]
    prod = np.zeros((len(vs), q), dtype=np.int64)
    nz = tab != 0
    prod[:, nz] = ctx.exp[(logs_f[nz][None, :] + ctx.log[vs][:, None]) % q1]
    return 1 - 2 * ctx.trace_bits[prod].astype(np.int32)


def _psi_table(ctx: gf2n.FieldCtx) -> np.ndarray:
    """Bit-linear reindexing with Tr(u x) = <psi(u), x> in the standard basis.

    Bit i of psi(u) is Tr(u x^i), which is GF(2)-linear in u: the parity
    of u & M_i, where bit j of M_i is Tr(x^(i+j)).  So n parity passes
    build the table, as mk_field builds trace_bits.
    """
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


def _walsh_rows(ctx: gf2n.FieldCtx, tab: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """W[i, u] = sum_x (-1)^(Tr(u x) + Tr(vs[i] tab[x])), u in field coordinates."""
    block = _sign_block(ctx, tab, vs)
    _fwht_lastaxis(block)
    return block[:, _psi_table(ctx)]


def _orbit_walsh(
    f: LutFunction, e: int, d: np.ndarray, j: int, w: int, wp_jw: int
) -> np.ndarray:
    """W_f(w c, gamma^j c^e) for c = gamma^i, i = 0 .. 2^n - 2.

    f equals x^e except on the points d; wp_jw = W_P(w, gamma^j) for P = x^e.
    """
    ctx = f.ctx
    q1 = ctx.order - 1
    log = ctx.log
    sgn = 1 - 2 * ctx.trace_bits[ctx.exp].astype(np.int64)  # (-1)^Tr(gamma^t)
    logc = np.arange(q1)
    elogc = e * logc % q1  # v = gamma^(j + elogc), u = gamma^(log w + logc)
    walsh = np.full(q1, wp_jw, dtype=np.int64)
    for s, fs in zip(d.tolist(), f.table[d].tolist()):
        # ((-1)^Tr(v f(s)) - (-1)^Tr(v s^e)) (-1)^Tr(u s)
        term = sgn[(elogc + j + log[fs]) % q1] if fs else 1
        term = term - (sgn[(elogc + j + e * log[s]) % q1] if s else 1)
        walsh += term * (sgn[(logc + log[w] + log[s]) % q1] if w and s else 1)
    return walsh


def _structured_walsh(f: LutFunction) -> int | None:
    """max |W_f| from the transforms of a power map, or None to fall back.

    f must equal P = x^e outside S = GF(2^k); with g = gcd(e, 2^n - 1) and
    gamma the generator, every nonzero v is gamma^j c^e with j < g, and
    W_P(u, gamma^j c^e) = W_P(u / c, gamma^j).  So g transforms give
    wp[j, w] = W_P(w, gamma^j), and on the orbit {(w c, gamma^j c^e)}
    W_f = wp[j, w] + C, where C sums over the points D of S at which f
    and P differ, so |C| <= 2 |D|.  A maximising pair must lie on an
    orbit with |wp| >= max |wp| - 4 |D|; those orbits are evaluated
    exactly over all c, largest |wp| first, until none left can win.
    The kernel is refused (None) when it would transform or evaluate as
    many rows as the exhaustive scan: g + (orbits kept) |D| >= 2^n - 1.
    """
    power = _power_off_subfield(f)
    if power is None:
        return None
    e, p = power
    ctx = f.ctx
    q1 = ctx.order - 1
    g = math.gcd(e, q1)
    if g >= q1:
        return None
    wp = _walsh_rows(ctx, p, ctx.exp[:g]).ravel()
    mag = np.abs(wp)
    top = int(mag.max())
    sub = np.flatnonzero(ctx.subfield_mask)
    d = sub[f.table[sub] != p[sub]]
    if not len(d):
        return top
    cmax = 2 * len(d)
    orbits = np.flatnonzero(mag >= top - 2 * cmax)
    if g + len(orbits) * len(d) >= q1:
        return None
    orbits = orbits[np.argsort(-mag[orbits], kind="stable")]

    best = 0
    for t in orbits:
        if mag[t] + cmax <= best:
            break
        j, w = divmod(int(t), ctx.order)
        best = max(best, int(np.abs(_orbit_walsh(f, e, d, j, w, int(wp[t]))).max()))
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
    best = 0
    for lo in range(1, ctx.order, _V_BLOCK):
        block = _sign_block(ctx, f.table, np.arange(lo, min(lo + _V_BLOCK, ctx.order)))
        _fwht_lastaxis(block)
        best = max(best, int(np.abs(block).max()))
    return best


def walsh_spectrum(f: LutFunction) -> WalshSpectrum:
    """Full table W[v-1, u] of the transform, plus its maximum magnitude.

    Materialising the table is quadratic in the field size and is
    refused above n = 12; use walsh_max_abs / nonlinearity for the
    large fields.  It stays in the package as the tests' reference for
    both paths of walsh_max_abs, the structured kernel and the
    exhaustive scan, and it shares _walsh_rows with the kernel.
    """
    ctx = f.ctx
    if ctx.n > _WALSH_TABLE_MAX_N:
        raise ValueError(
            f"full Walsh table refused for n = {ctx.n} > {_WALSH_TABLE_MAX_N}"
        )
    table = _walsh_rows(ctx, f.table, np.arange(1, ctx.order))
    return WalshSpectrum(int(np.abs(table).max()), table)


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
    """Max monomial degree of the algebraic normal form, all coordinates at once."""
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
    walsh_max_abs: int | None
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

    nl = wmax = None
    if walsh:
        t0 = time.perf_counter()
        wmax = walsh_max_abs(f)
        nl = (f.ctx.order >> 1) - wmax // 2
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
        walsh_max_abs=wmax,
        degree=degree,
        is_permutation=perm,
        lb=nl_lower_bound(k) if k is not None else None,
        runtime_ms=runtime,
    )
