import dataclasses
import functools
import itertools
import random

import numpy as np
import pytest

from duperm import gf2n
from duperm.analyzer import _fwht_lastaxis, _psi_table
from duperm.construct import LutFunction, affine_map, dobbertin_exponent


@pytest.fixture(scope="session")
def f5():
    return gf2n.mk_field(1)


@pytest.fixture(scope="session")
def f10():
    return gf2n.mk_field(2)


@pytest.fixture(scope="session")
def f15():
    return gf2n.mk_field(3)


@pytest.fixture(scope="session")
def f20():
    return gf2n.mk_field(4)


@functools.cache
def _field_tables(k):
    return gf2n.mk_field(k)


def fresh_field(k):
    """A GF(2^(5k)) context with an empty memo, for tests that count kernel
    calls or read the memo: no entry an earlier test left, per orbit or per
    field, can answer for them.  The read-only field tables are shared."""
    return dataclasses.replace(_field_tables(k), _memo={})


# ---------------------------------------------------------------------------
# exhaustive references shared by the test modules
# ---------------------------------------------------------------------------

def power_function(ctx, e):
    """The power map x^e as a full read-only table; 0^0 = 1 only when e = 0."""
    return gf2n.vec_pow_all(ctx, e)


def dobbertin_power(ctx):
    """x^d, d the Dobbertin exponent of the field, admitted from its table."""
    return LutFunction.from_table(ctx, power_function(ctx, dobbertin_exponent(ctx.k)))


def patch(f):
    """The positions i, ascending, where f differs from x^d on GF(2^k):
    G[i] != C[i] in f.subfield_maps, that is f(sub[i]) != sub[i]^d."""
    g, c = f.subfield_maps
    return np.flatnonzero(g != c)


def closed_form_eval(ctx, g, x):
    """f(x) = g(x) + (g(x) + x^d)(x + x^(2^k))^(2^n - 1) by scalar field
    operations, g given by its values on the sorted subfield and taken as 0
    off it: the oracle of build_f."""
    gx = g[ctx.subfield_elems.index(x)] if ctx.subfield_mask[x] else 0
    indicator = gf2n.pow(ctx, x ^ gf2n.pow(ctx, x, 1 << ctx.k), ctx.order - 1)
    return gx ^ gf2n.mul(ctx, gx ^ gf2n.pow(ctx, x, dobbertin_exponent(ctx.k)), indicator)


def is_bijective(table):
    """The bijectivity scan, the oracle of analyzer.is_permutation: every
    field element is a value of the table."""
    seen = np.zeros(len(table), dtype=bool)
    seen[table] = True
    return bool(seen.all())


def ddt_row(table, a):
    """counts[b] = #{x : t(x + a) + t(x) = b} for a table t of the field."""
    return np.bincount(table[np.arange(len(table)) ^ a] ^ table, minlength=len(table))


def ddt_row_spectrum(table):
    """The spectrum rebuilt from the DDT rows of every a != 0, as
    differential_spectrum returns it: {i: omega_i} for even i up to delta."""
    q = len(table)
    omega = np.zeros(q + 1, dtype=np.int64)
    for a in range(1, q):
        omega += np.bincount(ddt_row(table, a), minlength=q + 1)
    delta = int(np.nonzero(omega[1:])[0].max()) + 1
    return {i: int(omega[i]) for i in range(0, delta + 1, 2)}


def walsh_rows(ctx, tab, vs):
    """Rows W[i, u] = sum_x (-1)^(Tr(vs[i] tab[x]) + Tr(u x)) of any table,
    u in field coordinates, 256 components at a time.

    One fast transform per row gives the sums at t = psi(u), the
    standard-basis index of the character; psi reindexes them.
    """
    nz = tab != 0
    logs, psi = ctx.log[tab[nz]], _psi_table(ctx)
    blocks = []
    for lo in range(0, len(vs), 256):
        block = ctx.log[vs[lo : lo + 256]].tolist()
        signs = np.zeros((len(block), ctx.order), dtype=np.int32)
        for row, lv in zip(signs, block):
            row[nz] = ctx.trace_bits[ctx.exp[(logs + lv) % (ctx.order - 1)]]
        blocks.append(_fwht_lastaxis(1 - 2 * signs)[:, psi])
    return np.concatenate(blocks)


def walsh_table(ctx, table):
    """The full table W[v - 1, u] of a table of the field over every nonzero v."""
    return walsh_rows(ctx, table, np.arange(1, ctx.order))


def walsh_max(ctx, table):
    return int(np.abs(walsh_table(ctx, table)).max())


def affine_eval(ctx, coeffs, constant, a):
    """sum coeffs[i] a^(2^i) + constant for one subfield element a, by scalar
    field operations: the oracle of affine_map."""
    if not (0 <= a < ctx.order and ctx.subfield_mask[a]):
        raise ValueError(f"{a} is not a subfield element")
    acc = constant
    for i, c in enumerate(coeffs):
        if c:
            acc ^= gf2n.mul(ctx, c, gf2n.frobenius(ctx, a, i))
    return acc


def every_affine_perm(ctx):
    """The values of every affine permutation of GF(2^k), one array per
    (coefficients, constant), in itertools.product order."""
    perms = []
    for *coeffs, constant in itertools.product(ctx.subfield_elems, repeat=ctx.k + 1):
        try:
            perms.append(affine_map(ctx, coeffs, constant))
        except ValueError:
            continue
    return perms


def random_affine_form(ctx, seed):
    """Seed-deterministic (coefficients, constant) of an affine permutation
    of GF(2^k), k = ctx.k."""
    rng = random.Random(seed)
    sub = ctx.subfield_elems
    for _ in range(4096):
        coeffs = tuple(rng.choice(sub) for _ in range(ctx.k))
        constant = rng.choice(sub)
        try:
            affine_map(ctx, coeffs, constant)
        except ValueError:
            continue
        return coeffs, constant
    raise RuntimeError("could not draw a bijective affine map within budget")


def random_affine_perm(ctx, seed):
    """The values of the affine permutation random_affine_form draws."""
    return affine_map(ctx, *random_affine_form(ctx, seed))
