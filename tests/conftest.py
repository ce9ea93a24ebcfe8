import random

import numpy as np
import pytest

from duperm import gf2n
from duperm.analyzer import _psi_table, _walsh_blocks
from duperm.construct import AffinePerm


@pytest.fixture(scope="session")
def f5():
    return gf2n.mk_field(1)


@pytest.fixture(scope="session")
def f10():
    return gf2n.mk_field(2)


@pytest.fixture(scope="session")
def f15():
    return gf2n.mk_field(3)


# ---------------------------------------------------------------------------
# exhaustive references shared by the test modules
# ---------------------------------------------------------------------------

def ddt_row(f, a):
    """counts[b] = #{x : f(x + a) + f(x) = b}."""
    return np.bincount(f.table[np.arange(f.ctx.order) ^ a] ^ f.table, minlength=f.ctx.order)


def walsh_rows(ctx, tab, vs):
    """Rows W[i, u] = W(u, vs[i]) of tab, u in field coordinates."""
    return np.concatenate([b[:, _psi_table(ctx)] for b in _walsh_blocks(ctx, tab, vs)])


def walsh_table(f):
    """The full table W[v - 1, u] of f over every nonzero v."""
    return walsh_rows(f.ctx, f.table, np.arange(1, f.ctx.order))


def walsh_max(f):
    return int(np.abs(walsh_table(f)).max())


def random_affine_perm(ctx, seed):
    """Seed-deterministic affine permutation of GF(2^k), k = ctx.k."""
    rng = random.Random(seed)
    sub = ctx.subfield_elems
    for _ in range(4096):
        coeffs = tuple(rng.choice(sub) for _ in range(ctx.k))
        constant = rng.choice(sub)
        try:
            return AffinePerm(ctx, coeffs, constant)
        except ValueError:
            continue
    raise RuntimeError("could not draw a bijective affine map within budget")
