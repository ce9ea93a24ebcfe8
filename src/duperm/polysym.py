"""Sparse multivariate polynomials over GF(2) with resultants and exact division.

A MultiPoly is a set of monomials (exponent tuples) over a fixed tuple
of variable names; every coefficient is 1, so addition is symmetric
difference of term sets and the zero polynomial is the empty set.
The default universe is the six variables used by the elimination
chain that drives the prover: x > y > z > u > v > b, which is also the
graded-lexicographic order used for division and printing.

resultant_wrt eliminates one variable from two MultiPolys: a Sylvester
determinant with polynomial entries, expanded by memoised cofactors
(every in-scope matrix has order at most 6).
"""

from __future__ import annotations

from typing import Iterable

from . import gf2n

__all__ = [
    "VARS",
    "MultiPoly",
    "ExactDivisionError",
    "exact_divide",
    "resultant_wrt",
]

VARS = ("x", "y", "z", "u", "v", "b")


class ExactDivisionError(ValueError):
    """Division left a nonzero remainder, refuting a factorisation claim."""


class MultiPoly:
    __slots__ = ("variables", "terms")

    def __init__(self, terms: Iterable[tuple] = (), variables: tuple = VARS):
        acc: set[tuple] = set()
        for t in terms:
            t = tuple(t)
            if len(t) != len(variables):
                raise ValueError("exponent tuple does not match variable universe")
            acc.symmetric_difference_update({t})
        self.variables = tuple(variables)
        self.terms = frozenset(acc)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: tuple = VARS) -> "MultiPoly":
        return cls((), variables)

    @classmethod
    def one(cls, variables: tuple = VARS) -> "MultiPoly":
        return cls(((0,) * len(variables),), variables)

    @classmethod
    def var(cls, name: str, variables: tuple = VARS) -> "MultiPoly":
        i = variables.index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls((tuple(e),), variables)

    @classmethod
    def _raw(cls, variables: tuple, terms: frozenset) -> "MultiPoly":
        out = cls.__new__(cls)
        out.variables = variables
        out.terms = terms
        return out

    # -- ring structure ------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise ValueError("mixed variable universes")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return MultiPoly._raw(self.variables, self.terms ^ other.terms)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        acc: set[tuple] = set()
        for s in self.terms:
            for t in other.terms:
                st = tuple(a + b for a, b in zip(s, t))
                if st in acc:
                    acc.remove(st)
                else:
                    acc.add(st)
        return MultiPoly._raw(self.variables, frozenset(acc))

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative power")
        out = MultiPoly.one(self.variables)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- structure queries ----------------------------------------------

    def degree_in(self, name: str) -> int:
        """Largest exponent of name; -1 for the zero polynomial."""
        i = self.variables.index(name)
        return max((t[i] for t in self.terms), default=-1)

    def coefficient(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name^power, as a polynomial with that variable cleared."""
        i = self.variables.index(name)
        acc = set()
        for t in self.terms:
            if t[i] == power:
                acc.add(t[:i] + (0,) + t[i + 1 :])
        return MultiPoly._raw(self.variables, frozenset(acc))

    def used_variables(self) -> tuple:
        idx = set()
        for t in self.terms:
            for i, e in enumerate(t):
                if e:
                    idx.add(i)
        return tuple(self.variables[i] for i in sorted(idx))

    def substitute_variables(self, mapping: dict) -> "MultiPoly":
        """Rename variables per mapping (a permutation of the universe)."""
        perm = [self.variables.index(mapping.get(v, v)) for v in self.variables]
        acc = set()
        for t in self.terms:
            new = [0] * len(t)
            for src, dst in enumerate(perm):
                new[dst] += t[src]
            tt = tuple(new)
            if tt in acc:
                acc.remove(tt)
            else:
                acc.add(tt)
        return MultiPoly._raw(self.variables, frozenset(acc))

    def evaluate(self, assignment: dict, ctx: gf2n.FieldCtx) -> int:
        missing = [v for v in self.used_variables() if v not in assignment]
        if missing:
            raise ValueError(f"assignment missing variables: {missing}")
        acc = 0
        for t in self.terms:
            prod = 1
            for name, e in zip(self.variables, t):
                if e:
                    prod = gf2n.mul(ctx, prod, gf2n.pow(ctx, assignment[name], e))
            acc ^= prod
        return acc

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for t in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables, t)
                if e
            ]
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    __repr__ = __str__


def _glex_key(t: tuple) -> tuple:
    return (sum(t), t)


def exact_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p / q when q divides p exactly; raises ExactDivisionError otherwise."""
    p._check(q)
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    lead_q = max(q.terms, key=_glex_key)
    rem = set(p.terms)
    quot: set[tuple] = set()
    while rem:
        lead_r = max(rem, key=_glex_key)
        t = tuple(a - b for a, b in zip(lead_r, lead_q))
        if any(e < 0 for e in t):
            raise ExactDivisionError(
                f"non-exact division, remainder leading term {lead_r}"
            )
        quot.symmetric_difference_update({t})
        for s in q.terms:
            st = tuple(a + b for a, b in zip(t, s))
            if st in rem:
                rem.remove(st)
            else:
                rem.add(st)
    return MultiPoly._raw(p.variables, frozenset(quot))


# ---------------------------------------------------------------------------
# Resultants
# ---------------------------------------------------------------------------

def _det_poly(matrix: list) -> MultiPoly:
    """Determinant of a square MultiPoly matrix by memoised cofactor expansion."""
    n = len(matrix)
    variables = matrix[0][0].variables
    one = MultiPoly.one(variables)
    zero = MultiPoly.zero(variables)
    memo: dict[frozenset, MultiPoly] = {}

    def go(cols: frozenset) -> MultiPoly:
        if not cols:
            return one
        got = memo.get(cols)
        if got is not None:
            return got
        row = n - len(cols)
        acc = zero
        for c in cols:
            entry = matrix[row][c]
            if entry:
                acc = acc + entry * go(cols - {c})
        memo[cols] = acc
        return acc

    return go(frozenset(range(n)))


def resultant_wrt(F: MultiPoly, G: MultiPoly, name: str) -> MultiPoly:
    """Resultant of F and G with respect to one variable.

    Both inputs must have positive degree in that variable; the result
    no longer involves it and vanishes at every common zero of F and G.
    """
    F._check(G)
    dF = F.degree_in(name)
    dG = G.degree_in(name)
    if dF < 1 or dG < 1:
        raise ValueError(f"variable {name!r} must appear in both polynomials")
    fc = [F.coefficient(name, dF - i) for i in range(dF + 1)]
    gc = [G.coefficient(name, dG - i) for i in range(dG + 1)]
    order = dF + dG
    zero = MultiPoly.zero(F.variables)
    rows = []
    for i in range(dG):
        rows.append([zero] * i + fc + [zero] * (dG - 1 - i))
    for i in range(dF):
        rows.append([zero] * i + gc + [zero] * (dF - 1 - i))
    assert all(len(r) == order for r in rows)
    res = _det_poly(rows)
    assert res.degree_in(name) <= 0
    return res
