"""Sparse multivariate polynomials over GF(2) with resultants and exact division.

A MultiPoly is a set of monomials in the six variables VARS of the
elimination chain that drives the prover, x > y > z > u > v > b;
every coefficient is 1, so addition is symmetric difference of term
sets and the zero polynomial is the empty set.

A monomial is one int of one-byte fields, the total degree on top and
then the exponents in VARS order: x^2*y*b is the bytes 4 2 1 0 0 0 1.
Ints compare by total degree first and then by the exponents in order,
which is graded-lex order, so sorting needs no key, and a product of
monomials is an int addition.  The top bit of every byte stays clear: a
total degree past _MAX_DEGREE raises OverflowError before any field
could carry into its neighbour, and exact_divide tests divisibility
with one subtraction against those clear bits.

resultant_wrt eliminates one variable from two MultiPolys: a Sylvester
determinant with polynomial entries, expanded by memoised cofactors
(every in-scope matrix has order at most 6).
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "VARS",
    "MultiPoly",
    "ExactDivisionError",
    "exact_divide",
    "resultant_wrt",
]

VARS = ("x", "y", "z", "u", "v", "b")

_MAX_DEGREE = 127  # largest total degree: each byte field keeps its top bit clear
_TOP = 8 * len(VARS)  # bit offset of the total-degree byte

# _FACTORS[i][e] prints VARS[i]^e
_FACTORS = tuple(
    ("", name) + tuple(f"{name}^{e}" for e in range(2, _MAX_DEGREE + 1)) for name in VARS
)


class ExactDivisionError(ValueError):
    """Division left a nonzero remainder, refuting a factorisation claim."""


def _check_degree(total: int) -> None:
    if total > _MAX_DEGREE:
        raise OverflowError(f"total degree {total} exceeds {_MAX_DEGREE}")


def _pack(exponents: tuple) -> int:
    if min(exponents, default=0) < 0:
        raise ValueError(f"negative exponent in {exponents}")
    _check_degree(sum(exponents))
    return int.from_bytes(bytes((sum(exponents), *exponents)), "big")


def _unpack(m: int) -> bytes:
    """The exponents of a monomial, one byte each."""
    return m.to_bytes(len(VARS) + 1, "big")[1:]


class MultiPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple] = ()):
        acc: set[int] = set()
        for t in terms:
            t = tuple(t)
            if len(t) != len(VARS):
                raise ValueError("exponent tuple does not match variable universe")
            acc ^= {_pack(t)}
        self.terms = frozenset(acc)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls(((0,) * len(VARS),))

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        i = VARS.index(name)
        return cls((tuple(int(j == i) for j in range(len(VARS))),))

    @classmethod
    def _raw(cls, terms: frozenset) -> "MultiPoly":
        out = cls.__new__(cls)
        out.terms = terms
        return out

    # -- ring structure ------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly._raw(self.terms ^ other.terms)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        acc: set[int] = set()
        if self.terms and other.terms:
            _check_degree((max(self.terms) >> _TOP) + (max(other.terms) >> _TOP))
            toggle_off, toggle_on = acc.remove, acc.add
            for s in self.terms:
                for t in other.terms:
                    st = s + t
                    if st in acc:
                        toggle_off(st)
                    else:
                        toggle_on(st)
        return MultiPoly._raw(frozenset(acc))

    def _square(self) -> "MultiPoly":
        # over GF(2) the cross terms cancel, so each monomial doubles its exponents
        if self.terms:
            _check_degree(2 * (max(self.terms) >> _TOP))
        return MultiPoly._raw(frozenset(m << 1 for m in self.terms))

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative power")
        out = MultiPoly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base._square()
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- structure queries ----------------------------------------------

    def _shift(self, name: str) -> int:  # bit offset of a variable's byte
        return 8 * (len(VARS) - 1 - VARS.index(name))

    def degree_in(self, name: str) -> int:
        """Largest exponent of name; -1 for the zero polynomial."""
        sh = self._shift(name)
        return max(((m >> sh) & 255 for m in self.terms), default=-1)

    def coefficient(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name^power, as a polynomial with that variable cleared."""
        sh = self._shift(name)
        drop = (power << sh) + (power << _TOP)
        terms = frozenset(m - drop for m in self.terms if (m >> sh) & 255 == power)
        return MultiPoly._raw(terms)

    def substitute_variables(self, mapping: dict) -> "MultiPoly":
        """Rename variables per mapping (a permutation of the universe)."""
        perm = [VARS.index(mapping.get(v, v)) for v in VARS]
        out = []
        for m in self.terms:
            new = [0] * len(perm)
            for dst, e in zip(perm, _unpack(m)):
                new[dst] += e
            out.append(new)
        return MultiPoly(out)

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for m in sorted(self.terms, reverse=True):
            factors = [names[e] for names, e in zip(_FACTORS, _unpack(m)) if e]
            parts.append("*".join(factors) or "1")
        return " + ".join(parts) or "0"

    __repr__ = __str__


def exact_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p / q when q divides p exactly; raises ExactDivisionError otherwise."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    # a - b keeps every clear top bit of a | guard iff no byte of b exceeds a's
    guard = int.from_bytes(b"\x80" * (len(VARS) + 1), "big")
    lead_q = max(q.terms)
    rem = set(p.terms)
    quot: set[int] = set()
    while rem:
        lead_r = max(rem)
        if (lead_r | guard) - lead_q & guard != guard:
            raise ExactDivisionError(
                f"non-exact division, remainder leading term {tuple(_unpack(lead_r))}"
            )
        t = lead_r - lead_q
        quot.add(t)
        rem ^= {t + s for s in q.terms}
    return MultiPoly._raw(frozenset(quot))


# ---------------------------------------------------------------------------
# Resultants
# ---------------------------------------------------------------------------

def _det_poly(matrix: list) -> MultiPoly:
    """Determinant of a square MultiPoly matrix by memoised cofactor expansion."""
    n = len(matrix)
    one = MultiPoly.one()
    zero = MultiPoly.zero()
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
    dF = F.degree_in(name)
    dG = G.degree_in(name)
    if dF < 1 or dG < 1:
        raise ValueError(f"variable {name!r} must appear in both polynomials")
    fc = [F.coefficient(name, dF - i) for i in range(dF + 1)]
    gc = [G.coefficient(name, dG - i) for i in range(dG + 1)]
    order = dF + dG
    zero = MultiPoly.zero()
    rows = []
    for i in range(dG):
        rows.append([zero] * i + fc + [zero] * (dG - 1 - i))
    for i in range(dF):
        rows.append([zero] * i + gc + [zero] * (dF - 1 - i))
    assert all(len(r) == order for r in rows)
    res = _det_poly(rows)
    assert res.degree_in(name) <= 0
    return res
