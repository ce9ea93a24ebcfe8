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

A product toggles each sum of two monomials in one set.

resultant_wrt eliminates one variable from two MultiPolys, one of them
linear in it: the Sylvester determinant expanded along the other's row,
evaluated by Horner's rule.  Every elimination of the prover's chain has
such an operand.  exact_divide takes each leading remainder term off a
heap, and MultiPoly.parse reads back the text that str() prints.
"""

from __future__ import annotations

import heapq
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

# _FACTORS[i][e] prints VARS[i]^e and a trailing "*", or nothing for e = 0
_FACTORS = tuple(
    ("", f"{name}*") + tuple(f"{name}^{e}*" for e in range(2, _MAX_DEGREE + 1)) for name in VARS
)
_X, _Y, _Z, _U, _V, _B = _FACTORS


class ExactDivisionError(ValueError):
    """Division left a nonzero remainder, refuting a factorisation claim."""


def _check_degree(total: int) -> None:
    if total > _MAX_DEGREE:
        raise OverflowError(f"total degree {total} exceeds {_MAX_DEGREE}")


def _pack(exponents: tuple) -> int:
    x, y, z, u, v, b = exponents
    if (x | y | z | u | v | b) < 0:  # an OR of ints is negative when one of them is
        raise ValueError(f"negative exponent in {exponents}")
    total = x + y + z + u + v + b
    _check_degree(total)
    return total << _TOP | x << 40 | y << 32 | z << 24 | u << 16 | v << 8 | b


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
    def parse(cls, text: str) -> "MultiPoly":
        """The polynomial that str() prints as text, its factors in any order."""
        if text == "0":
            return cls()
        terms = []
        for term in text.split(" + "):
            exponents = [0] * len(VARS)
            if term != "1":
                for factor in term.split("*"):
                    name, caret, power = factor.partition("^")
                    exponents[VARS.index(name)] += int(power) if caret else 1
            terms.append(exponents)
        return cls(terms)

    @classmethod
    def _raw(cls, terms: frozenset) -> "MultiPoly":
        out = cls.__new__(cls)
        out.terms = terms
        return out

    # -- ring structure ------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly._raw(self.terms ^ other.terms)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        a, b = self.terms, other.terms
        if not a or not b:
            return MultiPoly._raw(frozenset())
        _check_degree((max(a) >> _TOP) + (max(b) >> _TOP))
        acc: set[int] = set()
        toggle_off, toggle_on = acc.remove, acc.add
        for s in a:
            for t in b:
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
            _, x, y, z, u, v, b = m.to_bytes(len(VARS) + 1, "big")
            text = _X[x] + _Y[y] + _Z[z] + _U[u] + _V[v] + _B[b]
            parts.append(text[:-1] or "1")  # each factor ends in "*"
        return " + ".join(parts) or "0"

    __repr__ = __str__


def exact_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p / q when q divides p exactly; raises ExactDivisionError otherwise.

    The remainder's leading term comes off a heap: every term a step adds
    is below the one it cancels, so popped terms no longer in the
    remainder are stale and skipped.
    """
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    # a - b keeps every clear top bit of a | guard iff no byte of b exceeds a's
    guard = int.from_bytes(b"\x80" * (len(VARS) + 1), "big")
    lead_q = max(q.terms)
    rem = set(p.terms)
    heap = [-m for m in rem]  # heapq pops the least, so terms go in negated
    heapq.heapify(heap)
    quot: set[int] = set()
    while heap:
        lead_r = -heapq.heappop(heap)
        if lead_r not in rem:
            continue
        if (lead_r | guard) - lead_q & guard != guard:
            raise ExactDivisionError(
                f"non-exact division, remainder leading term {tuple(_unpack(lead_r))}"
            )
        t = lead_r - lead_q
        quot.add(t)
        for s in q.terms:
            m = t + s
            if m in rem:
                rem.remove(m)
            else:
                rem.add(m)
                heapq.heappush(heap, -m)
    return MultiPoly._raw(frozenset(quot))


def resultant_wrt(F: MultiPoly, G: MultiPoly, name: str) -> MultiPoly:
    """Resultant of F and G with respect to one variable t, one of them linear in t.

    Both inputs must have positive degree in t; the result no longer
    involves it and vanishes at every common zero of F and G.  For
    f1 t + f0 and G = sum g_i t^i of degree d, the Sylvester determinant
    expanded along G's row is sum g_i f0^i f1^(d - i) (no signs in
    characteristic 2), which Horner's rule evaluates.
    """
    dF = F.degree_in(name)
    dG = G.degree_in(name)
    if dF < 1 or dG < 1:
        raise ValueError(f"variable {name!r} must appear in both polynomials")
    if dF != 1:
        if dG != 1:
            raise ValueError(f"neither polynomial is linear in {name!r}")
        F, G, dG = G, F, dF
    f0, f1 = F.coefficient(name, 0), F.coefficient(name, 1)
    acc = G.coefficient(name, dG)
    f1_power = f1
    for i in range(dG - 1, -1, -1):
        acc = acc * f0 + G.coefficient(name, i) * f1_power
        if i:
            f1_power = f1_power * f1
    return acc
