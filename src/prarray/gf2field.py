"""The class of x in GF(2^n) = GF(2)[x]/(f) for irreducible f, and its order.

The program works in quotient rings on raw ints (``gf2poly``); this
module keeps only the element form that the benchmark's enumeration
check reads: ``FieldContext(f).alpha``, its powers and its
multiplicative order, compared by value.
"""

from __future__ import annotations

from .gf2poly import (
    BinaryPolynomial,
    _mod,
    _order,
    _powmod,
    is_irreducible,
)


class FieldContext:
    """The quotient field GF(2)[x]/(modulus) for an irreducible modulus."""

    __slots__ = ("modulus", "n")

    def __init__(self, modulus):
        if not isinstance(modulus, BinaryPolynomial):
            modulus = BinaryPolynomial(modulus)
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus} is not irreducible")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "n", modulus.degree)

    def __setattr__(self, name, value):
        raise AttributeError("FieldContext is immutable")

    def __eq__(self, other):
        return isinstance(other, FieldContext) and self.modulus == other.modulus

    def __repr__(self):
        return f"FieldContext({self.modulus})"

    def element(self, value):
        """Element from a polynomial (or raw bits), reduced mod modulus."""
        bits = value.bits if isinstance(value, BinaryPolynomial) else value
        return FieldElement(self, _mod(bits, self.modulus.bits))

    @property
    def one(self):
        return FieldElement(self, 1)

    @property
    def alpha(self):
        """The class of x, a root of the modulus."""
        return self.element(2)


class FieldElement:
    """An element of one FieldContext; coordinates in the basis 1,x,..,x^(n-1)."""

    __slots__ = ("ctx", "bits")

    def __init__(self, ctx, bits):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.ctx == other.ctx
            and self.bits == other.bits
        )

    def __pow__(self, k):
        """self^k for k >= 0; a negative k is refused with ValueError."""
        return FieldElement(self.ctx, _powmod(self.bits, k, self.ctx.modulus.bits))

    def order(self):
        """Least t >= 1 with self^t = 1; divides 2^n - 1."""
        if self.bits == 0:
            raise ValueError("the zero element has no multiplicative order")
        return _order(self.bits, self.ctx.modulus.bits)

    def __str__(self):
        width = max(self.ctx.n, 1)
        return format(self.bits, "0%db" % width) + "@" + self.ctx.modulus.compact()

    def __repr__(self):
        return f"FieldElement({self})"
