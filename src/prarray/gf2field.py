"""Arithmetic in GF(2^n) realized as GF(2)[x]/(f) for irreducible f.

Each :class:`FieldContext` owns one modulus; elements belong to exactly
one context and mixing contexts is a hard error.  This matters because
the verification criteria work in several quotient rings GF(2)[x]/(f_u)
at once, and silently coercing between them would corrupt results.
"""

from __future__ import annotations

from .gf2poly import (
    BinaryPolynomial,
    _mod,
    _mulmod,
    _order,
    _powmod,
    _trace_mask,
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

    def __hash__(self):
        return hash(("gf2field", self.modulus.bits))

    def __repr__(self):
        return f"FieldContext({self.modulus})"

    def element(self, value):
        """Element from a polynomial (or raw bits), reduced mod modulus."""
        bits = value.bits if isinstance(value, BinaryPolynomial) else value
        return FieldElement(self, _mod(bits, self.modulus.bits))

    @property
    def zero(self):
        return FieldElement(self, 0)

    @property
    def one(self):
        return FieldElement(self, 1)

    @property
    def alpha(self):
        """The class of x, a root of the modulus."""
        return self.element(2)

    def trace_mask(self):
        # bit m holds Tr(x^m); trace of any element is then one parity
        return _trace_mask(self.modulus.bits, self.n)


class FieldElement:
    """An element of one FieldContext; coordinates in the basis 1,x,..,x^(n-1)."""

    __slots__ = ("ctx", "bits")

    def __init__(self, ctx, bits):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ValueError("elements belong to different field contexts")

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.ctx == other.ctx
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.ctx, self.bits))

    def __bool__(self):
        return self.bits != 0

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.ctx, self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.ctx, _mulmod(self.bits, other.bits, self.ctx.modulus.bits))

    def __pow__(self, k):
        if k < 0:
            if self.bits == 0:
                raise ZeroDivisionError("zero element with negative exponent")
            k %= self.order()
        return FieldElement(self.ctx, _powmod(self.bits, k, self.ctx.modulus.bits))

    def order(self):
        """Least t >= 1 with self^t = 1; divides 2^n - 1."""
        if self.bits == 0:
            raise ValueError("the zero element has no multiplicative order")
        return _order(self.bits, self.ctx.modulus.bits)

    def trace(self):
        """Sum of Frobenius conjugates, as a GF(2) bit."""
        return (self.bits & self.ctx.trace_mask()).bit_count() & 1

    def __str__(self):
        width = max(self.ctx.n, 1)
        return format(self.bits, "0%db" % width) + "@" + self.ctx.modulus.compact()

    def __repr__(self):
        return f"FieldElement({self})"

