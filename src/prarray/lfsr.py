"""Linear-recurring sequences: generation, zero factors, minimal polynomials.

A characteristic polynomial ``c(x) = 1 + c_1 x + ... + c_n x^n`` drives
the recursion ``a_k = c_1 a_{k-1} + ... + c_n a_{k-n}`` over GF(2).
A ``CyclicSequence`` is its bits packed into an integer with ``a_0`` at
bit 0, and its length.

Batched form: a zero factor is a read-only (m, e) uint8 bit matrix,
one row per cycle, column k holding bit k, which ``zero_factor`` fills
in numpy blocks by doubling, without a per-state Python walk.
``ZeroFactor.cycles`` packs its rows into integers on first use.
``generate`` (from a seed given as a list of bits) and
``berlekamp_massey`` (of a ``CyclicSequence``) work on ints alone, so
numpy is imported only by the functions that build or pack a bit
matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .gf2poly import (
    BinaryPolynomial,
    InternalCheckError,
    _berlekamp_massey,
    _bit_reverse,
    _byte_tables,
    _divisors,
    classify,
)

if TYPE_CHECKING:
    import numpy as np


class CyclicSequence:
    """A cyclic binary sequence [a_0 ... a_{l-1}] with cached least period."""

    __slots__ = ("bits", "length", "_period")

    def __init__(self, bits, length):
        if length < 1:
            raise ValueError("sequence length must be positive")
        if bits >> length:
            raise ValueError("bits exceed the stated length")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_period", None)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicSequence is immutable")

    def __len__(self):
        return self.length

    def __eq__(self, other):
        return (
            isinstance(other, CyclicSequence)
            and self.length == other.length
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash(("cycseq", self.length, self.bits))

    def __str__(self):
        return "".join(str(self.bits >> k & 1) for k in range(self.length))

    def __repr__(self):
        return f"CyclicSequence({str(self)!r})"

    @property
    def least_period(self):
        """Least p with a_k = a_{k+p} cyclically; p divides the length."""
        p = self._period
        if p is None:
            p = next(d for d in _divisors(self.length) if self._has_period(d))
            object.__setattr__(self, "_period", p)
        return p

    def _has_period(self, p):
        return self.rotate(p) == self

    def rotate(self, t):
        """Delay by t positions: new a_k is old a_{k-t}."""
        ell = self.length
        t %= ell
        if t == 0:
            return self
        mask = (1 << ell) - 1
        bits = ((self.bits << t) | (self.bits >> (ell - t))) & mask
        return CyclicSequence(bits, ell)


@dataclass(frozen=True, eq=False)
class ZeroFactor:
    """All nonzero cycles of a uniform-exponent polynomial.

    Jointly the cycles contain every nonzero deg(f)-tuple exactly once,
    so the cycle count times the exponent is 2^deg - 1.  ``bits`` holds
    them as a read-only (count, exponent) matrix.
    """

    generator: BinaryPolynomial
    exponent: int
    bits: np.ndarray

    def __post_init__(self):
        count, width = self.bits.shape
        if width != self.exponent or count * width != (1 << self.generator.degree) - 1:
            raise InternalCheckError("cycle count times exponent must be 2^n - 1")
        # a view of a read-only owner cannot be made writeable again
        owner = self.bits if self.bits.base is None else self.bits.copy()
        owner.flags.writeable = False
        object.__setattr__(self, "bits", owner.view())

    @functools.cached_property
    def cycles(self):
        return tuple(CyclicSequence(b, self.exponent) for b in _pack_rows(self.bits))

    def __len__(self):
        return self.bits.shape[0]


def _taps(f):
    # feedback mask: bit (n - i) set iff c_i = 1
    return _bit_reverse(f.bits >> 1, f.degree)


def generate(f, seed, length):
    """Run the recursion of f from seed (the first deg(f) bits)."""
    n = f.degree
    if n < 1 or f.constant_term == 0:
        raise ValueError("generator polynomial needs degree >= 1 and constant term 1")
    if length < n:
        raise ValueError(f"length {length} is shorter than the register ({n})")
    if len(seed) != n or any(b not in (0, 1) for b in seed):
        raise ValueError(f"seed must be {n} bits")
    taps = _taps(f)
    window = 0
    for k, b in enumerate(seed):
        window |= b << k
    bits = window
    for k in range(n, length):
        fb = (window & taps).bit_count() & 1
        bits |= fb << k
        window = (window >> 1) | (fb << (n - 1))
    return CyclicSequence(bits, length)


_BLOCK_STATES = 1 << 20  # register states generated per numpy block
_ZERO_FACTOR_DEGREE_CAP = 24  # all 2^n register states are generated and marked


def _pack_rows(bits):
    """Each row of a 2-D 0/1 matrix as an int, column k at bit k."""
    import numpy as np

    packed = np.packbits(bits, axis=1, bitorder="little")
    nbytes = packed.shape[1]
    buf = packed.tobytes()
    return [int.from_bytes(buf[i : i + nbytes], "little") for i in range(0, len(buf), nbytes)]


def _linear_tables(images):
    """``gf2poly._byte_tables`` of a uint32 array of images, as uint32 arrays."""
    import numpy as np

    return [np.array(t, dtype=np.uint32) for t in _byte_tables(images.tolist())]


def _apply_tables(tables, states):
    """The map of ``_linear_tables`` applied to an array of uint32 states."""
    out = tables[0][states & 0xFF]
    for c, t in enumerate(tables[1:], 1):
        out ^= t[(states >> (8 * c)) & 0xFF]
    return out


def zero_factor(f):
    """Partition all nonzero states of f's register into cycles.

    Requires a uniform exponent (irreducible, or a product of distinct
    irreducibles sharing one degree and exponent); every cycle then has
    least period equal to the exponent.

    Cycles come in order of their least state, each starting there (a
    state's bit 0 is the first output bit).  They are generated in
    numpy blocks: a block seeds one row per candidate state (the next
    unseen states, no more than cycles still missing), fills columns
    [L, 2L) by applying M^L to columns [0, L) for the step map M, and
    keeps the rows whose seed is the row minimum.
    """
    cls = classify(f)
    if not cls.is_uniform:
        raise ValueError(f"{f} does not have a uniform exponent (kind: {cls.kind})")
    return _zero_factor_walk(f, cls.exponent)


def _zero_factor_walk(f, e):
    """The zero factor of f, whose uniform exponent e the caller knows;
    a wrong e fails the walk's checks with InternalCheckError."""
    import numpy as np

    n = f.degree
    if n > _ZERO_FACTOR_DEGREE_CAP:
        raise ValueError(
            f"zero factor enumeration is capped at degree {_ZERO_FACTOR_DEGREE_CAP}"
        )
    taps = np.uint32(_taps(f))
    top = np.uint32(n - 1)

    def step(s):
        return (s >> 1) | ((np.bitwise_count(s & taps) & 1).astype(np.uint32) << top)

    # tables of M^1, M^2, M^4, ... as far as the doubling needs
    images = step(np.uint32(1) << np.arange(n, dtype=np.uint32))
    powers = []
    while (1 << len(powers)) < e:
        powers.append(_linear_tables(images))
        images = _apply_tables(powers[-1], images)

    count = ((1 << n) - 1) // e
    seen = np.zeros(1 << n, dtype=bool)
    seen[0] = True
    blocks = []
    found = 0
    lo = 1
    while found < count:
        want = min(count - found, max(1, _BLOCK_STATES // e))
        span = 4 * want
        seeds = np.flatnonzero(~seen[lo : lo + span])[:want]
        while seeds.size < want and lo + span < seen.size:
            span *= 4
            seeds = np.flatnonzero(~seen[lo : lo + span])[:want]
        seeds += lo
        states = np.empty((seeds.size, e), dtype=np.uint32)
        states[:, 0] = seeds
        for level, tables in enumerate(powers):
            done = 1 << level
            width = min(done, e - done)
            states[:, done : done + width] = _apply_tables(tables, states[:, :width])
        states = states[states[:, 0] == states.min(axis=1)]
        if (step(states[:, -1]) != states[:, 0]).any():
            raise InternalCheckError("state walk left a cycle mid-way")
        seen[states] = True
        blocks.append((states & 1).astype(np.uint8))
        found += states.shape[0]
        lo = int(seeds[0]) + 1
    # count * e states marked, all of them: each cycle has e distinct
    # states, so least period e
    if not seen.all():
        raise InternalCheckError(f"cycles of {f} do not have period {e}")
    return ZeroFactor(f, e, np.concatenate(blocks))


def berlekamp_massey(seq):
    """Minimal characteristic polynomial reproducing the bits of a
    CyclicSequence, read once into an int with a_0 at the top, the form
    ``gf2poly._berlekamp_massey`` runs on."""
    n = seq.length
    rev = int(format(seq.bits, f"0{n}b")[::-1], 2)
    return BinaryPolynomial(_berlekamp_massey(rev, n)[0])
