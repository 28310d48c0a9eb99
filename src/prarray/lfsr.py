"""Linear-recurring sequences: generation, zero factors, minimal polynomials.

A characteristic polynomial ``c(x) = 1 + c_1 x + ... + c_n x^n`` drives
the recursion ``a_k = c_1 a_{k-1} + ... + c_n a_{k-n}`` over GF(2).
A ``CyclicSequence`` is its bits packed into an integer with ``a_0`` at
bit 0, and its length.

Batched form: a zero factor is a read-only (m, e) uint8 bit matrix,
one row per cycle, column k holding bit k.  ``zero_factor`` computes
one seed state per cycle from f's irreducible factors (a coset
representative of each factor's cycles, plus any state of the later
factors) and fills each seed's row in numpy blocks by doubling, with no
per-state Python walk and no table of the states seen.
``ZeroFactor.cycles`` is that matrix itself, row k being cycle k, so
its length is the cycle count.  ``generate`` (from a seed given as a
list of bits) and ``berlekamp_massey`` (of a ``CyclicSequence``) work
on ints alone, so numpy is imported only by the functions that build
or pack a bit matrix.  ``generate`` divides the power series of the
sequence by c(x) from the low end, four output bits a step through
16-entry tables of the multiples of c(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .gf2poly import (
    BinaryPolynomial,
    InternalCheckError,
    _berlekamp_massey,
    _bit_reverse,
    _byte_tables,
    _divmod,
    _factorint,
    _mod,
    _mul,
    _powmod,
    _square,
    classify,
)

if TYPE_CHECKING:
    import numpy as np


class CyclicSequence:
    """A cyclic binary sequence [a_0 ... a_{l-1}]."""

    __slots__ = ("bits", "length")

    def __init__(self, bits, length):
        if length < 1:
            raise ValueError("sequence length must be positive")
        if bits >> length:
            raise ValueError("bits exceed the stated length")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "length", length)

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


@dataclass(frozen=True, eq=False)
class ZeroFactor:
    """All nonzero cycles of a uniform-exponent polynomial.

    Jointly the cycles contain every nonzero deg(f)-tuple exactly once,
    so the cycle count times the exponent is 2^deg - 1.  ``bits`` holds
    them as a read-only (count, exponent) uint8 matrix, row k being
    cycle k with its bit j in column j; ``cycles`` is the same matrix.
    """

    generator: BinaryPolynomial
    exponent: int
    bits: np.ndarray

    def __post_init__(self):
        count, width = self.bits.shape
        if width != self.exponent or count * width != (1 << self.generator.degree) - 1:
            raise InternalCheckError("cycle count times exponent must be 2^n - 1")
        object.__setattr__(self, "bits", _read_only(self.bits))

    @property
    def cycles(self):
        return self.bits

    def __len__(self):
        return self.bits.shape[0]


def _read_only(array):
    """A read-only view of array, or of a copy of it if it is a view:
    numpy lets an owner be made writeable again, but no view of a
    read-only owner."""
    owner = array if array.base is None else array.copy()
    owner.flags.writeable = False
    return owner.view()


def _taps(f):
    # feedback mask: bit (n - i) set iff c_i = 1
    return _bit_reverse(f.bits >> 1, f.degree)


# the ASCII hex digit of each nibble, as a bytes.translate table
_HEX_DIGITS = b"0123456789abcdef".ljust(256, b"0")


def generate(f, seed, length):
    """Run the recursion of f from seed (the first deg(f) bits).

    The sequence is the power series P(z)/c(z), where c(z) is f.bits and
    P = seed * c mod z^n, divided from the low end a nibble a step: the
    state's low nibble h picks the multiple q * c whose low nibble is h,
    q is the next four output bits, and the state drops that multiple
    and four bits."""
    n = f.degree
    if n < 1 or f.constant_term == 0:
        raise ValueError("generator polynomial needs degree >= 1 and constant term 1")
    if length < n:
        raise ValueError(f"length {length} is shorter than the register ({n})")
    if len(seed) != n or any(b not in (0, 1) for b in seed):
        raise ValueError(f"seed must be {n} bits")
    window = 0
    for k, b in enumerate(seed):
        window |= b << k
    return CyclicSequence(_run(f.bits, n, window, length), length)


def _run(c, n, window, length):
    """The first length bits of the run of ``generate``, packed, from the
    packed state window of the degree-n polynomial c."""
    # the 16 multiples q * c; as c(0) = 1, the low nibble of q * c
    # determines q, so each multiple and its q are filed under it
    mult = [0] * 16
    quot = bytearray(16)
    for q, m in enumerate(_byte_tables([c, c << 1, c << 2, c << 3])[0]):
        mult[m & 15] = m
        quot[m & 15] = q
    digit = quot.translate(_HEX_DIGITS) + bytes(240)
    st = _mul(window, c) & ((1 << n) - 1)
    lows = bytearray((length + 3) // 4)
    for i in range(len(lows)):
        lows[i] = h = st & 15
        st = (st ^ mult[h]) >> 4
    # nibble i of the sequence is the quotient of lows[i], as a hex digit
    return int(lows[::-1].translate(digit), 16) & ((1 << length) - 1)


_BLOCK_STATES = 1 << 20  # register states generated per numpy block
_FILL_STATES = 1 << 16  # states looked up per table step of a block
_ZERO_FACTOR_DEGREE_CAP = 24  # a one-cycle code fills all 2^n states in one block


def _pack_rows(bits):
    """Each row of a 2-D 0/1 matrix as an int, column k at bit k."""
    import numpy as np

    packed = np.packbits(bits, axis=1, bitorder="little")
    nbytes = packed.shape[1]
    buf = packed.tobytes()
    return [int.from_bytes(buf[i : i + nbytes], "little") for i in range(0, len(buf), nbytes)]


def _fill(states, tables):
    """Fill a C-contiguous little-endian uint32 state array from its
    first row by doubling: rows [L, 2L) are map l of ``_map_tables``
    applied to rows [0, L), L = 2^l, one table lookup per byte of a
    state, read through a byte view and written in place, at most
    ``_FILL_STATES`` states a step."""
    import numpy as np

    size = states.shape[0]
    step = max(1, _FILL_STATES // states[0].size)
    for level, bytes_ in enumerate(tables):
        done = 1 << level
        for lo in range(0, min(done, size - done), step):
            hi = min(lo + step, done, size - done)
            src = states[lo:hi].view(np.uint8)
            out = states[done + lo : done + hi]
            np.take(bytes_[0], src[..., 0::4], out=out, mode="wrap")
            for k in range(1, len(bytes_)):
                out ^= np.take(bytes_[k], src[..., k::4], mode="wrap")


def _square_chain(c, count, m):
    """c, c^2, c^4, ... mod m: count residues."""
    out = []
    c = _mod(c, m)
    for _ in range(count):
        out.append(c)
        c = _mod(_square(c), m)
    return out


def _quotient_generator(p, e):
    """The least beta whose powers meet every coset of <x> in the
    multiplicative group of GF(2)[x]/(p), p irreducible and x of order
    e: beta^((2^d - 1)/q) != 1 for each prime q of (2^d - 1)/e.  It is
    asked only when there is such a q, so beta = x, of order e, fails."""
    order = (1 << (p.bit_length() - 1)) - 1
    primes = _factorint(order // e)
    for beta in range(3, order + 1):
        if all(_powmod(beta, order // q, p) != 1 for q in primes):
            return beta
    raise InternalCheckError(f"no generator of the cosets of x modulo {p:b}")


def _map_tables(f, polys):
    """Byte tables of the maps c(M), for the step map M of f and each
    polynomial c of degree < deg f: a (len(polys), bytes, 256)
    little-endian uint32 array, and c(M) applied to the state 1 for each
    c.

    With y the state with bit n - 1 alone, the unit state e_b is
    g_b(M) y for g_b = f* >> (b + 1), f* the reciprocal of f, so the
    run from e_b is the run from e_(b+1) shifted by one, plus the run
    from y if f* has bit b + 1.  Bit j of M^i e_b is bit i + j of that
    run, and c(M) e_b is the sum of M^i e_b over the bits i of c."""
    import numpy as np

    n = f.degree
    star = _bit_reverse(f.bits, n + 1)
    run = _run(f.bits, n, 1 << (n - 1), 3 * n)
    runs = [run]
    for b in range(n - 1, 0, -1):
        runs.append(runs[-1] >> 1 ^ (run if star >> b & 1 else 0))
    low = (1 << (2 * n - 1)) - 1
    runs = np.array([r & low for r in reversed(runs)], dtype=np.uint64)
    shifts = np.arange(n, dtype=np.uint64)
    powers = (runs >> shifts[:, None] & np.uint64((1 << n) - 1)).astype(np.uint32)
    coeffs = np.array(polys, dtype=np.uint32)[:, None] >> shifts.astype(np.uint32) & 1
    images = np.bitwise_xor.reduce(coeffs[:, :, None] * powers, axis=1)
    # table entry t of byte k is the sum of images[8k + j] over the bits j of t
    nbytes = -(-n // 8)
    padded = np.zeros((len(polys), nbytes * 8), dtype=np.uint32)
    padded[:, :n] = images
    padded = padded.reshape(len(polys), nbytes, 8)
    tables = np.zeros((len(polys), nbytes, 1), dtype="<u4")
    for j in range(8):
        tables = np.concatenate((tables, tables ^ padded[:, :, j, None]), axis=2)
    return tables, images[:, 0]


def zero_factor(f):
    """Partition all nonzero states of f's register into cycles.

    Requires a uniform exponent (irreducible, or a product of distinct
    irreducibles sharing one degree and exponent); every cycle then has
    least period equal to the exponent.

    Cycles come in order of their least state, each starting there (a
    state's bit 0 is the first output bit).  One seed state per cycle
    is computed from f's factors (``_coset_zero_factor``), and each
    seed's row is filled in numpy blocks by doubling: columns [L, 2L)
    are M^L applied to columns [0, L), for the step map M.
    """
    cls = classify(f)
    if not cls.is_uniform:
        raise ValueError(f"{f} does not have a uniform exponent (kind: {cls.kind})")
    return _coset_zero_factor(f, cls.exponent, cls.factors)


def _coset_zero_factor(f, e, factors):
    """The zero factor of f, whose uniform exponent e and irreducible
    factors the caller knows; a wrong e or factor list fails the checks
    with InternalCheckError.

    The step map M has minimal polynomial f*, the product of the
    factors' reciprocals p_i* of degree d.  The states split into the
    sum of the spaces V_i killed by p_i*(M), each a field in which M is
    a root of p_i* of order e, so each V_i holds (2^d - 1)/e cycles.
    With v_i = (f*/p_i*)(M) applied to the state 1 and beta_i from
    ``_quotient_generator``, the states beta_i(M)^t v_i for
    t < (2^d - 1)/e lie one on each cycle of V_i (a coset of <M>).  A
    cycle's states share their first nonzero component, and exactly one
    has a given nonzero value there, so the seeds are r + w for r one
    of those states of some V_i and w any sum of states of the later
    V_j: (2^n - 1)/e seeds, one per cycle (Lidl & Niederreiter,
    *Finite Fields*, ch. 8).

    Each row is rotated to start at its least state, and rows are
    sorted by it.  Every row must close, return to its seed at no
    e/q for a prime q of e (so it has least period e), and the least
    states must strictly increase from above 0; with ``ZeroFactor``'s
    count check, the rows then hold every nonzero state once.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    n = f.degree
    if n > _ZERO_FACTOR_DEGREE_CAP:
        raise ValueError(
            f"zero factor enumeration is capped at degree {_ZERO_FACTOR_DEGREE_CAP}"
        )
    d = factors[0].degree
    product = 1
    for p in factors:
        product = _mul(product, p.bits)
    if product != f.bits or any(p.degree != d for p in factors):
        raise InternalCheckError(f"{' * '.join(map(str, factors))} is not {f} in one degree")
    if ((1 << d) - 1) % e:
        raise InternalCheckError(f"exponent {e} does not divide 2^{d} - 1")
    per_factor = ((1 << d) - 1) // e
    count = ((1 << n) - 1) // e
    stars = [_bit_reverse(p.bits, d + 1) for p in factors]
    star = _bit_reverse(f.bits, n + 1)
    row_levels = (e - 1).bit_length()
    coset_levels = (per_factor - 1).bit_length()
    polys = _square_chain(2, row_levels, star)
    for i, p in enumerate(stars):
        cofactor = _divmod(star, p)[0]
        polys += [cofactor << s for s in range(d)]
        if coset_levels:
            polys += _square_chain(_quotient_generator(p, e), coset_levels, p)
    tables, from_one = _map_tables(f, polys)

    # seeds for V_k first, then each V_i with the span of the later ones
    span = np.zeros(1, dtype="<u4")
    parts = []
    for i in reversed(range(len(factors))):
        at = row_levels + i * (d + coset_levels)
        reps = np.empty(per_factor, dtype="<u4")
        reps[0] = from_one[at]
        _fill(reps, tables[at + d : at + d + coset_levels])
        parts.append((reps[:, None] ^ span).ravel())
        for v in from_one[at : at + d] if i else ():
            span = np.concatenate((span, span ^ v))
    seeds = np.concatenate(parts)

    taps = np.uint32(_taps(f))
    top = np.uint32(n - 1)
    divisors = [e // q for q in _factorint(e)]
    least = np.empty(count, dtype=np.uint32)
    bits = np.empty((count, e), dtype=np.uint8)
    # column j of a block is the cycle from seed lo + j, state k in row k
    per_block = max(1, _BLOCK_STATES // e)
    block = np.empty(e * min(per_block, count), dtype="<u4")
    for lo in range(0, count, per_block):
        hi = min(lo + per_block, count)
        states = block[: e * (hi - lo)].reshape(e, hi - lo)
        states[0] = seeds[lo:hi]
        _fill(states, tables[:row_levels])
        last = states[-1]
        stepped = (last >> 1) | ((np.bitwise_count(last & taps) & 1).astype(np.uint32) << top)
        if (stepped != states[0]).any():
            raise InternalCheckError(f"a row of {f} does not close after {e} steps")
        if any((states[k] == states[0]).any() for k in divisors):
            raise InternalCheckError(f"cycles of {f} do not have period {e}")
        least[lo:hi] = low = states.min(axis=0)
        start = (states == low).argmax(axis=0)
        if not start.any():
            np.bitwise_and(states.T, 1, out=bits[lo:hi], casting="unsafe")
            continue
        # a row read from its least state is one window of the row twice
        twice = np.empty((hi - lo, 2 * e), dtype=np.uint8)
        np.bitwise_and(states.T, 1, out=twice[:, :e], casting="unsafe")
        twice[:, e:] = twice[:, :e]
        bits[lo:hi] = sliding_window_view(twice, e, axis=1)[np.arange(hi - lo), start]
    del block, states
    order = np.argsort(least)
    least = least[order]
    if least[0] == 0 or (least[1:] <= least[:-1]).any():
        raise InternalCheckError(f"the seeds of {f} are not one per cycle")
    return ZeroFactor(f, e, bits.take(order, axis=0) if count > 1 else bits)


def berlekamp_massey(seq):
    """Minimal characteristic polynomial reproducing the bits of a
    CyclicSequence, read once into an int with a_0 at the top, the form
    ``gf2poly._berlekamp_massey`` runs on."""
    n = seq.length
    rev = int(format(seq.bits, f"0{n}b")[::-1], 2)
    return BinaryPolynomial(_berlekamp_massey(rev, n)[0])
