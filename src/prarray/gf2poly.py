"""Arithmetic and structure theory for polynomials over GF(2).

A polynomial ``b_n x^n + ... + b_1 x + b_0`` is represented by the
integer ``b_n 2^n + ... + b_1 2 + b_0``, so addition is XOR and a left
shift multiplies by x.  :class:`BinaryPolynomial` is a thin immutable
wrapper around such an integer; the ``_``-prefixed helpers implement
the algorithms on raw integers.

Two text notations are supported:

* compact bit string, most significant coefficient first
  (``"1011"`` is ``x^3+x+1``);
* symbolic sum of powers with strictly decreasing exponents
  (``"x^3+x+1"``).

``parse`` accepts both; ``str`` emits the symbolic form and
``BinaryPolynomial.compact`` the bit string.

The raw kernels pick their path from operand sizes alone:

* ``_mul`` runs bit-serially over the shorter operand when it fits in a
  machine word (64 bits); when both are wider, it steps through the
  shorter one in 4-bit windows over the 16 multiples of the other.
* ``_square`` interleaves zeros into the binary digits at C level
  (``format``, a ``bytearray`` slice and ``int(..., 2)``), at every
  size.
* ``_mod`` clears 8 bits a step with ``_mod_table``, the 256 multiples
  of the modulus by polynomials of degree < 8 (the XOR combinations of
  the 8 whose top 8 bits are a single bit), when the modulus has more
  than 32 bits and the degree gap is at least 32.  Tables are kept for
  the last 8 moduli only.  Smaller moduli, smaller degree gaps (as in
  ``_gcd``) and the last < 8 bits are cleared one bit at a time.
* ``_table_map`` applies a GF(2)-linear map through ``_byte_tables``,
  one table per byte of a residue (the top table has 2^(bits left)
  entries), with every lookup written out in one expression.
* ``_eighth_power_tables(m)`` maps r to r^8 mod m for 2 <= deg m <= 64
  (a word): the table map of the images x^(8i) mod m, each the last
  shifted by 8 and reduced by one ``_mod_table`` lookup.  Tables are
  kept for the last 8 moduli only.
* ``_powmod`` is the one kernel that raises x to a power.  It goes left
  to right over the exponent, multiplying by x with a shift.  Up to
  degree 64 it takes three exponent bits c a step: r -> r^8, then a
  shift by c and one ``_mod_table`` lookup (Knuth, TAOCP vol. 2,
  4.6.3).  Above that it takes one bit a step: ``_mod(_square(r), m)``,
  then a shift and one conditional XOR.  Other bases use
  square-and-multiply.
* ``_rabin`` asks ``_powmod`` for x^(2^j) at each checkpoint j = n/p
  and for x^(2^n).
* ``_gcd`` takes one ``_mod``, whose table serves a first operand much
  longer than the second, then runs Euclid's remainders inline, one bit
  a step.
* ``_trace_mask`` reads Tr(x^m) for m < deg f from f's coefficients by
  Newton's identities, one parity a bit, with no squaring.

``enumerate_irreducible(n, e)`` splits the e-th cyclotomic polynomial
by trace maps only down one branch, keeping the smaller part, to one
factor p.  Every part divides x^e - 1, so the trace of x^i is the sum
of x^(i 2^j mod e) over j < n, reduced once, with no squaring.  For j
prime to e, decimating p's impulse sequence by j gives a sequence whose
minimal polynomial is that of the j-th power of p's root (Golomb,
*Shift Register Sequences*; Lidl & Niederreiter, *Finite Fields*,
ch. 8), so Berlekamp-Massey on the first 2n bits of one decimation per
cyclotomic coset of 2 mod e finds every factor.  Each decimation must
have linear complexity n, the results must be distinct and phi(e)/n in
number, and their product must be the cyclotomic polynomial.

``classify`` is the one place that factors a polynomial and takes the
orders of x modulo its factors; ``exponent`` reads its result.  It asks
for one irreducibility decision (``_is_irreducible_int``) first and
runs Berlekamp only on reducible input.  Above degree 64 the decision
first steps x up to x^65535 (``_x_steps``), a byte at a time: x^t = 1
for some t in 8b + 1 .. 8b + 8 exactly when x^(8b) is one of x^(-1) ..
x^(-8).  If that finds the least t with x^t = 1, f is irreducible
exactly when t is odd, ord2(t) = deg f and gcd(x^(t/q) - 1, f) = 1 for
each prime q of t (``_order_certifies``; Lidl & Niederreiter, *Finite
Fields*, ch. 3), and t is then its exponent.  Otherwise, and at every
degree up to 64, Rabin's test decides (``_rabin``).  ``classify``,
``_is_irreducible_int``, ``_x_steps`` and ``_x_order`` keep their last
eight results, so consecutive calls on one polynomial compute them
once and nothing steps twice; the rank criteria read them here and
keep no copies.  Orders of x that stepping does not find need the
primes of 2^n - 1: ``_factorint`` divides out a committed table of
those above 10^6 for n <= 128, then trial-divides up to 10^6, and
``_order`` strips them from 2^n - 1 largest first.
"""

from __future__ import annotations

import functools
import math


class ParseError(ValueError):
    """Malformed polynomial text; ``position`` is the offending index."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InternalCheckError(RuntimeError):
    """A redundant internal cross-check failed; indicates a bug."""


# ---------------------------------------------------------------------------
# raw integer arithmetic

def _degree(a):
    return a.bit_length() - 1


# The size rule of the kernel paths; see the module docstring.
_WORD = 64
_TABLE_MIN = 32


def _mul(a, b):
    if a.bit_length() < b.bit_length():
        a, b = b, a
    if b >> _WORD == 0:
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        return r
    # both wider than a word: b in 4-bit windows, over the 16 multiples of a
    w = [0, a] + [0] * 14
    for i in range(2, 16, 2):
        w[i] = w[i >> 1] << 1
        w[i + 1] = w[i] ^ a
    r = 0
    for byte in b.to_bytes((b.bit_length() + 7) // 8, "big"):
        r = (r << 4) ^ w[byte >> 4]
        r = (r << 4) ^ w[byte & 15]
    return r


def _square(a):
    # squaring over GF(2) just spreads the bits out: interleave a zero
    # after every binary digit, all in C
    digits = format(a, "b").encode()
    spread = bytearray(b"0") * (2 * len(digits) - 1)
    spread[::2] = digits
    return int(spread, 2)


@functools.lru_cache(maxsize=8)
def _mod_table(b):
    """The 256 multiples of b by polynomials of degree < 8, indexed by
    their top 8 bits (bits deg b to deg b + 7).  The top bits are linear
    in the multiple, so the table is _byte_tables of the 8 multiples
    whose top bits are a single bit: each is the last shifted by 1, with
    b added when that sets bit deg b."""
    k = b.bit_length() - 1
    units = [b]
    for _ in range(7):
        m = units[-1] << 1
        units.append(m ^ b if m >> k & 1 else m)
    return _byte_tables(units)[0]


def _mod(a, b):
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = b.bit_length()
    da = a.bit_length()
    if db > _TABLE_MIN and da - db >= _TABLE_MIN:
        # clear the top 8 bits of a per step with one table multiple
        table = _mod_table(b)
        k = db - 1
        p = da - 8
        while p >= k:
            a ^= table[a >> p] << (p - k)
            p -= 8
        da = a.bit_length()
    while da >= db:
        a ^= b << (da - db)
        da = a.bit_length()
    return a


def _divmod(a, b):
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = b.bit_length()
    q = 0
    da = a.bit_length()
    while da >= db:
        s = da - db
        q |= 1 << s
        a ^= b << s
        da = a.bit_length()
    return q, a


def _gcd(a, b):
    if not b:
        return a
    # one _mod, whose table serves a much longer a; then Euclid's
    # remainders one bit a step, inline
    a, b = b, _mod(a, b)
    while b:
        db = b.bit_length()
        da = a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b = b, a
    return a


def _frobenius_images(m):
    """x^(2i) mod m for i < deg m, Berlekamp's images of the basis under
    squaring: each is the last shifted by 2, then reduced by at most two
    conditional XORs."""
    n = m.bit_length() - 1
    images = []
    img = 1
    for _ in range(n):
        images.append(img)
        img <<= 2
        if img >> (n + 1):
            img ^= m << 1
        if img >> n:
            img ^= m
    return images


def _byte_tables(images):
    """Lookup tables of the GF(2)-linear map sending bit i to images[i],
    one per byte of its input (256 entries, fewer for the top byte):
    entry b of table k is the XOR of images[8k + j] over the bits j of b."""
    tables = []
    for k in range(0, len(images), 8):
        table = [0]
        for img in images[k:k + 8]:
            table += [v ^ img for v in table]
        tables.append(table)
    return tables


def _table_map(tables):
    """The linear map of _byte_tables as one closure, every lookup
    written out in one expression: tables[k] reads byte k of its input,
    the top table the rest of it unmasked.  Zero tables pad the list to
    2, 4 or 8, which an input below 2^(8 len(tables)) reads at 0."""
    k = len(tables)
    if k <= 2:
        t0, t1 = tables + [[0]] * (2 - k)
        return lambda r: t0[r & 255] ^ t1[r >> 8]
    if k <= 4:
        t0, t1, t2, t3 = tables + [[0]] * (4 - k)
        return lambda r: t0[r & 255] ^ t1[r >> 8 & 255] ^ t2[r >> 16 & 255] ^ t3[r >> 24]
    t0, t1, t2, t3, t4, t5, t6, t7 = tables + [[0]] * (8 - k)
    return lambda r: (
        t0[r & 255] ^ t1[r >> 8 & 255] ^ t2[r >> 16 & 255] ^ t3[r >> 24 & 255]
        ^ t4[r >> 32 & 255] ^ t5[r >> 40 & 255] ^ t6[r >> 48 & 255] ^ t7[r >> 56]
    )


@functools.lru_cache(maxsize=8)
def _eighth_power_tables(m):
    """For 1 < deg m <= _WORD, r -> r^8 mod m as one lookup per byte of
    r, in the byte tables of the images x^(8i) mod m: each the last
    shifted by 8 and reduced by one _mod_table lookup."""
    n = m.bit_length() - 1
    clear = _mod_table(m)
    images = [1]
    for _ in range(n - 1):
        img = images[-1] << 8
        images.append(img ^ clear[img >> n])
    return _table_map(_byte_tables(images))


def _powmod(base, e, m):
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    r = _mod(1, m) if m.bit_length() <= 1 else 1
    base = _mod(base, m)
    if base == 2:
        # powers of x, left to right over e: multiplying by x is a shift;
        # x reduces to a constant modulo m of degree < 2, so here n >= 2
        n = m.bit_length() - 1
        if n <= _WORD:
            # three bits c of e a step, r -> r^8 x^c: the c <= 7 bits
            # shifted past deg m are cleared by one table multiple
            power8 = _eighth_power_tables(m)
            clear = _mod_table(m)
            for c in format(e, "o").encode():
                r = power8(r) << (c - 48)  # the ASCII octal digit
                r ^= clear[r >> n]
            return r
        for bit in format(e, "b"):
            r = _mod(_square(r), m)
            if bit == "1":
                r <<= 1
                if r >> n:
                    r ^= m
        return r
    while e:
        if e & 1:
            r = _mod(_mul(r, base), m)
        e >>= 1
        if e:
            base = _mod(_square(base), m)
    return r


def _derivative(a):
    # coefficient of x^(i-1) is i*a_i, nonzero only for odd i
    n = a.bit_length() + (a.bit_length() & 1)
    even_bits = ((1 << n) - 1) // 3  # bits 0, 2, 4, ...
    return (a >> 1) & even_bits


def _even_part_sqrt(a):
    # inverse of _square for polynomials with only even powers
    out = 0
    for i in range(0, a.bit_length(), 2):
        if a >> i & 1:
            out |= 1 << (i // 2)
    return out


def _bit_reverse(v, width):
    out = 0
    for i in range(width):
        if v >> i & 1:
            out |= 1 << (width - 1 - i)
    return out


# ---------------------------------------------------------------------------
# integer factorization helpers (for exponents and counting)

# The primes above 10^6 of 2^n - 1 for all n <= 128, as in the Cunningham
# tables (Brillhart et al., *Factorizations of b^n +- 1*), made once with sympy
_CUNNINGHAM_PRIMES = (
    1212847, 1868569, 2099863, 2298041, 2796203, 3033169, 3887047, 4036961, 6700417, 10567201,
    13264529, 15790321, 18837001, 20394401, 22253377, 22366891, 25781083, 26295457, 48544121,
    48912491, 97685839, 107367629, 112901153, 160465489, 164511353, 193707721, 202029703,
    212885833, 308761441, 319020217, 420778751, 536903681, 616318177, 715827883, 745988807,
    1824726041, 2147483647, 2550183799, 2931542417, 4278255361, 4562284561, 7830118297, 8831418697,
    23140471537, 30327152671, 33057806959, 54410972897, 62983048367, 77158673929, 131105292137,
    165768537521, 269089806001, 761838257287, 1113491139767, 2932031007403, 3203431780337,
    4363953127297, 4432676798593, 7432339208719, 9361973132609, 9857737155463, 10052678938039,
    28059810762433, 67280421310721, 145295143558111, 1066818132868207, 2646507710984041,
    177722253954175633, 341117531003194129, 581283643249112959, 658812288653553079,
    768614336404564651, 2305843009213693951, 4710883168879506001, 9520972806333758431,
    3976656429941438590393, 57912614113275649087721, 870035986098720987332873,
    13842607235828485645766393, 618970019642690137449562111, 1786393878363164227858270210279,
    162259276829213363391578010288127, 170141183460469231731687303715884105727,
)


@functools.lru_cache(maxsize=4096)
def _factorint(m):
    """Prime factorization of m as a dict prime -> multiplicity, by the
    table and trial division up to 10^6; refused if those do not finish."""
    if m < 1:
        raise ValueError("can only factor positive integers")
    out = {}
    for p in (2, 3, 5, *_CUNNINGHAM_PRIMES):
        if p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    while p * p <= m and p < 1_000_000:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += wheel[w]
        w = (w + 1) & 7
    if m > 1:
        if p * p <= m:
            raise ValueError(f"cannot factor {m}: no prime factor below 10^6 or in the table")
        out[m] = out.get(m, 0) + 1
    return out


def _divisors(m):
    divs = [1]
    for p, k in _factorint(m).items():
        divs = [d * p**i for d in divs for i in range(k + 1)]
    return sorted(divs)


def _totient(m):
    phi = 1
    for p, k in _factorint(m).items():
        phi *= (p - 1) * p ** (k - 1)
    return phi


def _mobius(m):
    mu = 1
    for _, k in _factorint(m).items():
        if k > 1:
            return 0
        mu = -mu
    return mu


# ---------------------------------------------------------------------------
# the polynomial wrapper

class BinaryPolynomial:
    """Immutable polynomial over GF(2), canonical by construction."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        if bits < 0:
            raise ValueError("polynomial bits must be non-negative")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryPolynomial is immutable")

    @property
    def degree(self):
        """Degree of the polynomial; -1 marks the zero polynomial."""
        return _degree(self.bits)

    @property
    def is_zero(self):
        return self.bits == 0

    @property
    def constant_term(self):
        return self.bits & 1

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        return isinstance(other, BinaryPolynomial) and self.bits == other.bits

    def __hash__(self):
        return hash(("gf2poly", self.bits))

    def __lt__(self, other):
        if not isinstance(other, BinaryPolynomial):
            return NotImplemented
        return self.bits < other.bits

    def __add__(self, other):
        if not isinstance(other, BinaryPolynomial):
            return NotImplemented
        return BinaryPolynomial(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other):
        if not isinstance(other, BinaryPolynomial):
            return NotImplemented
        return BinaryPolynomial(_mul(self.bits, other.bits))

    def __divmod__(self, other):
        if not isinstance(other, BinaryPolynomial):
            return NotImplemented
        q, r = _divmod(self.bits, other.bits)
        return BinaryPolynomial(q), BinaryPolynomial(r)

    def __floordiv__(self, other):
        if not isinstance(other, BinaryPolynomial):
            return NotImplemented
        return divmod(self, other)[0]

    def __mod__(self, other):
        if not isinstance(other, BinaryPolynomial):
            return NotImplemented
        return BinaryPolynomial(_mod(self.bits, other.bits))

    def compact(self):
        """Bit-string form, most significant coefficient first."""
        if self.bits == 0:
            return "0"
        return format(self.bits, "b")

    def __str__(self):
        # str.find skips zero coefficients in C: a set-polynomial witness
        # has a few terms but a degree up to r1*r2
        digits = format(self.bits, "b")
        terms = []
        k = digits.find("1")
        while k >= 0:
            i = len(digits) - 1 - k
            terms.append("x^%d" % i if i > 1 else ("x" if i == 1 else "1"))
            k = digits.find("1", k + 1)
        return "+".join(terms) or "0"

    def __repr__(self):
        return f"BinaryPolynomial({str(self)!r})"


ONE = BinaryPolynomial(1)
X = BinaryPolynomial(2)


def parse(text):
    """Parse compact ("1011") or symbolic ("x^3+x+1") notation."""
    if not isinstance(text, str):
        raise ParseError("polynomial text must be a string", 0)
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text", 0)
    if set(s) <= {"0", "1"}:
        return BinaryPolynomial(int(s, 2))
    bits = 0
    prev_power = None
    pos = 0
    for chunk in s.split("+"):
        term = chunk.strip()
        at = text.find(chunk, pos)
        pos = at + len(chunk)
        if term == "1":
            power = 0
        elif term == "x":
            power = 1
        elif term.startswith("x^"):
            digits = term[2:]
            if not digits.isdigit():
                raise ParseError(f"bad exponent in term {term!r}", at)
            power = int(digits)
        else:
            raise ParseError(f"unrecognized term {term!r}", at)
        if prev_power is not None and power >= prev_power:
            raise ParseError("terms must appear in strictly decreasing power order", at)
        prev_power = power
        bits |= 1 << power
    return BinaryPolynomial(bits)


def gcd(a, b):
    """Monic greatest common divisor; both inputs zero is an error."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return BinaryPolynomial(_gcd(a.bits, b.bits))


def lcm(a, b):
    if a.is_zero or b.is_zero:
        raise ValueError("lcm with the zero polynomial is undefined")
    return (a * b) // gcd(a, b)


def is_irreducible(f):
    """Deterministic irreducibility test (no nontrivial factor)."""
    return _is_irreducible_int(f.bits)


# irreducibility and the order of x depend on the polynomial alone, and
# consecutive calls on one polynomial (the rank criteria at each of its
# window shapes) share them; eight entries keep these caches small
@functools.lru_cache(maxsize=8)
def _is_irreducible_int(fb):
    n = _degree(fb)
    if n < 1:
        raise ValueError("irreducibility is only defined for degree >= 1")
    if n == 1:
        return True
    if n > 64:
        t = _x_steps(fb)
        if t is not None:
            return _order_certifies(fb, t)
    return _rabin(fb)


def _rabin(fb):
    """Rabin's test for fb of degree n >= 2: gcd(x^(2^j) - x, fb) = 1 at
    each checkpoint j = n/p for the primes p of n, in ascending order,
    and x^(2^n) = x mod fb.

    Up to degree 64 each x^(2^j) comes from x through the r^8 tables;
    above, it is the last one squared j - i more times, n squarings in
    all."""
    n = _degree(fb)
    r, i = 2, 0  # x^(2^i) mod fb
    for j in sorted({n // p for p in _factorint(n)}):
        r = _powmod(2, 1 << j, fb) if n <= _WORD else _powmod(r, 1 << (j - i), fb)
        i = j
        if _gcd(r ^ 2, fb) != 1:
            return False
    return (_powmod(2, 1 << n, fb) if n <= _WORD else _powmod(r, 1 << (n - i), fb)) == 2


def factor(f):
    """Full factorization into irreducibles (deterministic Berlekamp).

    Returns a sorted list with multiplicity; the product equals f.
    """
    if f.degree < 1:
        raise ValueError("cannot factor a constant polynomial")
    k = (f.bits & -f.bits).bit_length() - 1  # x^k divides f
    return [BinaryPolynomial(p) for p in sorted([2] * k + _factor_squarefree_tower(f.bits >> k))]


def _factor_squarefree_tower(fb):
    if fb == 1:
        return []
    d = _derivative(fb)
    if d == 0:
        # f = g(x)^2 with g = sqrt(f)
        sub = _factor_squarefree_tower(_even_part_sqrt(fb))
        return sub + sub
    w = _gcd(fb, d)
    if w == 1:
        return _berlekamp_squarefree(fb)
    return _berlekamp_squarefree(_divmod(fb, w)[0]) + _factor_squarefree_tower(w)


def _gf2_kernel(vectors):
    """(rank, kernel) of GF(2) vectors as raw ints; the kernel has, for
    each vector in the span of the earlier ones, the bitmask of inputs
    summing to zero."""
    pivots = {}
    kernel = []
    for idx, v in enumerate(vectors):
        combo = 1 << idx
        while v:
            lead = v.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (v, combo)
                break
            pv, pc = pivots[lead]
            v ^= pv
            combo ^= pc
        else:
            kernel.append(combo)
    return len(pivots), kernel


def _berlekamp_squarefree(fb):
    n = _degree(fb)
    if n == 1:
        return [fb]
    # Frobenius images of the basis minus the identity: column j is
    # x^(2j) mod f + x^j
    cols = [img ^ (1 << j) for j, img in enumerate(_frobenius_images(fb))]
    _, kernel = _gf2_kernel(cols)
    if len(kernel) == 1:
        return [fb]
    factors = [fb]
    for v in kernel:
        if v == 1:
            continue
        refined = []
        for g in factors:
            if _degree(g) == 1:
                refined.append(g)
                continue
            g1 = _gcd(g, _mod(v, g))
            if g1 in (1, g):
                g1 = _gcd(g, _mod(v ^ 1, g))
            if g1 in (1, g):
                refined.append(g)
            else:
                refined.append(g1)
                refined.append(_divmod(g, g1)[0])
        factors = refined
        if len(factors) == len(kernel):
            break
    if len(factors) != len(kernel):
        raise InternalCheckError("Berlekamp splitting did not reach kernel dimension")
    return factors


# 2^n - 1 is factored only up to this degree, as far as the table of
# _factorint goes.  Past degree 64, orders up to _EXPONENT_CAP, which
# include the exponent of every enumerated polynomial, are first sought
# by stepping x, and an order found also decides irreducibility.  For
# the 71 polynomials of degree 66 to 810 that the algebra benchmark
# enumerates, stepping and _order_certifies take about 4.5 ms in all,
# where Rabin's test takes about 140 ms, and _order 75-140 ms for the
# 41 of them up to degree 128, on a 2-vCPU Xeon.  A reducible
# polynomial with no such order pays for all the steps: about 2 ms at
# degree 70, stepping a byte at a time.
_ORDER_DEGREE_CAP = 128
_EXPONENT_CAP = 65535


def _order(a, fb):
    """Least t >= 1 with a^t = 1 mod the irreducible fb, for a nonzero
    mod fb: strip prime factors from 2^n - 1, which t divides.  Once q is
    stripped, its multiplicity in t is its multiplicity in the order,
    whatever the order of the primes; the largest go first, so every
    later power a^(t/q) is shorter."""
    t = (1 << _degree(fb)) - 1
    for q in sorted(_factorint(t), reverse=True):
        while t % q == 0 and _powmod(a, t // q, fb) == 1:
            t //= q
    return t


@functools.lru_cache(maxsize=8)
def _x_steps(fb):
    """Least t <= _EXPONENT_CAP with x^t = 1 mod fb, found by stepping x;
    None if there is none, as always when x divides fb."""
    if not fb & 1:
        return None
    n = _degree(fb)
    # x^(s + j) = 1 exactly when x^s = x^(-j); x^(-1) is (fb - 1)/x,
    # and the smallest j is kept, so t is the least
    hits = {}
    inv = 1
    for j in range(1, 9):
        inv = (inv ^ fb if inv & 1 else inv) >> 1
        hits.setdefault(inv, j)
    clear = _mod_table(fb)
    cur = 1  # x^s, stepped a byte at a time
    for s in range(0, _EXPONENT_CAP + 1, 8):
        if cur in hits:
            t = s + hits[cur]
            return t if t <= _EXPONENT_CAP else None
        cur <<= 8
        cur ^= clear[cur >> n]
    return None


def _order_certifies(fb, t):
    """Whether fb is irreducible, given that t is the least with x^t = 1
    mod fb.

    True exactly when t is odd, ord2(t) = deg fb and gcd(x^(t/q) - 1, fb)
    = 1 for each prime q of t.  Then x has order t modulo every
    irreducible factor p of fb, so deg p = ord2(t) = deg fb and p = fb
    (Lidl & Niederreiter, *Finite Fields*, ch. 3).  Conversely, the order
    of x modulo an irreducible fb divides 2^(deg fb) - 1 and has that
    ord2, and no x^(t/q) - 1 shares a factor with fb."""
    if t % 2 == 0 or ord2(t) != _degree(fb):
        return False
    return all(_gcd(_powmod(2, t // q, fb) ^ 1, fb) == 1 for q in _factorint(t))


@functools.lru_cache(maxsize=8)
def _x_order(pb):
    """Order of x modulo the irreducible pb; refused above degree
    _ORDER_DEGREE_CAP unless it is at most _EXPONENT_CAP."""
    n = _degree(pb)
    if n > 64:
        t = _x_steps(pb)
        if t is not None:
            return t
        if n > _ORDER_DEGREE_CAP:
            raise ValueError(
                f"above degree {_ORDER_DEGREE_CAP}, only exponents up to "
                f"{_EXPONENT_CAP} are supported (factor of degree {n})"
            )
    return _order(2, pb)


class PolynomialClass:
    """Structure classification: kind, exponent (when defined), factors."""

    __slots__ = ("kind", "exponent", "factors")

    KINDS = (
        "primitive",
        "INP",
        "reducible-uniform",
        "reducible-nonuniform",
    )

    def __init__(self, kind, exponent, factors):
        if kind not in self.KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "factors", tuple(factors))

    def __setattr__(self, name, value):
        # classify hands one cached instance to every caller
        raise AttributeError("PolynomialClass is immutable")

    def __repr__(self):
        return f"PolynomialClass(kind={self.kind!r}, exponent={self.exponent})"

    @property
    def is_uniform(self):
        """True when every nonzero generated sequence has one least period."""
        return self.kind in ("primitive", "INP", "reducible-uniform")


# a caller that classifies f and then builds its zero factor, which
# classifies f again, factors it once
@functools.lru_cache(maxsize=8)
def classify(f):
    """Classify f as primitive / INP / reducible-(non)uniform from one
    factorisation; the exponent of a squarefree f is the lcm of the
    orders of x modulo its factors, and None otherwise."""
    if f.degree < 1:
        raise ValueError("classification needs degree >= 1")
    if f.constant_term == 0:
        raise ValueError("classification needs a nonzero constant term")
    # Rabin's test decides an irreducible f without a Berlekamp run
    facs = [f] if _is_irreducible_int(f.bits) else factor(f)
    if len(set(facs)) != len(facs):
        return PolynomialClass("reducible-nonuniform", None, facs)
    orders = {_x_order(p.bits) for p in facs}
    e = math.lcm(*orders)
    if len(facs) == 1:
        kind = "primitive" if e == (1 << f.degree) - 1 else "INP"
    elif len(orders) == 1:  # one order fixes the degree, ord2 of it
        kind = "reducible-uniform"
    else:
        kind = "reducible-nonuniform"
    return PolynomialClass(kind, e, facs)


def exponent(f):
    """Least e with f | x^e - 1, for squarefree f with f(0) = 1: the
    exponent that ``classify`` finds."""
    if f.degree < 1:
        raise ValueError("exponent needs degree >= 1")
    if f.constant_term == 0:
        raise ValueError("exponent needs a nonzero constant term")
    e = classify(f).exponent
    if e is None:
        raise ValueError("exponent is only supported for squarefree polynomials")
    return e


def ord2(e):
    """Multiplicative order of 2 modulo odd e; ord2(1) = 1.  The order
    divides phi(e): strip from phi(e) each prime the order leaves out."""
    if e < 1 or e % 2 == 0:
        raise ValueError("ord2 needs an odd positive modulus")
    t = _totient(e)
    for q in _factorint(t):
        while t % q == 0 and pow(2, t // q, e) == 1:
            t //= q
    return t


def count_irreducible_with_exponent(e):
    """Number of irreducible polynomials with exponent e: phi(e)/ord2(e)."""
    if e < 3 or e % 2 == 0:
        raise ValueError("exponent must be odd and at least 3")
    phi = _totient(e)
    n = ord2(e)
    if phi % n:
        raise InternalCheckError("phi(e) must be divisible by ord2(e)")
    return phi // n


@functools.lru_cache(maxsize=2048)
def _cyclotomic_int(e):
    """The e-th cyclotomic polynomial over GF(2), as an int."""
    num = 1
    den = 1
    for d in _divisors(e):
        mu = _mobius(e // d)
        if mu == 1:
            num = _mul(num, (1 << d) | 1)
        elif mu == -1:
            den = _mul(den, (1 << d) | 1)
    q, r = _divmod(num, den)
    if r:
        raise InternalCheckError("cyclotomic division left a remainder")
    return q


@functools.lru_cache(maxsize=1024)
def _trace_mask(fb, n):
    """Bit m holds Tr(x^m) in GF(2)[x]/(fb) for m < n, for the
    irreducible fb of degree n, so the trace of an element is the parity
    of its bits under the mask.  Tr(x^m) is the power sum s_m of the
    roots of fb = x^n + c_1 x^(n-1) + ... + c_n, and Newton's identities
    give s_0 = n mod 2 and s_k = c_1 s_(k-1) + ... + c_(k-1) s_1 + k c_k
    for 0 < k < n: one parity a bit, with no squaring."""
    mask = n & 1
    for k in range(1, n):
        # c_i is bit n - i of fb; s_j for 0 < j < k lands on bit
        # n - (k - j), beside c_(k-j)
        s = (mask >> 1 << (n - k + 1) & fb).bit_count() ^ (k & 1 & fb >> (n - k))
        mask |= (s & 1) << k
    return mask


def _berlekamp_massey(rev, length):
    """(connection polynomial, linear complexity) of the length bits
    packed in rev with a_0 at the top, so the window a_k, a_(k-1), ...
    is one shift of rev and each discrepancy is the parity of the
    connection polynomial against it."""
    c = 1  # current connection polynomial, constant term 1
    b = 1  # previous connection polynomial
    span = 0
    m = -1
    for k in range(length):
        if (c & rev >> (length - 1 - k)).bit_count() & 1:
            t = c
            c ^= b << (k - m)
            if 2 * span <= k:
                span = k + 1 - span
                b = t
                m = k
    return c, span


def _coset_trace(i, n, e):
    """The sum of x^(i 2^j mod e) over j < n: the trace of x^i in
    GF(2)[x]/(f), up to reduction mod f, for every f dividing x^e - 1
    whose factors have degree n."""
    acc = 0
    k = i % e
    for _ in range(n):
        acc ^= 1 << k
        k = 2 * k % e
    return acc


def _one_factor(fb, n, e):
    """One irreducible factor of fb, a squarefree product of degree-n
    irreducibles dividing x^e - 1: each equal-degree split by a trace
    map keeps its smaller part.  Splits are sought by the traces of x^i
    for odd i, e of them, which meet every residue mod e; even powers
    add nothing, as Tr(h^2) = Tr(h).  As x^e = 1 mod fb, the trace of
    x^i is the sum of x^(i 2^j mod e) over j < n, reduced once."""
    while _degree(fb) > n:
        for i in range(1, 2 * e, 2):
            d = _gcd(fb, _mod(_coset_trace(i, n, e), fb))
            if 0 < _degree(d) < _degree(fb):
                break
        else:
            raise InternalCheckError("equal-degree splitting failed to separate factors")
        fb = min(d, _divmod(fb, d)[0], key=_degree)
    return fb


def enumerate_irreducible(degree, exponent_value):
    """All irreducible polynomials with the given degree and exponent.

    Empty unless degree == ord2(exponent): the degree of an irreducible
    polynomial is determined by its exponent.  Degrees below 1 and
    exponents above 65535 are refused.

    One factor p of the cyclotomic polynomial comes from ``_one_factor``;
    the others are the minimal polynomials of the decimations of p's
    impulse sequence s by one j in each cyclotomic coset of 2 in the
    units mod e, found by Berlekamp-Massey on the first 2n bits of
    s_(jk).
    """
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    e = exponent_value
    if e < 1 or e % 2 == 0:
        raise ValueError("exponent must be odd and positive")
    if e > _EXPONENT_CAP:
        raise ValueError(f"exponent {e} is above the supported {_EXPONENT_CAP}")
    if degree != ord2(e):
        return []
    if e == 1:
        return [BinaryPolynomial(0b11)]  # x + 1
    from .lfsr import generate  # lfsr imports this module

    n = degree
    p = BinaryPolynomial(_one_factor(_cyclotomic_int(e), n, e))
    # s[k] is bit k of the impulse sequence, read as a str
    s = format(generate(p, [0] * (n - 1) + [1], e).bits, f"0{e}b")[::-1]
    parts = []
    seen = bytearray(e)
    for j in range(1, e):
        if seen[j] or math.gcd(j, e) != 1:
            continue
        i = j
        while not seen[i]:
            seen[i] = 1
            i = 2 * i % e
        # s_(jk) for k < 2n, a_0 at the top
        c, span = _berlekamp_massey(int("".join([s[j * k % e] for k in range(2 * n)]), 2), 2 * n)
        if span != n:
            raise InternalCheckError(f"decimation by {j} has linear complexity {span}, not {n}")
        parts.append(c)
    if len(parts) != _totient(e) // n:
        raise InternalCheckError("wrong number of cyclotomic factors")
    if len(set(parts)) != len(parts):
        raise InternalCheckError("two decimations gave one polynomial")
    if functools.reduce(_mul, parts) != _cyclotomic_int(e):
        raise InternalCheckError("the factors do not multiply to the cyclotomic polynomial")
    return [BinaryPolynomial(c) for c in sorted(parts)]
