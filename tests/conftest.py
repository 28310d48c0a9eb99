import math

import numpy as np
import pytest

from prarray.gf2poly import (
    BinaryPolynomial,
    InternalCheckError,
    _bit_reverse,
    _byte_tables,
    _cyclotomic_int,
    _degree,
    _divmod,
    _factorint,
    _gcd,
    _mod,
    _mul,
    _powmod,
    _square,
    _totient,
    factor,
    ord2,
    parse,
)
from prarray.lfsr import CyclicSequence


# (number, description, outcome, seconds) rows filled by the acceptance tests
ACCEPTANCE_LOG = []


def grid_lines(grid):
    """The rows of a 2-D 0/1 grid as strings of digits."""
    return ["".join(str(int(c)) for c in row) for row in grid]


def shift(grid, dv, dh):
    """A grid moved down dv rows and right dh columns, cyclically."""
    return np.roll(grid, (dv, dh), axis=(0, 1))


def seq(text):
    """The cyclic sequence of a 0/1 string, its first digit a_0."""
    return CyclicSequence(int(text[::-1], 2), len(text))


def bit(s, k):
    """Bit k of the periodic extension of a cyclic sequence."""
    return s.bits >> (k % s.length) & 1


def repeat(bits, length, copies):
    """The packed bits of a length-bit word written copies times."""
    return sum(bits << (i * length) for i in range(copies))


def delay(bits, length, t):
    """The packed bits of a cyclic sequence delayed by t positions: new
    a_k is old a_(k-t)."""
    t %= length
    return ((bits << t) | (bits >> (length - t))) & ((1 << length) - 1)


def least_period(s):
    """The least p with a_k = a_(k+p) for all k, tried p = 1, 2, ..."""
    return next(p for p in range(1, s.length + 1) if delay(s.bits, s.length, p) == s.bits)


def row(grid, i):
    """Row i of a grid as a cyclic sequence, column j at bit j."""
    cells = grid[i % len(grid)]
    return CyclicSequence(sum(int(c) << j for j, c in enumerate(cells)), len(cells))


def column(grid, j):
    """Column j of a grid as a cyclic sequence, row i at bit i."""
    cells = [r[j % len(r)] for r in grid]
    return CyclicSequence(sum(int(c) << i for i, c in enumerate(cells)), len(cells))


def cell_rotations(grid):
    """Packed value of the grid moved down dv rows and right dh columns
    at entry dh*r1 + dv, cell (i, j) at bit i*r2 + j, built row by row
    from the grid's text lines."""
    r1, r2 = len(grid), len(grid[0])
    rows = [int(line[::-1], 2) for line in grid_lines(grid)]
    mask = (1 << r2) - 1
    full = (1 << (r1 * r2)) - 1
    out = []
    for _ in range(r2):
        acc = sum(r << (i * r2) for i, r in enumerate(rows))
        for _ in range(r1):
            out.append(acc)
            acc = ((acc << r2) | (acc >> ((r1 - 1) * r2))) & full
        rows = [((r << 1) | (r >> (r2 - 1))) & mask for r in rows]
    return out


def least_rotation(grid):
    """The least packed double rotation: equal exactly for grids that
    are shifts of each other."""
    return min(cell_rotations(grid))


def canonical(s):
    """The least packed rotation of a cyclic sequence: equal exactly for
    sequences that are rotations of each other."""
    ell = s.length
    mask = (1 << ell) - 1
    b = best = s.bits
    for _ in range(ell - 1):
        b = ((b << 1) | (b >> (ell - 1))) & mask
        best = min(best, b)
    return best


def walk_zero_factor(f):
    """Reference zero factor: walk the register state by state from
    each unseen state in increasing order.  A state holds
    a_k .. a_{k+n-1} at bits 0 .. n-1."""
    n = f.degree
    # a_{k+n} = sum of c_i a_{k+n-i}, and a_{k+n-i} sits at bit n - i
    taps = sum(1 << (n - i) for i in range(1, n + 1) if f.bits >> i & 1)
    seen = bytearray(1 << n)
    cycles = []
    for s0 in range(1, 1 << n):
        if seen[s0]:
            continue
        s, bits, k = s0, 0, 0
        while not seen[s]:
            seen[s] = 1
            bits |= (s & 1) << k
            k += 1
            s = (s >> 1) | (((s & taps).bit_count() & 1) << (n - 1))
        assert s == s0
        cycles.append(CyclicSequence(bits, k))
    return tuple(cycles)


def numpy_walk_zero_factor(f, e):
    """Reference zero factor as its (count, e) bit matrix, walked in
    numpy blocks over a 2^n ``seen`` table: a block seeds one row at each
    of the next unseen states, fills columns [L, 2L) with byte tables of
    M^L applied to columns [0, L), for the step map M, and keeps the rows
    whose seed is the row minimum.  Every state must be seen."""
    n = f.degree
    taps = np.uint32(_bit_reverse(f.bits >> 1, n))
    top = np.uint32(n - 1)

    def step(s):
        return (s >> 1) | ((np.bitwise_count(s & taps) & 1).astype(np.uint32) << top)

    def apply(tables, states):
        out = tables[0][states & 0xFF]
        for c, t in enumerate(tables[1:], 1):
            out ^= t[(states >> (8 * c)) & 0xFF]
        return out

    images = step(np.uint32(1) << np.arange(n, dtype=np.uint32))
    powers = []
    while (1 << len(powers)) < e:
        powers.append([np.array(t, dtype=np.uint32) for t in _byte_tables(images.tolist())])
        images = apply(powers[-1], images)
    count = ((1 << n) - 1) // e
    seen = np.zeros(1 << n, dtype=bool)
    seen[0] = True
    blocks = []
    found = 0
    lo = 1
    while found < count:
        want = min(count - found, max(1, (1 << 20) // e))
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
            states[:, done : done + width] = apply(tables, states[:, :width])
        states = states[states[:, 0] == states.min(axis=1)]
        assert (step(states[:, -1]) == states[:, 0]).all()
        seen[states] = True
        blocks.append((states & 1).astype(np.uint8))
        found += states.shape[0]
        lo = int(seeds[0]) + 1
    assert seen.all()
    return np.concatenate(blocks)


def mulmod(a, b, m):
    """a * b mod m, by the word kernels of gf2poly."""
    return _mod(_mul(a, b), m)


def field_inverse(a, fb):
    """Multiplicative inverse of a nonzero residue a modulo the
    irreducible fb, by extended Euclid in GF(2)[x]."""
    if a == 0:
        raise ZeroDivisionError("zero element has no inverse")
    r0, r1 = a, fb
    s0, s1 = 1, 0
    while r1:
        q, r = _divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _mul(q, s1)
    assert r0 == 1, "modulus is not irreducible"
    return _mod(s0, fb)


def minimal_polynomial(a, fb):
    """Irreducible polynomial over GF(2) with the residue a modulo the
    irreducible fb as a root: the product of z + r over the Frobenius
    orbit of a."""
    orbit = [a]
    cur = _mod(_square(a), fb)
    while cur != a:
        orbit.append(cur)
        cur = _mod(_square(cur), fb)
    coeffs = [1]
    for r in orbit:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] ^= c
            nxt[i] ^= mulmod(r, c, fb)
        coeffs = nxt
    assert all(c in (0, 1) for c in coeffs), "orbit product has a coefficient outside GF(2)"
    return BinaryPolynomial(sum(c << i for i, c in enumerate(coeffs)))


# Bit-serial GF(2)[x] kernels on raw ints: the reference the
# word-at-a-time paths in gf2poly are checked against.

def serial_mul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def serial_square(a):
    out = 0
    for i in range(a.bit_length()):
        if a >> i & 1:
            out |= 1 << (2 * i)
    return out


def serial_mod(a, b):
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = b.bit_length()
    da = a.bit_length()
    while da >= db:
        a ^= b << (da - db)
        da = a.bit_length()
    return a


def serial_powmod(base, e, m):
    r = serial_mod(1, m) if m.bit_length() <= 1 else 1
    base = serial_mod(base, m)
    while e:
        if e & 1:
            r = serial_mod(serial_mul(r, base), m)
        e >>= 1
        if e:
            base = serial_mod(serial_square(base), m)
    return r


def serial_mod_table(b):
    """The 256 multiples of b by polynomials of degree < 8, indexed by
    their top 8 bits, each from the multiple by the top bit of its index
    and a smaller entry."""
    k = b.bit_length() - 1
    table = [0] * 256
    for t in range(1, 256):
        m = b << (t.bit_length() - 1)
        table[t] = m ^ table[t ^ (m >> k)]
    return table


def serial_x_steps(fb, cap):
    """Least t <= cap with x^t = 1 mod fb, multiplying by x one step at a
    time; None if there is none."""
    cur = serial_mod(2, fb)
    for t in range(1, cap + 1):
        if cur == 1:
            return t
        cur <<= 1
        if cur >> (fb.bit_length() - 1):
            cur ^= fb
    return None


def serial_gcd(a, b):
    """Euclid's algorithm with every remainder taken by serial_mod."""
    while b:
        a, b = b, serial_mod(a, b)
    return a


def serial_generate(fb, seed, length):
    """Bits a_0 .. a_(length-1) of the recursion a_k = c_1 a_(k-1) + ...
    + c_n a_(k-n) of fb = c(x), from the packed seed a_0 .. a_(n-1), one
    output bit at a time through a shift register."""
    n = fb.bit_length() - 1
    taps = _bit_reverse(fb >> 1, n)  # bit n - i holds c_i
    window = bits = seed
    for k in range(n, length):
        b = (window & taps).bit_count() & 1
        bits |= b << k
        window = (window >> 1) | (b << (n - 1))
    return bits


def trace_map(hb, fb, n):
    """h + h^2 + h^4 + ... + h^(2^(n-1)) mod f, by n - 1 squarings."""
    acc = hb
    cur = hb
    for _ in range(n - 1):
        cur = _mod(_square(cur), fb)
        acc ^= cur
    return acc


def reference_trace_mask(fb, n):
    """Bit m holds Tr(x^m) in GF(2)[x]/(fb) for m < n, each the trace
    map of x^m."""
    mask = 0
    for m in range(n):
        t = trace_map(_mod(1 << m, fb), fb, n)
        assert t in (0, 1), "trace landed outside GF(2)"
        mask |= t << m
    return mask


def serial_trace(a, m):
    """Tr(a) in GF(2)[x]/(m) for irreducible m: the sum of the deg m
    Frobenius conjugates a^(2^i), each squared and reduced bit-serially."""
    acc, cur = 0, serial_mod(a, m)
    for _ in range(m.bit_length() - 1):
        acc ^= cur
        cur = serial_mod(serial_mul(cur, cur), m)
    assert acc in (0, 1), "trace landed outside GF(2)"
    return acc


def reference_classify(f):
    """(kind, exponent, factors) of f with constant term 1, from a
    Berlekamp factorisation whatever f is, and the order of x modulo
    each factor by the bit-serial kernels."""
    facs = tuple(factor(f))
    if len(set(facs)) != len(facs):
        return "reducible-nonuniform", None, facs
    orders = set()
    for p in facs:
        t = (1 << p.degree) - 1
        for q in _factorint(t):
            while t % q == 0 and serial_powmod(2, t // q, p.bits) == 1:
                t //= q
        orders.add(t)
    e = math.lcm(*orders)
    if len(facs) == 1:
        kind = "primitive" if e == (1 << f.degree) - 1 else "INP"
    else:
        kind = "reducible-uniform" if len(orders) == 1 else "reducible-nonuniform"
    return kind, e, facs


# The characteristic polynomial of the Kronecker product of the two
# companion matrices, by the division-free Berkowitz method: the
# reference the two vee routes in criteria are checked against.

def _companion_rows(f):
    # rows of the companion matrix whose characteristic polynomial is f
    n = f.degree
    rows = []
    for i in range(n):
        r = 1 << (i - 1) if i else 0
        if f.bits >> i & 1:
            r |= 1 << (n - 1)
        rows.append(r)
    return rows


def _kronecker(a_rows, na, b_rows, nb):
    rows = []
    for ia in range(na):
        for ib in range(nb):
            r = 0
            arow = a_rows[ia]
            for ja in range(na):
                if arow >> ja & 1:
                    r |= b_rows[ib] << (ja * nb)
            rows.append(r)
    return rows


def _charpoly(rows, n):
    """Characteristic polynomial over GF(2) by the Berkowitz method."""
    vec = 1  # coefficient vector, leading coefficient at bit 0
    for m in range(1, n + 1):
        top = n - m
        a = rows[top] >> top & 1
        r_mask = (rows[top] >> (top + 1)) & ((1 << (m - 1)) - 1)
        c_mask = 0
        for i in range(m - 1):
            c_mask |= (rows[top + 1 + i] >> top & 1) << i
        sub = [(rows[top + 1 + i] >> (top + 1)) & ((1 << (m - 1)) - 1) for i in range(m - 1)]
        t = 1 | (a << 1)
        w = c_mask
        for s in range(2, m + 1):
            t |= ((r_mask & w).bit_count() & 1) << s
            if s < m:
                nw = 0
                for i in range(m - 1):
                    if (sub[i] & w).bit_count() & 1:
                        nw |= 1 << i
                w = nw
        prod = 0
        tt = t
        shift = 0
        while tt:
            if tt & 1:
                prod ^= vec << shift
            tt >>= 1
            shift += 1
        vec = prod & ((1 << (m + 1)) - 1)
    return BinaryPolynomial(_bit_reverse(vec, n + 1))


def reference_vee(f1, f2):
    rows = _kronecker(_companion_rows(f1), f1.degree, _companion_rows(f2), f2.degree)
    return _charpoly(rows, f1.degree * f2.degree)


def reference_berlekamp_massey(bits):
    """Connection polynomial of a list of bits, each discrepancy summed
    bit by bit over the current span."""
    n = len(bits)
    c = 1
    b = 1
    span = 0
    m = -1
    for k in range(n):
        d = bits[k]
        cc = c >> 1
        i = 1
        while cc and i <= span:
            if cc & 1:
                d ^= bits[k - i]
            cc >>= 1
            i += 1
        if d:
            t = c
            c ^= b << (k - m)
            if 2 * span <= k:
                span = k + 1 - span
                b = t
                m = k
    return BinaryPolynomial(c)


def _split_equal_degree(fb, n, e):
    """Split a squarefree product of degree-n irreducibles (factors of
    the e-th cyclotomic polynomial) into its irreducible factors."""
    out = []
    stack = [fb]
    while stack:
        g = stack.pop()
        if _degree(g) == n:
            out.append(g)
            continue
        h = _mod(2, g)
        for _ in range(e):
            t = trace_map(h, g, n)
            d = _gcd(g, t)
            if 0 < _degree(d) < _degree(g):
                stack.append(d)
                stack.append(_divmod(g, d)[0])
                break
            h = _mod(h << 1, g)
        else:
            raise InternalCheckError("equal-degree splitting failed to separate factors")
    return out


def reference_enumerate_irreducible(degree, e):
    """Irreducible polynomials of the degree and odd exponent e, from the
    whole cyclotomic polynomial split by trace maps down to every factor."""
    if degree != ord2(e):
        return []
    if e == 1:
        return [BinaryPolynomial(0b11)]
    parts = _split_equal_degree(_cyclotomic_int(e), degree, e)
    if len(parts) != _totient(e) // degree:
        raise InternalCheckError("wrong number of cyclotomic factors")
    for p in parts:
        if _powmod(2, e, p) != 1:
            raise InternalCheckError("cyclotomic factor does not divide x^e - 1")
    return [BinaryPolynomial(p) for p in sorted(parts)]


def reference_ord2(e):
    """Multiplicative order of 2 modulo odd e, stepping through the powers
    of 2 one at a time."""
    d, r = 1, 2 % e
    while r != 1 % e:
        r = (r << 1) % e
        d += 1
    return d


def reference_write_arrays(stream, grids, header=None):
    """The array file format written grid by grid, row by row."""
    if header is not None:
        stream.write(f"# {header.r1} {header.r2} {header.n1} {header.n2}\n")
    for idx, grid in enumerate(grids):
        if idx:
            stream.write("\n")
        for line in grid_lines(grid):
            stream.write(line + "\n")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, outcome, secs in sorted(ACCEPTANCE_LOG):
        terminalreporter.write_line(f"{outcome} criterion {num} ({secs:.2f}s): {desc}")


@pytest.fixture
def sect5_polys():
    """The four degree-12 exponent-455 polynomials of the 13x35 study."""
    return {
        "f1": parse("1011101001111"),
        "f2": parse("1100101101111"),
        "f3": parse("1110001011111"),
        "f4": parse("1010011011111"),
    }


@pytest.fixture
def deg6_exp21():
    return parse("x^6+x^5+x^4+x^2+1"), parse("x^6+x^4+x^2+x+1")
