"""Diagonal (CRT) folding of sequences into doubly-periodic arrays.

A sequence of length r1*r2 with gcd(r1, r2) = 1 folds into an r1 x r2
torus by placing bit k at cell (k mod r1, k mod r2); the Chinese
remainder theorem makes this a bijection.  Arrays are stored row-major
with each row bit-packed into an integer (bit j of row i is the cell
(i, j)).

Array file format: one array is r1 lines of r2 characters from {0,1};
arrays are separated by a single blank line; an optional first line
"# r1 r2 n1 n2" carries the parameters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lfsr import CyclicSequence, _pack_rows, _unpack_rows


@dataclass(frozen=True)
class CodeParams:
    """Array code parameters: r1 x r2 arrays, n1 x n2 windows."""

    r1: int
    r2: int
    n1: int
    n2: int

    def __post_init__(self):
        if min(self.r1, self.r2, self.n1, self.n2) < 1:
            raise ValueError("parameters must be positive")

    @property
    def window_area(self):
        return self.n1 * self.n2

    @property
    def nonzero_windows(self):
        return (1 << self.window_area) - 1

    def codeword_count(self):
        """Required code size: (2^(n1*n2) - 1) / (r1*r2)."""
        total = self.nonzero_windows
        if total % (self.r1 * self.r2):
            raise ValueError("r1*r2 does not divide 2^(n1*n2) - 1")
        return total // (self.r1 * self.r2)

    def violation(self):
        """First violated size/divisibility condition, or None."""
        if math.gcd(self.r1, self.r2) != 1:
            return f"gcd(r1, r2) = {math.gcd(self.r1, self.r2)} != 1"
        if not (self.r1 > self.n1 or self.r1 == self.n1 == 1):
            return f"need r1 > n1 (or r1 = n1 = 1), got r1={self.r1}, n1={self.n1}"
        if not (self.r2 > self.n2 or self.r2 == self.n2 == 1):
            return f"need r2 > n2 (or r2 = n2 = 1), got r2={self.r2}, n2={self.n2}"
        if self.nonzero_windows % (self.r1 * self.r2):
            return f"r1*r2 = {self.r1 * self.r2} does not divide 2^{self.window_area} - 1"
        return None

    def __str__(self):
        return f"({self.r1},{self.r2};{self.n1},{self.n2})"


class TorusArray:
    """An r1 x r2 binary array, cyclic in both directions."""

    __slots__ = ("rows", "r1", "r2")

    def __init__(self, rows, r2):
        rows = tuple(rows)
        if not rows or r2 < 1:
            raise ValueError("array must have positive dimensions")
        if any(r >> r2 for r in rows):
            raise ValueError("row bits exceed the stated width")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "r1", len(rows))
        object.__setattr__(self, "r2", r2)

    def __setattr__(self, name, value):
        raise AttributeError("TorusArray is immutable")

    @classmethod
    def from_lines(cls, lines):
        lines = [ln.strip() for ln in lines]
        if not lines or any(set(ln) - {"0", "1"} for ln in lines):
            raise ValueError("array lines must be nonempty 0/1 strings")
        width = len(lines[0])
        if any(len(ln) != width for ln in lines):
            raise ValueError("array lines must share one width")
        rows = []
        for ln in lines:
            r = 0
            for j, ch in enumerate(ln):
                r |= int(ch) << j
            rows.append(r)
        return cls(rows, width)

    def entry(self, i, j):
        return self.rows[i % self.r1] >> (j % self.r2) & 1

    def to_lines(self):
        return [
            "".join(str(r >> j & 1) for j in range(self.r2)) for r in self.rows
        ]

    def __str__(self):
        return "\n".join(self.to_lines())

    def __repr__(self):
        return f"TorusArray({self.r1}x{self.r2})"

    def __eq__(self, other):
        return (
            isinstance(other, TorusArray)
            and self.r2 == other.r2
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(("torus", self.r2, self.rows))

    @property
    def is_zero(self):
        return not any(self.rows)

    def __add__(self, other):
        self._check_dims(other)
        return TorusArray([a ^ b for a, b in zip(self.rows, other.rows)], self.r2)

    def prod(self, other):
        """Elementwise AND."""
        self._check_dims(other)
        return TorusArray([a & b for a, b in zip(self.rows, other.rows)], self.r2)

    def _check_dims(self, other):
        if self.r1 != other.r1 or self.r2 != other.r2:
            raise ValueError("array dimensions differ")

    def shift(self, dv, dh):
        """Move content down by dv rows and right by dh columns."""
        dv %= self.r1
        dh %= self.r2
        mask = (1 << self.r2) - 1
        rot = (
            self.rows
            if dh == 0
            else tuple(((r << dh) | (r >> (self.r2 - dh))) & mask for r in self.rows)
        )
        return TorusArray(rot[-dv:] + rot[:-dv] if dv else rot, self.r2)

    def rotations_packed(self):
        """Packed values of all r1*r2 double rotations.

        Entry dh*r1 + dv packs ``shift(dv, dh)`` into one integer, row i
        at bits [i*r2, (i+1)*r2).
        """
        out = []
        mask = (1 << self.r2) - 1
        full = (1 << (self.r1 * self.r2)) - 1
        top = (self.r1 - 1) * self.r2
        rows = list(self.rows)
        for _ in range(self.r2):
            acc = 0
            for i in range(self.r1):
                acc |= rows[i] << (i * self.r2)
            for i in range(self.r1):
                out.append(acc)
                acc = ((acc << self.r2) | (acc >> top)) & full
            rows = [((r << 1) | (r >> (self.r2 - 1))) & mask for r in rows]
        return out

    def canonical_packed(self):
        """Least packed value over all double rotations."""
        return min(self.rotations_packed())

    def column(self, j):
        """Column j as a CyclicSequence of length r1."""
        bits = 0
        for i in range(self.r1):
            bits |= (self.rows[i] >> (j % self.r2) & 1) << i
        return CyclicSequence(bits, self.r1)

    def row(self, i):
        return CyclicSequence(self.rows[i % self.r1], self.r2)


@functools.lru_cache(maxsize=256)
def _fold_indices(r1, r2):
    """Sequence index k = CRT(i, j) of each cell (i, j), row-major."""
    k = np.arange(r1 * r2)
    perm = np.empty_like(k)
    perm[(k % r1) * r2 + k % r2] = k
    return perm


def _fold_bits(bits, r1, r2):
    """Fold an (m, r1*r2) bit matrix of sequences into m arrays at once."""
    if math.gcd(r1, r2) != 1:
        raise ValueError(f"fold needs coprime dimensions, got {r1} and {r2}")
    m = bits.shape[0]
    rows = _pack_rows(bits[:, _fold_indices(r1, r2)].reshape(m * r1, r2))
    return tuple(TorusArray(rows[i : i + r1], r2) for i in range(0, m * r1, r1))


def _grids_from_arrays(arrays):
    """(m, r1, r2) uint8 grids of m arrays that share one shape."""
    r1, r2 = arrays[0].r1, arrays[0].r2
    rows = [r for a in arrays for r in a.rows]
    return _unpack_rows(rows, r2).reshape(-1, r1, r2)


def fold(seq, r1, r2):
    """Fold a length r1*r2 sequence along the southeast diagonal."""
    ell = r1 * r2
    if len(seq) != ell:
        raise ValueError(f"sequence length {len(seq)} != r1*r2 = {ell}")
    return _fold_bits(_unpack_rows([seq.bits], ell), r1, r2)[0]


def unfold(arr):
    """Inverse of fold; needs coprime dimensions."""
    if math.gcd(arr.r1, arr.r2) != 1:
        raise ValueError("unfold needs coprime dimensions")
    ell = arr.r1 * arr.r2
    bits = 0
    for k in range(ell):
        bits |= (arr.rows[k % arr.r1] >> (k % arr.r2) & 1) << k
    return CyclicSequence(bits, ell)


def fold_zero_factor(zf, r1, r2):
    """Fold every cycle of a zero factor; one array per cycle."""
    if zf.exponent != r1 * r2:
        raise ValueError(
            f"zero factor exponent {zf.exponent} != r1*r2 = {r1 * r2}"
        )
    return _fold_bits(_unpack_rows([c.bits for c in zf.cycles], zf.exponent), r1, r2)


def write_arrays(stream, arrays, header=None):
    """Write arrays in the text format; header is an optional CodeParams."""
    if header is not None:
        stream.write(f"# {header.r1} {header.r2} {header.n1} {header.n2}\n")
    for idx, arr in enumerate(arrays):
        if idx:
            stream.write("\n")
        for line in arr.to_lines():
            stream.write(line + "\n")


def read_arrays(stream):
    """Parse the array file format; returns (arrays, params-or-None)."""
    params = None
    blocks = [[]]
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) != 4 or not all(f.isdigit() for f in fields):
                raise ValueError(f"line {lineno}: header needs four integers")
            params = CodeParams(*(int(f) for f in fields))
            continue
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        if set(line) - {"0", "1"}:
            raise ValueError(f"line {lineno}: expected a 0/1 row")
        blocks[-1].append(line)
    if not blocks[-1]:
        blocks.pop()
    arrays = tuple(TorusArray.from_lines(b) for b in blocks)
    if arrays:
        r1, r2 = arrays[0].r1, arrays[0].r2
        if any(a.r1 != r1 or a.r2 != r2 for a in arrays):
            raise ValueError("arrays in one file must share dimensions")
    return arrays, params
