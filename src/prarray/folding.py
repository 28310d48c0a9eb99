"""Diagonal (CRT) folding of sequences into doubly-periodic arrays.

A sequence of length r1*r2 with gcd(r1, r2) = 1 folds into an r1 x r2
torus by placing bit k at cell (k mod r1, k mod r2); the Chinese
remainder theorem makes this a bijection.  An array is an (r1, r2)
grid of 0/1 cells; ``fold`` returns a read-only uint8 one.  A code is
one read-only (m, r1, r2) uint8 grid stack: ``fold_zero_factor`` and
``read_arrays`` return one, and ``write_arrays`` and ``verify`` take
one, or any iterable of grids of one shape, which ``_grid_stack``
stacks once.  ``unfold`` reads a grid back into its sequence.

Array file format: one array is r1 lines of r2 characters from {0,1};
arrays are separated by a single blank line; an optional first line
"# r1 r2 n1 n2" carries the parameters.  A file maps to one grid stack.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .criteria import CodeParams
from .lfsr import CyclicSequence, _pack_rows


def _check_cells(grids):
    """Refuse grids whose dtype is not integer or bool, or whose cells
    are not all 0 or 1."""
    if grids.dtype.kind not in "biu" or (grids.size and (grids.min() < 0 or grids.max() > 1)):
        raise ValueError("array cells must be 0 or 1")


def _read_only(grid):
    """A read-only view of grid, which owns its cells: numpy lets an
    owner be made writeable again, but no view of a read-only owner."""
    grid.flags.writeable = False
    return grid.view()


_NO_ARRAYS = _read_only(np.zeros((0, 0, 0), dtype=np.uint8))


def _grid_stack(code):
    """The (m, r1, r2) uint8 grid stack of a code, given as a stack or as
    an iterable of 2-D grids of one shape; (0, 0, 0) for no arrays.  A
    uint8 stack is returned as it is, once its cells are checked."""
    if isinstance(code, np.ndarray):
        if code.ndim != 3:
            raise ValueError(f"a code stack must have 3 axes (m, r1, r2), not {code.ndim}")
        _check_cells(code)
        return code.astype(np.uint8, copy=False)
    grids = [np.asarray(g) for g in code]
    if any(g.ndim != 2 for g in grids):
        raise ValueError("arrays must be 2-D grids")
    if len({g.shape for g in grids}) > 1:
        raise ValueError("arrays must share dimensions")
    return _grid_stack(np.stack(grids)) if grids else _NO_ARRAYS


def _row_stack(rows, starts):
    """The read-only (m, r1, r2) grid stack of nonempty 0/1 rows, array
    k being rows[starts[k]:starts[k + 1]]."""
    bounds = list(zip(starts, [*starts[1:], len(rows)]))
    widths = set(map(len, rows))
    if len(widths) > 1 and any(len(set(map(len, rows[a:b]))) > 1 for a, b in bounds):
        raise ValueError("array lines must share one width")
    if len(widths) > 1 or len({b - a for a, b in bounds}) > 1:
        raise ValueError("arrays in one file must share dimensions")
    cells = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    return _read_only(cells.reshape(len(bounds), bounds[0][1], len(rows[0])) - ord("0"))


@functools.lru_cache(maxsize=256)
def _fold_indices(r1, r2):
    """Sequence index k = CRT(i, j) of each cell (i, j), row-major."""
    k = np.arange(r1 * r2)
    perm = np.empty_like(k)
    perm[(k % r1) * r2 + k % r2] = k
    return perm


def _fold_bits(bits, r1, r2):
    """Fold a read-only (m, r1*r2) bit matrix of sequences into one
    read-only (m, r1, r2) grid stack.  With r1 = 1 or r2 = 1 cell
    (i, j) holds bit i*r2 + j, so the stack is a view of bits."""
    if r1 < 1 or r2 < 1:
        raise ValueError(f"fold needs positive dimensions, got {r1} and {r2}")
    if math.gcd(r1, r2) != 1:
        raise ValueError(f"fold needs coprime dimensions, got {r1} and {r2}")
    if r1 == 1 or r2 == 1:
        return bits.reshape(-1, r1, r2)
    return _read_only(bits.take(_fold_indices(r1, r2), axis=1)).reshape(-1, r1, r2)


def fold(seq, r1, r2):
    """Fold a length r1*r2 sequence along the southeast diagonal into a
    read-only (r1, r2) uint8 grid."""
    ell = r1 * r2
    if len(seq) != ell:
        raise ValueError(f"sequence length {len(seq)} != r1*r2 = {ell}")
    raw = np.frombuffer(seq.bits.to_bytes((ell + 7) // 8, "little"), dtype=np.uint8)
    bits = _read_only(np.unpackbits(raw, count=ell, bitorder="little"))
    return _fold_bits(bits[None], r1, r2)[0]


def unfold(grid):
    """Inverse of fold: the sequence of a nonempty 2-D 0/1 grid of
    coprime dimensions.  With r1 = 1 or r2 = 1 the grid, read
    row-major, is the sequence."""
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError("unfold needs a nonempty 2-D grid")
    _check_cells(grid)
    r1, r2 = grid.shape
    if math.gcd(r1, r2) != 1:
        raise ValueError("unfold needs coprime dimensions")
    if r1 == 1 or r2 == 1:
        bits = grid.reshape(1, -1)
    else:
        bits = np.empty((1, r1 * r2), dtype=np.uint8)
        bits[0, _fold_indices(r1, r2)] = grid.ravel()
    return CyclicSequence(_pack_rows(bits)[0], bits.shape[1])


def fold_zero_factor(zf, r1, r2):
    """Fold every cycle of a zero factor: the read-only (m, r1, r2)
    uint8 grid stack of the code, one array per cycle."""
    if zf.exponent != r1 * r2:
        raise ValueError(
            f"zero factor exponent {zf.exponent} != r1*r2 = {r1 * r2}"
        )
    return _fold_bits(zf.bits, r1, r2)


def _text(grids):
    """An (m, r1, r2) grid stack in the text format without a header, in
    one numpy pass: r1 lines of r2 digits per array, a blank line
    between arrays; "" for no arrays."""
    m, r1, r2 = grids.shape
    chars = np.full((m, r1 * (r2 + 1) + 1), ord("\n"), dtype=np.uint8)
    # r1 lines of r2 digits, then the blank line (dropped after the
    # last array); splitting one axis in two reshapes to a view
    np.add(grids, ord("0"), out=chars[:, :-1].reshape(m, r1, r2 + 1)[:, :, :r2])
    return chars.tobytes()[:-1].decode("ascii")


def _lines(grids):
    """The rows of each array of a nonempty grid stack as 0/1 strings,
    cut from its text."""
    return [block.split("\n") for block in _text(grids)[:-1].split("\n\n")]


def write_arrays(stream, arrays, header=None):
    """Write a code (a grid stack, or grids of one shape) in the text
    format, in one write; header is an optional CodeParams."""
    text = "" if header is None else f"# {header.r1} {header.r2} {header.n1} {header.n2}\n"
    stream.write(text + _text(_grid_stack(arrays)))


def read_arrays(stream):
    """Parse the array file format; returns (grids, params-or-None),
    grids being the file's read-only (m, r1, r2) uint8 grid stack,
    (0, 0, 0) for a file with no rows.

    A file laid out as ``write_arrays`` writes it is read in one numpy
    pass; any other file, and any malformed one, goes line by line, the
    path that names the first bad line."""
    text = stream.read()
    return _read_layout(text) or _read_lines(text.split("\n"))


def _header(line, lineno):
    """The CodeParams of a header line "# r1 r2 n1 n2"."""
    fields = line[1:].split()
    if len(fields) != 4 or not all(f.isdigit() for f in fields):
        raise ValueError(f"line {lineno}: header needs four integers")
    try:
        return CodeParams(*(int(f) for f in fields))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def _read_layout(text):
    """``read_arrays`` of a file in the exact layout of ``write_arrays``:
    an optional header line, then m arrays of r1 lines of r2 digits, a
    blank line between arrays and a newline after the last; None for
    any other text."""
    params = None
    body = text
    if text.startswith("#"):
        head, _, body = text.partition("\n")
        params = _header(head.strip(), 1)
    r2 = body.find("\n")
    if r2 < 1 or not body.isascii():
        return None
    gap = body.find("\n\n")
    r1 = (len(body) if gap < 0 else gap + 1) // (r2 + 1)
    size = r1 * (r2 + 1) + 1  # an array's lines and the blank line after it
    chars = np.frombuffer((body + "\n").encode("ascii"), dtype=np.uint8)
    if chars.size % size:
        return None
    chars = chars.reshape(-1, size)
    lines = chars[:, :-1].reshape(len(chars), r1, r2 + 1)
    if (chars[:, -1] != ord("\n")).any() or (lines[:, :, -1] != ord("\n")).any():
        return None
    grids = lines[:, :, :r2] - np.uint8(ord("0"))
    if (grids > 1).any():
        return None
    return _read_only(grids), params


def _read_lines(lines):
    """``read_arrays`` of a file's lines, one at a time."""
    params = None
    rows, starts = [], []
    gap = True  # no row yet, or a blank line since the last one
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            if params is not None:
                raise ValueError(f"line {lineno}: a second header")
            if rows:
                raise ValueError(f"line {lineno}: header after an array row")
            params = _header(line, lineno)
        elif not line:
            gap = True
        elif set(line) - {"0", "1"}:
            raise ValueError(f"line {lineno}: expected a 0/1 row")
        else:
            if gap:
                starts.append(len(rows))
                gap = False
            rows.append(line)
    return (_row_stack(rows, starts) if rows else _NO_ARRAYS), params
