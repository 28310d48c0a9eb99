"""Ground-truth brute-force verification of array codes.

``window_census`` slides every n1 x n2 window (toroidally) over every
array and demands that each nonzero window pattern occur exactly once
and the zero pattern never.  ``shift_add_closure`` checks the linear
structure of a code that passes the census: the shifts of all
codewords plus zero must form a GF(2) subspace, which holds exactly
when reading the (0, 0) window, one to one on the shifts, is linear.
``verify_prac`` chains the parameter arithmetic, the census, and the
closure check.

Each check takes a code as its (m, r1, r2) grid stack, or as 2-D
grids of one shape that it stacks once, and reads the stack in
blocks of whole arrays of about 2^18 windows.  A block's windows are
coded row by row: the n2-bit code of each window row first, then n1
row codes stacked into each window code, n1 + n2 shifted ORs in all.
The census looks for a zero window in each block's codes.  Up to area
24 it then marks the codes in a table of one byte per window pattern,
and a code whose 2^(n1*n2) - 1 windows mark as many bytes passes after
that one pass.  Any other code takes the witness pass, the only pass
above area 24: it sorts each block's codes in place for repeats inside
the block, and only a code of more than one block keeps a
2^(n1*n2)-bit occupancy table, which later blocks meet and earlier
blocks fill, bit by bit in place.  The witness is the first zero
window, else the smallest repeated code with its count.  No code can
be missing otherwise: the census first demands exactly 2^(n1*n2) - 1
windows, and that many nonzero area-bit codes, no two alike, are all
of them.

Window encoding: a window is read row-major from its top-left anchor
and interpreted as a binary number, first-read bit most significant.
All criteria share this encoding so witnesses are comparable.
"""

from __future__ import annotations

import itertools

import numpy as np

from .criteria import _CENSUS_AREA_CAP, CodeParams, VerdictReport, Witness
from .folding import _grid_stack

# windows coded per block of whole arrays: a block's 1 MiB of uint32
# codes stays in cache through its shift-and-OR passes
_CENSUS_BLOCK_WINDOWS = 1 << 18
_BYTE_TABLE_AREA = 24  # largest census area decided by a byte occupancy table


def _blocks(grids):
    """(first array, sub-stack) of each block of whole arrays of about
    2^18 cells of an (m, r1, r2) grid stack."""
    per_block = max(1, _CENSUS_BLOCK_WINDOWS // (grids.shape[1] * grids.shape[2]))
    for lo in range(0, len(grids), per_block):
        yield lo, grids[lo : lo + per_block]


def _block_codes(grids, n1, n2):
    """Codes of all windows of a (b, r1, r2) grid stack, flat in
    (array, row, column) order.

    The n2-bit code of each row of a window is built first (n2 shifted
    ORs), then n1 row codes are stacked into each window code (n1 more),
    wrapping toroidally, which n1 <= r1 and n2 <= r2 allow."""
    b, r1, r2 = grids.shape
    ext = np.concatenate((grids, grids[:, :, : n2 - 1]), axis=2)
    # row codes take a narrow type unless they are the window codes
    # themselves: with n1 > 1 the area cap of 28 leaves n2 <= 14
    row_type = np.uint32 if n1 == 1 else np.uint16 if n2 > 8 else np.uint8
    rows = np.empty((b, r1 + n1 - 1, r2), dtype=row_type)
    body = rows[:, :r1]
    body[...] = grids
    for c in range(1, n2):
        body <<= 1
        body |= ext[:, :, c : c + r2]
    if n1 == 1:
        return rows.ravel()
    rows[:, r1:] = rows[:, : n1 - 1]
    # a copy, never a view: with b = 1 the body is contiguous, and
    # shifting a view would shift the row codes still to be read
    codes = body.astype(np.uint32)
    for a in range(1, n1):
        codes <<= n2
        codes |= rows[:, a : a + r1]
    return codes.ravel()


def window_census(arrays, n1, n2, params=None):
    """Slide all n1 x n2 windows; each nonzero pattern exactly once, zero never.

    One pass codes the windows of blocks of whole arrays (about 2^18
    windows a block) and checks each block for zeros.  Up to area 24 it
    marks the codes in a byte occupancy table, and 2^(n1*n2) - 1 marked
    bytes decide a pass.  Otherwise a witness pass sorts each block for
    in-block repeats; a code of several blocks finds repeats across
    them in a 2^(n1*n2)-bit occupancy table.  The witness is the first
    zero window if there is one, else the second occurrence of the
    smallest repeated code with its count (one more pass).  With the
    window count right and neither, every nonzero code occurs.
    """
    return _census(_grid_stack(arrays), n1, n2, params)


def _census(grids, n1, n2, params):
    """``window_census`` of an (m, r1, r2) grid stack."""
    if n1 < 1 or n2 < 1:
        raise ValueError(f"window {n1}x{n2} must have positive sides")
    area = n1 * n2
    if area > _CENSUS_AREA_CAP:
        raise ValueError(f"window area {area} exceeds the census cap {_CENSUS_AREA_CAP}")
    m, r1, r2 = grids.shape
    if m:
        if n1 > r1 or n2 > r2:
            raise ValueError(f"window {n1}x{n2} larger than array {r1}x{r2}")
        if params is None:
            params = CodeParams(r1, r2, n1, n2)
    expected = (1 << area) - 1
    total = m * r1 * r2
    detail = {"windows_total": total, "windows_expected": expected}

    def fail(witness):
        return VerdictReport("census", False, params, witness, detail)

    if total != expected:
        return fail(
            Witness(
                "count",
                f"window count {total} != 2^{area} - 1 = {expected}",
            )
        )
    cells = r1 * r2

    def window_witness(kind, message, idx, position, code):
        return Witness(kind, message, idx, position, format(code, f"0{area}b"), code)

    def zero_window(lo, at):
        idx, cell = divmod(at, cells)
        return fail(window_witness("zero-window", "all-zero window present",
                                   lo + idx, divmod(cell, r2), 0))

    def passed():
        # 2^area - 1 windows, none zero and no two alike, read every
        # nonzero area-bit code: no code can be missing
        detail["distinct_nonzero"] = expected
        return VerdictReport("census", True, params, None, detail)

    blocks = list(_blocks(grids))
    if area <= _BYTE_TABLE_AREA:
        # one byte per window pattern: 16 MiB at area 24
        seen = np.zeros(1 << area, dtype=np.uint8)
        for lo, block in blocks:
            codes = _block_codes(block, n1, n2)
            at = int(np.argmin(codes))
            if codes[at] == 0:
                return zero_window(lo, at)
            seen[codes] = 1
        # 2^area - 1 nonzero windows mark as many patterns only if no
        # two alike; else the witness pass below names a repeat
        if np.count_nonzero(seen) == expected:
            return passed()
        del seen
    if len(blocks) > 1:
        # one bit per window pattern: 32 MiB at the area cap of 28
        table = np.zeros((expected >> 3) + 1, dtype=np.uint8)
    repeats = []
    for lo, block in blocks:
        codes = _block_codes(block, n1, n2)
        at = int(np.argmin(codes))
        if codes[at] == 0:
            return zero_window(lo, at)
        codes.sort()
        again = codes[1:] == codes[:-1]
        if again.any():
            repeats.append(int(codes[1:][again][0]))
        if len(blocks) == 1:
            continue
        # the first block has nothing to meet in the table, and no block
        # follows the last to meet what it would record
        byte = codes >> 3
        mask = np.left_shift(np.uint8(1), (codes & 7).astype(np.uint8))
        if lo:
            clash = table[byte] & mask
            if clash.any():
                repeats.append(int(codes[np.argmax(clash != 0)]))
        if lo != blocks[-1][0]:
            np.bitwise_or.at(table, byte, mask)
    if repeats:
        code = min(repeats)
        hits = _occurrences(grids, n1, n2, [code])[0]
        idx, i, j = hits[1]
        return fail(
            window_witness(
                "duplicate-window",
                f"window code {code} occurs more than once {len(hits)} times",
                idx,
                (i, j),
                code,
            )
        )
    return passed()


def shift_add_closure(arrays, params):
    """Every sum of a codeword with a shifted codeword is zero or a
    shift of a codeword; a code that fails the census is refused with
    ValueError.

    After a passing census each nonzero code is read at (0, 0) by just
    one shifted codeword.  With B_k the one reading 2^k, the code is
    closed exactly when each array, and each B_k moved one row down or
    one column right, is the sum of the B_k named by its own code: that
    puts the arrays in span(B) and makes span(B) shift-invariant, and
    span(B) has at most the 2^(n1*n2) elements of the code plus zero.
    ``checked`` counts the vectors compared, m + 2*n1*n2 on a pass.
    """
    grids = _grid_stack(arrays)
    census = _census(grids, params.n1, params.n2, params)
    if not census.passed:
        raise ValueError(f"closure needs a code that passes the census: {census.witness.message}")
    return _closure(grids, params)


def _closure(grids, params):
    """``shift_add_closure`` of the grid stack of a code that passes the census."""
    n1, n2 = params.n1, params.n2
    area = n1 * n2
    # after a passing census each nonzero code is read just once
    units = [hits[0] for hits in _occurrences(grids, n1, n2, [1 << k for k in range(area)])]
    # B_k is array a moved up u rows and left v columns, for units[k] = (a, u, v)
    basis = np.stack([np.roll(grids[a], (-u, -v), axis=(0, 1)) for a, u, v in units])
    moved = (np.roll(block, 1, axis) for axis in (1, 2) for _, block in _blocks(basis))
    packed_basis = np.packbits(basis.reshape(area, -1), axis=1)
    checked, witness = 0, None
    for vectors in itertools.chain((block for _, block in _blocks(grids)), moved):
        codes = _block_codes(vectors[:, :n1, :n2], n1, n2)[::area]  # read at (0, 0)
        packed = np.packbits(vectors.reshape(len(vectors), -1), axis=1)
        sums = np.zeros_like(packed)
        for k, row in enumerate(packed_basis):
            np.bitwise_xor(sums, row, out=sums, where=(codes >> k & 1).astype(bool)[:, None])
        bad = np.flatnonzero((sums != packed).any(axis=1))
        if bad.size:
            checked += int(bad[0]) + 1
            witness = _closure_witness(grids, n1, n2, int(codes[bad[0]]), units, basis)
            break
        checked += len(vectors)
    return VerdictReport("shift-add", witness is None, params, witness, {"checked": checked})


def _occurrences(grids, n1, n2, targets):
    """Every (array, row, column) whose window reads each of the
    distinct codes targets, in reading order, in one pass over the
    window codes."""
    r1, r2 = grids.shape[1:]
    found = {code: [] for code in targets}
    for lo, block in _blocks(grids):
        codes = _block_codes(block, n1, n2)
        for at in np.flatnonzero(np.isin(codes, targets)):
            idx, cell = divmod(int(at), r1 * r2)
            found[int(codes[at])].append((lo + idx, *divmod(cell, r2)))
    return [found[code] for code in targets]


def _closure_witness(grids, n1, n2, code, units, basis):
    """Two codewords and a shift whose sum is nonzero and no shifted
    codeword, for a code whose shift is not the sum of its B_k.

    Adding the unit codes 2^k of code one at a time gives codes c_j,
    read at (0, 0) by shifts z_j.  At the first j where z_j is not
    z_(j-1) + B_k, that sum reads c_j but is not z_j, the only shift
    that does; such a j exists, or the last z_j would be that sum.
    """
    r1, r2 = grids.shape[1:]
    ks = [k for k in range(n1 * n2) if code >> k & 1]
    prefixes = [code & ((2 << k) - 1) for k in ks]
    spots = [hits[0] for hits in _occurrences(grids, n1, n2, prefixes)]
    z = [np.roll(grids[a], (-u, -v), axis=(0, 1)) for a, u, v in spots]
    for j in range(1, len(ks)):
        if not np.array_equal(z[j], z[j - 1] ^ basis[ks[j]]):
            (a1, u1, v1), (a2, u2, v2) = spots[j - 1], units[ks[j]]
            # z_(j-1) + B_k is array a1 + array a2 shifted by (u1-u2, v1-v2), moved by (-u1, -v1)
            dv, dh = (u1 - u2) % r1, (v1 - v2) % r2
            return Witness(
                "closure",
                f"array {a1} + array {a2} shifted by ({dv},{dh}) is not a shifted codeword",
                array_index=a1,
                position=(dv, dh),
            )


def verify_prac(arrays, params):
    """Parameter arithmetic, then census, then shift-and-add closure.

    The verdict is the conjunction; the report carries the first failed
    stage (criterion 'parameters', 'census' or 'shift-add') and all
    stage reports in detail["stages"].
    """
    grids = _grid_stack(arrays)
    size = len(grids)
    stages = []
    problem = params.violation()
    if problem is None and size and grids.shape[1:] != (params.r1, params.r2):
        problem = "array dimensions do not match the parameters"
    if problem is None:
        delta = params.codeword_count()
        if size != delta:
            problem = f"code size {size} != required {delta}"
    stages.append(
        VerdictReport(
            "parameters",
            problem is None,
            params,
            None if problem is None else Witness("parameters", problem),
            {"size": size},
        )
    )
    if problem is None:
        stages.append(_census(grids, params.n1, params.n2, params))
        if stages[-1].passed:
            stages.append(_closure(grids, params))
    first_fail = next((s for s in stages if not s.passed), None)
    outcome = first_fail if first_fail is not None else stages[-1]
    return VerdictReport(
        outcome.criterion,
        first_fail is None,
        params,
        outcome.witness,
        {"stages": [s.to_kv() for s in stages]},
    )
