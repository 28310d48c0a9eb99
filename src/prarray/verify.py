"""Ground-truth brute-force verification of array codes.

``window_census`` slides every n1 x n2 window (toroidally) over every
array and demands that each nonzero window pattern occur exactly once
and the zero pattern never.  ``shift_add_closure`` checks the linear
structure directly: the shifts of all codewords plus zero must form a
GF(2) subspace, which it tests by growing the span of the shifts, with
at most one membership check per shift.  ``verify_prac`` chains the
parameter arithmetic, the census, and the closure check.

The census is one batched pass: the arrays become an (m, r1, r2) bit
grid stack, taken in blocks of whole arrays of about 2^20 windows;
each block's window codes are sorted, and one 2^(n1*n2)-bit occupancy
table catches codes repeated across blocks.  At every window area the
witness is the first zero window, else the smallest repeated code
with its count, else the smallest absent code.

Window encoding: a window is read row-major from its top-left anchor
and interpreted as a binary number, first-read bit most significant.
All criteria share this encoding so witnesses are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .folding import CodeParams, _grids_from_arrays

_CENSUS_AREA_CAP = 28  # occupancy table stays under 32 MiB
_CENSUS_BLOCK_WINDOWS = 1 << 20  # windows coded per block of whole arrays


@dataclass(frozen=True)
class Witness:
    """Where a verification failed."""

    kind: str
    message: str
    array_index: int | None = None
    position: tuple | None = None
    window_bits: str | None = None
    code: int | None = None

    def to_kv(self, prefix="witness"):
        out = {f"{prefix}.kind": self.kind, f"{prefix}.message": self.message}
        if self.array_index is not None:
            out[f"{prefix}.array"] = str(self.array_index)
        if self.position is not None:
            out[f"{prefix}.position"] = ",".join(str(v) for v in self.position)
        if self.window_bits is not None:
            out[f"{prefix}.window"] = self.window_bits
        if self.code is not None:
            out[f"{prefix}.code"] = str(self.code)
        return out


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of one verification criterion."""

    criterion: str
    passed: bool
    params: CodeParams | None = None
    witness: Witness | None = None
    detail: dict = field(default_factory=dict)

    @property
    def verdict(self):
        return "pass" if self.passed else "fail"

    def to_kv(self):
        out = {"criterion": self.criterion, "verdict": self.verdict}
        if self.params is not None:
            out.update(
                {
                    "params.r1": str(self.params.r1),
                    "params.r2": str(self.params.r2),
                    "params.n1": str(self.params.n1),
                    "params.n2": str(self.params.n2),
                }
            )
        if self.witness is not None:
            out.update(self.witness.to_kv())
        for key, val in sorted(self.detail.items()):
            if key == "stages":
                val = ";".join(f"{s['criterion']}={s['verdict']}" for s in val)
            elif isinstance(val, (list, tuple)):
                val = ";".join(str(v) for v in val)
            out[f"detail.{key}"] = str(val)
        return out

    def to_text(self):
        head = f"{self.verdict.upper()} {self.criterion}"
        if self.params is not None:
            head += f" {self.params}"
        lines = [head]
        if self.witness is not None:
            lines.append(f"  witness: {self.witness.message}")
            if self.witness.position is not None:
                lines.append(f"  at array {self.witness.array_index}, position {self.witness.position}")
            if self.witness.window_bits is not None:
                lines.append(f"  window bits: {self.witness.window_bits}")
        for key, val in sorted(self.detail.items()):
            if key == "stages":
                for stage in val:
                    lines.append(f"  stage {stage['criterion']}: {stage['verdict']}")
            else:
                lines.append(f"  {key}: {val}")
        return "\n".join(lines)


def _block_codes(grids, n1, n2):
    """Codes of all windows of a (b, r1, r2) grid stack, flat in
    (array, row, column) order."""
    b, r1, r2 = grids.shape
    ext = np.pad(grids, ((0, 0), (0, n1 - 1), (0, n2 - 1)), mode="wrap")
    codes = np.zeros((b, r1, r2), dtype=np.uint32)
    for a in range(n1):
        for c in range(n2):
            codes <<= 1
            codes |= ext[:, a : a + r1, c : c + r2]
    return codes.ravel()


def window_census(arrays, n1, n2, params=None):
    """Slide all n1 x n2 windows; each nonzero pattern exactly once, zero never.

    One pass codes the windows of blocks of whole arrays (about 2^20
    windows a block), sorts each block for zeros and in-block repeats,
    and finds repeats across blocks in a 2^(n1*n2)-bit occupancy table.
    The witness is the first zero window if there is one, else the
    second occurrence of the smallest repeated code with its count
    (a second pass), else the smallest absent code.
    """
    arrays = list(arrays)
    if n1 < 1 or n2 < 1:
        raise ValueError(f"window {n1}x{n2} must have positive sides")
    area = n1 * n2
    if area > _CENSUS_AREA_CAP:
        raise ValueError(f"window area {area} exceeds the census cap {_CENSUS_AREA_CAP}")
    if arrays:
        r1, r2 = arrays[0].r1, arrays[0].r2
        if any(a.r1 != r1 or a.r2 != r2 for a in arrays):
            raise ValueError("arrays must share dimensions")
        if n1 > r1 or n2 > r2:
            raise ValueError(f"window {n1}x{n2} larger than array {r1}x{r2}")
    if params is None and arrays:
        params = CodeParams(arrays[0].r1, arrays[0].r2, n1, n2)
    expected = (1 << area) - 1
    total = sum(a.r1 * a.r2 for a in arrays)
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
    per_block = max(1, _CENSUS_BLOCK_WINDOWS // cells)
    starts = range(0, len(arrays), per_block)

    def block_codes(lo):
        return _block_codes(_grids_from_arrays(arrays[lo : lo + per_block]), n1, n2)

    def window_witness(kind, message, at, code):
        idx, cell = divmod(at, cells)
        window = format(code, f"0{area}b")
        return Witness(kind, message, idx, divmod(cell, r2), window, code)

    # one bit per window pattern: 32 MiB at the area cap of 28
    table = np.zeros((expected >> 3) + 1, dtype=np.uint8)
    repeats = []
    for lo in starts:
        codes = block_codes(lo)
        ordered = np.sort(codes)
        if ordered[0] == 0:
            at = lo * cells + int(np.argmin(codes))
            return fail(window_witness("zero-window", "all-zero window present", at, 0))
        again = ordered[1:] == ordered[:-1]
        if again.any():
            repeats.append(int(ordered[1:][again][0]))
            ordered = ordered[np.concatenate([[True], ~again])]
        byte = ordered >> 3
        mask = (1 << (ordered & 7)).astype(np.uint8)
        clash = table[byte] & mask
        if clash.any():
            repeats.append(int(ordered[np.argmax(clash != 0)]))
        first = np.flatnonzero(np.concatenate([[True], byte[1:] != byte[:-1]]))
        table[byte[first]] |= np.bitwise_or.reduceat(mask, first)
    if repeats:
        code = min(repeats)
        occurrences = 0
        for lo in starts:
            hits = np.flatnonzero(block_codes(lo) == code)
            if occurrences < 2 <= occurrences + hits.size:
                at = lo * cells + int(hits[1 - occurrences])
            occurrences += hits.size
        return fail(
            window_witness(
                "duplicate-window",
                f"window code {code} occurs more than once {occurrences} times",
                at,
                code,
            )
        )
    table[0] |= 1  # code 0 is known absent
    if int(np.bitwise_count(table).sum()) != expected + 1:
        byte = int(np.argmax(table != 0xFF))
        bits = int(table[byte])
        code = byte << 3 | ((bits + 1) & ~bits).bit_length() - 1
        return fail(Witness("missing-window", f"window code {code} never occurs", code=code))
    detail["distinct_nonzero"] = expected
    return VerdictReport("census", True, params, None, detail)


def shift_add_closure(arrays, params=None):
    """Every sum of a codeword with a shifted codeword is zero or a
    shift of a codeword.

    The shifts of all codewords plus zero must form a GF(2) subspace.
    A span, starting at {0}, grows inside the set of shifts: each shift
    v not yet in the span must give a shift v ^ s for every s in the
    span, and those sums join the span.  When every check passes, the
    span is the set of shifts plus zero, which is then closed under
    addition.  A failed check is a witness: v and s are nonzero shifts
    whose sum is not a shift.  ``pairs_checked`` counts the sums
    checked, 2^k - 1 for a span of dimension k, so at most one per
    shift.
    """
    arrays = list(arrays)
    if not arrays:
        return VerdictReport("shift-add", True, params, None, {"pairs_checked": 0})
    r1, r2 = arrays[0].r1, arrays[0].r2
    if any(a.r1 != r1 or a.r2 != r2 for a in arrays):
        raise ValueError("arrays must share dimensions")
    # each shift maps to itself, so the span holds these ints, not copies
    members = {}
    for arr in arrays:
        for v in arr.rotations_packed():
            members.setdefault(v, v)
    span = {0}
    checked = 0
    for v in members:
        if v in span:
            continue
        sums = [members.get(v ^ s) for s in span]
        if None in sums:
            bad = sums.index(None)
            checked += bad + 1
            ia, (av, ah) = _shift_of(arrays, v)
            ib, (bv, bh) = _shift_of(arrays, list(span)[bad])  # same order as sums
            # both sides shifted by (-av, -ah): array ia is unshifted
            dv, dh = (bv - av) % r1, (bh - ah) % r2
            return VerdictReport(
                "shift-add",
                False,
                params,
                Witness(
                    "closure",
                    f"array {ia} + array {ib} shifted by ({dv},{dh}) "
                    "is not a shifted codeword",
                    array_index=ia,
                    position=(dv, dh),
                ),
                {"pairs_checked": checked},
            )
        checked += len(sums)
        span.update(sums)
    return VerdictReport("shift-add", True, params, None, {"pairs_checked": checked})


def _shift_of(arrays, v):
    """(array index, (dv, dh)) of the first codeword whose shift by
    (dv, dh) packs to v."""
    for ia, arr in enumerate(arrays):
        rots = arr.rotations_packed()
        if v in rots:
            t = rots.index(v)
            return ia, (t % arr.r1, t // arr.r1)


def verify_prac(arrays, params):
    """Parameter arithmetic, then census, then shift-and-add closure.

    The verdict is the conjunction; the report carries the first failed
    stage (criterion 'parameters', 'census' or 'shift-add') and all
    stage reports in detail["stages"].
    """
    arrays = list(arrays)
    stages = []
    problem = params.violation()
    if problem is None and any(
        a.r1 != params.r1 or a.r2 != params.r2 for a in arrays
    ):
        problem = "array dimensions do not match the parameters"
    if problem is None:
        delta = params.codeword_count()
        if len(arrays) != delta:
            problem = f"code size {len(arrays)} != required {delta}"
    stages.append(
        VerdictReport(
            "parameters",
            problem is None,
            params,
            None if problem is None else Witness("parameters", problem),
            {"size": len(arrays)},
        )
    )
    if problem is None:
        stages.append(window_census(arrays, params.n1, params.n2, params))
        if stages[-1].passed:
            stages.append(shift_add_closure(arrays, params))
    first_fail = next((s for s in stages if not s.passed), None)
    outcome = first_fail if first_fail is not None else stages[-1]
    return VerdictReport(
        outcome.criterion,
        first_fail is None,
        params,
        outcome.witness,
        {"stages": [s.to_kv() for s in stages]},
    )
