"""Trace tables: per-frame PSNR and bits measured at each QP.

A trace CSV has the header ``frame,qp,psnr_db,bits`` and one row per
tabulated (frame, QP), strictly sorted by (frame, qp). ``TraceTable.load``
is the only parser: it reads the file line by line, by the rule that reads
a config file. A loaded table keeps each frame's QPs as a tuple of ints
and its PSNR and bits in read-only float64 columns, about 35 bytes per row.

``qpcontrol.plant`` re-exports ``TraceTable``. It lives apart because a
process without bytecode compiles each module from source, and the
largest module's compile sets the CLI's peak memory.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import InputDomainError, TraceDomainError

TRACE_HEADER = "frame,qp,psnr_db,bits"


class _FrameRows(Sequence):
    """One frame's ``(qp, psnr, bits)`` rows, read-only: the QPs as a tuple
    of ints, and row i's PSNR and bits at ``start + i`` in float64 columns
    shared by the frames of one table."""

    __slots__ = ("qps", "start", "psnr", "bits")

    def __init__(self, qps: tuple[int, ...], start: int, psnr, bits) -> None:
        self.qps, self.start, self.psnr, self.bits = qps, start, psnr, bits

    def __len__(self) -> int:
        return len(self.qps)

    def __iter__(self):
        return zip(self.qps, self.psnr[self.start :], self.bits[self.start :])

    def __getitem__(self, i):
        return tuple(self)[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, init=False)
class TraceTable:
    """Per-frame (qp, psnr, bits) rows parsed from a trace CSV.

    ``rows[frame]`` is a read-only sequence of rows sorted by qp, held as a
    tuple of QPs and float64 PSNR and bits columns; lookups bisect the QPs.
    ``load`` builds every table and checks every row. The constructor takes
    no rows, only the columns ``load`` fills: each frame's QPs, in frame
    order, and all rows' PSNR and bits, in that order, as float64 bytes.
    Lookups are exact at tabulated QPs and linear in qp between them;
    anything outside the tabulated span raises TraceDomainError. The table
    is frozen, so one table may back any number of plants and runs.
    """

    rows: dict[int, Sequence[tuple[int, float, float]]]

    def __init__(self, qps: dict[int, Sequence[int]], psnr: bytes, bits: bytes) -> None:
        psnr_col, bits_col = memoryview(psnr).cast("d"), memoryview(bits).cast("d")
        rows, start = {}, 0
        for frame, frame_qps in qps.items():
            rows[frame] = _FrameRows(tuple(frame_qps), start, psnr_col, bits_col)
            start += len(frame_qps)
        object.__setattr__(self, "rows", rows)

    def __reduce__(self):
        # Memoryviews do not pickle: a table goes as its QP tuples and the
        # bytes under its two columns.
        columns = next(iter(self.rows.values()))
        qps = {frame: entries.qps for frame, entries in self.rows.items()}
        return type(self), (qps, columns.psnr.obj, columns.bits.obj)

    @classmethod
    def load(cls, path: str | Path) -> "TraceTable":
        """Parse a trace CSV one line at a time. As in a config file, lines
        end at \\n, \\r and \\r\\n only, and a leading UTF-8 byte-order
        mark is skipped."""
        from array import array

        qps: dict[int, list[int]] = {}
        psnr_col, bits_col = array("d"), array("d")
        add_psnr, add_bits = psnr_col.append, bits_col.append
        prev_key = (-math.inf, -math.inf)  # sorts below every row
        try:
            with open(path, encoding="utf-8-sig") as lines:
                if next(lines, "").strip() != TRACE_HEADER:
                    raise InputDomainError(
                        f"trace table must start with header {TRACE_HEADER!r}"
                    )
                for lineno, line in enumerate(lines, start=2):
                    try:
                        frame, qp, psnr, bits = line.rstrip("\n").split(",")
                    except ValueError:
                        if not line.strip():  # a blank line has no commas
                            continue
                        raise InputDomainError(
                            f"trace line {lineno}: expected 4 fields"
                        ) from None
                    try:
                        frame, qp, psnr, bits = int(frame), int(qp), float(psnr), float(bits)
                    except ValueError as exc:
                        raise InputDomainError(f"trace line {lineno}: {exc}") from exc
                    if not math.isfinite(psnr) or not math.isfinite(bits) or bits < 0:
                        raise InputDomainError(f"trace line {lineno}: bad psnr/bits")
                    key = (frame, qp)
                    if key <= prev_key:
                        raise InputDomainError(
                            f"trace line {lineno}: rows must be strictly sorted"
                            " by (frame, qp)"
                        )
                    if frame != prev_key[0]:
                        frame_qps = qps[frame] = []
                    prev_key = key
                    frame_qps.append(qp)
                    add_psnr(psnr)
                    add_bits(bits)
        except UnicodeDecodeError as exc:
            raise InputDomainError(f"not UTF-8 text: {exc}") from exc
        if not qps:
            raise InputDomainError("trace table has no data rows")
        return cls(qps, psnr_col.tobytes(), bits_col.tobytes())

    def lookup(self, frame_index: int, qp: int) -> tuple[float, float]:
        entries = self.rows.get(frame_index)
        if entries is None:
            raise TraceDomainError(f"frame {frame_index} is not tabulated")
        qps = entries.qps
        i = bisect_left(qps, qp)
        j = entries.start + i
        if i < len(qps) and qps[i] == qp:
            return entries.psnr[j], entries.bits[j]
        if i == 0 or i == len(qps):
            raise TraceDomainError(
                f"qp {qp} outside tabulated span "
                f"[{qps[0]}, {qps[-1]}] at frame {frame_index}"
            )
        lo, psnr, bits = qps[i - 1], entries.psnr[j - 1], entries.bits[j - 1]
        t = (qp - lo) / (qps[i] - lo)
        return psnr + t * (entries.psnr[j] - psnr), bits + t * (entries.bits[j] - bits)
