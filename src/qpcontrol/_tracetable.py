"""Trace tables: per-frame PSNR and bits measured at each QP.

A trace CSV has the header ``frame,qp,psnr_db,bits`` and one row per
tabulated (frame, QP), strictly sorted by (frame, qp). ``TraceTable.load``
is the only parser: it reads the file line by line, by the rule that reads
a config file. A loaded table keeps each frame's QPs as a tuple of ints
and all rows' PSNR and bits in two read-only float64 columns, ~23 B/row.

``qpcontrol.plant`` re-exports ``TraceTable``. It lives apart because a
process without bytecode compiles each module from source, and the
largest module's compile sets the CLI's peak memory.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputDomainError, TraceDomainError

TRACE_HEADER = "frame,qp,psnr_db,bits"


@dataclass(frozen=True, init=False)
class TraceTable:
    """Per-frame (qp, psnr, bits) rows parsed from a trace CSV.

    ``rows[frame]`` is the frame's tabulated QPs, a sorted tuple of ints;
    the rows' PSNR and bits sit in the read-only float64 columns ``psnr``
    and ``bits``, frame after frame, in QP order. ``load`` builds every
    table and checks every row. The constructor takes no rows, only what
    ``load`` fills: each frame's QPs, in frame order, and all rows' PSNR
    and bits, in that order, as float64 bytes. Lookups bisect a frame's
    QPs; they are exact at tabulated QPs and linear in qp between them,
    and anything outside the tabulated span raises TraceDomainError. The
    table is frozen, so one table may back any number of plants and runs.
    """

    rows: dict[int, tuple[int, ...]]
    psnr: memoryview = field(repr=False)
    bits: memoryview = field(repr=False)
    _starts: dict[int, int] = field(compare=False, repr=False)

    def __init__(self, qps: dict[int, Iterable[int]], psnr: bytes, bits: bytes) -> None:
        rows, starts, start = {}, {}, 0
        for frame, frame_qps in qps.items():
            rows[frame], starts[frame] = tuple(frame_qps), start
            start += len(rows[frame])
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "psnr", memoryview(bytes(psnr)).cast("d"))
        object.__setattr__(self, "bits", memoryview(bytes(bits)).cast("d"))
        object.__setattr__(self, "_starts", starts)

    def __reduce__(self):
        # Memoryviews do not pickle: a table goes as its QP tuples and the
        # bytes under its two columns.
        return type(self), (self.rows, self.psnr.obj, self.bits.obj)

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
        try:
            qps, start = self.rows[frame_index], self._starts[frame_index]
        except KeyError:
            raise TraceDomainError(f"frame {frame_index} is not tabulated") from None
        i = bisect_left(qps, qp)
        j = start + i
        psnr, bits = self.psnr, self.bits
        if i < len(qps) and qps[i] == qp:
            return psnr[j], bits[j]
        if i == 0 or i == len(qps):
            raise TraceDomainError(
                f"qp {qp} outside tabulated span "
                f"[{qps[0]}, {qps[-1]}] at frame {frame_index}"
            )
        lo, lo_psnr, lo_bits = qps[i - 1], psnr[j - 1], bits[j - 1]
        t = (qp - lo) / (qps[i] - lo)
        return lo_psnr + t * (psnr[j] - lo_psnr), lo_bits + t * (bits[j] - lo_bits)
