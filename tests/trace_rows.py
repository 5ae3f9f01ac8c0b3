"""Trace tables built from rows, the one way a table is built: the rows are
written as a trace CSV and read back by ``TraceTable.load``. A float
written by ``repr`` reads back exactly. Also the trace text and line ends
that more than one test module reads."""

import tempfile
from pathlib import Path

from hypothesis import strategies as st

from qpcontrol.plant import TraceTable

TRACE_TEXT = """frame,qp,psnr_db,bits
0,30,38.000,500000
0,40,34.000,200000
1,30,37.500,480000
1,40,33.500,190000
"""
NEWLINES = st.sampled_from(["\n", "\r", "\r\n"])
# What str.splitlines() also splits at; only \n, \r and \r\n end a line.
NOT_NEWLINES = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def trace_lines(rows):
    """The lines of a trace CSV, header first, holding ``{frame: [(qp,
    psnr, bits), ...]}``."""
    return ["frame,qp,psnr_db,bits"] + [
        f"{frame},{qp},{psnr!r},{bits!r}"
        for frame, entries in rows.items()
        for qp, psnr, bits in entries
    ]


def table_from_rows(rows):
    """Load ``rows`` as a trace table, through a temporary trace CSV."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trace.csv"
        path.write_text("\n".join(trace_lines(rows)) + "\n", encoding="utf-8")
        return TraceTable.load(path)


def rows_of(table):
    """``{frame: [(qp, psnr, bits), ...]}`` as ``table`` looks them up."""
    return {
        frame: [(qp, *table.lookup(frame, qp)) for qp in qps]
        for frame, qps in table.rows.items()
    }
