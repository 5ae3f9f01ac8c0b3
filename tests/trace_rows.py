"""Trace tables built from rows, the one way a table is built: the rows are
written as a trace CSV and read back by ``TraceTable.load``. A float
written by ``repr`` reads back exactly."""

import tempfile
from pathlib import Path

from qpcontrol.plant import TraceTable


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
