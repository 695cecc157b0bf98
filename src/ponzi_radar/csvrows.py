"""CSV tables written with one `%` per row, byte for byte as `csv.writer` writes them.

A table's rows share one line format whose number cells never need quoting
(such as "%s,%d,%.17g\\n"). Its text cells (ids, addresses) go through
`text_cells` first: a cell holding `,`, `"`, `\\r`, `\\n` or NUL is written by
`csv.writer` itself, so its quoting and errors stay the csv module's (Python
3.10's raises `csv.Error` on NUL), and every other cell (an empty one too) is
written as it is: no Python from 3.10 to 3.13 quotes or rejects such a cell.
The lines are joined and written `CHUNK_ROWS` at a time, so no string of the
whole file is ever built.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from typing import IO, Iterable, Iterator, Sequence

CHUNK_ROWS = 256
# What QUOTE_MINIMAL quotes with a "\n" terminator, and more: "\r" is
# quoted from Python 3.13 on, and NUL is an error before 3.11.
_needs_csv_writer = re.compile('[,"\r\n\x00]').search


def _quoted(cell: str) -> str:
    buf = io.StringIO()
    # csv.writer quotes a cell that holds a character of its line terminator.
    csv.writer(buf, lineterminator="\n").writerow([cell])
    return buf.getvalue()[:-1]


def text_cells(cells: Iterable[str]) -> Iterator[str]:
    """The text cells as `csv.writer` writes them in a row of two or more cells."""
    return (_quoted(cell) if _needs_csv_writer(cell) else cell for cell in cells)


def write_rows(fp: IO[str], header: Sequence[str], line_format: str,
               rows: Iterable[tuple]) -> None:
    """The plain header cells, then `line_format % row` for each row."""
    fp.write(",".join(header) + "\n")
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
        fp.write("".join([line_format % row for row in chunk]))
