"""The package's one CSV dialect: every table is written and read through here.

A table's rows share one line format whose number cells never need quoting
(such as "%s,%d,%.17g\\n"); lines end in "\\n" and are written `CHUNK_ROWS`
at a time, so no string of the whole file is ever built. Text cells (ids,
addresses, labels) go through `text_cells`: one holding `,`, `"`, `\\r`, `\\n`
or NUL is written as `csv.writer` writes it with its default "\\r\\n"
terminator, which quotes it alike on every Python from 3.10 to 3.13 (3.10
raises `csv.Error` on NUL); any other cell, an empty one too, is written as it
is. `read_rows` reads a file opened with newline="", as the csv module needs.

A long table can be read past its header a block of lines at a time
(`read_header`, then `plain` on each block). A block is plain when it holds
no `"`, `\\r`, NUL or `\\x1c`-`\\x1f`, no empty line, no line as long as the
csv field limit, and every line but the file's last ends in "\\n". Then
`csv.reader` splits each line at every `,` and nowhere else, so its cells
are what `str.split(",")` gives (an empty line would be a row of no cells),
and a reader may parse them by other means. The first block that is not
plain, and the rest of the stream after it, go through `csv_rows`, which
numbers rows on from where the block starts and is the only place that
raises. `\\x1c`-`\\x1f` are no concern of the csv module: `np.loadtxt` strips
them around a number as whitespace and `float()` does not, so a block that
holds one is left to `float()`.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from typing import IO, Callable, Iterable, Iterator, Sequence

from .errors import DataError

CHUNK_ROWS = 256
_needs_csv_writer = re.compile('[,"\r\n\x00]').search


def _quoted(cell: str) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow([cell])
    return buf.getvalue()[:-2]  # drop the "\r\n" terminator


def text_cells(cells: Iterable[str]) -> Iterator[str]:
    """The text cells as they are written in a row of two or more cells."""
    return (_quoted(cell) if _needs_csv_writer(cell) else cell for cell in cells)


def write_rows(fp: IO[str], header: Sequence[str], line_format: str,
               rows: Iterable[tuple]) -> None:
    """The plain header cells, then `line_format % row` for each row."""
    fp.write(",".join(header) + "\n")
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
        fp.write("".join([line_format % row for row in chunk]))


def read_rows(fp: IO[str], what: str, header: Sequence[str], width: int | None = None,
              header_error: Callable[[list[str] | None], DataError] | None = None,
              ) -> Iterator[tuple[int, list[str]]]:
    """(row number, cells) of each row after the header, which is row 1.

    A first row other than `header` raises `header_error(first row or None)`,
    by default "<what> must start with header ...". A row of other than
    `width` cells, when given, and a `csv.Error` (such as a cell beyond the
    128 KiB field limit) are DataErrors that name `what` and the row.
    """
    read_header(fp, what, header, header_error)
    yield from csv_rows(fp, what, width)


def read_header(fp: IO[str], what: str, header: Sequence[str],
                header_error: Callable[[list[str] | None], DataError] | None = None) -> None:
    """Read row 1, which must be `header`; it raises as `read_rows` does.

    `csv.reader` takes only the lines of that row from `fp`, so the rest can
    be read from `fp` by any means.
    """
    try:
        first = next(csv.reader(fp), None)
    except csv.Error as exc:
        raise DataError(f"{what} row 1: {exc}") from exc
    if first != list(header):
        raise (header_error(first) if header_error else
               DataError(f"{what} must start with header '{','.join(header)}'"))


def csv_rows(lines: Iterable[str], what: str, width: int | None = None,
             first_row: int = 2) -> Iterator[tuple[int, list[str]]]:
    """(row number, cells) of each row in `lines`, numbered from `first_row`;
    it raises as `read_rows` does."""
    rows_read = first_row - 1
    try:
        for rows_read, row in enumerate(csv.reader(lines), start=first_row):
            if width is not None and len(row) != width:
                raise DataError(f"{what} row {rows_read}: expected {width} columns")
            yield rows_read, row
    except csv.Error as exc:
        raise DataError(f"{what} row {rows_read + 1}: {exc}") from exc


_NOT_PLAIN = '"\r\x00\x1c\x1d\x1e\x1f'


def plain(lines: list[str]) -> bool:
    """Whether `lines`, consecutive lines of a file, form a plain block (see above)."""
    block = "".join(lines)
    return (not any(c in block for c in _NOT_PLAIN) and "\n" not in lines
            and max(map(len, lines)) < csv.field_size_limit()
            and all(map(str.endswith, lines[:-1], itertools.repeat("\n"))))
