"""File access: the one opener, reader and writer of every file the
package reads or writes, and the faults they report.

Every file is opened for reading by ``open_input``: ``read_file`` takes
all its bytes, and the checkpoint loader reads its payload straight into
the parameter array. A path it cannot open or read is ``missing file:
<path>``; ``decode_text`` makes a non-UTF-8 byte ``<path>:<line>: not
UTF-8 text``. Every file is written by ``write_file`` (``cannot write
<path>: <reason>``). Each fault is a :class:`DataError`; ``check_out_dir``
refuses an output directory that cannot be made before any work is spent
on it. These messages show a path holding a non-printable character as
its ``repr``, so no control byte reaches the terminal. Movie ids and
modality names become file names, so each must be plain
(``plain_name``): not empty, ``.`` or ``..``, and without ``/``, ``\\``,
control characters or line breaks.
"""

from __future__ import annotations

import stat
import unicodedata
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .errors import DataError


def shown(path) -> str:
    """``path`` as a message shows it: as is when printable, else its ``repr``."""
    text = str(path)
    return text if text.isprintable() else repr(text)


@contextmanager
def open_input(path) -> Iterator[BinaryIO]:
    """An input file opened for binary reading, closed on leaving the
    ``with``; a path that cannot be opened or read is a :class:`DataError`
    naming it."""
    try:
        file = open(path, "rb")
    except (OSError, ValueError):  # ValueError: an embedded NUL
        raise DataError(f"missing file: {shown(path)}") from None
    with file:
        try:
            yield file
        except OSError:
            raise DataError(f"missing file: {shown(path)}") from None


def read_file(path) -> bytes:
    """The bytes of an input file; a fault is a :class:`DataError` naming it."""
    with open_input(path) as file:
        return file.read()


def decode_text(path, data: bytes) -> str:
    """``data`` read from ``path`` as UTF-8; a bad byte names its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{shown(path)}:{lineno}: not UTF-8 text") from None


def _write_error(path, exc: Exception) -> DataError:
    return DataError(f"cannot write {shown(path)}: {getattr(exc, 'strerror', None) or exc}")


def write_file(path, chunks: Iterable[str | bytes]) -> None:
    """Make the parent directories of ``path``, then write each chunk as it
    is drawn, text as UTF-8, so a large output is never joined in memory."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            for chunk in chunks:
                out.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    except (OSError, ValueError) as exc:  # ValueError: an embedded NUL, or unencodable text
        raise _write_error(path, exc) from None


def check_out_dir(path) -> None:
    """Refuse, as ``write_file`` would, an output directory that cannot be
    made: ``path`` or its nearest existing ancestor is not a directory, or
    the path holds a NUL."""
    path = Path(path)
    for ancestor in (path, *path.parents):
        try:
            mode = ancestor.stat().st_mode
        except FileNotFoundError:
            continue
        except (OSError, ValueError) as exc:  # ValueError: an embedded NUL
            raise _write_error(path, exc) from None
        if not stat.S_ISDIR(mode):
            raise DataError(f"cannot write {shown(path)}: Not a directory")
        return


def plain_name(name: str) -> bool:
    """Whether ``name`` can be a file name and one line of text: not
    empty, ``.`` or ``..``, and without ``/``, ``\\``, a control character or
    a line break."""
    return name not in ("", ".", "..") and not any(
        ch in "/\\" or unicodedata.category(ch) in ("Cc", "Zl", "Zp") for ch in name)
