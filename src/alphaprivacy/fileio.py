"""Atomic text output, shared by every file the package writes, and the
JSON reader shared by every document it reads."""

from __future__ import annotations

import contextlib
import json
import os
import stat
import tempfile

from .errors import DataFormatError


def read_json(path):
    """Parse a JSON file; a missing, non-UTF-8 or invalid file is a DataFormatError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataFormatError(f"{path}: no such file") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from None


@contextlib.contextmanager
def atomic_text_writer(path):
    """A text stream whose text replaces ``path``, in the mode a plain ``open``
    gives it, when the block ends: through a synced temp file in the same
    directory and ``os.replace``, so a crash of the program or the OS leaves
    the old file or the new one, never a truncated one.  An exception or
    interrupt in the block leaves the old file and no temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        try:  # an existing file keeps its mode
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0o077)  # setting the umask is the one way to read it
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)  # mkstemp creates it 0600
        with os.fdopen(fd, "w") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` through :func:`atomic_text_writer`."""
    with atomic_text_writer(path) as fh:
        fh.write(text)
