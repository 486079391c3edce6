"""Atomic text output, shared by every file the package writes, and the
JSON reader shared by every document it reads."""

from __future__ import annotations

import json
import os
import tempfile

from .errors import DataFormatError


def read_json(path):
    """Parse a JSON file; a missing file or invalid JSON is a DataFormatError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataFormatError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from None


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` in the mode a plain ``open`` gives it, through
    a synced temp file in the same directory and ``os.replace``, so a crash of
    the program or the OS leaves the old file or the new one, never a truncated one."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        umask = os.umask(0o077)  # setting the umask is the one way to read it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates it 0600
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
