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
    """Write ``text`` to ``path`` through a temp file in the same directory
    and ``os.replace``, so a crash leaves the old file or the new one, never
    a truncated one."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
