"""Atomic text output, shared by every file the package writes."""

from __future__ import annotations

import os
import tempfile


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
