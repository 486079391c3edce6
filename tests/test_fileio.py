"""Tests for the atomic writer: its files get the mode a plain ``open``
gives, under every umask, and keep it when rewritten; and no other module
of the package opens a file for writing (the modules are parsed, not
imported)."""

import ast
import os
import pathlib
import stat

import pytest

from alphaprivacy.fileio import write_text_atomic

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "alphaprivacy"


def mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def write_plain(path, text):
    with open(path, "w") as fh:
        fh.write(text)


@pytest.fixture(params=[0o022, 0o027, 0o077], ids=lambda m: f"umask-{m:03o}")
def umask(request):
    old = os.umask(request.param)
    try:
        yield request.param
    finally:
        os.umask(old)


class TestWriteTextAtomic:
    def test_mode_is_that_of_a_plain_open(self, tmp_path, umask):
        write_plain(tmp_path / "plain.txt", "x")
        write_text_atomic(tmp_path / "atomic.txt", "x")
        assert mode(tmp_path / "atomic.txt") == mode(tmp_path / "plain.txt") == 0o666 & ~umask
        # the umask is left as it was
        assert os.umask(umask) == umask

    def test_rewrite_keeps_the_mode(self, tmp_path, umask):
        path = tmp_path / "doc.txt"
        write_plain(path, "old")
        want = mode(path)
        write_text_atomic(path, "new")
        assert mode(path) == want
        write_text_atomic(path, "newer")
        assert mode(path) == want and path.read_text() == "newer"
        assert os.listdir(tmp_path) == ["doc.txt"]

    def test_rewrite_keeps_a_mode_set_by_chmod(self, tmp_path, umask):
        # neither mode is one the umask gives a new file
        path = tmp_path / "doc.txt"
        write_plain(path, "old")
        for want in (0o640, 0o604):
            os.chmod(path, want)
            write_text_atomic(path, oct(want))
            assert mode(path) == want and path.read_text() == oct(want)
        assert os.listdir(tmp_path) == ["doc.txt"]


# calls that open a file, each taking its mode or flags second
OPENERS = {"open", "io.open", "os.fdopen", "os.open"}


def call_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def writing_opens(source):
    """The line of each call in ``source`` that opens a file in a write,
    append or create mode; a mode that is not a string literal counts as
    one, since it cannot be read here."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and call_name(node.func) in OPENERS):
            continue
        modes = [kw.value for kw in node.keywords if kw.arg in ("mode", "flags")]
        for arg in modes + node.args[1:2]:
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                    and not set(arg.value) & set("wax+")):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "fileio.py"),
                         ids=lambda p: p.name)
def test_only_the_atomic_writer_opens_files_for_writing(path):
    assert writing_opens(path.read_text()) == []


def test_the_check_sees_every_writing_mode():
    source = "\n".join([
        "open(p)", "open(p, 'rb')", "io.open(p, mode='rt')",
        "open(p, 'w')", "open(p, mode='a')", "io.open(p, 'xb')", "os.fdopen(fd, 'r+')",
        "os.open(p, os.O_WRONLY)", "open(p, m)",
    ])
    assert writing_opens(source) == [4, 5, 6, 7, 8, 9]
