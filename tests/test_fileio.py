"""Tests for the atomic writer: its files get the mode a plain ``open``
gives, under every umask, and keep it when rewritten."""

import os
import stat

import pytest

from alphaprivacy.fileio import write_text_atomic


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
