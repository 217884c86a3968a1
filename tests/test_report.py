"""The report digest: SHA-256 over the argument vector and the raw input
bytes, the same whichever module provides the hash."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from joinlab.report import input_digest

REPO = Path(__file__).resolve().parent.parent
ARGV = ("joining", "verify", "--file", "t.json")


def expected_digest(argv, data: bytes) -> str:
    framed = b"".join(arg.encode("utf-8") + b"\x00" for arg in argv)
    return hashlib.sha256(framed + b"\x01" + data).hexdigest()


@pytest.mark.parametrize(
    "data", [b"", b'{"factors": []}\n', bytes(range(256)) * 4096],
    ids=["empty", "small", "1MB"],
)
def test_input_digest_is_sha256(data):
    assert input_digest(ARGV, data) == expected_digest(ARGV, data)


def test_input_digest_falls_back_to_hashlib():
    # a None entry in sys.modules makes the import raise ImportError
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "import hashlib; from joinlab import report; "
        "assert report.sha256 is hashlib.sha256; "
        "print(report.input_digest(sys.argv[2:], bytes(range(256)) * 4096))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(REPO / "src"), *ARGV],
        capture_output=True, text=True, check=True,
    )
    data = bytes(range(256)) * 4096
    assert proc.stdout.strip() == expected_digest(ARGV, data) == input_digest(ARGV, data)
