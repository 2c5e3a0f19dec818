"""Byte-level golden pins of the canonical CLI outputs.

Every verdict is exact, so a refactor or speedup that keeps the behaviour
keeps these sha256 digests; any change to a value, a row order or the
rendering shows up here first.
"""

import hashlib

import pytest

from hlpoly.cli import main

GOLDEN = [
    pytest.param(
        ["audit", "--identity", "all", "--format", "json"],
        "4e404e4ddf3ddb33fd3399191356dbdd82ed11afee072f937c81d570c98b2fea",
        id="audit-all-json",
    ),
    pytest.param(
        ["congruence-scan", "--format", "csv"],
        "f59cd3845dcb09a99a55612a2b5db8762aa65a95593aa3cce86f3a01b8f8ff2a",
        id="congruence-scan-csv",
    ),
    pytest.param(
        ["audit", "--identity", "all", "--format", "json", "--n-max", "16"],
        "4fabae51d7ca1673c5e7bcfc0a932b53400ca537bf150639eb16c7d292033291",
        id="audit-all-json-n16",
    ),
]


# Every pinned grid has FAILS rows (EQ10-EQ12, THM9-THM11), so each exits 1.
@pytest.mark.parametrize("argv, digest", GOLDEN)
def test_canonical_output_digest(capsys, argv, digest):
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
