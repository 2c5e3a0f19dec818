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


# The series side of the CLI: every kernel to order 16, plain and EGF, and
# both table methods (Stirling sum and generating function) for each family
# at a negative and a positive k. These all exit 0.
SERIES_GOLDEN = [
    pytest.param(
        ["series", "--kernel", "one_minus_exp_neg", "--order", "16"],
        "7c69b3ac44de3cdd74050c6c8a90681b46201f9cbb6a852a79240946446d981f",
        id="series-one_minus_exp_neg",
    ),
    pytest.param(
        ["series", "--kernel", "one_minus_exp_neg", "--order", "16", "--egf"],
        "c590494376c2f19ba2e839e14e98a44101da6e5775cc0db350935cf8de3b2870",
        id="series-one_minus_exp_neg-egf",
    ),
    pytest.param(
        ["series", "--kernel", "log1p", "--order", "16"],
        "c895e4a58440f80e2ca754a64ab332fa3bd36a8f4e6b3b6c938e850cbae0c0e1",
        id="series-log1p",
    ),
    pytest.param(
        ["series", "--kernel", "log1p", "--order", "16", "--egf"],
        "f950a59f413e4e1b3cc8458b175265b2a4a84b3b9f69cfed9edd3edd0a51bae0",
        id="series-log1p-egf",
    ),
    pytest.param(
        ["series", "--kernel", "neg_log1p", "--order", "16"],
        "4e5bc295304862fc8ffcb2cced5b714c270e692e63866b3f7a86b36abdeab497",
        id="series-neg_log1p",
    ),
    pytest.param(
        ["series", "--kernel", "neg_log1p", "--order", "16", "--egf"],
        "ed14bec60943be6530d8c38c535ece7bf4a9e5a765508c65f25206db9bdb93e7",
        id="series-neg_log1p-egf",
    ),
    pytest.param(
        ["series", "--kernel", "exp_pos", "--order", "16"],
        "6c5b08aaeb46003d114867af8e2c6ae54a42ab8288d050465f9a40bfef24c4f8",
        id="series-exp_pos",
    ),
    pytest.param(
        ["series", "--kernel", "exp_pos", "--order", "16", "--egf"],
        "1372e7dc867d358bbe0ae8d3e473d1d82e553c684068e111d710995ae097160e",
        id="series-exp_pos-egf",
    ),
    pytest.param(
        ["series", "--kernel", "exp_neg", "--order", "16"],
        "8c8828aeb8a0e45e252a042c43a8c6753efaf603533c1259160a2ba3fc192c5b",
        id="series-exp_neg",
    ),
    pytest.param(
        ["series", "--kernel", "exp_neg", "--order", "16", "--egf"],
        "b32915b69372c7c89083745ab4a631140f4065fa82173f4e45afb0295607adcd",
        id="series-exp_neg-egf",
    ),
    pytest.param(
        ["series", "--kernel", "geom_1_over_1_plus_t", "--order", "16"],
        "b32915b69372c7c89083745ab4a631140f4065fa82173f4e45afb0295607adcd",
        id="series-geom_1_over_1_plus_t",
    ),
    pytest.param(
        ["series", "--kernel", "geom_1_over_1_plus_t", "--order", "16", "--egf"],
        "d123e56e1a71cae092c73b7e2b54c07f2f3c4bd455d89a6471453b45109b27b4",
        id="series-geom_1_over_1_plus_t-egf",
    ),
    pytest.param(
        [
            "table", "--family", "bernoulli", "--method", "both", "--format", "json",
            "--n-max", "14", "--k=-2", "--alpha", "3", "--a", "1/3",
        ],
        "e0401ab07a6e48dd693035949c80e8525a345c6cd831e0ac62ff0848a344336d",
        id="table-bernoulli-k-2",
    ),
    pytest.param(
        [
            "table", "--family", "bernoulli", "--method", "both", "--format", "json",
            "--n-max", "14", "--k", "3", "--alpha", "1/2", "--a", "1",
        ],
        "39441fe2030730212f0eda8c52e1f7091d236f8ab0965c52513004db6ec369c4",
        id="table-bernoulli-k3",
    ),
    pytest.param(
        [
            "table", "--family", "cauchy1", "--method", "both", "--format", "json",
            "--n-max", "14", "--k=-2", "--alpha", "3", "--a", "1/3",
        ],
        "dd3ae7de0a62a388b7c1acf59a58538df1240e72a47b21ec2585f7e422e05f29",
        id="table-cauchy1-k-2",
    ),
    pytest.param(
        [
            "table", "--family", "cauchy1", "--method", "both", "--format", "json",
            "--n-max", "14", "--k", "3", "--alpha", "1/2", "--a", "1",
        ],
        "35e42fb66f1d53000f60fdcd99714736e5d8e0d8f351c6b0eff634b92a5bc630",
        id="table-cauchy1-k3",
    ),
    pytest.param(
        [
            "table", "--family", "cauchy2", "--method", "both", "--format", "json",
            "--n-max", "14", "--k=-2", "--alpha", "3", "--a", "1/3",
        ],
        "ac987b3ec30a77595da7678b72b3c6edcd185e864f51afdb0207e47bd54e078e",
        id="table-cauchy2-k-2",
    ),
    pytest.param(
        [
            "table", "--family", "cauchy2", "--method", "both", "--format", "json",
            "--n-max", "14", "--k", "3", "--alpha", "1/2", "--a", "1",
        ],
        "afed229fe083de80264102de68a70fdf9a0564a78ab8ab4bf1bd209d95d70ee4",
        id="table-cauchy2-k3",
    ),
]


@pytest.mark.parametrize("argv, digest", SERIES_GOLDEN)
def test_series_side_output_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
