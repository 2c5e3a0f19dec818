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
        1,
        id="audit-all-json",
    ),
    pytest.param(
        ["congruence-scan", "--format", "csv"],
        "f59cd3845dcb09a99a55612a2b5db8762aa65a95593aa3cce86f3a01b8f8ff2a",
        1,
        id="congruence-scan-csv",
    ),
    pytest.param(
        ["audit", "--identity", "all", "--format", "json", "--n-max", "16"],
        "4fabae51d7ca1673c5e7bcfc0a932b53400ca537bf150639eb16c7d292033291",
        1,
        id="audit-all-json-n16",
    ),
    # the audit_deep and congruence_scan benchmark workloads at seed 0
    pytest.param(
        [
            "audit", "--identity", "all", "--format", "json", "--n-max", "24",
            "--pair", "1,1", "--pair", "1/2,1", "--pair", "3,1/3", "--k-values=-2,1,3",
        ],
        "5de0cca1fe0c2ea176121155de5a11ae5ad8b0118ac8fe17449227248141a0d8",
        1,
        id="audit-deep-json",
    ),
    pytest.param(
        [
            "congruence-scan", "--format", "csv",
            "--multipliers", "1,2,3,4,5,6", "--primes", "3,5,7,11,13",
        ],
        "c23d6166769adf34bf1c399f4b11dbea30ed49035717a82b40f45a9789550b31",
        1,
        id="congruence-scan-csv-deep",
    ),
    # the boundaries of the one series composition per family and point:
    # alpha*m + a vanishes at m = n_max + 1 = 7, then at m = n_max = 6
    pytest.param(
        [
            "audit", "--identity", "all", "--format", "json", "--pair", "1,-7",
            "--k-values", "1", "--n-max", "6",
        ],
        "b5e38f009b97bd1a73448e8a80b28a3dc236e010f654418271ada01a4cc2103d",
        1,
        id="audit-all-json-singular-past-n-max",
    ),
    pytest.param(
        [
            "audit", "--identity", "all", "--format", "json", "--pair", "1,-6",
            "--pair", "1/2,-3", "--k-values=-1,2", "--n-max", "6",
        ],
        "21fee1249849d4db581b7186ad0cf50c3dab05e7ba8d8a55b21c2bed398f3dec",
        1,
        id="audit-all-json-singular-at-n-max",
    ),
    # the default text format: the report renderer and its aligned tables
    pytest.param(
        ["audit", "--identity", "all"],
        "b08a7613087931145c6efd710c3261011ce17d19795c61c0524c864ed2388202",
        1,
        id="audit-all-text",
    ),
    pytest.param(
        ["congruence-scan"],
        "5ea599a5a923b4a07930f0d637d5abe77eaec05fb6d4c2c2c9f869943cec0151",
        1,
        id="congruence-scan-text",
    ),
    # every THM8 row kind (HOLDS, FAILS, NONREDUCIBLE_DENOMINATOR,
    # P_DIVIDES_ALPHA at 3,1 and SINGULAR_PARAMETER at 1,-7), multipliers in
    # descending order, so the weight prefix is sized before the first row
    # reads it; at 1/3,1 and p = 3 the hypothesis note names m = 1, since
    # alpha*0 + a is 3/3 before reduction and the unit 1 after it
    pytest.param(
        [
            "congruence-scan", "--format", "csv", "--pair", "1/3,1", "--pair", "1,-7",
            "--pair", "3,1", "--pair=-1/2,5/3", "--primes", "3,5,7",
            "--multipliers", "4,1,2", "--k-values", "2,1",
        ],
        "eb4ca281fafe13ddae59af7ebc8bb8a977819a7d7428684b706603682423a862",
        1,
        id="congruence-scan-csv-row-kinds",
    ),
    # grids listed out of order: rows still come in canonical point order.
    # Every label has rows; 1,-4 gives SINGULAR_PARAMETER tails and THM8
    # SINGULAR_PARAMETER rows
    pytest.param(
        [
            "audit", "--identity", "all", "--format", "json", "--n-max", "6",
            "--pair", "3,1/3", "--pair", "1,1", "--pair", "1/2,1", "--pair", "1,-4",
            "--k-values=3,-2,1", "--primes", "7,3", "--multipliers", "2,1",
        ],
        "b97fa99bbc554e559d548b04eefcaa704f9d77e264aa44fcf576059822cba131",
        1,
        id="audit-all-json-out-of-order",
    ),
    # primes descending and multipliers unsorted
    pytest.param(
        [
            "congruence-scan", "--format", "csv", "--pair", "3,1/3", "--pair", "1/2,1",
            "--pair", "1,1", "--k-values", "3,1", "--primes", "13,5,3", "--multipliers", "3,1,2",
        ],
        "1ed945007471a5e0915497c0ae79d6d215ecfb135654f3e6bc3949f5c784c92c",
        1,
        id="congruence-scan-csv-out-of-order",
    ),
    # k values past CPython's cache of small ints: the writers reuse a
    # field's text only for the very same object, so here a k's text is
    # reused only because the rows of a point hold its one k object
    pytest.param(
        [
            "audit", "--identity", "all", "--format", "text", "--n-max", "4",
            "--pair", "1,1", "--pair", "1/2,3/2", "--k-values=-257,300",
            "--primes", "3", "--multipliers", "1",
        ],
        "f270a4abd7cee5223a9953892462a36726c57b2bb85a898b1d3baa0962c3add0",
        1,
        id="audit-all-text-large-k",
    ),
    pytest.param(
        [
            "audit", "--identity", "all", "--format", "json", "--n-max", "4",
            "--pair", "1,1", "--pair", "1/2,3/2", "--k-values=-257,300",
            "--primes", "3", "--multipliers", "1",
        ],
        "6d073447e639a67ef3717b613a1ea3d25a4a44668e2920961f85ad728f7e4ce9",
        1,
        id="audit-all-json-large-k",
    ),
    # alpha*m + a vanishes at m = 0, so every value row is SINGULAR_PARAMETER
    # and the JSON writer renders each of their null sides and reasons; THM8
    # adds string notes and false flags, STIRLING_ORTHO Fraction sides
    pytest.param(
        [
            "audit", "--identity", "all", "--format", "json", "--pair", "1,0",
            "--k-values", "1", "--n-max", "2",
        ],
        "c963c3ddd354bbb5708b86ff26ccd84fca5440fab8ae796c2da202fd6a05e7b9",
        2,
        id="audit-all-json-singular-at-zero",
    ),
]


# A grid with FAILS rows (EQ10-EQ12, THM9-THM11) exits 1, one with only
# HOLDS and UNDEFINED rows 2.
@pytest.mark.parametrize("argv, digest, code", GOLDEN)
def test_canonical_output_digest(capsys, argv, digest, code):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# One process, several commands: the triangle products and collapse rows live
# as long as the process, so a variant prefactor's store and STIRLING_ORTHO's
# stores grown past the default 20 rows must leave the default audit's bytes
# as a fresh process writes them.
WARM = [
    (["audit", "--identity", "eq11", "--variant-prefactor", "m+n,-1"], 0),
    (["audit", "--identity", "stirling-ortho", "--stirling-n-max", "60"], 0),
]


def test_a_warm_process_writes_the_canonical_audit(capsys):
    argv, digest, code = GOLDEN[0].values
    outputs = []
    for command, expected in [(argv, code), *WARM, (argv, code)]:
        assert main(command) == expected
        outputs.append(capsys.readouterr().out)
    assert outputs[-1] == outputs[0]
    assert hashlib.sha256(outputs[0].encode("utf-8")).hexdigest() == digest


# The series side of the CLI: every kernel to order 16, plain and EGF, and
# both table methods (Stirling sum and generating function) for each family
# at a negative and a positive k, the oracle alone for each family at a
# negative alpha, then the default CSV format of a family table and of a
# Stirling triangle. These all exit 0.
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
    # the series oracle alone at a negative alpha: alpha*m + a = (14 - 3m)/6
    # changes sign at m = 5, and the denominators 2 and 3 are coprime
    pytest.param(
        [
            "table", "--family", "bernoulli", "--method", "oracle", "--format", "json",
            "--n-max", "24", "--k", "3", "--alpha=-1/2", "--a", "7/3",
        ],
        "efc29c958d1e7de98e36ddc499c8caa353d52b31eb742075d0a0ca493358f57b",
        id="table-bernoulli-oracle-negative-alpha",
    ),
    pytest.param(
        [
            "table", "--family", "cauchy1", "--method", "oracle", "--format", "json",
            "--n-max", "24", "--k", "3", "--alpha=-1/2", "--a", "7/3",
        ],
        "e218a352b1bcbdff6098fe4f37b3e2285c24ff2f507e92dafa83328937004878",
        id="table-cauchy1-oracle-negative-alpha",
    ),
    pytest.param(
        [
            "table", "--family", "cauchy2", "--method", "oracle", "--format", "json",
            "--n-max", "24", "--k", "3", "--alpha=-1/2", "--a", "7/3",
        ],
        "aadcf98880658c12e82422b2debd3c31f9ae15ec588678f277e94dc33fda5e3d",
        id="table-cauchy2-oracle-negative-alpha",
    ),
    pytest.param(
        ["table", "--family", "cauchy1", "--k", "2", "--alpha", "1/2", "--n-max", "12",
         "--method", "both"],
        "e15969ad82db488d54303c19361ab7a99f0857598a76f4036dc4b317c12cb041",
        id="table-cauchy1-csv",
    ),
    pytest.param(
        ["table", "--stirling", "1", "--max-n", "12"],
        "a4d98623260075b78b0f3840b377db4af9f4c2550528604e766975aa49789f2e",
        id="table-stirling1-csv",
    ),
]


@pytest.mark.parametrize("argv, digest", SERIES_GOLDEN)
def test_series_side_output_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
