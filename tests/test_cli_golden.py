"""Golden CLI output: the sha256 of stdout and the exit code, pinned.

Each invocation runs in text and in --json form.  The digests were taken
before the sparse-row refactor of linalg and its callers, so any change
to a printed byte, in any subcommand covered here, fails this test.
"""

import hashlib
import json
import random

import pytest

from edsx.catalog import get_structure
from edsx.cli import main
from edsx.dga import (DgaError, check_operator, strong_admissibility,
                      z_spaces)
from edsx.exterior import Subspace
from edsx.restriction import restrict_structure
from edsx.scalar import Scalar

from test_dga import CATALOG

NK = ["--operator", "nearly-kahler", "--params", "lambda=3,mu=0"]

# (argv, exit code, sha256 of the text stdout, sha256 of the --json stdout)
GOLDEN = [
    (["invariants", "--structure", "so3-9", "--degree", "4"], 0,
     "497f8740811e5a3e3ad003994f86fc64eadb8648f8a0031f8d9628c42e2a1940",
     "4a4e952a7bde4e5e8dc8ed02d850c6f8708fc75c0664d69313eb9465c902ba17"),
    (["invariants", "--structure", "g2"], 0,
     "9fa5e23e1757c54d7dd4a26ad86b8ee2627d5fb0c74b29c833a7fc69bdcaf3d7",
     "4cb444e9616dc57b3b3592e55f5fa99bf6381a5b84b221651e7c535952dc4592"),
    # odd degrees, the unit form of degree 0 and a radical basis, pinned
    # before invariants read unit columns in place of Forms
    (["invariants", "--structure", "su-odd:3", "--degree", "3"], 0,
     "bbf7aea3908e0e6da6a52fba417fadde7a8f36c534329427d81d026979588597",
     "e151669278aeccc0f35ea3c459deb3f34e43a2a65de8d79cacda33b2450d4542"),
    (["invariants", "--structure", "psu3", "--degree", "0"], 0,
     "58bed2b716abef10b9aaf649da6ea41f4f2d037a1ee23d9e6be3413667720cff",
     "922b1ac2b0b05d65dedb6b37943fa53998185c8e2979a58d81f1bfb778cb23ef"),
    (["invariants", "--structure", "psu3", "--degree", "3"], 0,
     "f1133ab44c84e519765324fef10fa8921a9fcb934bcc31acebb2bf09866e7c97",
     "667d41b19937979f9a17104faacfc11cd4271001e3b3cd706430727424fe2828"),
    # algebras of 15 and 21 basis matrices, pinned before the kernels
    # intersected only a Lie-generating subset of the basis
    (["invariants", "--structure", "su-odd:4"], 0,
     "0be9d71a019c1225f562eaea7086734de70ec2599e271b8881ed5dc192987619",
     "08271c39752dd4ae3f0fd9ffe4a5844bb22680a39df342abab6489768441491f"),
    (["invariants", "--structure", "spin7", "--degree", "4"], 0,
     "e822219056855e887a07633273b91a84c3601fc80411f85ca8e90c287750b43f",
     "5ea529888ee2d63dd0736eb99fc141183ce92186121796320c334cc4f8f5da4f"),
    (["stability", "--structure", "spin7"], 0,
     "7ca18ccbb0fc3cba473e657a5c861e0010d71e6637c888e4fe0b80bf6dccf525",
     "2396719cb0843df10fe7fbc73989240c672cc1fcfcb30db8f25d69d7d9003dc3"),
    (["dga", "--structure", "su-even:3"] + NK, 0,
     "89c5f8701215984b4f62f8c24aa76eafd5baaa28e44e91ec62e2a60d538def81",
     "81542a1cb5b68414aba9792d7349114c56bc51e06254962e693329f5714d6336"),
    (["zspaces", "--structure", "su-even:3"] + NK, 0,
     "867c9303359f14b2ba883c2a41858c7bb61d3ffc708b71c172189147fdcd94d2",
     "d5a9e5964a8eb309fc1bda91502e630e34efd51afb7d9a7da325b94e67a46400"),
    (["dga", "--structure", "so3-9", "--operator", "zero"], 0,
     "89c5f8701215984b4f62f8c24aa76eafd5baaa28e44e91ec62e2a60d538def81",
     "ccbb2deca964538cd7bf5d83e3dc7bdc53fe8ec61479fb795b622816cb6dfeaf"),
    (["zspaces", "--structure", "so3-9", "--operator", "zero"], 0,
     "e7aea2be29ee9c076b4e3a6de99f9b3a702855d59ebb9611b5f6b88399a88dc7",
     "c71ff3b35761fb6949cdfe6e4b66baf072057deb72e0f8093e555d9cc677e259"),
    (["cartan", "--structure", "psu3"], 0,
     "7cf747808a10b590792957a0d382e024ca64dc90064589f61c60950a93ffba36",
     "a767ccc09371f3e8b15c0ce603245d4dfa62e7a9c193165e26b44012fecfdb99"),
    (["cartan", "--structure", "g2", "--search"], 0,
     "67c31b71e137f7a5338d1b994e55ebeaacd545d6a820508e8a8f3decc5ee8945",
     "9510fad780b7e3f0f4bceba1921cf9ca55d015773149acef26571419d4709584"),
    (["restrict", "--structure", "su-even:3"] + NK, 0,
     "0dd8a9d01e2ed99086ab10a9cd9e28dbcd8937a91245dfa8d4b4d098fd97dfd0",
     "0f1a7d5de9756d48618e27e5d70214d44399caa3eebb519e95af68f2902b0708"),
    (["restrict", "--structure", "psu3", "--operator", "zero", "--drop", "8"],
     0,
     "0d750f167f96e0ef1a4c45376b7b8cc59c2519db331fa9a1760f0d11444afea3",
     "ca660a422e369110857a30156a51a3d48c375b03d1f8fa080acc8e69db89a10c"),
    (["decompose", "--structure", "so3-9", "--space", "t-gperp"], 0,
     "c23515223058687f6c0d9ca6c18461abaf2da7345cc836c73933ff63a12648a4",
     "a5ed152666dff4bf5dfc661d2f4950ff99769bef859ee425560208f387b122a4"),
    (["decompose", "--structure", "so3-9", "--space", "t-lambda2"], 0,
     "9227ca753bee987f07e55ccca40eb72c422359f32d8172a69a2fdebe294f65cb",
     "56f259c9ec888b1830f2c28db1e3ef4cf9e4944d6d18d90f4cf06017a16b9d08"),
    # the algebras built by the stabilizer, and the third Casimir space
    (["zspaces", "--structure", "sp2sp1", "--operator", "zero"], 0,
     "67c5c3d32286a6a64ef0347c1ae96ad78add25e3a5ccabd8424c122c80e9f8c4",
     "795a7b187915bbecd7df1e920ba724fabd68b38c655227777f290ee3fd9985e3"),
    (["dga", "--structure", "example-712", "--operator", "zero"], 0,
     "89c5f8701215984b4f62f8c24aa76eafd5baaa28e44e91ec62e2a60d538def81",
     "6e5cce1aae50302aac05bf9d04adfa68af79ff70af77419976821da46a4e12f6"),
    (["decompose", "--structure", "so3-9", "--space", "t-g"], 0,
     "a7eeb222ca46c45205ba9569ec4d35a041e7275c7cbd35252dc94381078febf0",
     "3918c16cf70ecf79b7ee7fd4683979327de4207be71479e937d470c93b589079"),
    # the fourth Casimir space, pinned before the weight and eigenvalue
    # scales were read off the Killing form in place of an operator on T
    (["decompose", "--structure", "so3-9", "--space", "quotient"], 0,
     "13246f13803ff732530d69dd1ba45231e4e13370553174a967c553e583fc7ae0",
     "4929a633ffa32e37f99cc6f35877d7ebdb6277053ddcb316e720f89be63da067"),
    # the orbit-matrix paths: mixed hyperplane verdicts, the subset
    # search, a nine-dimensional flag and a dual-form hyperplane
    (["stability", "--structure", "so3-9", "--generator", "star-gamma"], 0,
     "a56126215b8fe2b06c5565f3fd1620a8bd0a7c95cc409305ccd74bf57731f1f6",
     "589fe14ece7333704dcaa41a373f845082d4b7d42e6d4fb983f4331b1a8e1007"),
    (["cartan", "--structure", "so3-9", "--search"], 0,
     "709c951c2513ee58716d459a7e8b9ec3db0555066e7d648c53ae3ddffb494e7e",
     "0c962951643584b56540ea1635fb9616d448ec6640d2d71b0ebe4b4e2f250b44"),
    (["cartan", "--structure", "su-odd:4"], 0,
     "0ac7bab817f96f0c8e20f43e584ab11c03737ae5c08df0271b707d8671346bc3",
     "7076ff1b568badac16d49af5cfc60e6d50e8983f0bc9868e4b378b4b1c666b41"),
    (["restrict", "--structure", "psu3-dual", "--operator", "zero",
      "--drop", "3"], 0,
     "93a681926d81091a855e733561c23c7e386a581013335895511c04b30296cf55",
     "b6fcbe6645d4be61157146a24263818d6d6a958480014d81d2253d985267fa46"),
    # E-stability on the sampled non-coordinate hyperplanes
    (["stability", "--structure", "spin7", "--sampled"], 0,
     "f8a5a772cadc570a170411306a119960d215ec8fd74e779cc43203b8a767e7cd",
     "cd38c3b93aa058e8430e802e0dffd130a46b4f21e6a3f0efbce766c5a3265e61"),
    (["stability", "--structure", "psu3", "--sampled"], 0,
     "5252c3c2be47279785662d4241b29943068935fabe49b37ca057204e14cec396",
     "2dea2fd06af9791070eae7203764089aa4125237d31444a25c0ba87ee5c3b2d1"),
    # multi-term ranks on every sampled hyperplane, pinned before
    # span_rank answered full ranks from the certificate mod P
    (["stability", "--structure", "so3-9", "--generator", "star-gamma",
      "--sampled"], 0,
     "a3c425c482535e7f0d7f3129cdd8fc35f3ac8164977ea46c128f6c94ebef4dda",
     "d89fe75bdffbe89326acc9bb90aee37b7a43b6a2dfec8b0b3595dc89ac530fd9"),
    # equivariant witnesses at radical parameters, pinned before the action
    # on Hom(T, Lambda^2 T) moved from Forms to sparse coordinates
    (["dga", "--structure", "su-odd:4", "--operator", "B",
      "--params", "lambda=2,mu=r3"], 0,
     "89c5f8701215984b4f62f8c24aa76eafd5baaa28e44e91ec62e2a60d538def81",
     "2c66f55e308b4c434d48361e4b7c871599cc71cfe89157e6548f393da91c9eab"),
    (["dga", "--structure", "su-odd:3", "--operator", "D",
      "--params", "lambda=2,mu=r3"], 0,
     "89c5f8701215984b4f62f8c24aa76eafd5baaa28e44e91ec62e2a60d538def81",
     "7e086ceae3904b527c9655b94ecf1b905dbf8806ec049361d2ac4b9afb6392b5"),
    # pinned before the Hom columns shared the tensor rule of the Casimir
    # spaces
    (["dga", "--structure", "su-odd:3", "--operator", "D",
      "--params", "lambda=1,mu=r2"], 0,
     "89c5f8701215984b4f62f8c24aa76eafd5baaa28e44e91ec62e2a60d538def81",
     "ddd29aa6c794128ac42991d181245951a956bcb65dcc612529ff99be2ff1d3c1"),
    # a projection that misses hyperplane solutions, and a radical operator
    # on a hyperplane off the default flag, pinned before the projection
    # moved from gl(T) (x) T to Hom(T, Lambda^2 T) coordinates
    (["restrict", "--structure", "so3-9", "--operator", "zero"], 0,
     "34d46d0a8cb51db526f8b53bc53ffd11852b26372ac8018c800ce03861b81618",
     "dc128e6a133b726ec636a0f502ad72a0027cd42052e41510c27a1ef1473830f7"),
    (["restrict", "--structure", "su-odd:3", "--operator", "B",
      "--params", "lambda=1,mu=r2", "--drop", "2"], 0,
     "0dcac04ee50eaf2d3f17ef59daf9988b0caf76faa9a43831b334346f1359ed47",
     "af5e8fadcd49461091c4ee80bdbc9fd5d6777c495f8947c89dc461fda75d587a"),
    # a projection larger than Z'_W that still misses some of it, pinned
    # before the coverage test moved onto the stacked ambient system
    (["restrict", "--structure", "example-712", "--operator", "zero",
      "--drop", "1"], 0,
     "2137db760c2ca7d86aebe3087723390e04760cde6994026d6b1e541973ce6cba",
     "9fd38e6f7360b2589e2b7db4486183fa4d126b80433695ab6b61a7d644d22b71"),
    # the failure paths: a false ker p condition (no f_W, Z'_W empty) and
    # an operator that neither respects the relations nor extends, pinned
    # before the relation test moved into edsx.dga
    (["restrict", "--structure", "su-odd:2", "--operator", "B",
      "--params", "lambda=1,mu=1", "--drop", "5"], 0,
     "f87fb5e9da4c316221dca19545d3faa3c20ffb9bd5fc88b01ef2df94d0cfc765",
     "5eb195fea4a07b8ba428e7b785a1b94751167735e6d531f5979f32b522100efa"),
    (["dga", "--structure", "so3-9", "--operator", "gamma-dual",
      "--params", "lambda=1"], 1,
     "6affbeb507c8cf6c7879649c99665243f3283b1bb21fac07522cc6db382fe984",
     "3ba381bc4d41366f2abde9bbbbc36bf8e872223283ea4b336b5bbf0fb2856fe0"),
]


# sha256 of the to_json() of every catalog hyperplane restriction, 158 in
# all: each structure of CATALOG, each operator at RESTRICTION_PARAMS, each
# dropped coordinate; taken while the subspace system was still built
# apart from the structure's extension matrix
RESTRICTION_PARAMS = {"lambda": 1, "mu": "r2"}
RESTRICTIONS_SHA = \
    "c6da0c30c28dd041c3662ad18c9496a5a2263af31542a318f31b6710cbb91e24"


# sha256 of the to_json() of 462 check_operator calls: each operator of
# each structure of CATALOG at every assignment of OPERATOR_GRID to its
# parameters, then at seeded mixes of OPERATOR_GRID and OPERATOR_MIXES;
# taken while the square-zero verdict still summed the Leibniz values of
# every word, extension or not
OPERATOR_GRID = ("0", "1", "-1", "1/2", "r2", "1 + r3")
OPERATOR_MIXES = ("2", "-3", "3/2", "-2/5", "r3", "-r2", "2*r6", "1 - r2",
                  "r2 + r3")
OPERATOR_CHECKS_SHA = \
    "ccc82d99765a3b8d8e0481235e8d0546db13594da61c4d64b53360e78036f24d"


# decompose on every structure of CATALOG, every --space, text and --json:
# the exit code of each structure, and the sha256 of every (structure,
# space, json, exit code, stdout) in order; taken while the Casimir and
# weight scales were still calibrated on an operator built on T
DECOMPOSE_SPACES = ("t-gperp", "quotient", "t-lambda2", "t-g")
DECOMPOSE_CODES = {"so3-9": 0}
DECOMPOSE_SWEEP_SHA = \
    "f61757ac09486b3844c1ed6e4bbf2ba365618dda5d163ed9d2ed3c867bce0e42"


# sha256 of the to_json() of z_spaces on each operator of each structure
# of CATALOG and of psu3 and psu3-dual as printed, at every assignment of
# OPERATOR_GRID to its parameters, and of each structure's
# strong_admissibility verdict and report, or its DgaError; taken while
# dim Z'' still summed m G over every row of the extension matrix m
Z_SPACES_SHA = \
    "f79788184501345ec0bdc454e86f6d4349ac9d382cfff7e34d6650321f477ef7"


@pytest.mark.parametrize("argv,code,text_sha,json_sha", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_cli_output_is_pinned(capsys, argv, code, text_sha, json_sha):
    for extra, want in (([], text_sha), (["--json"], json_sha)):
        got = main(argv + extra)
        out = capsys.readouterr().out
        assert (got, hashlib.sha256(out.encode()).hexdigest()) \
            == (code, want), argv + extra


def test_every_catalog_hyperplane_restriction_is_pinned():
    reports = []
    for name in CATALOG:
        s = get_structure(name)
        for op, spec in s.operators.items():
            params = {p: RESTRICTION_PARAMS[p] for p in spec.params}
            for drop in range(1, s.n + 1):
                rep = restrict_structure(s, op, params,
                                         Subspace.hyperplane(s.n, drop))
                reports.append([name, op, drop, rep.to_json()])
    assert len(reports) == 158
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RESTRICTIONS_SHA


def test_every_catalog_operator_check_is_pinned():
    rng = random.Random(38)
    checks = []
    for name in CATALOG:
        s = get_structure(name)
        for op, spec in s.operators.items():
            k = len(spec.params)
            grid = [()]
            for _ in range(k):
                grid = [g + (v,) for g in grid for v in OPERATOR_GRID]
            grid += [tuple(rng.choice(OPERATOR_MIXES + OPERATOR_GRID)
                           for _ in range(k))
                     for _ in range(19 if k == 2 else 3 * k)]
            for vals in grid:
                chk = check_operator(s, op, {p: Scalar.parse(v) for p, v
                                             in zip(spec.params, vals)})
                checks.append([name, op, dict(zip(spec.params, vals)),
                               chk.to_json()])
    assert len(checks) == 462
    text = json.dumps(checks, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == OPERATOR_CHECKS_SHA


def test_every_catalog_z_space_and_admissibility_is_pinned():
    runs = []
    for name, printed in ([(n, False) for n in CATALOG]
                          + [("psu3", True), ("psu3-dual", True)]):
        s = get_structure(name, as_printed=printed)
        for op, spec in s.operators.items():
            grid = [()]
            for _ in spec.params:
                grid = [g + (v,) for g in grid for v in OPERATOR_GRID]
            for vals in grid:
                z = z_spaces(s, op, {p: Scalar.parse(v) for p, v
                                     in zip(spec.params, vals)})
                runs.append([name, printed, op, list(vals), z.to_json()])
        try:
            verdict = list(strong_admissibility(s))
        except DgaError as e:
            verdict = ["DgaError", str(e)]
        runs.append([name, printed, "strong_admissibility", verdict])
    assert len(runs) == 324
    text = json.dumps(runs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == Z_SPACES_SHA


def test_decompose_sweeps_the_catalog_within_the_cli_contract(capsys):
    # exit 2 is a usage error: nothing on stdout, one edsx: line on stderr
    runs = []
    for name in CATALOG:
        for space in DECOMPOSE_SPACES:
            for extra in ([], ["--json"]):
                code = main(["decompose", "--structure", name,
                             "--space", space] + extra)
                out, err = capsys.readouterr()
                assert code == DECOMPOSE_CODES.get(name, 2), (name, space)
                if code == 2:
                    assert out == "" and "Traceback" not in err
                    assert err.startswith("edsx: ")
                    assert err.count("\n") == 1 and err.endswith("\n")
                else:
                    assert err == ""
                runs.append([name, space, bool(extra), code, out])
    assert len(runs) == 104
    text = json.dumps(runs)
    assert hashlib.sha256(text.encode()).hexdigest() == DECOMPOSE_SWEEP_SHA
