"""Golden corpus of `tln` invocations: exit code and stdout digest.

Each case runs `cli.main` on one argument list and compares its exit code
and the sha256 of what it wrote to stdout with recorded values; the error
cases also pin their stderr line.  `{a}`, `{b}`, `{ocert}` and `{xcert}` in
an argument are replaced by the paths of two tangle files and two
certificate files in a per-module temporary directory; stdout never shows
those paths.  Regenerate a digest only when an output format change is
intended.
"""

import contextlib
import hashlib
import io

import pytest

from tlmonoid import cli

ALPHA = "n=9; blocks=(1,-3)(2,7)(3,4)(5,6)(8,-6)(9,-9)(-8,-7)(-5,-4)(-2,-1)"
BETA = "n=9; blocks=(1,2)(3,4)(5,6)(7,-7)(8,9)(-2,-1)(-5,-4)(-6,-3)(-9,-8)"
EMPTY = hashlib.sha256(b"").hexdigest()

# (id, argv, exit code, sha256 of stdout, exact stderr or None to skip it)
CASES = [
    ("eval-text", ["eval", "--n", "5", "E4 E4"], 0,
     "d9072e56a43d555c4b3d64a31338450fd2988b05e9a4819a1a4755889e57bbbf", ""),
    ("eval-doc", ["eval", "--n", "5", "E4 E4", "--format", "doc"], 0,
     "f3e532bc1d89637f8cd00fa8b13e7544ba6d91fbe9b2770a992438d413fcfaa1", ""),
    ("eval-lr-text", ["eval", "--n", "7", "L2 R3 L1 R6"], 0,
     "d05143cafee67d1f5c85bb4db10b8f88b481cbb9f7ef676e7b742a40890eab76", ""),
    ("nf-lr-text", ["nf", "--n", "9", "L5 L3 L2 R1 R4 R7"], 0,
     "d674f17be4482ba64cbc75af637af3786fa9a3989090c969420957e11f0d9072", ""),
    ("nf-lr-doc", ["nf", "--n", "9", "L5 L3 L2 R1 R4 R7", "--format", "doc"],
     0, "d8db09ab07ed2937730388dc2c59931eca2e9475937dccc823a705ef742fc92b",
     ""),
    ("nf-e-text", ["nf", "--n", "5", "E1 E2 E1"], 0,
     "756b5e561cfc9e7012dac789eb7ba5747fe269a60efb35cbacd06eeaed7afd35", ""),
    ("nf-e-doc", ["nf", "--n", "5", "E1 E2 E1", "--format", "doc"], 0,
     "23ae0fee3a55ba43f70b2f0c088347090de07362794b57d8840e9a855ce28297", ""),
    ("nf-empty-text", ["nf", "--n", "4", "1"], 0,
     "ef56aa3f674215d021f83d877ccb51c32110f7f076823250ebc27cd40558c22c", ""),
    ("eq-equal-text", ["eq", "--n", "5", "E1 E2 E1", "E1"], 0,
     "1907d592edca123512edf021ad7230b31ee3b68b2e38b78b07acd5e85256a3d6", ""),
    ("eq-equal-doc", ["eq", "--n", "5", "L1 L4", "L1", "--format", "doc"], 0,
     "80e03e83bc5f9d59a97758aed0a5de6075f7092d3a6887432bd33380ccbc07bd", ""),
    ("eq-not-equal-text", ["eq", "--n", "5", "E1", "E2"], 1,
     "eea4415bf591df0b080e6604b890cc61f122c6da53719f8660437927d1c03e56", ""),
    ("eq-not-equal-doc", ["eq", "--n", "5", "E1", "E2", "--format", "doc"], 1,
     "7d4846d24dbb94d176ca26e830e016a13ac94d47c2d744297ced43d7731b7ac8", ""),
    ("mul-text", ["mul", "{a}", "{b}"], 0,
     "596e0dffa8118ebd190103b2dc23078c1c6a16b1b933d600d963e2e26d1937c0", ""),
    ("mul-doc", ["mul", "{a}", "{b}", "--format", "doc"], 0,
     "b64c263eee18b928e67ea91e9750027f5f4d4419c3f2bc4de9e2b03d2e9c6695", ""),
    ("dagger-text", ["dagger", "{a}"], 0,
     "8fc4f8460796b3e33a59e7c84be1cb2f2a79df86e13406f09c9f65e6509659cf", ""),
    ("dagger-doc", ["dagger", "{a}", "--format", "doc"], 0,
     "bb2432f98eba1e7aed3b195f181989ef08bc83e44135859e23ba0a228c7a6ba4", ""),
    ("factorize-text", ["factorize", "{a}"], 0,
     "d674f17be4482ba64cbc75af637af3786fa9a3989090c969420957e11f0d9072", ""),
    ("factorize-doc", ["factorize", "{b}", "--format", "doc"], 0,
     "00f058b52bf55d6e3c0c27313ef82832bf910b33e73358d80e155571bfc69788", ""),
    ("build-text", ["build", "--n", "9", "(5,3,2)", "(7,4,1)"], 0,
     "f596c7692abf6a22195a6616e1e164479aa356842b29fe59eb8474390acf75aa", ""),
    ("build-doc", ["build", "--n", "9", "(5,3,2)", "(7,4,1)", "--format",
     "doc"], 0,
     "46a7fe2c865ef905dbddac4844fa6fd708c36784dec99a5322e8dde30b834dba", ""),
    ("build-empty-text", ["build", "--n", "6", "()", "()"], 0,
     "930d37db76da68afc323d030772979ab5416f71ed6963f7b72b8c1cbc4cd8e10", ""),
    ("enumerate-text", ["enumerate", "4"], 0,
     "efacc7d66af24fa7feb378077d5f8f12424d9a446e6bc769755d8a154b472f69", ""),
    ("enumerate-doc", ["enumerate", "4", "--format", "doc"], 0,
     "0db983395697e562ff33f842a3dec9a1f2dcf94781cb771d002d737703ad41a5", ""),
    ("enumerate-6-text", ["enumerate", "6"], 0,
     "a0baacbb4c971c762425956c3ec014b74a5581270b29bd3bd69121d4d0da43e7", ""),
    ("verify-text", ["verify", "4"], 0,
     "59ff162fa6c738c520b26a6e814c4e5f4f7738cba68396bc688b4bcf984ca5e5", ""),
    ("verify-doc", ["verify", "4", "--format", "doc"], 0,
     "39c241ba79782a86789ea1e635f423a2f6145934d28347d6e87e34afc64878cb", ""),
    ("verify-fuzz-text", ["verify", "4", "--fuzz", "30", "--seed", "11"], 0,
     "9c19b4a1ed1a89eaca8a4b329201eef1a973fa624fd5f121f977ed05a976da92", ""),
    ("verify-fuzz-doc", ["verify", "4", "--fuzz", "30", "--seed", "11",
     "--format", "doc"], 0,
     "b7119fbd238434df01a4b177839495eff39a33e938dc21f8973337546f8b8800", ""),
    ("verify-fuzz-max-len-text", ["verify", "3", "--fuzz", "5", "--max-len",
     "8", "--seed", "2"], 0,
     "d5f97c74f3be754270555f5a07f4176cfb2014b8bad480f8fd74c43670fd4faf", ""),
    ("alg-2-text", ["alg", "--n", "5", "E4 E4", "--delta", "2"], 0,
     "b6a4648ce629043342a6df74b744f2e71a2ac06e6d81acb7eda16469ad89b047", ""),
    ("alg-2-doc", ["alg", "--n", "5", "E4 E4", "--delta", "2", "--format",
     "doc"], 0,
     "815665f8d57a8b91b6b162950406d42fbdde78b33fc31f3922b7333feb08e9db", ""),
    ("alg-third-text", ["alg", "--n", "6", "E1 E2 E1 E1", "--delta", "1/3"], 0,
     "3eb8dfb0b349b5690e80806797f511b493e9125d5ce2a3d994deab1f15e3cc7b", ""),
    ("alg-third-doc", ["alg", "--n", "6", "E1 E2 E1 E1", "--delta", "1/3",
     "--format", "doc"], 0,
     "eb54881a85bded3131939651335489cee724af80fde799ea636602b7d5c5ef5e", ""),
    ("render-text", ["render", ALPHA], 0,
     "717a202572dddee795669ed60321ff351577a1aba1e4b701802ff420b01f0dc0", ""),
    ("render-file", ["render", "{b}"], 0,
     "33a1129d1da1671263b15e5f0f03712b13ecaf98fdf68f0cea6c9d2ee6fdef7a", ""),
    ("render-identity", ["render", "n=4; blocks=(1,-1)(2,-2)(3,-3)(4,-4)"], 0,
     "7743c62050e2ee9e426f2e3ac539c3227e33404040c64ee660bbd1625d75a982", ""),
    # error paths
    ("bad-word-token", ["nf", "--n", "5", "L1 bogus"], 2, EMPTY,
     "error: bad word token 'bogus'\n"),
    ("bad-word-index", ["eq", "--n", "5", "E1", "L9", "--format", "doc"], 2,
     EMPTY, "error: letter L9 has index outside [1, 4]\n"),
    ("bad-tuple-token", ["build", "--n", "5", "5,3", "()"], 2, EMPTY,
     "error: bad tuple token '5,3'; expected like (5,3,2) or ()\n"),
    ("bad-tuple-entry", ["build", "--n", "5", "(1,,2)", "()"], 2, EMPTY,
     "error: bad tuple token '(1,,2)'; expected like (5,3,2) or ()\n"),
    ("alg-not-pure-e", ["alg", "--n", "5", "L1", "--delta", "2"], 2, EMPTY,
     "error: alg_eval_word takes a pure E word\n"),
    ("alg-delta-exponent", ["alg", "--n", "5", "E4 E4", "--delta", "1e400"], 2,
     EMPTY, None),
    ("verify-degree-too-small", ["verify", "2"], 2, EMPTY,
     "error: presentations need n >= 3, got 2\n"),
    ("verify-degree-too-large", ["verify", "11", "--format", "doc"], 2, EMPTY,
     "error: degree must be at most 10, got 11\n"),
    ("render-crossing", ["render", "n=3; blocks=(1,-2)(2,-1)(3,-3)"], 2, EMPTY,
     "error: blocks (1, -2) and (2, -1) cross\n"),
    ("nf-missing-n", ["nf", "L1"], 2, EMPTY, None),
    ("build-missing-n", ["build", "(1)", "(1)"], 2, EMPTY, None),
]

# `nf --cert` then `check-cert`, in order: (argv, exit code, stdout digest,
# stderr, digest of the certificate file named by `cert` or None)
CERT_RUNS = [
    (["nf", "--n", "5", "R2 L2", "--cert", "{ocert}"], 0,
     "103185f23ef87dbb7ba4229874ac1f80ecf164e4c282cd64d000c27f15a36424", "",
     ("ocert",
      "4853c9198413c9ac24441607ae9cf158c29e4f24d2847934daf1a926273993b1")),
    (["check-cert", "{ocert}", "--n", "5", "R2 L2"], 0,
     "a6107f93bff32137f4d5004a6c1d184b691b85706e83fdbab2428d230ee00a5e", "",
     None),
    (["check-cert", "{ocert}", "--n", "5", "--family", "Xi", "R2 L2"], 3,
     EMPTY,
     "certificate rejected: step 0 uses RL2(2,2), not a Xi relation at n=5\n",
     None),
    (["nf", "--n", "5", "E1 E2 E1", "--cert", "{xcert}", "--format", "doc"], 0,
     "23ae0fee3a55ba43f70b2f0c088347090de07362794b57d8840e9a855ce28297", "",
     ("xcert",
      "2a25493d8704f460816a0e732fa625a38920ce4e0205a72a2d655a74254e7235")),
    (["check-cert", "{xcert}", "--n", "5", "--family", "Xi", "E1 E2 E1"], 0,
     "472b6d72b85706b04c8048ab6bd190655f38c0f48ed45d75c309dd75789b388d", "",
     None),
]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_golden")
    (d / "a.tl").write_text(ALPHA + "\n")
    (d / "b.tl").write_text(BETA + "\n")
    return {"a": str(d / "a.tl"), "b": str(d / "b.tl"),
            "ocert": str(d / "o.cert"), "xcert": str(d / "x.cert")}


def run(argv, paths):
    """(exit code, sha256 of stdout, stderr) of one `tln` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([a.format(**paths) for a in argv])
        except SystemExit as exc:       # argparse rejected the arguments
            code = exc.code
    return (code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            err.getvalue())


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("argv, code, digest, stderr",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_cli_output_is_unchanged(argv, code, digest, stderr, paths):
    got_code, got_digest, got_err = run(argv, paths)
    assert (got_code, got_digest) == (code, digest)
    if stderr is not None:
        assert got_err == stderr


def test_cert_round_trip_is_unchanged(paths):
    for argv, code, digest, stderr, cert in CERT_RUNS:
        assert run(argv, paths) == (code, digest, stderr), argv
        if cert:
            key, file_digest = cert
            assert _file_digest(paths[key]) == file_digest, argv
