"""Command-line interface tests: output bytes, schemas, and exit codes.

Everything runs in-process through main(argv).  JSON outputs asserted as
exact frozen bytes were produced by this CLI and cross-checked against the
library examples elsewhere in the suite; they pin byte stability.
"""

import contextlib
import fractions
import hashlib
import io
import json
import math
import numbers
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from hypercone import crosssec, resonances
from hypercone.cli import main
from hypercone.crosssec import circle_spectrum, load_spectrum, sphere_spectrum
from hypercone.resonances import _scan, enumerate_resonances


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse paths
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def run_fresh(*argv):
    # the same command in a new interpreter, for comparison with run()
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from hypercone.cli import main; sys.exit(main())",
         *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def assert_error(rc, err, code, reason):
    assert rc == code
    assert err.startswith(f"error:{reason}:")
    assert err.count("\n") == 1 and err.endswith("\n")


# the refusal of a generated spectrum's modes where they are built
_MODE_OVERFLOW = ("circle modes for rho = '1e-200': mu_j^2 = j^2/rho^2 "
                  "overflows a double at j = 1")

SPECTRUM_CIRCLE_1_JSON = """\
{
  "modes": [
    {
      "m": 1,
      "mu_sq": 0,
      "mu_sq_exact": "0/1"
    },
    {
      "m": 2,
      "mu_sq": 1,
      "mu_sq_exact": "1/1"
    },
    {
      "m": 2,
      "mu_sq": 4,
      "mu_sq_exact": "4/1"
    }
  ],
  "n": 1,
  "volume": 6.2831853071795862
}
"""

SPECTRUM_CIRCLE_1_CSV = (
    "n,1\r\nvolume,6.2831853071795862\r\n"
    "mu_sq,mu_sq_exact,multiplicity\r\n"
    "0,0/1,1\r\n1,1/1,2\r\n4,4/1,2\r\n"
)

RESONANCES_THIRD_CIRCLE_CSV = (
    "truncation,3,5,4\r\n"
    "im_lambda,multiplicity,contributors,exact\r\n"
    '-0.5,1,"(0,0)",true\r\n'
    '-1.5,1,"(0,1)",true\r\n'
    '-2.5,1,"(0,2)",true\r\n'
    '-3.5,3,"(0,3);(1,0)",true\r\n'
)


def _exact(num, den, m):
    return {"mu_sq": num / den, "mu_sq_exact": f"{num}/{den}", "m": m}


# Listings that exercise the lattice merge.  "denoms" has rational s = mu of
# several denominators (0, 1/3, 4/3, 1/6, 7/6, 1/4, 9/4, 5/12, 2, 7/3) and
# the excluded s = 1/2, 3/2, so positions coincide across modes; "surd" mixes
# irrational and rational s; "float" has positions within the 1e-9
# clustering tolerance of each other; "mixed" (n = 3) lets float positions
# fall on exact ones.  The last mode of each lies past every bound asked.
GOLDEN_SPECTRA = {
    "denoms": {"n": 1, "volume": 6.0, "modes": [
        _exact(a * a, b * b, m) for a, b, m in [
            (0, 1, 1), (1, 3, 2), (4, 3, 1), (1, 6, 2), (7, 6, 3), (1, 4, 1),
            (9, 4, 2), (5, 12, 1), (2, 1, 2), (1, 2, 4), (3, 2, 1), (7, 3, 1),
            (20, 1, 1)]]},
    "surd": {"n": 1, "volume": 5.0, "modes": [
        _exact(2, 1, 2), _exact(3, 1, 1), _exact(13, 4, 2), _exact(5, 1, 1),
        _exact(1, 9, 1), _exact(8, 1, 3), _exact(1, 4, 1), _exact(0, 1, 1),
        _exact(401, 1, 1)]},
    "float": {"n": 1, "volume": 6.0, "modes": [
        {"mu_sq": mu * mu, "m": m} for mu, m in [
            (1.3, 1), (1.3 + 5e-10, 2), (0.7, 1), (2.0 ** 0.5, 2), (2.0, 1),
            (4.0, 2), (2.3, 1), (20.0, 1)]]},
    "mixed": {"n": 3, "volume": 10.0, "modes": [
        _exact(0, 1, 1), _exact(3, 1, 2), _exact(1, 1, 1),
        {"mu_sq": 1.0000000000000002, "m": 1}, {"mu_sq": 2.5, "m": 2},
        {"mu_sq": 8.0, "m": 1}, _exact(5, 4, 1), _exact(399, 1, 1)]},
    # unsorted, with duplicate mu_sq entries that load_spectrum merges
    "dups": {"n": 2, "volume": 3.0, "modes": [
        {"mu_sq": 6.0, "mu_sq_exact": "6", "m": 2}, {"mu_sq": 0.5, "m": 1},
        {"mu_sq": 6.0, "mu_sq_exact": "6/1", "m": 3}, {"mu_sq": 0.5, "m": 2},
        {"mu_sq": 0, "mu_sq_exact": "0", "m": 1}]},
}

# sha256 of stdout, pinned before positions were keyed by integers
GOLDEN_DIGESTS = [
    (("resonances", "--circle", "2/3", "--lambda-max", "35"),
     "895689de57ed9da1231e290f93171be2fc808ecf33041d19d446e00542b00486"),
    (("resonances", "--circle", "2/3", "--lambda-max", "35",
      "--format", "csv"),
     "16122cc5d680d59b893268a9089a123d1515bf578adb74adbe83ae3602eb6023"),
    (("resonances", "--sphere", "3", "--lambda-max", "30"),
     "91c98a76bf4600c432dba90b6d4ab1d78c0a20436a7b649bdc9ed08e59cf38b4"),
    (("resonances", "--sphere", "3", "--lambda-max", "30",
      "--format", "csv"),
     "2766825657bfa39a1649c1ff1d698ee8f354173fcdf7f14f25f1a68af9224292"),
    (("resonances", "--file", "denoms", "--lambda-max", "12"),
     "529062dc2e3348f6f97474d1ae5c5866379c8fd6a406e7fd5c8b3f4eed45a878"),
    (("resonances", "--file", "denoms", "--lambda-max", "12",
      "--format", "csv"),
     "84f41655b28513cc86812b32cb58139af7b921bd2fd4dc62ea84c3d4de3b3486"),
    (("resonances", "--file", "surd", "--lambda-max", "12"),
     "224b086c052d75fc7aff609e3666eed44e218da9d428a0267f4795bca354c4a9"),
    (("resonances", "--file", "surd", "--lambda-max", "12",
      "--format", "csv"),
     "e9c9f66629c52c4d222c3dd884abdca48fd13ff6872d3b726e20343b22fc6728"),
    (("resonances", "--file", "float", "--lambda-max", "12"),
     "a5353fc6a5411eef89cbd51075744c17c224ea1f955516040e929c389ef5c8f3"),
    (("resonances", "--file", "float", "--lambda-max", "12",
      "--format", "csv"),
     "fa31aadfb02fcf134ccdfff956f9eb0aa4973bab790228ea0a853233d41a9b64"),
    (("resonances", "--file", "mixed", "--lambda-max", "12"),
     "e4de61719b0736fd4348922b483094cb1c04fcb940233328ce2dd170d8664668"),
    (("resonances", "--file", "mixed", "--lambda-max", "12",
      "--format", "csv"),
     "59d5fd92493fb2d473f25baf5b28ca373d96c2d02f393d7dbad22eb0a8b97e85"),
    # pinned before listing rows were written from a row template: an
    # empty listing with the non-generic note
    (("resonances", "--sphere", "2", "--lambda-max", "3"),
     "e40afef4d78a7ed87a772ea52d890ba965b09d205b250b5447e4a97296e1a8ef"),
    (("resonances", "--sphere", "2", "--lambda-max", "3", "--format", "csv"),
     "7ad5030413935176e1b8c81cc056997de9ef1ba9cac142a22646dc07b26045f0"),
    (("weyl", "--circle", "2/3", "--lambda-grid", "5,20,40"),
     "23f448eec17506400a2b045a49da47067bac376e3bb99f4ac32a77abdb9c4cf3"),
    (("weyl", "--sphere", "3", "--lambda-grid", "3,10,30",
      "--format", "csv"),
     "cb1b3ab96433abc72ca679cbad03e51862829b36cd808acbf54b1529ee40865f"),
    (("weyl", "--file", "denoms", "--lambda-grid", "0.9,4.5,11"),
     "9b6dcfa80f52550a65bb19b1dd2d2b61e5d6c0b1d8384a060b0ca23295e0ecc6"),
    (("weyl", "--file", "surd", "--lambda-grid", "1.5,4,11",
      "--format", "csv"),
     "2291821a7df86ae2cd0381171a292cfcb299028ab95cf471ac82bba74206074f"),
    (("weyl", "--file", "float", "--lambda-grid", "1.8000000002500001,3,11"),
     "1e575b148e5ed3b35ff8543742a7a190b9958703eb5fcff55d638e713fccc2b0"),
    (("weyl", "--file", "mixed", "--lambda-grid", "2,5,11"),
     "ec0cf55ef2690e7847127f06cc9771802f595cd6252178f459f42cd9406d2959"),
    # pinned before the one-pass JSON writer: null, plain strings and
    # nested objects, and spectra read back from files
    (("classify", "--n", "1", "--mu-sq-exact", "1", "--lambda-im", "-3/2"),
     "7ba05a5bdf92a59da6ab443e05f8b5bb6219c6d2309c5d3fb58a896ddd99d2ae"),
    (("classify", "--n", "1", "--mu-sq", "1", "--lambda-im", "-0.25"),
     "277032dea5f3f5cb4d459866f9984e48b9ff0a904b35750ab7d2a0cab25f4e00"),
    (("classify", "--n", "1", "--mu-sq-exact", "13/4", "--lambda-im", "-1/2"),
     "b6d9d419802999fe64109729f9808cd28f53c2b13ff23aef6a4f4a334a936a8a"),
    # a surd b written as "-1/1+s": a nonzero rational part joined to s
    (("classify", "--n", "1", "--mu-sq-exact", "2", "--lambda-im", "-3/2"),
     "8a0b9547eaa4ff0027194a47e275c4de52d68af4c9d38605eef40debb6f7ed22"),
    (("classify", "--n", "1", "--mu-sq-exact", "2", "--lambda-im", "-3/2",
      "--format", "csv"),
     "bd256cd93579fb692e600477615ba7d018d4ef5846a51128cc8eeb6f535ee372"),
    (("spectrum", "--sphere", "3", "--jmax", "4"),
     "6afc0f0c9ac833073757e21e9a9bf5e1d1640d771000d82946a253b7bb316177"),
    (("spectrum", "--file", "mixed"),
     "64b1fa35e439471c20c5bd98b4ee05408ae58373d8d1fed9d2723b457ed25613"),
    (("spectrum", "--file", "dups"),
     "204d3917bbc37df148820a7ee33d1922f49336d1846d031298f98f925d6caf94"),
    (("spectrum", "--file", "dups", "--format", "csv"),
     "684857df098a92003a1cbff4db4ddb602c3526dbbd4b1f004c59848e9911c280"),
]

# sha256 of `verify --suite NAME` stdout at the default seed.  The residue
# lines print probe ratios to 4 digits, or a roundoff floor, so kernel
# roundoff does not move them; the residual lines' last digits carry the
# stencil's amplified roundoff (~5e6 x), so any change to how a kernel value
# is computed moves them and must update this pin deliberately.
SUITE_DIGESTS = {
    "specfun":
        "0f3cb9e151b66f2a4c82113dd87c1e0f457f5872eb3b0f99f7e865aff9fd4291",
    "wronskian":
        "eac3b00373a93b7ed441ea54c0278c30d08d72b4c051fb52715b2546e95c1003",
    "residual":
        "6e662a56575e399471f23b8fb66c8b6975521ff7f2e7ff03f307b09e524b156c",
    "residue":
        "f44d015583cb29918e2f6aaf3f93404f6dd08ad06a34161f2a9b22b1d54c5161",
}

# sha256 of `verify` stdout, all four suites (verify.run_all) in one report
VERIFY_ALL_DIGEST = (
    "77ab2debf856aa7f4abb1eca0514fb83163c33c63d658a4786c34d5b835ac8d2")


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, data in GOLDEN_SPECTRA.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(data), encoding="utf-8")
    return paths


class TestGoldenDigests:
    @pytest.mark.parametrize("argv,digest", GOLDEN_DIGESTS,
                             ids=[" ".join(argv) for argv, _ in GOLDEN_DIGESTS])
    def test_stdout_digest(self, golden_files, argv, digest):
        argv = [str(golden_files.get(a, a)) if i and argv[i - 1] == "--file"
                else a for i, a in enumerate(argv)]
        rc, out, err = run(*argv)
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS))
    def test_verify_suite_digest(self, suite):
        rc, out, err = run("verify", "--suite", suite)
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == SUITE_DIGESTS[suite]

    def test_verify_all_suites_digest(self):
        # the second run finds the resolvent's kernel slot warm from the
        # first and must print the same bytes
        for _ in range(2):
            rc, out, err = run("verify")
            assert (rc, err) == (0, "")
            assert out.splitlines()[-1] == "98/98 checks passed"
            assert (hashlib.sha256(out.encode()).hexdigest()
                    == VERIFY_ALL_DIGEST)


class TestSpectrum:
    def test_circle_json_bytes(self):
        rc, out, err = run("spectrum", "--circle", "1", "--jmax", "2")
        assert (rc, err) == (0, "")
        assert out == SPECTRUM_CIRCLE_1_JSON

    def test_circle_csv_bytes(self):
        rc, out, err = run("spectrum", "--circle", "1", "--jmax", "2",
                           "--format", "csv")
        assert (rc, err) == (0, "")
        assert out == SPECTRUM_CIRCLE_1_CSV

    def test_sphere_fields(self):
        rc, out, _ = run("spectrum", "--sphere", "2", "--jmax", "2")
        data = json.loads(out)
        assert data["n"] == 2
        assert [m["mu_sq"] for m in data["modes"]] == [0, 2, 6]
        assert [m["m"] for m in data["modes"]] == [1, 3, 5]

    def test_invalid_radius(self):
        rc, out, err = run("spectrum", "--circle", "-1", "--jmax", "2")
        assert out == ""
        assert_error(rc, err, 2, "validation")

    def test_missing_source(self):
        rc, _, err = run("spectrum", "--jmax", "2")
        assert rc == 2 and err.startswith("error:")

    def test_unknown_command(self):
        rc, _, err = run("frobnicate")
        assert rc == 2 and err.startswith("error:")

    def test_sphere_volume_overflow(self):
        # Gamma((n+1)/2) overflows from n = 343, and the volume is formed
        # from logarithms up to n = 437; from n = 438 it is below the
        # smallest normal double: a typed refusal naming n
        rc, out, err = run("spectrum", "--sphere", "400", "--jmax", "1")
        assert (rc, err) == (0, "")
        volume = json.loads(out)["volume"]
        assert 1.7118955476142e-274 < volume < 1.7118955476143e-274
        # every s = j + 399/2 of an even sphere is half-odd: non-generic
        rc, out, err = run("weyl", "--sphere", "400", "--lambda-grid", "1")
        assert out == ""
        assert_error(rc, err, 5, "non-generic")
        for argv in (("spectrum", "--sphere", "438", "--jmax", "1"),
                     ("weyl", "--sphere", "100000", "--lambda-grid", "1")):
            rc, out, err = run(*argv)
            assert out == ""
            assert_error(rc, err, 2, "validation")
            assert f"n = {argv[2]}:" in err

    def test_circle_volume_overflow(self):
        # 2*pi*rho overflows: refused naming rho, not at the output layer
        rc, out, err = run("spectrum", "--circle", "1e308", "--jmax", "2")
        assert out == ""
        assert_error(rc, err, 2, "validation")
        assert "rho = '1e308':" in err

    @pytest.mark.parametrize("argv,named", [
        (("spectrum", "--circle", "1e400", "--jmax", "2"),
         "rho = '1e400': beyond the double range"),
        (("resonances", "--circle", "1e400", "--lambda-max", "3"),
         "rho = '1e400': beyond the double range"),
        (("spectrum", "--circle", "1e-200", "--jmax", "2"), _MODE_OVERFLOW),
        (("resonances", "--circle", "1e-200", "--lambda-max", "3"),
         _MODE_OVERFLOW),
        (("classify", "--n", "1", "--mu-sq-exact", "1e400", "--lambda-im",
          "-1"), "--mu-sq-exact '1e400' lies beyond the double range"),
    ], ids=["spectrum-radius", "resonances-radius", "spectrum-mode",
            "resonances-mode", "classify-mu-sq-exact"])
    def test_exact_input_beyond_double_range(self, argv, named):
        # each exited 1 with an OverflowError traceback before
        rc, out, err = run(*argv)
        assert out == ""
        assert_error(rc, err, 2, "validation")
        assert named in err

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--circle", "1e-400", "--jmax", "2"),
        ("spectrum", "--circle", "1e-400", "--jmax", "0"),
        ("resonances", "--circle", "1e-400", "--lambda-max", "3"),
        ("weyl", "--circle", "1e-400", "--lambda-grid", "3")])
    def test_exact_radius_below_double_range(self, argv):
        # a positive radius whose float is 0 was refused as not positive
        rc, out, err = run(*argv)
        assert out == ""
        assert_error(rc, err, 2, "validation")
        assert "rho = '1e-400': below the double range" in err

    @pytest.mark.parametrize("argv,rc", [
        (("spectrum", "--circle", "1/3", "--jmax", "2"), 0),
        (("resonances", "--circle", "2/3", "--lambda-max", "5"), 0),
        (("weyl", "--circle", "3/2", "--lambda-grid", "2,5.5"), 0),
        (("resonances", "--circle", "1e400", "--lambda-max", "3"), 2),
        (("weyl", "--circle", "-1", "--lambda-grid", "3"), 2),
        (("spectrum", "--circle", "x/y", "--jmax", "2"), 2),
        (("resonances", "--circle", "1/0", "--lambda-max", "3"), 2),
    ])
    def test_radius_parsed_once(self, monkeypatch, argv, rc):
        # the auto --jmax and circle_spectrum read one parse of the radius
        pattern, texts = fractions._RATIONAL_FORMAT, []

        class Counted:
            def match(self, text):
                texts.append(text)
                return pattern.match(text)

        monkeypatch.setattr(fractions, "_RATIONAL_FORMAT", Counted())
        assert run(*argv)[0] == rc
        assert texts == [argv[2]]

    @pytest.mark.parametrize("radius,named", [
        ("x/y", "cannot parse radius 'x/y': Invalid literal for Fraction: "
                "'x/y'"),
        ("1/0", "cannot parse radius '1/0': Fraction(1, 0)"),
        ("0", "circle radius must be positive, got '0'"),
        ("-2/3", "circle radius must be positive, got '-2/3'"),
    ])
    def test_bad_radius_message(self, radius, named):
        # with --jmax or without it, one message and exit code
        for argv in (("spectrum", "--circle", radius, "--jmax", "2"),
                     ("resonances", "--circle", radius, "--lambda-max", "3")):
            rc, out, err = run(*argv)
            assert out == ""
            assert_error(rc, err, 2, "validation")
            assert err == f"error:validation: {named}\n"

    def test_byte_stability(self):
        first = run("spectrum", "--sphere", "3", "--jmax", "4")
        second = run("spectrum", "--sphere", "3", "--jmax", "4")
        assert first == second


class TestFileInput:
    def test_round_trip(self, tmp_path):
        rc, out, _ = run("spectrum", "--circle", "1/3", "--jmax", "2")
        assert rc == 0
        path = tmp_path / "spec.json"
        path.write_text(out, encoding="utf-8")
        rc2, out2, err2 = run("resonances", "--file", str(path),
                              "--lambda-max", "4", "--format", "csv")
        assert (rc2, err2) == (0, "")
        # same rows as the builtin generator at this truncation
        rc3, out3, _ = run("resonances", "--circle", "1/3", "--jmax", "2",
                           "--lambda-max", "4", "--format", "csv")
        assert out2.splitlines()[1:] == out3.splitlines()[1:]

    def test_spectrum_round_trip_bytes(self, tmp_path):
        rc, out, err = run("spectrum", "--circle", "1/3", "--jmax", "2")
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "317ec5be9c90e161d98d650cc5151692394476e5b3a67cd6fdfdd5d0d95c882a")
        path = tmp_path / "spec.json"
        path.write_text(out, encoding="utf-8")
        assert run("spectrum", "--file", str(path)) == (0, out, "")

    def test_exact_beyond_double_range(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"n": 1, "modes": [{"mu_sq": 1, "mu_sq_exact": '
                        '"1e400", "m": 1}]}', encoding="utf-8")
        rc, out, err = run("spectrum", "--file", str(path))
        assert out == ""
        assert_error(rc, err, 2, "validation")
        assert "modes[0]: mu_sq_exact lies beyond the double range" in err

    def test_file_rejects_jmax(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"n": 1, "modes": [{"mu_sq": 1.0, "m": 2}]}',
                        encoding="utf-8")
        rc, _, err = run("spectrum", "--file", str(path), "--jmax", "2")
        assert_error(rc, err, 2, "validation")

    def test_missing_file(self):
        rc, _, err = run("spectrum", "--file", "/nonexistent.json")
        assert_error(rc, err, 2, "validation")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        rc, _, err = run("spectrum", "--file", str(path))
        assert_error(rc, err, 2, "validation")

    @pytest.mark.parametrize("argv", [
        ("spectrum",), ("resonances", "--lambda-max", "3"),
        ("weyl", "--lambda-grid", "3")])
    @pytest.mark.parametrize("content,message", [
        # a byte that is not UTF-8, and a modes array 100,000 deep: one
        # error line and exit 2, where a UnicodeDecodeError was reported
        # only as a ValueError and a RecursionError as a traceback (exit 1)
        (b'{"n": 2, "volume": 1.0, "modes": [{"mu_sq": 1.0, "m": 1, '
         b'"mu_sq_exact": "\xff"}]}', "not UTF-8 text: "),
        (b'{"n": 2, "volume": 1.0, "modes": ' + b"[" * 100_000
         + b"]" * 100_000 + b"}", "JSON nested too deeply to read"),
    ], ids=["undecodable", "over-deep"])
    def test_unreadable_file(self, tmp_path, argv, content, message):
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        rc, out, err = run(argv[0], "--file", str(path), *argv[1:])
        assert out == ""
        assert_error(rc, err, 2, "validation")
        assert err.startswith(f"error:validation: {message}")

    @pytest.mark.parametrize("argv", [
        ("spectrum",), ("resonances", "--lambda-max", "4"),
        ("weyl", "--lambda-grid", "2,4")])
    def test_negative_exact_mu_sq(self, tmp_path, argv):
        # the float rounds to 0 but the exact value is negative
        path = tmp_path / "spec.json"
        path.write_text(
            '{"n": 1, "volume": 1.0, "modes": [{"mu_sq": 0.0, '
            '"mu_sq_exact": "-1/100000000000000000000", "m": 1}]}',
            encoding="utf-8")
        rc, out, err = run(argv[0], "--file", str(path), *argv[1:])
        assert_error(rc, err, 2, "validation")
        assert "modes[0]: mu_sq_exact must be >= 0" in err
        assert out == ""


    @pytest.mark.parametrize("field,text", [
        ("modes[0].mu_sq", '{"n": 1, "modes": [{"mu_sq": 1%s, "m": 1}]}'),
        ("'volume'", '{"n": 1, "volume": 1%s, "modes": [{"mu_sq": 1, "m": 1}]}'),
    ])
    def test_integer_beyond_double_range(self, tmp_path, field, text):
        # a 401-digit JSON integer: one validation line, not a traceback
        path = tmp_path / "spec.json"
        path.write_text(text % ("0" * 400), encoding="utf-8")
        rc, out, err = run("spectrum", "--file", str(path))
        assert out == ""
        assert_error(rc, err, 2, "validation")
        assert f"{field} lies beyond the double range" in err

    @pytest.mark.parametrize("volume", ["NaN", "Infinity"])
    def test_non_finite_volume(self, tmp_path, volume):
        # json.loads reads both; neither is caught by the sign test alone
        path = tmp_path / "spec.json"
        path.write_text(
            f'{{"n": 1, "volume": {volume}, "modes": [{{"mu_sq": 1.0, "m": 2}}]}}',
            encoding="utf-8")
        rc, out, err = run("spectrum", "--file", str(path))
        assert_error(rc, err, 2, "validation")
        assert "'volume'" in err
        assert out == ""


class TestResonances:
    def test_unit_circle(self):
        rc, out, err = run("resonances", "--circle", "1", "--lambda-max", "3")
        assert (rc, err) == (0, "")
        data = json.loads(out)
        assert [r["im_lambda"] for r in data["rows"]] == [-0.5, -1.5, -2.5]
        assert [r["multiplicity"] for r in data["rows"]] == [1, 3, 5]
        assert data["rows"][1]["contributors"] == [[0, 1], [1, 0]]
        assert all(r["exact"] is True for r in data["rows"])
        assert data["truncation"] == {"j_max": 4, "k_max": 4, "lambda_max": 3}

    def test_resonance_free_spectrum(self):
        rc, out, _ = run("resonances", "--sphere", "2", "--lambda-max", "3")
        assert rc == 0
        data = json.loads(out)
        assert data["rows"] == []
        assert data["note"] == "non-generic: all modes excluded"

    def test_third_circle_csv_bytes(self):
        rc, out, err = run("resonances", "--circle", "1/3",
                           "--lambda-max", "4", "--format", "csv")
        assert (rc, err) == (0, "")
        assert out == RESONANCES_THIRD_CIRCLE_CSV

    def test_three_sphere_auto_truncation(self):
        rc, out, _ = run("resonances", "--sphere", "3", "--lambda-max", "2")
        data = json.loads(out)
        assert data["rows"] == [{"contributors": [[0, 0]], "exact": True,
                                 "im_lambda": -1.5, "multiplicity": 1}]

    def test_insufficient_truncation(self):
        # both commands refuse the same truncation with one message and the
        # same hint
        for argv in (("resonances", "--lambda-max", "3"),
                     ("weyl", "--lambda-grid", "3")):
            rc, out, err = run(argv[0], "--circle", "1", "--jmax", "1",
                               "--kmax", "1", *argv[1:])
            assert (rc, out) == (3, "")
            assert err == ("error:truncation: truncation (j_max = 1, "
                           "k_max = 1) cannot certify completeness up to "
                           "lambda = 3.0; raise --jmax/--kmax\n")

    def test_undecidable_membership(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            '{"n": 1, "modes": [{"mu_sq": 2.2500000000010001, "m": 1}]}',
            encoding="utf-8")
        rc, out, err = run("resonances", "--file", str(path),
                           "--kmax", "2", "--lambda-max", "1.6")
        assert out == ""
        assert_error(rc, err, 4, "undecidable")

    @pytest.mark.parametrize("argv", [
        ("--circle", "1", "--lambda-max", "inf"),
        ("--sphere", "3", "--lambda-max", "inf"),
        ("--circle", "1", "--jmax", "3", "--kmax", "3", "--lambda-max", "inf"),
        ("--circle", "1", "--lambda-max", "nan"),
        ("--sphere", "3", "--jmax", "3", "--kmax", "3", "--lambda-max", "nan"),
    ])
    def test_non_finite_bound(self, argv):
        rc, out, err = run("resonances", *argv)
        assert out == ""
        assert_error(rc, err, 2, "validation")
        assert "--lambda-max must be finite and >= 0" in err

    def test_listing_builds_no_resonance(self, monkeypatch):
        # the command writes the lattice walk's rows itself: no Resonance,
        # no Fraction in the lattice code, no call of the public wrapper
        def refuse(*args, **kwargs):
            raise AssertionError("the listing built per-row objects")
        monkeypatch.setattr("hypercone.resonances.Resonance", refuse)
        monkeypatch.setattr("hypercone.resonances.Fraction", refuse)
        digests = dict(GOLDEN_DIGESTS)
        for fmt in ("json", "csv"):
            argv = ("resonances", "--circle", "2/3", "--lambda-max", "35")
            if fmt == "csv":
                argv += ("--format", "csv")
            rc, out, err = run(*argv)
            assert (rc, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digests[argv]

    @pytest.mark.parametrize("source,bound", [
        *((("--file", name), bound) for name in sorted(GOLDEN_SPECTRA)
          for bound in ((0.9, 2.9) if name == "dups" else (2.9, 12.0, 19.5))),
        *((source, bound) for source in (("--circle", "2/3"), ("--sphere", "3"))
          for bound in (0.4, 3.0, 12.5, 35.0)),
    ])
    def test_rows_match_enumerate_resonances(self, golden_files, source,
                                             bound):
        # the CLI writes the rows of the lattice walk that
        # enumerate_resonances turns into Resonance objects
        kind, value = source
        path = golden_files.get(value)
        rc, out, err = run("resonances", kind, str(path or value),
                           "--lambda-max", repr(bound))
        assert (rc, err) == (0, "")
        data = json.loads(out)
        j_max, k_max = data["truncation"]["j_max"], data["truncation"]["k_max"]
        spec = (load_spectrum(str(path)) if kind == "--file"
                else circle_spectrum(value, j_max) if kind == "--circle"
                else sphere_spectrum(int(value), j_max))
        rset = enumerate_resonances(spec, k_max, bound)
        assert len(data["rows"]) == len(rset.resonances)
        for row, r in zip(data["rows"], rset.resonances):
            assert float(row["im_lambda"]).hex() == r.lam.imag.hex()
            assert row["multiplicity"] == r.multiplicity
            assert row["contributors"] == [list(c) for c in r.contributors]
            assert row["exact"] == (r.im_part_exact is not None
                                    or r.surd_key is not None)


class TestClassify:
    def test_genuine_example(self):
        rc, out, err = run("classify", "--n", "1", "--mu-sq-exact", "1",
                           "--lambda-im", "-3/2")
        assert (rc, err) == (0, "")
        data = json.loads(out)
        assert data["verdict"] == "genuine_pole"
        assert data["case_id"] == "cY_bY_aY"
        assert data["a"] == {"exact": "-1/1", "value": -1}
        assert data["b"] == {"exact": "0/1", "value": 0}
        assert data["c"] == {"exact": "-2/1", "value": -2}
        assert data["s"] == {"exact": "1/1", "value": 1}

    def test_removable_example(self):
        rc, out, _ = run("classify", "--n", "2", "--mu-sq-exact", "2",
                         "--lambda-im", "-2")
        data = json.loads(out)
        assert data["verdict"] == "removable"
        assert data["case_id"] == "cY_bY_aN"
        assert data["a"]["exact"] == "-3/2"

    def test_regular_float_example(self):
        rc, out, _ = run("classify", "--n", "1", "--mu-sq", "1",
                         "--lambda-im", "-0.25")
        data = json.loads(out)
        assert data["verdict"] == "regular"
        assert data["case_id"] == "cN_bN_aN"
        assert data["a"] == {"exact": None, "value": 0.25}

    def test_irrational_candidate(self):
        rc, out, _ = run("classify", "--n", "1", "--mu-sq-exact", "13/4",
                         "--lambda-im", "-1/2")
        data = json.loads(out)
        assert data["verdict"] == "removable"
        assert data["case_id"] == "cY_bN_aY"
        assert data["b"]["exact"] == "s"
        assert data["s"]["exact"] == "sqrt(13/4)"

    def test_csv_row(self):
        rc, out, _ = run("classify", "--n", "2", "--mu-sq-exact", "2",
                         "--lambda-im", "-2", "--format", "csv")
        assert out == ("a,b,c,s,case_id,verdict\r\n"
                       "-3/2,0/1,-3/1,3/2,cY_bY_aN,removable\r\n")

    def test_undecidable_float(self):
        # float mu_sq puts c indistinguishably close to the lattice
        rc, out, err = run("classify", "--n", "1", "--mu-sq", "1",
                           "--lambda-im", "-3/2")
        assert out == ""
        assert_error(rc, err, 4, "undecidable")

    def test_bad_fraction(self):
        rc, _, err = run("classify", "--n", "1", "--mu-sq-exact", "x/y",
                         "--lambda-im", "-1")
        assert_error(rc, err, 2, "validation")

    # the two case ids the examples above leave out, byte for byte
    B_ONLY_GENUINE = """\
{
  "a": {
    "exact": "-1/3",
    "value": -0.33333333333333337
  },
  "b": {
    "exact": "0/1",
    "value": -5.5511151231257827e-17
  },
  "c": {
    "exact": "-2/3",
    "value": -0.66666666666666674
  },
  "case_id": "cN_bY",
  "s": {
    "exact": "1/3",
    "value": 0.33333333333333331
  },
  "verdict": "genuine_pole"
}
"""
    C_ONLY_REGULAR = """\
{
  "a": {
    "exact": "-1/2",
    "value": -0.5
  },
  "b": {
    "exact": "1/2",
    "value": 0.5
  },
  "c": {
    "exact": "-1/1",
    "value": -1
  },
  "case_id": "cY_bN_aN",
  "s": {
    "exact": "1/1",
    "value": 1
  },
  "verdict": "regular"
}
"""

    @pytest.mark.parametrize("mu_sq,lam_im,want", [
        ("1/9", "-5/6", B_ONLY_GENUINE),  # s = 1/3: b = 0, c = -2/3
        ("1", "-1", C_ONLY_REGULAR),      # s = 1: c = -1 alone
    ])
    def test_remaining_case_ids(self, mu_sq, lam_im, want):
        rc, out, err = run("classify", "--n", "1", "--mu-sq-exact", mu_sq,
                           "--lambda-im", lam_im)
        assert (rc, out, err) == (0, want, "")

    def test_undecidable_message(self):
        # float s = 1 puts c = 2a on 0 to roundoff; c is judged first
        rc, out, err = run("classify", "--n", "1", "--mu-sq", "1",
                           "--lambda-im", "-1/2")
        assert (rc, out) == (4, "")
        assert err == ("error:undecidable: c = 0j is within 1e-09 of the "
                       "non-positive integers and no exact form is "
                       "available\n")


class TestWeyl:
    def test_unit_circle_ratios(self, monkeypatch):
        # weyl counts per mode and never lists the lattice
        def refuse(*args, **kwargs):
            raise AssertionError("weyl enumerated the resonance lattice")
        monkeypatch.setattr("hypercone.cli._listing", refuse)
        monkeypatch.setattr("hypercone.resonances._listing", refuse)
        rc, out, err = run("weyl", "--circle", "1", "--lambda-grid",
                           "10,100,1000")
        assert (rc, err) == (0, "")
        data = json.loads(out)
        assert [r["count"] for r in data["rows"]] == [100, 10000, 1000000]
        for row in data["rows"]:
            assert abs(row["ratio"] - 1.0) <= 1e-12

    def test_float_cluster_count_independent_of_grid(self, tmp_path):
        # positions 1.8 and 1.8 + 5e-10 sit within the 1e-9 clustering
        # tolerance; a bound between them counts only the first, whatever
        # else the grid asks for
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 1, "volume": 6.0, "modes": [
            {"mu_sq": 1.3 ** 2, "m": 1},
            {"mu_sq": (1.3 + 5e-10) ** 2, "m": 2},
            {"mu_sq": 16.0, "m": 2}]}), encoding="utf-8")
        counts = []
        for grid in ("1.8000000002500001", "1.8000000002500001,3"):
            rc, out, err = run("weyl", "--file", str(path), "--lambda-grid",
                               grid)
            assert (rc, err) == (0, "")
            counts.append(json.loads(out)["rows"][0]["count"])
        assert counts == [1, 1]

    def test_below_first_resonance(self):
        rc, out, _ = run("weyl", "--circle", "1", "--lambda-grid", "0.4")
        data = json.loads(out)
        assert data["rows"][0]["count"] == 0
        assert data["rows"][0]["ratio"] == 0

    def test_non_generic_spectrum(self):
        rc, out, err = run("weyl", "--sphere", "2", "--lambda-grid", "50")
        assert out == ""
        assert_error(rc, err, 5, "non-generic")

    def test_undecidable_before_non_generic(self, tmp_path):
        # s = 1/2 exactly is excluded; the float-only mode sits within 1e-9
        # of s = 3/2, so whether any mode is generic cannot be decided and
        # both commands refuse with exit 4 rather than weyl claiming that
        # no mode is generic
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 1, "volume": 6.0, "modes": [
            {"mu_sq": 0.25, "mu_sq_exact": "1/4", "m": 1},
            {"mu_sq": (1.5 + 1e-12) ** 2, "m": 1}]}), encoding="utf-8")
        for argv in (("weyl", "--lambda-grid", "3"),
                     ("resonances", "--lambda-max", "3")):
            rc, out, err = run(*argv, "--file", str(path))
            assert out == ""
            assert_error(rc, err, 4, "undecidable")
            assert "mode j = 1" in err

    def test_kmax_checked_before_the_spectrum(self):
        # as for resonances, a bad --kmax is a validation error whatever
        # the spectrum holds
        for cmd, bound in (("weyl", "--lambda-grid"),
                           ("resonances", "--lambda-max")):
            rc, out, err = run(cmd, "--sphere", "2", "--kmax", "-1",
                               bound, "3")
            assert out == ""
            assert_error(rc, err, 2, "validation")

    def test_one_exact_s_per_mode(self, monkeypatch):
        # weyl scans the spectrum once: one exact s per mode, plus the
        # first and last mode's s for the truncation check at each bound;
        # crosssec forms every s, so patching it there sees every call
        from hypercone import crosssec
        calls = []
        helper = crosssec._exact_s

        def counted(*args):
            calls.append(args)
            return helper(*args)
        monkeypatch.setattr(crosssec, "_exact_s", counted)
        grid = (3, 10, 20, 30, 40)
        rc, out, err = run("weyl", "--circle", "1", "--lambda-grid",
                           ",".join(map(str, grid)))
        assert (rc, err) == (0, "")
        modes = json.loads(out)["truncation"]["j_max"] + 1
        assert modes == 42
        assert len(calls) <= modes + 2 * len(grid)

    def test_file_without_volume(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"n": 1, "modes": [{"mu_sq": 1.0, "m": 2}]}',
                        encoding="utf-8")
        rc, _, err = run("weyl", "--file", str(path), "--lambda-grid", "10")
        assert_error(rc, err, 2, "validation")

    def test_bad_grid(self):
        rc, _, err = run("weyl", "--circle", "1", "--lambda-grid", "-5")
        assert_error(rc, err, 2, "validation")

    def test_empty_grid_entries(self):
        # an empty entry is skipped; a grid of nothing else is refused
        want = run("weyl", "--circle", "1", "--lambda-grid", "3,5")
        assert want[0] == 0
        assert run("weyl", "--circle", "1", "--lambda-grid", "3,,5") == want
        rc, _, err = run("weyl", "--circle", "1", "--lambda-grid", " , ")
        assert_error(rc, err, 2, "validation")

    def test_leading_term_underflow(self, tmp_path):
        # a volume of 5e-324 makes every leading term subnormal or 0: a
        # typed refusal naming the volume and the first grid point, not a
        # division by zero
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 1, "volume": 5e-324, "modes": [
            {"mu_sq": j * j, "mu_sq_exact": str(j * j), "m": 1 if j else 2}
            for j in range(4)]}), encoding="utf-8")
        rc, out, err = run("weyl", "--file", str(path), "--lambda-grid",
                           "0.4,3")
        assert out == ""
        assert_error(rc, err, 2, "validation")
        assert "volume = 5e-324 at lambda = 0.4 underflows" in err

    def test_leading_term_overflow(self, tmp_path):
        # at n = 400 the term overflows from lambda = 190, where the count
        # does not
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 400, "volume": 1.0, "modes": [
            {"mu_sq": 1.0, "m": 1}]}), encoding="utf-8")
        rc, out, err = run("weyl", "--file", str(path), "--lambda-grid",
                           "190")
        assert out == ""
        assert_error(rc, err, 2, "validation")
        assert "Weyl leading term" in err

    def test_leading_term_past_a_factor_overflow(self, tmp_path):
        # Gamma(n/2 + 1) overflows at n = 400, but the term at lambda = 10
        # is a normal double, about 4.5e-197: it is reported
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 400, "volume": 1.0, "modes": [
            {"mu_sq": 1.0, "m": 1}]}), encoding="utf-8")
        rc, out, err = run("weyl", "--file", str(path), "--lambda-grid", "10")
        assert (rc, err) == (0, "")
        row, = json.loads(out)["rows"]
        assert row["count"] == 0 and row["ratio"] == 0
        assert 4.5498e-197 < row["leading_term"] < 4.5499e-197


class TestWeylBoundedWork:
    """weyl over a generated spectrum counts each run in closed form, so
    its work does not grow with the bound; every leading term is formed
    before any count, and a count or ratio no double holds is refused."""

    def test_counts_past_any_mode_walk(self):
        # the unit circle counts (D + 1)^2 with D = floor(L - 1/2): at
        # 1e150 that is 1e300, and the count has 301 digits
        rc, out, err = run("weyl", "--circle", "1", "--lambda-grid", "1e150")
        assert (rc, err) == (0, "")
        data = json.loads(out)
        d = math.floor(Fraction(1e150) - Fraction(1, 2))
        assert data["rows"][0]["count"] == (d + 1) ** 2
        assert abs(data["rows"][0]["ratio"] - 1.0) <= 1e-12
        assert data["truncation"]["j_max"] == int(1e150) + 1
        # the term overflows a double
        rc, out, err = run("weyl", "--circle", "1", "--lambda-grid", "1e300")
        assert out == ""
        assert_error(rc, err, 2, "validation")

    @pytest.mark.parametrize("rho,grid,count", [
        ("1/1000000", "1e155", None), ("1e-200", "3", 3)])
    def test_counts_past_the_float_modes(self, rho, grid, count):
        # the top mode's mu_j^2 overflows a double, but the count reads no
        # float mu^2: it answers as far as the leading term fits
        rc, out, err = run("weyl", "--circle", rho, "--lambda-grid", grid)
        assert (rc, err) == (0, "")
        row, = json.loads(out)["rows"]
        if count is None:
            assert abs(row["ratio"] - 1.0) <= 1e-12
        else:
            assert row["count"] == count

    def test_leading_terms_before_any_count(self):
        # the term at 1e300 overflows: refused before j_max = 2 is found
        # unable to certify the first grid point, once exit 3
        rc, out, err = run("weyl", "--circle", "1", "--jmax", "2",
                           "--lambda-grid", "5,1e300")
        assert out == ""
        assert_error(rc, err, 2, "validation")
        assert "Weyl leading term for n = 1 at lambda = 1e+300" in err

    @pytest.mark.parametrize("m,volume", [(10 ** 400, 1.0),
                                          (10 ** 300, 1e-300)],
                             ids=["count", "ratio"])
    def test_count_beyond_double_range(self, tmp_path, m, volume):
        # a multiplicity of 10^400 makes a count no double holds, and one
        # of 10^300 over a volume of 1e-300 a ratio that overflows: each is
        # refused naming lambda, not an untyped OverflowError
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 1, "volume": volume, "modes": [
            {"mu_sq": 1.0, "mu_sq_exact": "1", "m": m},
            {"mu_sq": 100.0, "mu_sq_exact": "100", "m": 1}]}),
            encoding="utf-8")
        rc, out, err = run("weyl", "--file", str(path), "--lambda-grid", "2")
        assert out == ""
        assert_error(rc, err, 2, "validation")
        assert "Weyl count at lambda = 2.0" in err


class TestLatticeWorkCounts:
    """Work per weyl run on fixed inputs, counted with monkeypatched
    counters: no Fraction goes through numbers.Rational.__float__.  A
    generated spectrum is counted by its arithmetic run, so no Mode is
    built or checked and no position is tested one mode at a time.  Over a
    file, each bound's count makes a position test for the modes with a
    position at or below it and those in the sliver just past it (at most
    one more), beside the certificate's two, and each mode is checked
    once."""

    GRIDS = {"circle": (["--circle", "3/2"], "2,5.5,9.25", [6, 48, 131]),
             "sphere": (["--sphere", "3"], "3.3,7.5,12.6", [6, 336, 2366]),
             "surd": (None, "4.2,8.7,12.1", [4, 8, 12])}

    @pytest.fixture
    def work(self, monkeypatch):
        counts = {"float": 0, "check": 0, "tests": {}}
        count_le, check_mode = resonances._count_le, crosssec._check_mode
        rational_float = numbers.Rational.__float__

        def counting_le(value, sq, k_max, bound):
            tests = counts["tests"]
            tests[bound.value] = tests.get(bound.value, 0) + 1
            return count_le(value, sq, k_max, bound)

        def counting_check(*args):
            counts["check"] += 1
            return check_mode(*args)

        def counting_float(self):
            counts["float"] += 1
            return rational_float(self)

        monkeypatch.setattr(resonances, "_count_le", counting_le)
        monkeypatch.setattr(crosssec, "_check_mode", counting_check)
        monkeypatch.setattr(numbers.Rational, "__float__", counting_float)
        return counts

    @pytest.mark.parametrize("kind", sorted(GRIDS))
    def test_weyl_grid(self, work, tmp_path, kind):
        source, grid, pinned = self.GRIDS[kind]
        if source is None:
            # n = 2, mu^2 = j(j+1) + 1/3: every s a surd
            path = tmp_path / "surd.json"
            path.write_text(json.dumps({"n": 2, "volume": 4 * math.pi,
                                        "modes": [
                {"mu_sq": j * (j + 1) + 1 / 3, "m": 2 * j + 1,
                 "mu_sq_exact": f"{3 * j * (j + 1) + 1}/3"}
                for j in range(21)]}), encoding="utf-8")
            source = ["--file", str(path)]
        rc, out, err = run("weyl", *source, "--lambda-grid", grid)
        assert (rc, err) == (0, "")
        assert work["float"] == 0
        if source[0] != "--file":
            # pinned are the counts (tests/oracles.py reference_count)
            assert (work["check"], work["tests"]) == (0, {})
            assert [row["count"] for row in json.loads(out)["rows"]] == pinned
            return
        checks = work["check"]
        spec = load_spectrum(source[1])
        assert checks == len(spec.modes)
        bounds = [float(b) for b in grid.split(",")]
        values = [value for _, value, _, _ in _scan(spec, 0, bounds[-1])]
        walked = [work["tests"][bound] - 2 for bound in bounds]
        assert walked == pinned
        for bound, tests in zip(bounds, walked):
            sliver = resonances._STOP_GAP * (bound + 0.5)
            reach = sum(value <= bound - 0.5 + sliver for value in values)
            assert tests <= reach + 1 < len(values)


class TestVerify:
    def test_specfun_suite(self):
        rc, out, err = run("verify", "--suite", "specfun")
        assert (rc, err) == (0, "")
        lines = out.splitlines()
        assert lines[-1] == "7/7 checks passed"
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_wronskian_suite_seeded(self):
        rc, out, _ = run("verify", "--suite", "wronskian", "--seed", "7")
        assert rc == 0
        assert out.splitlines()[-1] == "20/20 checks passed"

    def test_wronskian_suite_nudges_lambda_off_the_axis(self):
        # seed 11 draws Re lambda = -0.0009 at draw 08: the suite moves it
        # to 0.0991, off the imaginary axis, and every check passes
        rc, out, _ = run("verify", "--suite", "wronskian", "--seed", "11")
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1] == "20/20 checks passed"
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "lambda=0.0991+0.6498i]" in lines[8]

    def test_byte_stability(self):
        a = run("verify", "--suite", "specfun", "--seed", "3")
        b = run("verify", "--suite", "specfun", "--seed", "3")
        assert a == b

    def test_unknown_suite(self):
        rc, _, err = run("verify", "--suite", "bogus")
        assert rc == 2 and err.startswith("error:")


class TestParserReuse:
    def test_calls_share_one_parser_and_no_state(self, monkeypatch):
        from hypercone import cli
        # help text wraps at the terminal width: make it the same in both
        monkeypatch.setenv("COLUMNS", "80")
        jmax_seen = []
        build_spectrum = cli._build_spectrum

        def spy(args, *rest):
            jmax_seen.append(args.jmax)
            return build_spectrum(args, *rest)
        monkeypatch.setattr(cli, "_build_spectrum", spy)
        cli._build_parser.cache_clear()
        calls = [
            ("weyl", "--circle", "1", "--jmax", "3", "--lambda-grid", "2"),
            ("weyl", "--circle", "1", "--lambda-grid", "2"),
            ("weyl", "--circle", "1", "--lambda-grid", "2", "--bogus"),
            ("resonances", "--circle", "1", "--lambda-max", "2"),
            ("--help",),
            ("weyl", "--help"),
        ]
        results = [run(*argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        for argv, result in zip(calls, results):
            assert result == run_fresh(*argv)
        # the flag set on the first call is unset again on the next ones
        assert jmax_seen == [3, None, None]
        rc, out, err = results[2]
        assert out == ""
        assert_error(rc, err, 2, "validation")
        assert results[3][0] == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert out.getvalue().startswith("usage: hypercone")
        assert cli._build_parser.cache_info().misses == 1


class TestEnvironment:
    def test_module_entry_point(self):
        # `python -m hypercone.cli` runs main() under its __main__ guard
        argv = ("spectrum", "--sphere", "2", "--jmax", "1")
        done = subprocess.run(
            [sys.executable, "-m", "hypercone.cli", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        rc, out, err = run(*argv)
        assert (done.returncode, done.stderr, rc) == (0, b"", 0)
        assert done.stdout == out.encode()

    def test_thread_variable_has_no_effect(self, monkeypatch):
        monkeypatch.delenv("HYPERCONE_THREADS", raising=False)
        unset = run("spectrum", "--circle", "1", "--jmax", "1")
        assert unset[0] == 0
        for value in ("0", "4"):
            monkeypatch.setenv("HYPERCONE_THREADS", value)
            rc, out, _ = run("spectrum", "--circle", "1", "--jmax", "1")
            assert (rc, out) == unset[:2]

    def test_runtime_imports_standard_library_only(self):
        # -S skips the site start-up hooks, which import third-party modules
        # of their own; this process's sys.path still lets a third-party
        # import made by hypercone succeed and show up by name
        code = (
            "import importlib, pkgutil, sys\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "import hypercone\n"
            "for m in pkgutil.iter_modules(hypercone.__path__):\n"
            "    importlib.import_module('hypercone.' + m.name)\n"
            "top = {name.partition('.')[0] for name in sys.modules}\n"
            "print(' '.join(sorted(top - sys.stdlib_module_names\n"
            "                      - {'__main__', 'hypercone'})))\n")
        done = subprocess.run([sys.executable, "-I", "-S", "-c", code,
                               *sys.path], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []
