"""Command-line interface tests: output bytes, schemas, and exit codes.

Everything runs in-process through main(argv).  JSON outputs asserted as
exact frozen bytes were produced by this CLI and cross-checked against the
library examples elsewhere in the suite; they pin byte stability.
"""

import contextlib
import io
import json

import pytest

from hypercone.cli import main


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse paths
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def assert_error(rc, err, code, reason):
    assert rc == code
    assert err.startswith(f"error:{reason}:")
    assert err.count("\n") == 1 and err.endswith("\n")


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
        rc, out, err = run("resonances", "--circle", "1", "--jmax", "1",
                           "--kmax", "1", "--lambda-max", "3")
        assert out == ""
        assert_error(rc, err, 3, "truncation")
        assert "raise --jmax/--kmax" in err

    def test_undecidable_membership(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            '{"n": 1, "modes": [{"mu_sq": 2.2500000000010001, "m": 1}]}',
            encoding="utf-8")
        rc, out, err = run("resonances", "--file", str(path),
                           "--kmax", "2", "--lambda-max", "1.6")
        assert out == ""
        assert_error(rc, err, 4, "undecidable")


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


class TestWeyl:
    def test_unit_circle_ratios(self, monkeypatch):
        # weyl counts per mode and never lists the lattice
        def refuse(*args, **kwargs):
            raise AssertionError("weyl enumerated the resonance lattice")
        monkeypatch.setattr("hypercone.cli.enumerate_resonances", refuse)
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

    def test_file_without_volume(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"n": 1, "modes": [{"mu_sq": 1.0, "m": 2}]}',
                        encoding="utf-8")
        rc, _, err = run("weyl", "--file", str(path), "--lambda-grid", "10")
        assert_error(rc, err, 2, "validation")

    def test_bad_grid(self):
        rc, _, err = run("weyl", "--circle", "1", "--lambda-grid", "-5")
        assert_error(rc, err, 2, "validation")


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

    def test_byte_stability(self):
        a = run("verify", "--suite", "specfun", "--seed", "3")
        b = run("verify", "--suite", "specfun", "--seed", "3")
        assert a == b

    def test_unknown_suite(self):
        rc, _, err = run("verify", "--suite", "bogus")
        assert rc == 2 and err.startswith("error:")


class TestEnvironment:
    def test_thread_cap_validation(self, monkeypatch):
        monkeypatch.setenv("HYPERCONE_THREADS", "0")
        rc, out, err = run("spectrum", "--circle", "1", "--jmax", "1")
        assert out == ""
        assert_error(rc, err, 2, "validation")

    def test_thread_cap_accepted(self, monkeypatch):
        monkeypatch.setenv("HYPERCONE_THREADS", "4")
        rc, out, err = run("spectrum", "--circle", "1", "--jmax", "0")
        assert (rc, err) == (0, "")
