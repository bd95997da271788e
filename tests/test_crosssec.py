"""Cross-section spectrum construction, file I/O, and genericity tests."""

import fractions
import io
import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from mpmath import mp

from hypercone import (
    DomainError,
    GenericityVerdict,
    InvalidDimension,
    InvalidRadius,
    Mode,
    ParseError,
    SpectrumSpec,
    ValidationError,
    circle_spectrum,
    is_generic,
    load_spectrum,
    s_param,
    save_spectrum,
    spectrum_to_dict,
    sphere_spectrum,
)
from hypercone import crosssec

from oracles import reference_file_modes, sphere_multiplicity


class TestSphereSpectrum:
    def test_two_sphere(self):
        spec = sphere_spectrum(2, 2)
        assert spec.dimension_n == 2
        assert [m.mu_sq for m in spec.modes] == [0.0, 2.0, 6.0]
        assert [m.multiplicity for m in spec.modes] == [1, 3, 5]
        assert [m.mu_sq_exact for m in spec.modes] == [0, 2, 6]
        assert [m.label for m in spec.modes] == [0, 1, 2]
        assert abs(spec.volume - 4.0 * math.pi) <= 1e-12
        assert spec.source == "sphere"

    def test_three_sphere(self):
        spec = sphere_spectrum(3, 4)
        for j, m in enumerate(spec.modes):
            assert m.mu_sq == j * (j + 2)
            assert m.multiplicity == (j + 1) ** 2
        assert abs(spec.volume - 2.0 * math.pi ** 2) <= 1e-12

    def test_multiplicity_against_factorial_formula(self):
        for n in (2, 3, 4, 5):
            spec = sphere_spectrum(n, 10)
            for j, m in enumerate(spec.modes):
                assert m.multiplicity == sphere_multiplicity(n, j)

    def test_multiplicity_partial_sums(self):
        # sum_{j<=J} m_j = C(n+J, n) + C(n+J-1, n)
        for n in (2, 3, 4):
            spec = sphere_spectrum(n, 10)
            total = 0
            for J, m in enumerate(spec.modes):
                total += m.multiplicity
                assert total == math.comb(n + J, n) + math.comb(n + J - 1, n)

    def test_sphere_s_values_exact(self):
        for n in range(2, 7):
            spec = sphere_spectrum(n, 20)
            for j, m in enumerate(spec.modes):
                sv = s_param(n, m)
                assert sv.exact == Fraction(2 * j + n - 1, 2)

    def test_n_one_delegates_to_circle(self):
        a = sphere_spectrum(1, 3)
        b = circle_spectrum(1, 3)
        assert a.modes == b.modes and a.volume == b.volume

    def test_volume_overflow(self):
        # Gamma((n+1)/2) overflows from n = 343, though the volume itself
        # is tiny: it is formed from logarithms up to n = 437 and refused
        # from n = 438, where it is below the smallest normal double;
        # below n = 343 it is the direct formula, bit for bit
        for n in (2, 5, 100, 342):
            assert sphere_spectrum(n, 1).volume == (
                2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0))
        with mp.workdps(30):
            for n in (343, 400, 437):
                want = float(2 * mp.pi ** (mp.mpf(n + 1) / 2)
                             / mp.gamma(mp.mpf(n + 1) / 2))
                assert sphere_spectrum(n, 1).volume == pytest.approx(
                    want, rel=1e-12)
        assert sphere_spectrum(437, 1).volume >= sys.float_info.min
        for n in (438, 100000, 10 ** 400):
            with pytest.raises(DomainError, match=f"n = {n}:"):
                sphere_spectrum(n, 2)

    def test_validation(self):
        with pytest.raises(InvalidDimension):
            sphere_spectrum(0, 2)
        with pytest.raises(ValidationError):
            sphere_spectrum(2, -1)


class TestCircleSpectrum:
    def test_unit_circle(self):
        spec = circle_spectrum(1, 2)
        assert [m.mu_sq for m in spec.modes] == [0.0, 1.0, 4.0]
        assert [m.multiplicity for m in spec.modes] == [1, 2, 2]
        assert abs(spec.volume - 2.0 * math.pi) <= 1e-12

    def test_rational_radius(self):
        spec = circle_spectrum("1/3", 1)
        assert [m.mu_sq_exact for m in spec.modes] == [0, 9]
        assert abs(spec.volume - 2.0 * math.pi / 3.0) <= 1e-12
        sv = s_param(1, spec.modes[1])
        assert sv.exact == 3

    def test_float_radius_is_inexact(self):
        spec = circle_spectrum(0.5, 2)
        assert all(m.mu_sq_exact is None for m in spec.modes)
        assert spec.modes[1].mu_sq == 4.0

    def test_circle_s_values(self):
        spec = circle_spectrum(Fraction(2), 8)
        for j, m in enumerate(spec.modes):
            assert s_param(1, m).exact == Fraction(j, 2)

    def test_weyl_sanity(self):
        # multiplicity-weighted count of mu_j <= M tracks 2*rho*M
        for rho in (1, 2, Fraction(1, 3)):
            spec = circle_spectrum(rho, 400)
            for bound in (5.0, 20.0, 50.0):
                count = sum(m.multiplicity for m in spec.modes
                            if math.sqrt(m.mu_sq) <= bound)
                assert 2 * float(rho) * bound - 2 <= count <= 2 * float(rho) * bound + 2

    def test_invalid_radius(self):
        for bad in (0, -1, "0", "-2/3", "garbage", float("inf"), [2]):
            with pytest.raises(InvalidRadius):
                circle_spectrum(bad, 2)

    def test_bool_radius(self):
        # a bool is an int, but no radius: True once built the unit circle
        for bad in (True, False):
            with pytest.raises(InvalidRadius, match="type bool"):
                circle_spectrum(bad, 2)

    def test_modes_built_on_first_read(self, monkeypatch):
        # an exact circle or a sphere is one arithmetic run: no Mode until
        # .modes is read, and the list then equals the one built directly
        built = []
        check = crosssec._check_mode
        monkeypatch.setattr(crosssec, "_check_mode",
                            lambda *args: built.append(args) or check(*args))
        circle, sphere = circle_spectrum("2/3", 9), sphere_spectrum(5, 7)
        assert built == []
        assert circle.modes == [
            Mode(float(Fraction(9 * j * j, 4)), 1 if j == 0 else 2,
                 Fraction(9 * j * j, 4), j) for j in range(10)]
        assert sphere.modes == [
            Mode(float(j * (j + 4)), sphere_multiplicity(5, j),
                 Fraction(j * (j + 4)), j) for j in range(8)]
        assert circle.modes is circle.modes

    def test_volume_overflow(self):
        # 2*pi*rho overflows a double for a finite rho: a typed refusal
        # naming rho; just below, the volume is the same product
        assert circle_spectrum(2.8e307, 1).volume == 2.0 * math.pi * 2.8e307
        for rho in ("1e308", 1e308, 10 ** 308):
            with pytest.raises(DomainError,
                               match=f"rho = {re.escape(repr(rho))}:"):
                circle_spectrum(rho, 2)

    def test_radius_beyond_double_range(self):
        # an exact radius whose float overflows is refused naming rho,
        # before any mode is built
        for rho in ("1e400", 10 ** 400, Fraction(10 ** 400, 3)):
            with pytest.raises(InvalidRadius,
                               match=f"rho = {re.escape(repr(rho))}: beyond"):
                circle_spectrum(rho, 2)

    def test_radius_below_double_range(self):
        # a positive exact radius whose float is 0 is refused as below the
        # double range, naming rho; the sign is read from the exact value
        for rho in ("1e-400", Fraction(1, 10 ** 400), Fraction(3, 2 ** 1100)):
            for j_max in (0, 2):
                with pytest.raises(InvalidRadius, match=(
                        f"rho = {re.escape(repr(rho))}: below")):
                    circle_spectrum(rho, j_max)
        for rho in ("-1e-400", Fraction(-1, 10 ** 400)):
            with pytest.raises(InvalidRadius, match="must be positive"):
                circle_spectrum(rho, 2)

    def test_mode_beyond_double_range(self):
        # mu_j^2 = j^2/rho^2 overflows for a tiny radius, exact or float:
        # refused naming rho and the first such j
        for rho, j_max, j in (("1e-200", 2, 1), (1e-200, 2, 1),
                              ("8e-154", 20, 11)):
            with pytest.raises(DomainError, match=(
                    f"rho = {re.escape(repr(rho))}: .* at j = {j}$")):
                circle_spectrum(rho, j_max)


class TestModeValidation:
    def test_bool_multiplicity(self):
        for bad in (True, False):
            with pytest.raises(ValidationError, match="multiplicity"):
                Mode(1.0, bad)

    def test_negative_mu_sq(self):
        with pytest.raises(ValidationError):
            Mode(mu_sq=-1.0, multiplicity=1)

    @pytest.mark.parametrize("bad", ["x", True, -1, 2.0], ids=repr)
    def test_bad_label(self, bad):
        # a label is the mode's index j, a non-bool int >= 0
        with pytest.raises(ValidationError, match="^label must be"):
            Mode(2.0, 1, None, bad)

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            Mode(mu_sq=float("nan"), multiplicity=1)

    def test_bad_multiplicity(self):
        with pytest.raises(ValidationError):
            Mode(mu_sq=1.0, multiplicity=0)

    def test_exact_mismatch(self):
        with pytest.raises(ValidationError):
            Mode(mu_sq=1.0, multiplicity=1, mu_sq_exact=Fraction(3, 2))

    def test_exact_beyond_double_range(self):
        with pytest.raises(ValidationError,
                           match="^mu_sq_exact lies beyond the double range"):
            Mode(1.0, 1, Fraction(10 ** 400))

    def test_file_exact_beyond_double_range(self):
        text = '{"n": 1, "modes": [{"mu_sq": 1, "mu_sq_exact": "1e400", "m": 1}]}'
        with pytest.raises(ValidationError,
                           match=r"^modes\[0\]: mu_sq_exact lies beyond"):
            load_spectrum(io.StringIO(text))

    def test_unsorted_modes_rejected(self):
        with pytest.raises(ValidationError):
            SpectrumSpec(2, [Mode(2.0, 1), Mode(1.0, 1)], None, "file")


class TestFileIO:
    def test_round_trip(self, tmp_path):
        spec = sphere_spectrum(3, 3)
        path = tmp_path / "spec.json"
        save_spectrum(spec, path)
        back = load_spectrum(path)
        assert back.dimension_n == spec.dimension_n
        assert back.volume == pytest.approx(spec.volume, rel=0, abs=0)
        assert [(m.mu_sq, m.multiplicity, m.mu_sq_exact, m.label)
                for m in back.modes] == [
            (m.mu_sq, m.multiplicity, m.mu_sq_exact, m.label)
            for m in spec.modes]
        assert back.source == "file"

    def test_stream_round_trip(self):
        spec = circle_spectrum(Fraction(1, 3), 2)
        buf = io.StringIO()
        save_spectrum(spec, buf)
        back = load_spectrum(io.StringIO(buf.getvalue()))
        assert [m.mu_sq_exact for m in back.modes] == [0, 9, 36]

    def test_duplicates_merge(self):
        text = json.dumps({"n": 2, "modes": [
            {"mu_sq": 2.0, "m": 3}, {"mu_sq": 0.0, "m": 1},
            {"mu_sq": 2.0, "m": 4}]})
        spec = load_spectrum(io.StringIO(text))
        assert [(m.mu_sq, m.multiplicity) for m in spec.modes] == [
            (0.0, 1), (2.0, 7)]
        assert [m.label for m in spec.modes] == [0, 1]

    def test_inconsistent_duplicate_exact_forms(self):
        text = json.dumps({"n": 2, "modes": [
            {"mu_sq": 2.0, "m": 1, "mu_sq_exact": "2/1"},
            {"mu_sq": 2.0, "m": 1}]})
        with pytest.raises(ValidationError):
            load_spectrum(io.StringIO(text))

    @pytest.mark.parametrize("entries,named", [
        # a Mode check of one entry comes before a type check of the next
        ([{"mu_sq": 5.0, "m": 0}, {"m": 1}], "modes[0]: multiplicity"),
        ([{"m": 1}, {"mu_sq": 5.0, "m": 0}], "modes[0] is missing"),
        # file order, not mu^2 order, and a NaN before the sort uses it
        ([{"mu_sq": 5.0, "m": 0}, {"mu_sq": -1.0, "m": 1}],
         "modes[0]: multiplicity"),
        ([{"mu_sq": 1.0, "m": 1}, {"mu_sq": math.nan, "m": 1},
          {"mu_sq": 0.5, "m": 0}], "modes[1]: mu_sq must be a finite"),
        # a duplicate's multiplicity is checked before the merge sums it
        ([{"mu_sq": 2.0, "m": 3}, {"mu_sq": 2.0, "m": 0}],
         "modes[1]: multiplicity"),
        # a repeat whose exact forms disagree sorts before the bad entry,
        # and the bad entry is still the one named
        ([{"mu_sq": 1.0, "m": 1, "mu_sq_exact": "1/1"}, {"mu_sq": 1.0, "m": 1},
          {"mu_sq": 5.0, "m": 0}], "modes[2]: multiplicity"),
    ])
    def test_first_bad_entry_named(self, entries, named):
        text = json.dumps({"n": 2, "modes": entries})
        with pytest.raises(ValidationError, match=f"^{re.escape(named)}"):
            load_spectrum(io.StringIO(text))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError):
            load_spectrum(io.StringIO(
                '{"n": 2, "modes": [{"mu_sq": 0, "m": 1}], "extra": 1}'))
        with pytest.raises(ValidationError):
            load_spectrum(io.StringIO(
                '{"n": 2, "modes": [{"mu_sq": 0, "m": 1, "weight": 2}]}'))

    def test_missing_and_malformed(self):
        with pytest.raises(ParseError):
            load_spectrum(io.StringIO("{not json"))
        for text in ('{"modes": [{"mu_sq": 0, "m": 1}]}',
                     '{"n": 2}',
                     '{"n": 2, "modes": []}',
                     '{"n": 0, "modes": [{"mu_sq": 0, "m": 1}]}',
                     '{"n": 2, "volume": -1, "modes": [{"mu_sq": 0, "m": 1}]}',
                     '{"n": 2, "modes": [{"mu_sq": -1, "m": 1}]}',
                     '{"n": 2, "modes": [{"mu_sq": 0, "m": true}]}',
                     '{"n": 2, "modes": [{"mu_sq": 0, "m": 1, '
                     '"mu_sq_exact": "x"}]}'):
            with pytest.raises(ValidationError):
                load_spectrum(io.StringIO(text))
        with pytest.raises(ParseError):
            load_spectrum("/nonexistent/path.json")

    @pytest.mark.parametrize("field,text", [
        ("modes[0].mu_sq", '{"n": 1, "modes": [{"mu_sq": 1%s, "m": 1}]}'),
        ("'volume'", '{"n": 1, "volume": 1%s, "modes": [{"mu_sq": 1, "m": 1}]}'),
    ])
    def test_integer_beyond_double_range(self, field, text):
        # json reads a 401-digit integer exactly; float() of it overflows
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(field)} lies beyond the double"):
            load_spectrum(io.StringIO(text % ("0" * 400)))

    def test_undecodable_file(self, tmp_path):
        # bytes that are not UTF-8: a ParseError, not the codec's
        # UnicodeDecodeError (a ValueError)
        path = tmp_path / "spec.json"
        path.write_bytes(b'{"n": 2, "volume": 1.0, "modes": '
                         b'[{"mu_sq": 1.0, "m": 1, "mu_sq_exact": "\xff"}]}')
        with pytest.raises(ParseError, match="^not UTF-8 text: "):
            load_spectrum(path)
        with open(path, encoding="utf-8") as stream:
            with pytest.raises(ParseError, match="^not UTF-8 text: "):
                load_spectrum(stream)

    def test_over_deep_file(self, tmp_path):
        # a modes array nested 100,000 deep: the JSON reader's
        # RecursionError becomes a ParseError
        text = ('{"n": 2, "volume": 1.0, "modes": '
                + "[" * 100_000 + "]" * 100_000 + "}")
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        for source in (path, io.StringIO(text)):
            with pytest.raises(ParseError,
                               match="^JSON nested too deeply to read$"):
                load_spectrum(source)

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b'\xef\xbb\xbf{"n": 1, "modes": [{"mu_sq": 1, "m": 1}]}')
        with pytest.raises(ParseError, match="Unexpected UTF-8 BOM"):
            load_spectrum(path)

    def test_to_dict_shape(self):
        d = spectrum_to_dict(circle_spectrum(2, 1))
        assert d == {"n": 1,
                     "volume": pytest.approx(4 * math.pi),
                     "modes": [{"mu_sq": 0.0, "m": 1, "mu_sq_exact": "0/1"},
                               {"mu_sq": 0.25, "m": 2, "mu_sq_exact": "1/4"}]}


class TestFileLoader:
    """crosssec._file_modes against the loader it replaced
    (tests/oracles.py reference_file_modes), the exact-form reader against
    Fraction's own grammar, and the loader's work on fixed files."""

    SEED, DRAWS = 28, 2000
    MALFORMED = ("not a dict", "unknown key", "missing mu_sq", "missing m",
                 "bool mu_sq", "string mu_sq", "bool m", "string m",
                 "float m", "m below 1", "nan", "inf", "-inf", "negative",
                 "bad exact string", "exact not a string",
                 "exact disagrees", "401-digit int")

    @staticmethod
    def outcome(load, raw):
        try:
            modes = load(raw)
        except ValidationError as e:
            return type(e), str(e)
        # repr tells a float from an int and -0.0 from 0.0
        return [(repr(m.mu_sq), m.multiplicity, m.mu_sq_exact, m.label)
                for m in modes]

    @staticmethod
    def valid_entry(rng, pool):
        # pool holds (mu^2, whether its entries carry an exact form); one
        # entry in ten flips that, so repeats disagree now and then
        exact, with_form = rng.choice(pool)
        if rng.random() < 0.1:
            with_form = not with_form
        entry = {"mu_sq": float(exact), "m": rng.randint(1, 5)}
        if exact.denominator == 1 and rng.random() < 0.3:
            entry["mu_sq"] = exact.numerator
        if with_form:
            k = rng.randint(2, 4)
            entry["mu_sq_exact"] = rng.choice((
                f"{exact.numerator}/{exact.denominator}",
                f"{exact.numerator}/{exact.denominator}",
                f"{exact.numerator * k}/{exact.denominator * k}",
                f"00{exact.numerator}/{exact.denominator}",
                f" {exact.numerator}/{exact.denominator} ",
                f"+{exact.numerator}/{exact.denominator}",
                str(exact)))
        return entry

    @staticmethod
    def malform(rng, entry, kind):
        entry = dict(entry)
        if kind == "not a dict":
            return rng.choice(([1.0, 1], "mu_sq", None, 2.5, True))
        if kind == "unknown key":
            entry[rng.choice(("weight", "mu", "M"))] = 1
        elif kind in ("missing mu_sq", "missing m"):
            del entry[kind.split()[1]]
        elif kind == "bool mu_sq":
            entry["mu_sq"] = rng.choice((True, False))
        elif kind == "string mu_sq":
            entry["mu_sq"] = "1.5"
        elif kind == "bool m":
            entry["m"] = rng.choice((True, False))
        elif kind == "string m":
            entry["m"] = "2"
        elif kind == "float m":
            entry["m"] = 2.0
        elif kind == "m below 1":
            entry["m"] = rng.choice((0, -1))
        elif kind in ("nan", "inf", "-inf"):
            entry["mu_sq"] = float(kind)
        elif kind == "negative":
            entry["mu_sq"] = rng.choice((-1.0, -2, -1e-300))
            entry.pop("mu_sq_exact", None)
        elif kind == "bad exact string":
            entry["mu_sq_exact"] = rng.choice(
                ("x", "1/0", "0/0", "", "3/4/5", "3/", "/4", "1.5.2", "²/3"))
        elif kind == "exact not a string":
            entry["mu_sq_exact"] = rng.choice((1, 0.5, None, [1, 2]))
        elif kind == "exact disagrees":
            entry["mu_sq"] = 7.0
            entry["mu_sq_exact"] = rng.choice(("15/2", "-7/1", "1e400"))
        else:  # "401-digit int"
            entry["mu_sq"] = 10 ** 400
        return entry

    def test_matches_reference_loader(self):
        # 2,000 seeded arrays of 1-12 entries, unsorted, drawn from a pool
        # of eight mu^2 so values repeat, exact (in several spellings) and
        # float-only, int and float; exact forms agree or disagree within a
        # repeat; 40% carry one or two malformations
        rng = random.Random(self.SEED)
        seen = {kind: 0 for kind in self.MALFORMED}
        loaded = merged = disagreeing = 0
        for _ in range(self.DRAWS):
            pool = [(Fraction(rng.randint(0, 40), rng.choice((1, 1, 2, 3, 7))),
                     rng.random() < 0.7) for _ in range(8)]
            raw = [self.valid_entry(rng, pool)
                   for _ in range(rng.randint(1, 12))]
            if rng.random() < 0.4:
                count = min(rng.choice((1, 1, 1, 2)), len(raw))
                for at in rng.sample(range(len(raw)), count):
                    kind = rng.choice(self.MALFORMED)
                    raw[at] = self.malform(rng, raw[at], kind)
                    seen[kind] += 1
            expected = self.outcome(reference_file_modes, raw)
            assert self.outcome(crosssec._file_modes, raw) == expected, raw
            if isinstance(expected, list):
                loaded += 1
                merged += len(expected) < len(raw)
            elif "inconsistent exact forms" in expected[1]:
                disagreeing += 1
        assert min(seen.values()) >= 20, seen
        # 831 arrays load, 525 of them merging, and 392 are refused for
        # disagreeing exact forms
        assert loaded >= 500 and merged >= 300 and disagreeing >= 200, (
            loaded, merged, disagreeing)

    # what the exact-form reader must agree with Fraction on: the p/q its
    # own route reads, and strings that only look like it
    GRAMMAR = ["3/4", "007/010", "0/5", "5/0", "0/0",
               "1" * 5000 + "/3",
               "\u0661\u0662/\u0663", "\u00b2/3",
               " 3/4", "+3/4", "-3/4", "3/4/5", "3/", "/4",
               "1.5", "1e400", "1_000/3", ""]

    @pytest.mark.parametrize("raw", GRAMMAR, ids=lambda raw: repr(raw[:12]))
    def test_exact_form_grammar(self, raw):
        def read(parse):
            try:
                return parse(raw)
            except (ValueError, ZeroDivisionError) as e:
                return type(e), str(e)
        assert read(crosssec._exact_form) == read(Fraction)
        entry = [{"mu_sq": 1.0, "m": 1, "mu_sq_exact": raw}]
        expected = self.outcome(reference_file_modes, entry)
        assert self.outcome(crosssec._file_modes, entry) == expected

    def test_exact_form_values(self):
        # the cases above that read, and what they read to
        assert crosssec._exact_form("007/010") == Fraction(7, 10)
        assert crosssec._exact_form("\u0661\u0662/\u0663") == Fraction(4, 1)
        assert crosssec._exact_form("1_000/3") == Fraction(1000, 3)
        assert crosssec._exact_form("1e400") == 10 ** 400
        with pytest.raises(ValueError, match="limit"):
            crosssec._exact_form("1" * 5000 + "/3")

    @pytest.fixture
    def work(self, monkeypatch):
        # Modes built (each runs _check_mode once) and strings read by
        # Fraction's grammar (the regex match its string route makes)
        counts = {"modes": 0, "grammar": 0}
        check_mode, grammar = crosssec._check_mode, fractions._RATIONAL_FORMAT

        def counting_check(*args):
            counts["modes"] += 1
            return check_mode(*args)

        class CountingGrammar:
            def match(self, text):
                counts["grammar"] += 1
                return grammar.match(text)

        monkeypatch.setattr(crosssec, "_check_mode", counting_check)
        monkeypatch.setattr(fractions, "_RATIONAL_FORMAT", CountingGrammar())
        return counts

    @staticmethod
    def surd_file(js):
        # n = 2, mu^2 = j(j+1) + 1/3, one entry per j in js
        return json.dumps({"n": 2, "volume": 4 * math.pi, "modes": [
            {"mu_sq": j * (j + 1) + 1 / 3, "m": 2 * j + 1,
             "mu_sq_exact": f"{3 * j * (j + 1) + 1}/3"} for j in js]})

    def test_work_distinct_pq_file(self, work):
        spec = load_spectrum(io.StringIO(self.surd_file(range(500))))
        assert len(spec.modes) == 500
        assert work == {"modes": 500, "grammar": 0}
        # the counter sees the grammar: a decimal string goes through it
        text = json.dumps({"n": 2, "modes": [
            {"mu_sq": 1.5, "m": 1, "mu_sq_exact": "1.5"}]})
        load_spectrum(io.StringIO(text))
        assert work == {"modes": 501, "grammar": 1}

    def test_work_repeated_mu_sq(self, work):
        # 400 distinct mu^2; j < 100 appear twice and j < 20 three times:
        # 100 merged groups, each built once more after its entries
        js = list(range(400)) + list(range(100)) + list(range(20))
        random.Random(self.SEED).shuffle(js)
        spec = load_spectrum(io.StringIO(self.surd_file(js)))
        assert [m.multiplicity for m in spec.modes] == [
            (2 * j + 1) * (3 if j < 20 else 2 if j < 100 else 1)
            for j in range(400)]
        assert work == {"modes": 520 + 100, "grammar": 0}


class TestGenericity:
    def test_exact_non_generic(self):
        # s = 1/2: circle radius 2, j = 1 (mu^2 = 1/4)
        mode = circle_spectrum(2, 1).modes[1]
        assert is_generic(mode, 1) is GenericityVerdict.NON_GENERIC
        # every 2-sphere mode has s = j + 1/2
        for m in sphere_spectrum(2, 5).modes:
            assert is_generic(m, 2) is GenericityVerdict.NON_GENERIC

    def test_exact_generic(self):
        for m in sphere_spectrum(3, 5).modes:
            assert is_generic(m, 3) is GenericityVerdict.GENERIC
        assert is_generic(Mode(13.0 / 4.0, 1, Fraction(13, 4)),
                          1) is GenericityVerdict.GENERIC

    def test_float_generic(self):
        assert is_generic(Mode(math.pi, 1), 1) is GenericityVerdict.GENERIC

    def test_float_near_lattice_is_unknown(self):
        # mu^2 = (3/2)^2 + 1e-12: s within 1e-9 of 3/2 but not exact
        assert is_generic(Mode(2.25 + 1e-12, 1),
                          1) is GenericityVerdict.UNKNOWN_FLOAT

    def test_dimension_validation(self):
        with pytest.raises(InvalidDimension):
            is_generic(Mode(1.0, 1), 0)

    def test_integer_s_matches_fraction_reference(self):
        # the integer s of is_generic and s_param against s^2 formed in
        # Fraction arithmetic, over mu^2 = p/q whose s^2 is and is not a
        # rational square, across parities of n
        for n in range(1, 6):
            for q in (1, 2, 3, 4, 9, 16, 36):
                for p in range(0, 61):
                    mu = Fraction(p, q)
                    mode = Mode(float(mu), 1, mu)
                    sq = Fraction(n - 1, 2) ** 2 + mu
                    rn, rd = (math.isqrt(sq.numerator),
                              math.isqrt(sq.denominator))
                    square = (rn * rn == sq.numerator
                              and rd * rd == sq.denominator)
                    sv = s_param(n, mode)
                    assert sv.sq_exact == sq
                    assert sv.exact == (Fraction(rn, rd) if square else None)
                    assert sv.value == (rn / rd if square
                                        else math.sqrt(sq))
                    q4 = 4 * sq
                    half_odd = (q4.denominator == 1
                                and math.isqrt(q4.numerator) ** 2
                                == q4.numerator
                                and math.isqrt(q4.numerator) % 2 == 1)
                    assert (is_generic(mode, n)
                            is (GenericityVerdict.NON_GENERIC if half_odd
                                else GenericityVerdict.GENERIC))
