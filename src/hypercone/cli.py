"""Command line surface: spectra, resonance tables, pole classification,
Weyl-law series, and the self-verification batteries.

Output is byte-stable for fixed inputs and seed: JSON with sorted keys and
17-significant-digit floats, CSV with RFC-4180 quoting and CRLF records.
Every failure exits nonzero after a single ``error:<reason>: message`` line
on stderr; the exit codes are

    0  success
    1  a verify battery reported failures
    2  validation or parse error (flags, files, domains)
    3  truncation cannot certify completeness up to the requested bound
    4  an exactness decision was requested of float-only data
    5  Weyl comparison on a spectrum with no generic modes

main(argv) can be called again and again in one process; the argument
parser is built on the first call and reused by every later one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from fractions import Fraction

from .crosssec import (
    Mode,
    SpectrumSpec,
    circle_spectrum,
    load_spectrum,
    spectrum_to_dict,
    sphere_spectrum,
)
from .errors import (
    DomainError,
    HyperconeError,
    InvalidDimension,
    InvalidRadius,
    ParseError,
    TruncationInsufficient,
    UndecidableMembership,
    ValidationError,
)
from .resonances import (
    _bound,
    _certify,
    _count,
    _listing,
    _runs,
    _scan,
    _truncation,
    classify_pole,
    hypergeom_params,
    weyl_leading_term,
)
from .verify import SUITE_NAMES, format_results, run_all, run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_TRUNCATION = 3
EXIT_UNDECIDABLE = 4
EXIT_NON_GENERIC = 5


class _NonGenericSpectrum(HyperconeError):
    pass


# ---------------------------------------------------------------------------
# emitters


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError("non-finite number reached the output layer")
    return format(x, ".17g")


def _frac_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


_quote = json.encoder.encode_basestring_ascii


class _Raw(str):
    """A JSON fragment that _json_write appends verbatim.  It must already
    be valid JSON, indented for the place in the document it is written."""


def _json_write(obj, pad: str, out: list) -> None:
    # appends obj's fragments to out; each element of a list is joined into
    # one string as soon as it is written, so a long list holds one string
    # per element rather than every fragment until the end.  A _Raw
    # fragment is appended as it is.
    t = type(obj)
    if t is float:
        out.append(_float_text(obj))
    elif t is int:
        out.append(str(obj))
    elif t is str:
        out.append(_quote(obj))
    elif t is dict:
        inner = pad + "  "
        head = "{\n" + inner
        for k in sorted(obj):
            out.append(head + _quote(k) + ": ")
            head = ",\n" + inner
            _json_write(obj[k], inner, out)
        out.append("\n" + pad + "}" if obj else "{}")
    elif t is list:
        inner = pad + "  "
        head = "[\n" + inner
        for v in obj:
            row = [head]
            _json_write(v, inner, row)
            out.append("".join(row))
            head = ",\n" + inner
        out.append("\n" + pad + "]" if obj else "[]")
    elif obj is None:
        out.append("null")
    elif t is _Raw:
        out.append(obj)
    else:
        raise ValidationError(f"cannot serialize {t.__name__} to JSON")


def _json_text(obj) -> str:
    """Sorted keys, 2-space indent, 17-significant-digit floats."""
    out: list = []
    _json_write(obj, "", out)
    return "".join(out)


def _csv_cell(v) -> str:
    return _float_text(v) if type(v) is float else str(v)


def _csv_text(records: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerows([_csv_cell(v) for v in rec] for rec in records)
    return buf.getvalue()


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# shared spectrum plumbing


def _parse_fraction(text: str, what: str, kind=Fraction) -> Fraction:
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"cannot parse {what} {text!r}: {e}") from None


class _Radius(Fraction):
    """A --circle radius, parsed once: circle_spectrum reads it as the
    Fraction it is, without parsing it again, and names it in messages as
    it was written."""

    __slots__ = ("text",)

    def __new__(cls, text: str):
        self = super().__new__(cls, text)
        self.text = text
        return self

    def __repr__(self) -> str:
        return repr(self.text)


def _add_source_flags(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--sphere", type=int, metavar="N",
                       help="round unit n-sphere cross-section")
    group.add_argument("--circle", metavar="RHO",
                       help="circle of radius RHO (rational string accepted)")
    group.add_argument("--file", metavar="PATH",
                       help="spectrum JSON file")
    sp.add_argument("--jmax", type=int, default=None,
                    help="highest mode index for generated spectra")


def _auto_jmax(rho: Fraction | None, lambda_max: float) -> int:
    # rho is the circle's radius, None for a sphere
    if rho is not None:
        return max(0, math.ceil(rho * Fraction(float(lambda_max))) + 1)
    return max(0, math.ceil(lambda_max) + 1)


def _build_spectrum(args, lambda_max: float | None = None) -> SpectrumSpec:
    if args.file is not None:
        if args.jmax is not None:
            raise ValidationError("--jmax applies to generated spectra, "
                                  "not --file")
        try:
            return load_spectrum(args.file)
        except OSError as e:
            raise ParseError(f"cannot read {args.file!r}: {e}") from None
    j_max = args.jmax
    if j_max is None and lambda_max is None:
        raise ValidationError("--jmax is required for generated spectra")
    rho = (None if args.circle is None
           else _parse_fraction(args.circle, "radius", _Radius))
    if j_max is None:
        j_max = _auto_jmax(rho, lambda_max)
    if rho is None:
        return sphere_spectrum(args.sphere, j_max)
    return circle_spectrum(rho, j_max)


def _auto_kmax(args, lambda_max: float) -> int:
    if args.kmax is not None:
        return args.kmax
    return max(0, math.ceil(lambda_max) + 1)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args) -> int:
    spec = _build_spectrum(args)
    if args.format == "json":
        _emit(_json_text(spectrum_to_dict(spec)))
        return EXIT_OK
    records: list[list] = [["n", spec.dimension_n]]
    if spec.volume is not None:
        records.append(["volume", spec.volume])
    records.append(["mu_sq", "mu_sq_exact", "multiplicity"])
    for m in spec.modes:
        records.append([m.mu_sq,
                        "" if m.mu_sq_exact is None else _frac_text(m.mu_sq_exact),
                        m.multiplicity])
    _emit(_csv_text(records))
    return EXIT_OK


# One listing row and one (j, k) pair of its contributors, as _json_text
# lays them out at the "rows" list of the listing document; the %.17g of
# -t is _float_text's, and t is finite because the bound is.  A row of one
# contributor is written by _JSON_ROW1, the row with its pair in place.
_JSON_ROW = ('{\n      "contributors": [\n        %s\n      ],\n'
             '      "exact": %s,\n      "im_lambda": %.17g,\n'
             '      "multiplicity": %d\n    }')
_JSON_PAIR = "[\n          %d,\n          %d\n        ]"
_JSON_ROW1 = _JSON_ROW.replace("%s", _JSON_PAIR, 1)


def _json_rows(rows) -> _Raw:
    # the rows of resonances._listing as the JSON list _json_text would
    # write for their fields, one template per row and per pair
    return _Raw("[\n    " + ",\n    ".join([
        _JSON_ROW1 % (*c[0], "false" if key is None else "true", -t, mult)
        if len(c) == 1 else
        _JSON_ROW % (",\n        ".join([_JSON_PAIR % p for p in c]),
                     "false" if key is None else "true", -t, mult)
        for t, key, c, mult in rows]) + "\n  ]")


# One listing row as csv.writer writes it: the contributors cell always
# holds a comma, so it is always quoted, and no other cell needs quoting.
# _CSV_ROW1 is a row of one contributor, the pair written in place.
_CSV_ROW = '%.17g,%d,"%s",%s\r\n'
_CSV_PAIR = "(%d,%d)"
_CSV_ROW1 = _CSV_ROW.replace("%s", _CSV_PAIR, 1)


def _csv_rows(rows) -> str:
    # the rows of resonances._listing as the CSV records _csv_text would
    # write for their fields, one template per row
    return "".join([
        _CSV_ROW1 % (-t, mult, *c[0], "false" if key is None else "true")
        if len(c) == 1 else
        _CSV_ROW % (-t, mult, ";".join([_CSV_PAIR % p for p in c]),
                    "false" if key is None else "true")
        for t, key, c, mult in rows])


def _cmd_resonances(args) -> int:
    lambda_max = args.lambda_max
    if not (math.isfinite(lambda_max) and lambda_max >= 0):
        raise ValidationError(
            f"--lambda-max must be finite and >= 0, got {lambda_max}")
    spec = _build_spectrum(args, lambda_max)
    k_max = _auto_kmax(args, lambda_max)
    generic = _scan(spec, k_max, lambda_max)
    _certify(spec, k_max, _bound(lambda_max))
    rows, _, _ = _listing(generic, k_max, lambda_max)
    trunc = _truncation(spec, k_max, lambda_max)
    if args.format == "json":
        out = {"rows": _json_rows(rows) if rows else [],
               "truncation": {"j_max": trunc.j_max, "k_max": trunc.k_max,
                              "lambda_max": trunc.lambda_max}}
        if not generic:
            out["note"] = "non-generic: all modes excluded"
        _emit(_json_text(out))
        return EXIT_OK
    records: list[list] = [["truncation", trunc.j_max, trunc.k_max,
                            trunc.lambda_max]]
    if not generic:
        records.append(["note", "non-generic: all modes excluded"])
    records.append(["im_lambda", "multiplicity", "contributors", "exact"])
    _emit(_csv_text(records) + _csv_rows(rows))
    return EXIT_OK


def _sym_text(sym) -> str | None:
    # hypergeom_params gives a and c an s-coefficient of 0 and b one of 1
    if sym is None:
        return None
    u, v = sym
    if v == 0:
        return _frac_text(u)
    return "s" if u == 0 else f"{_frac_text(u)}+s"


def _s_text(p) -> str | None:
    if p.s_exact is not None:
        return _frac_text(p.s_exact)
    if p.s_sq_exact is not None:
        return f"sqrt({_frac_text(p.s_sq_exact)})"
    return None


def _cmd_classify(args) -> int:
    if args.mu_sq_exact is not None:
        mu_exact = _parse_fraction(args.mu_sq_exact, "--mu-sq-exact")
        try:
            mu_sq = float(mu_exact)
        except OverflowError:
            raise ValidationError(f"--mu-sq-exact {args.mu_sq_exact!r} lies "
                                  "beyond the double range") from None
        mode = Mode(mu_sq=mu_sq, multiplicity=1, mu_sq_exact=mu_exact)
    else:
        mode = Mode(mu_sq=args.mu_sq, multiplicity=1)
    y = _parse_fraction(args.lambda_im, "--lambda-im")
    p = hypergeom_params(args.n, mode, complex(0.0, float(y)),
                         lam_im_exact=y)
    pc = classify_pole(p)
    fields = {
        "a": {"exact": _sym_text(p.a_sym), "value": p.a.real},
        "b": {"exact": _sym_text(p.b_sym), "value": p.b.real},
        "c": {"exact": _sym_text(p.c_sym), "value": p.c.real},
        "s": {"exact": _s_text(p), "value": p.s},
        "case_id": pc.case_id.value,
        "verdict": pc.verdict.value,
    }
    if args.format == "json":
        _emit(_json_text(fields))
        return EXIT_OK
    records = [["a", "b", "c", "s", "case_id", "verdict"],
               [fields["a"]["exact"] or _float_text(p.a.real),
                fields["b"]["exact"] or _float_text(p.b.real),
                fields["c"]["exact"] or _float_text(p.c.real),
                fields["s"]["exact"] or _float_text(p.s),
                pc.case_id.value, pc.verdict.value]]
    _emit(_csv_text(records))
    return EXIT_OK


def _parse_lambda_grid(text: str) -> list[float]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            lam = float(part)
        except ValueError:
            raise ParseError(f"cannot parse lambda grid entry {part!r}") from None
        if not math.isfinite(lam) or lam <= 0:
            raise ValidationError(
                f"lambda grid entries must be positive and finite, got {part}")
        out.append(lam)
    if not out:
        raise ValidationError("empty --lambda-grid")
    return out


def _cmd_weyl(args) -> int:
    grid = _parse_lambda_grid(args.lambda_grid)
    lam_max = max(grid)
    spec = _build_spectrum(args, lam_max)
    if spec.volume is None:
        raise ValidationError(
            "spectrum carries no volume; the Weyl leading term is undefined")
    k_max = _auto_kmax(args, lam_max)
    # one scan for the whole grid, which builds no mode of a generated
    # spectrum; an undecidable mode refuses before the non-generic check,
    # as it does for resonances
    runs = _runs(spec, k_max, lam_max)
    if not runs:
        raise _NonGenericSpectrum(
            "all modes are non-generic: the resonance set is empty and the "
            "Weyl comparison is undefined")
    # every leading term before any count: an overflowing one refuses
    # before a count is certified or made at any grid point
    leading = [weyl_leading_term(spec.dimension_n, spec.volume, lam)
               for lam in grid]
    rows = []
    for lam, term in zip(grid, leading):
        count = _count(spec, runs, k_max, lam)
        try:
            ratio = count / term
        except OverflowError:  # an int count beyond the double range
            ratio = math.inf
        if ratio == math.inf:
            raise DomainError(f"Weyl count at lambda = {lam!r}: the ratio "
                              "count / leading term overflows a double")
        rows.append({"count": count, "lambda": lam, "leading_term": term,
                     "ratio": ratio})
    trunc = _truncation(spec, k_max, lam_max)
    if args.format == "json":
        _emit(_json_text({"rows": rows, "truncation": {
            "j_max": trunc.j_max, "k_max": trunc.k_max,
            "lambda_max": trunc.lambda_max}}))
        return EXIT_OK
    records: list[list] = [["truncation", trunc.j_max, trunc.k_max,
                            trunc.lambda_max],
                           ["lambda", "count", "leading_term", "ratio"]]
    for row in rows:
        records.append([row["lambda"], row["count"], row["leading_term"],
                        row["ratio"]])
    _emit(_csv_text(records))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.suite == "all":
        results = run_all(args.seed)
    else:
        results = run_suite(args.suite, args.seed)
    for line in format_results(results):
        print(line)
    failed = sum(not r.passed for r in results)
    if failed:
        print(f"error:verify: {failed} of {len(results)} checks failed",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and never changed after: parse_args
    # keeps its state in a fresh namespace per call
    parser = _Parser(prog="hypercone",
                     description="Resonances of hyperbolic cones over a "
                                 "compact cross-section.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="emit a cross-section spectrum")
    _add_source_flags(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(handler=_cmd_spectrum)

    sp = sub.add_parser("resonances", help="enumerate resonances up to a bound")
    _add_source_flags(sp)
    sp.add_argument("--lambda-max", type=float, required=True,
                    help="enumerate |lambda| <= this bound")
    sp.add_argument("--kmax", type=int, default=None,
                    help="highest order k (default: derived from the bound)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(handler=_cmd_resonances)

    sp = sub.add_parser("classify", help="classify one candidate pole")
    sp.add_argument("--n", type=int, required=True,
                    help="cross-section dimension")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu-sq", type=float, help="mode eigenvalue (float)")
    group.add_argument("--mu-sq-exact", metavar="P/Q",
                       help="mode eigenvalue as an exact rational")
    sp.add_argument("--lambda-im", required=True, metavar="P/Q",
                    help="Im(lambda) as a rational string (lambda = i * this)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(handler=_cmd_classify)

    sp = sub.add_parser("weyl", help="resonance counts against the Weyl term")
    _add_source_flags(sp)
    sp.add_argument("--lambda-grid", required=True, metavar="L1,L2,...",
                    help="comma-separated positive bounds")
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(handler=_cmd_weyl)

    sp = sub.add_parser("verify", help="run self-verification batteries")
    sp.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the randomized draws")
    sp.set_defaults(handler=_cmd_verify)
    return parser


def _fail(code: int, reason: str, exc: Exception | str) -> int:
    message = " ".join(str(exc).split())
    print(f"error:{reason}: {message}", file=sys.stderr)
    return code


# flags whose values may start with "-" in forms argparse rejects ("-3/2")
_NEGATIVE_VALUE_FLAGS = {"--lambda-im", "--mu-sq", "--mu-sq-exact", "--circle"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _NEGATIVE_VALUE_FLAGS and i + 1 < len(argv)
                and re.fullmatch(r"-[0-9][0-9./]*", argv[i + 1])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_merge_negative_values(list(argv)))
        return args.handler(args)
    except TruncationInsufficient as e:
        return _fail(EXIT_TRUNCATION, "truncation",
                     f"{e}; raise --jmax/--kmax")
    except UndecidableMembership as e:
        return _fail(EXIT_UNDECIDABLE, "undecidable", e)
    except _NonGenericSpectrum as e:
        return _fail(EXIT_NON_GENERIC, "non-generic", e)
    except (ParseError, ValidationError, InvalidDimension, InvalidRadius,
            DomainError) as e:
        return _fail(EXIT_VALIDATION, "validation", e)
    except HyperconeError as e:
        return _fail(EXIT_VALIDATION, type(e).__name__, e)
    except (ValueError, ZeroDivisionError) as e:
        return _fail(EXIT_VALIDATION, "validation", e)


if __name__ == "__main__":
    sys.exit(main())
