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
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from fractions import Fraction

from .crosssec import (
    GenericityVerdict,
    Mode,
    SpectrumSpec,
    circle_spectrum,
    is_generic,
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
    classify_pole,
    count_resonances,
    enumerate_resonances,
    hypergeom_params,
    weyl_leading_term,
)
from .verify import SUITE_NAMES, format_results, run_all, run_suite

__all__ = ["main", "thread_cap"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_TRUNCATION = 3
EXIT_UNDECIDABLE = 4
EXIT_NON_GENERIC = 5


class _NonGenericSpectrum(HyperconeError):
    pass


def thread_cap() -> int:
    """Validated HYPERCONE_THREADS value (default 1).

    The cap is an upper bound on internal parallelism; evaluation is
    sequential with a fixed reduction order, which honors any cap >= 1
    and keeps output independent of the setting.
    """
    raw = os.environ.get("HYPERCONE_THREADS")
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(
            f"HYPERCONE_THREADS must be an integer >= 1, got {raw!r}") from None
    if cap < 1:
        raise ValidationError(
            f"HYPERCONE_THREADS must be an integer >= 1, got {raw!r}")
    return cap


# ---------------------------------------------------------------------------
# emitters


def _float_text(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("non-finite number reached the output layer")
    return format(x, ".17g")


def _frac_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _json_text(obj, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_json_text(obj[k], indent + 2)}'
                 for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_text(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, Fraction):
        return json.dumps(_frac_text(obj))
    if isinstance(obj, complex):
        return _json_text({"im": obj.imag, "re": obj.real}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _float_text(v)
    if isinstance(v, Fraction):
        return _frac_text(v)
    return str(v)


def _csv_text(records: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    for rec in records:
        writer.writerow([_csv_cell(v) for v in rec])
    return buf.getvalue()


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# shared spectrum plumbing


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"cannot parse {what} {text!r}: {e}") from None


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


def _auto_jmax(args, lambda_max: float) -> int:
    if args.circle is not None:
        rho = _parse_fraction(args.circle, "radius")
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
    if j_max is None:
        if lambda_max is None:
            raise ValidationError("--jmax is required for generated spectra")
        j_max = _auto_jmax(args, lambda_max)
    if args.sphere is not None:
        return sphere_spectrum(args.sphere, j_max)
    return circle_spectrum(args.circle, j_max)


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


def _contributors_text(contributors) -> str:
    return ";".join(f"({j},{k})" for j, k in contributors)


def _cmd_resonances(args) -> int:
    if args.lambda_max < 0:
        raise ValidationError(f"--lambda-max must be >= 0, got {args.lambda_max}")
    spec = _build_spectrum(args, args.lambda_max)
    k_max = _auto_kmax(args, args.lambda_max)
    rset = enumerate_resonances(spec, k_max, args.lambda_max)
    if not rset.complete_up_to(args.lambda_max):
        raise TruncationInsufficient(
            f"spectrum truncation (j_max = {rset.truncation.j_max}, k_max = "
            f"{k_max}) cannot certify completeness up to "
            f"lambda = {args.lambda_max}; raise --jmax/--kmax")
    none_generic = not any(is_generic(m, spec.dimension_n)
                           is GenericityVerdict.GENERIC for m in spec.modes)
    trunc = {"j_max": rset.truncation.j_max, "k_max": rset.truncation.k_max,
             "lambda_max": rset.truncation.lambda_max}
    rows = [{"im_lambda": r.lam.imag, "multiplicity": r.multiplicity,
             "contributors": [list(c) for c in r.contributors],
             "exact": r.im_part_exact is not None or r.surd_key is not None}
            for r in rset.resonances]
    if args.format == "json":
        out = {"rows": rows, "truncation": trunc}
        if none_generic:
            out["note"] = "non-generic: all modes excluded"
        _emit(_json_text(out))
        return EXIT_OK
    records: list[list] = [["truncation", trunc["j_max"], trunc["k_max"],
                            trunc["lambda_max"]]]
    if none_generic:
        records.append(["note", "non-generic: all modes excluded"])
    records.append(["im_lambda", "multiplicity", "contributors", "exact"])
    for r in rset.resonances:
        records.append([r.lam.imag, r.multiplicity,
                        _contributors_text(r.contributors),
                        r.im_part_exact is not None or r.surd_key is not None])
    _emit(_csv_text(records))
    return EXIT_OK


def _sym_text(sym) -> str | None:
    if sym is None:
        return None
    u, v = sym
    if v == 0:
        return _frac_text(u)
    if abs(v) == 1:
        s_part = "s" if v > 0 else "-s"
    else:
        s_part = f"{'+' if v > 0 else '-'}{_frac_text(abs(v))}*s"
        s_part = s_part.lstrip("+")
    if u == 0:
        return s_part
    joiner = "+" if (v > 0 and abs(v) == 1) else ""
    return f"{_frac_text(u)}{joiner}{s_part}"


def _s_text(p) -> str | None:
    if p.s_exact is not None:
        return _frac_text(p.s_exact)
    if p.s_sq_exact is not None:
        return f"sqrt({_frac_text(p.s_sq_exact)})"
    return None


def _cmd_classify(args) -> int:
    if args.mu_sq_exact is not None:
        mu_exact = _parse_fraction(args.mu_sq_exact, "--mu-sq-exact")
        mode = Mode(mu_sq=float(mu_exact), multiplicity=1,
                    mu_sq_exact=mu_exact)
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
    if not any(is_generic(m, spec.dimension_n) is GenericityVerdict.GENERIC
               for m in spec.modes):
        raise _NonGenericSpectrum(
            "all modes are non-generic: the resonance set is empty and the "
            "Weyl comparison is undefined")
    k_max = _auto_kmax(args, lam_max)
    rows = []
    for lam in grid:
        count = count_resonances(spec, k_max, lam)
        leading = weyl_leading_term(spec.dimension_n, spec.volume, lam)
        rows.append({"count": count, "lambda": lam, "leading_term": leading,
                     "ratio": count / leading})
    trunc = {"j_max": spec.modes[-1].label, "k_max": k_max,
             "lambda_max": lam_max}
    if args.format == "json":
        _emit(_json_text({"rows": rows, "truncation": trunc}))
        return EXIT_OK
    records: list[list] = [["truncation", trunc["j_max"], trunc["k_max"],
                            trunc["lambda_max"]],
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


def _build_parser() -> argparse.ArgumentParser:
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


def _fail(code: int, reason: str, exc: Exception) -> int:
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
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
        thread_cap()
        return args.handler(args)
    except TruncationInsufficient as e:
        return _fail(EXIT_TRUNCATION, "truncation", e)
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
