"""Seeded workloads: generated inputs, the timed operation and its check.

Every operation enters the library through a user-facing entry point with
default controls, and is checked against an independent reference
(``reference.py``) after its timed region ends.  An operation is a closure
``run()`` whose result (or raised exception) goes to ``check()``.

Inputs are sized by work, not by parameters: a lattice query targets a
fixed number of (j, k) pairs, a grid operation a fixed support width on the
default grid, and a point case a fixed set of evaluations.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

DIGITS_CAP = 17.0  # digits credited to an exact result


@dataclass
class Outcome:
    passed: bool = True
    digits: float = DIGITS_CAP
    failures: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    def fail(self, label: str) -> None:
        self.passed = False
        self.failures.append(label)

    def accuracy(self, rel_err: float, tol: float, what: str) -> None:
        """Count a miss of tol as a failure; else keep the worst digits."""
        if not rel_err <= tol:  # NaN misses too
            self.fail(f"tolerance:{what}")
        elif rel_err > 0.0:
            self.digits = min(self.digits, -math.log10(rel_err))


@dataclass
class Op:
    desc: dict
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def exception_label(exc: BaseException, typed_base) -> str:
    kind = "typed" if isinstance(exc, typed_base) else "untyped"
    return f"{kind}:{type(exc).__name__}"


def _rel(value, expect) -> float:
    return abs(value - expect) / abs(expect) if expect != 0 else abs(value)


def _rng(seed: int, workload: str, i: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{i}")


class Context:
    """What a workload's operations share: the library modules, the seed,
    the work directory for generated files, and the size settings."""

    def __init__(self, hc, seed: int, workdir: Path, small: bool,
                 corrupt: bool):
        self.hc = hc          # namespace of hypercone modules
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self.corrupt = corrupt
        self.files: dict[str, tuple] = {}   # generated spectrum files
        self.cases: list[dict] = []          # kernel_point case pool
        self.refs: list = []                 # mpmath values for the cases


# -- lattice workloads --------------------------------------------------------

CIRCLE_RADII = ("1", "2", "3", "1/2", "3/2", "2/3", "5/4", "4/3", "5/2")
SURD_SHIFTS = (Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), Fraction(3, 11))
# spectrum kinds in a fixed rotation, so every seed has the same mix
LATTICE_KINDS = ("circle", "sphere", "surd", "float", "circle")


def _pairs_target(ctx: Context) -> int:
    return 300 if ctx.small else 3500


def _bound_for(ctx: Context, rng: random.Random, offset: float,
               density: float) -> float:
    # (j, k) pairs below L grow like density * (L - offset)^2 / 2
    pairs = _pairs_target(ctx) * (1.0 + rng.uniform(-0.03, 0.03))
    return round(offset + math.sqrt(2.0 * pairs / density), 3)


def _sphere_multiplicity(n: int, j: int) -> int:
    if j == 0:
        return 1
    return ((2 * j + n - 1) * math.factorial(j + n - 2)
            // (math.factorial(j) * math.factorial(n - 1)))


def write_file_spectra(ctx: Context) -> list[dict]:
    """Two exact-surd spectra (n = 2, mu^2 = j(j+1) + c) and two float-only
    spectra (circles of a float radius, written without exact forms), each
    with modes past the largest bound a query can ask for.  The lattice
    references are exact, so there are no mpmath requests."""
    rng = _rng(ctx.seed, "files", 0)
    reach = math.sqrt(2.0 * _pairs_target(ctx) * 1.04)
    for v, shift in enumerate(rng.sample(SURD_SHIFTS, 2)):
        modes = []
        for j in range(int(reach) + 4):
            q = Fraction(j * (j + 1)) + shift
            modes.append((q, float(q), 2 * j + 1))
        _save(ctx, f"surd{v}", 2, 4.0 * math.pi, modes)
    for v in range(2):
        while True:
            rho = rng.uniform(0.6, 1.9)
            top = int(rho * (1.5 + reach / math.sqrt(rho))) + 3
            modes = [(None, (j / rho) ** 2, 1 if j == 0 else 2)
                     for j in range(top)]
            # s within 1e-6 of 1/2 + Z would make genericity a float toss
            if all(abs(math.sqrt(m[1]) % 1.0 - 0.5) > 1e-6 for m in modes):
                break
        _save(ctx, f"float{v}", 1, 2.0 * math.pi * rho, modes, rho)
    return []


def _save(ctx, key, n, volume, modes, density=1.0) -> None:
    path = ctx.workdir / f"{key}.json"
    entries = []
    for exact, mu_sq, mult in modes:
        entry = {"mu_sq": mu_sq, "m": mult}
        if exact is not None:
            entry["mu_sq_exact"] = f"{exact.numerator}/{exact.denominator}"
        entries.append(entry)
    path.write_text(json.dumps({"n": n, "volume": volume, "modes": entries}),
                    encoding="utf-8")
    ctx.files[key] = (path, n, modes, density)


@dataclass
class _Spectrum:
    """One generated cross-section: CLI source flags plus the reference's
    own copy of its modes, and the bound a query asks for."""

    source: list[str]
    n: int
    modes: list[tuple]
    bound: float


def _stratum(ctx: Context, i: int, options):
    """The i-th draw from options, in a seeded order that visits every
    option once per round, so every seed asks for the same mix."""
    order = list(options)
    random.Random(f"{ctx.seed}:strata:{len(order)}").shuffle(order)
    return order[i % len(order)]


def _lattice_spectrum(ctx: Context, i: int, rng: random.Random) -> _Spectrum:
    kind = LATTICE_KINDS[i % len(LATTICE_KINDS)]
    rounds = i // len(LATTICE_KINDS)  # queries of this kind so far
    if kind == "circle":
        text = _stratum(ctx, 2 * rounds + (i % len(LATTICE_KINDS) > 0),
                        CIRCLE_RADII)
        rho = Fraction(text)
        bound = _bound_for(ctx, rng, 0.5, float(rho))
        modes = [(Fraction(j * j) / (rho * rho), float(j * j / rho / rho),
                  1 if j == 0 else 2)
                 for j in range(int(rho * Fraction(bound)) + 2)]
        return _Spectrum(["--circle", text], 1, modes, bound)
    if kind == "sphere":
        n = _stratum(ctx, rounds, (3, 5))
        bound = _bound_for(ctx, rng, 0.5 + (n - 1) / 2, 1.0)
        modes = [(Fraction(j * (j + n - 1)), float(j * (j + n - 1)),
                  _sphere_multiplicity(n, j)) for j in range(int(bound) + 2)]
        return _Spectrum(["--sphere", str(n)], n, modes, bound)
    key = f"{kind}{rounds % 2}"
    path, n, modes, density = ctx.files[key]
    offset = 1.0 if kind == "surd" else 0.5
    bound = _bound_for(ctx, rng, offset, density)
    if kind == "float":
        bound = _clear_of_positions(n, modes, bound)
    return _Spectrum(["--file", str(path)], n, modes, bound)


def _clear_of_positions(n, modes, bound: float) -> float:
    # keep float-only bounds 1e-6 away from every position 1/2 + k + s, where
    # a float comparison would be a coin toss rather than a measurement
    while True:
        gaps = [(bound - 0.5 - ref.s_form(n, None, m[1])[1]) % 1.0
                for m in modes]
        if all(1e-6 < g < 1 - 1e-6 for g in gaps):
            return bound
        bound = round(bound + 0.001, 3)


def _cli_run(ctx: Context, argv: list[str]) -> Callable[[], tuple]:
    main = ctx.hc.cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main.main(argv)
        return code, buf.getvalue()
    return run


def _cli_outcome(ctx: Context, raw) -> tuple[Outcome, str | None]:
    out = Outcome()
    if isinstance(raw, BaseException):
        out.fail(exception_label(raw, ctx.hc.errors.HyperconeError))
        return out, None
    code, text = raw
    out.counters["cli.stdout_bytes"] = len(text.encode())
    if code != 0:
        out.fail(f"exit:{code}")
        return out, None
    return out, text


def lattice_count_op(ctx: Context, i: int) -> Op:
    rng = _rng(ctx.seed, "lattice_count", i)
    sp = _lattice_spectrum(ctx, i, rng)
    grid = [round(sp.bound * f, 3) for f in (0.55, 0.8)] + [sp.bound]
    if sp.source[0] == "--file" and sp.modes[0][0] is None:
        grid = [_clear_of_positions(sp.n, sp.modes, g) for g in grid]
    argv = ["weyl", *sp.source, "--lambda-grid", ",".join(map(repr, grid)),
            "--format", "json"]
    desc = {"argv": argv}
    corrupt = ctx.corrupt and i == 0

    def check(raw) -> Outcome:
        out, text = _cli_outcome(ctx, raw)
        if text is None:
            return out
        rows = json.loads(text)["rows"]
        if [r["lambda"] for r in rows] != grid:
            out.fail("tolerance:weyl_grid")
        for r, lam in zip(rows, grid):
            want = ref.lattice_count(sp.n, sp.modes, lam) + (1 if corrupt else 0)
            if r["count"] != want:
                out.fail("tolerance:weyl_count")
        return out

    return Op(desc, _cli_run(ctx, argv), check)


def lattice_list_op(ctx: Context, i: int) -> Op:
    rng = _rng(ctx.seed, "lattice_list", i)
    sp = _lattice_spectrum(ctx, i, rng)
    fmt = "json" if (i // len(LATTICE_KINDS)) % 2 == 0 else "csv"
    argv = ["resonances", *sp.source, "--lambda-max", repr(sp.bound),
            "--format", fmt]
    desc = {"argv": argv}
    corrupt = ctx.corrupt and i == 0

    def check(raw) -> Outcome:
        out, text = _cli_outcome(ctx, raw)
        if text is None:
            return out
        rows = _parse_listing(text, fmt)
        pairs = ref.lattice_pairs(sp.n, sp.modes, sp.bound)
        if corrupt:
            pairs.pop(next(iter(pairs)))
        _check_listing(out, sp, rows, pairs)
        return out

    return Op(desc, _cli_run(ctx, argv), check)


def _parse_listing(text: str, fmt: str) -> list[tuple]:
    # rows of (t, multiplicity, contributors, exact) with t = -Im(lambda)
    if fmt == "json":
        return [(-r["im_lambda"], r["multiplicity"],
                 [tuple(c) for c in r["contributors"]], r["exact"])
                for r in json.loads(text)["rows"]]
    rows = []
    records = list(csv.reader(io.StringIO(text, newline="")))
    start = records.index(["im_lambda", "multiplicity", "contributors",
                           "exact"]) + 1
    for im, mult, contrib, exact in records[start:]:
        pairs = [tuple(int(x) for x in c.strip("()").split(","))
                 for c in contrib.split(";")] if contrib else []
        rows.append((-float(im), int(mult), pairs, exact == "true"))
    return rows


def _check_listing(out: Outcome, sp: _Spectrum, rows, pairs: dict) -> None:
    seen = set()
    last = -math.inf
    exact_data = sp.modes[0][0] is not None
    for t, mult, contributors, exact in rows:
        if t < last:
            out.fail("tolerance:listing_order")
        last = t
        if exact != exact_data:
            out.fail("tolerance:listing_exact_flag")
        if mult != sum(sp.modes[j][2] for j, _ in contributors):
            out.fail("tolerance:listing_multiplicity")
        keys = set()
        for jk in contributors:
            if jk not in pairs or jk in seen:
                out.fail("tolerance:listing_contributor")
                continue
            seen.add(jk)
            key, t_ref = pairs[jk]
            keys.add(key)
            if not ref.position_matches(key, t_ref, t):
                out.fail("tolerance:listing_position")
        # exact data merges only equal positions; float data within 1e-9
        if exact_data and len(keys) > 1:
            out.fail("tolerance:listing_merge")
    if len(seen) != len(pairs):
        out.fail("tolerance:listing_missing")


# -- kernel_grid --------------------------------------------------------------

GRID_KINDS = ("residual_sigma", "residual_r", "green")
RESIDUAL_TOL, RESIDUAL_TOL_3I, SYMMETRY_TOL = 1e-5, 1e-6, 1e-7
# Timed draws keep Im lambda >= -1.2 (ACCEPTANCE 3 goes to -1.1).  Below it
# the continued resolvent grows while the residual bound stays absolute, and
# the worst residual of a run would hinge on one draw; that strip goes to
# the frontier.
GRID_IM_MIN = -1.2

# lambda cells: Re in six unit bins, Im in [-1.2, 0), [0, 1.5), [1.5, 3]
GRID_CELLS = tuple((re, im) for re in range(-3, 3)
                   for im in ((GRID_IM_MIN, 0.0), (0.0, 1.5), (1.5, 3.0)))


def _grid_lambda(rng: random.Random, re_lo: float, re_hi: float,
                 im_lo: float, im_hi: float) -> complex:
    while True:
        lam = complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
        if abs(lam) <= 3.0:
            return lam


def kernel_grid_op(ctx: Context, i: int) -> Op:
    """One grid operation; lambda, mu^2 and n are drawn stratified (one
    draw per cell per round), so every seed asks for the same mix."""
    rng = _rng(ctx.seed, "kernel_grid", i)
    if i % 8 == 0:
        lam = 3j
    else:
        re, (im_lo, im_hi) = _stratum(ctx, i // 3, GRID_CELLS)  # all kinds
        lam = _grid_lambda(rng, re, re + 1, im_lo, im_hi)
    mu_lo = _stratum(ctx, i // 3, range(9))
    return _grid_op(ctx, GRID_KINDS[i % len(GRID_KINDS)], 1 + i % 4, lam,
                    rng.uniform(mu_lo, mu_lo + 1), rng, ctx.corrupt and i == 0)


def _grid_op(ctx: Context, kind: str, n: int, lam: complex, mu_sq: float,
             rng: random.Random, corrupt: bool = False) -> Op:
    res = ctx.hc.resolvent
    mode = ctx.hc.crosssec.Mode(mu_sq, 1)
    # f and g overlap by a fixed 0.04, which fixes the work of a pairing
    width = 0.15
    lo_f = rng.uniform(0.2, 0.69 - width)
    lo_g = lo_f + 0.11
    if rng.random() < 0.5:
        lo_f, lo_g = lo_g, lo_f
    f = res.RadialProfile.bump(lo_f, lo_f + width)
    g = res.RadialProfile.bump(lo_g, lo_g + width)
    desc = {"kind": kind, "n": n, "mu_sq": mu_sq, "lam": [lam.real, lam.imag],
            "f": [lo_f, width], "g": [lo_g, width]}
    scale = 1e-12 if corrupt else 1.0
    typed = ctx.hc.errors.HyperconeError

    if kind == "green":
        def run():
            return (res.green_pairing(n, mode, lam, f, g),
                    res.green_pairing(n, mode, lam, g, f))
    else:
        coordinate = "sigma" if kind == "residual_sigma" else "r"

        def run():
            return res.residual_check(n, mode, lam, f,
                                      coordinate=coordinate).max_residual

    def check(raw) -> Outcome:
        out = Outcome()
        if isinstance(raw, BaseException):
            out.fail(exception_label(raw, typed))
        elif kind == "green":
            fg, gf = raw
            asym = abs(fg - gf) / max(abs(fg), abs(gf))
            out.accuracy(asym, SYMMETRY_TOL * scale, "green_symmetry")
        else:
            tol = RESIDUAL_TOL_3I if lam == 3j else RESIDUAL_TOL
            out.accuracy(raw, tol * scale, kind)
        return out

    return Op(desc, run, check)


# -- kernel_point -------------------------------------------------------------

POINT_TOL = 1e-10
POINT_RE_MAX = 4.0       # |Re lambda| of the timed cases
POINT_POOL = 96          # distinct cases per seed, cycled during a run


def _candidate_mode(rng: random.Random, n: int, variant: int) -> Fraction:
    """mu^2 for a candidate probe with s < 2.5: a surd s, a dyadic
    rational s (so the candidate lambda is an exact float and the library
    can refuse it), or s in 1/2 + Z (excluded, so no pole)."""
    base = Fraction(n - 1, 2) ** 2
    if variant == 0:
        while True:
            q = Fraction(rng.randint(1, 60), 16)
            if ref.s_form(n, q, 0.0)[0] == "surd":
                return q
    choices = ([Fraction(k, 4) for k in range(1, 10) if k % 2]
               if variant == 1 else [Fraction(1, 2), Fraction(3, 2)])
    while True:
        s = rng.choice(choices)
        if s * s >= base:
            return s * s - base


# off-axis lambda cells: |Re| in four unit bins, Im in six unit bins
POINT_CELLS = tuple((re, im) for re in range(int(POINT_RE_MAX))
                    for im in range(-3, 3))


def _point_case(ctx: Context, i: int) -> dict:
    """Case i: n = 1 + i % 4 and, per n, one off-axis lambda in each cell
    and the three candidate-mode variants in turn (a balanced design)."""
    rng = _rng(ctx.seed, "kernel_point", i)
    n = 1 + i % 4
    re, im = _stratum(ctx, i // 4, POINT_CELLS)
    lam = complex(rng.choice((-1, 1)) * rng.uniform(max(re, 0.05), re + 1),
                  rng.uniform(im, im + 1))
    q = Fraction(16 * _stratum(ctx, i, range(9)) + rng.randint(0, 16), 16)
    cand = _candidate_mode(rng, n, (i // 4) % 3)
    s = ref.s_form(n, cand, 0.0)
    s_val = float(s[1]) if s[0] == "rat" else math.sqrt(s[1])
    k = rng.randint(0, max(0, int(2.5 - s_val)))
    expect = ref.rule_is_pole(n, cand, True)
    lo = rng.uniform(0.2, 0.5)
    return {
        "n": n, "lam": lam, "mu_sq": q,
        "sigma_u1": [rng.uniform(1e-3, 0.5), rng.uniform(0.5, 0.95)],
        "sigma_u2": [rng.uniform(0.05, 0.5), rng.uniform(0.5, 1 - 1e-3)],
        "gap": rng.randint(0, 2) + rng.uniform(0.2, 0.8),
        "z": rng.uniform(0.05, 0.5),
        "reg_c": -rng.randint(0, 3) + rng.choice(
            (0.0, complex(rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3)))),
        "reg_z": rng.uniform(0.05, 0.5),
        "support": (lo, lo + rng.uniform(0.15, 0.3)),
        "sigma0": rng.uniform(0.1, 0.9),
        # a candidate -i(1/2 + k + s) of a second mode, judged by the rule;
        # an exactly representable pole must be refused with PoleEvaluation
        "cand_mu_sq": cand,
        "cand_lam": complex(0.0, -(0.5 + k + s_val)),
        "cand_pole": expect,
        "refuse": expect and s[0] == "rat",
    }


def _ab(case) -> tuple[complex, complex]:
    n, q, lam = case["n"], case["mu_sq"], case["lam"]
    a = 0.5 - 1j * lam
    return a, a + math.sqrt(((n - 1) / 2.0) ** 2 + float(q))


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def point_requests(case: dict) -> list[dict]:
    """mpmath reference requests for one case, in evaluation order."""
    a, b = _ab(case)
    base = {"n": case["n"], "mu_sq": str(case["mu_sq"]),
            "lam": _pair(case["lam"])}
    reqs = [dict(base, f="u1", sigma=s) for s in case["sigma_u1"]]
    reqs += [dict(base, f="u2", sigma=s) for s in case["sigma_u2"]]
    reqs.append({"f": "hyp2f1", "a": _pair(a), "b": _pair(b),
                 "c": _pair(a + b + case["gap"]), "z": case["z"]})
    reqs.append({"f": "reg2f1", "a": _pair(a), "b": _pair(b),
                 "c": _pair(complex(case["reg_c"])), "z": case["reg_z"]})
    lo, hi = case["support"]
    reqs.append(dict(base, f="apply", lo=lo, hi=hi, sigma=case["sigma0"]))
    return reqs


def point_prepare(ctx: Context) -> list[dict]:
    pool = 4 if ctx.small else POINT_POOL
    ctx.cases = [_point_case(ctx, i) for i in range(pool)]
    reqs = []
    for case in ctx.cases:
        case["ref_at"] = len(reqs)
        reqs += point_requests(case)
    return reqs


def kernel_point_op(ctx: Context, i: int) -> Op:
    case = ctx.cases[i % len(ctx.cases)]
    hc = ctx.hc
    res, sf = hc.resolvent, hc.specfun
    n, lam = case["n"], case["lam"]
    q = case["mu_sq"]
    mode = hc.crosssec.Mode(float(q), 1, q)
    a, b = _ab(case)
    lo, hi = case["support"]
    bump = res.RadialProfile.bump(lo, hi)
    cq = case["cand_mu_sq"]
    cand = hc.crosssec.Mode(float(cq), 1, cq)
    desc = {k: (str(v) if isinstance(v, (complex, Fraction)) else v)
            for k, v in case.items() if k != "ref_at"}

    def run():
        results = []

        def attempt(fn, *args):
            try:
                results.append(fn(*args))
            except Exception as exc:  # every outcome goes to the check
                results.append(exc)

        p = hc.resonances.hypergeom_params(n, mode, lam)
        for s in case["sigma_u1"]:
            attempt(res.u1, p, s)
        for s in case["sigma_u2"]:
            attempt(res.u2, p, s)
        attempt(sf.hyp2f1, a, b, a + b + case["gap"], case["z"])
        attempt(sf.hyp2f1_regularized, a, b, case["reg_c"], case["reg_z"])
        attempt(res.apply_resolvent, n, mode, lam, bump, case["sigma0"])
        attempt(res.residue_probe, n, mode, lam)
        attempt(res.residue_probe, n, cand, case["cand_lam"])
        if case["refuse"]:
            attempt(res.apply_resolvent, n, cand, case["cand_lam"], bump,
                    case["sigma0"])
        return results

    labels = ["u1", "u1", "u2", "u2", "hyp2f1", "hyp2f1_regularized",
              "apply_resolvent"]
    corrupt = ctx.corrupt and i % len(ctx.cases) == 0

    def check(raw) -> Outcome:
        out = Outcome()
        if isinstance(raw, BaseException):
            out.fail(exception_label(raw, hc.errors.HyperconeError))
            return out
        refs = ctx.refs[case["ref_at"]:case["ref_at"] + len(labels)]
        for j, (label, got, want) in enumerate(zip(labels, raw, refs)):
            if isinstance(got, BaseException):
                out.fail(exception_label(got, hc.errors.HyperconeError))
                continue
            expect = complex(*want) * (1 + 1e-6 if corrupt and j == 0 else 1)
            out.accuracy(_rel(got, expect), POINT_TOL, label)
        for probe, expect in zip(raw[len(labels):], (False, case["cand_pole"])):
            if isinstance(probe, BaseException):
                out.fail(exception_label(probe, hc.errors.HyperconeError))
            elif bool(probe.is_pole) != expect:
                out.fail("tolerance:residue_probe")
        if case["refuse"]:
            refusal = raw[-1]
            if not isinstance(refusal, hc.errors.PoleEvaluation):
                out.fail(exception_label(refusal, hc.errors.HyperconeError)
                         if isinstance(refusal, BaseException)
                         else "tolerance:pole_refusal")
        return out

    return Op(desc, run, check)


# -- the frontier: the wider domain, measured but not timed -------------------
#
# Each kernel workload has a wider target domain than the library meets
# today: point values at |Re lambda| up to 40 or sigma within 1e-3 of an
# end, 2F1 above z = 1/2 with large or near-degenerate parameters, and grid
# residuals deep in the lower half plane.  Those inputs are evaluated once
# per run, outside the timed loop, and reported (fail share, worst digits,
# failures by class) without gating the run, so fixes show as they land.

FRONTIER_RE_MAX = 40.0


def _summary(outcomes: list[Outcome]) -> dict:
    failures: dict[str, int] = {}
    for out in outcomes:
        for label in out.failures:
            failures[label] = failures.get(label, 0) + 1
    passed = [out.digits for out in outcomes if out.passed]
    return {"values": len(outcomes),
            "fail_share": 1 - len(passed) / len(outcomes),
            "worst_digits": min(passed, default=0.0),
            "failures": failures}


def point_frontier(ctx: Context):
    """u1/u2 over n in 1..4, |Re lambda| <= 40, -3 <= Im lambda <= 3 and
    sigma in [1e-3, 1 - 1e-3], plus 2F1 at z in (1/2, 0.95) with c - a - b
    within 1e-8 of an integer or generic."""
    cases = []
    for i in range(8 if ctx.small else 48):
        rng = _rng(ctx.seed, "point_frontier", i)
        kind = ("u1", "u2", "near_int", "generic")[i % 4]
        case = {"kind": kind, "n": rng.randint(1, 4),
                "mu_sq": Fraction(rng.randint(0, 144), 16),
                "lam": complex(rng.uniform(-FRONTIER_RE_MAX, FRONTIER_RE_MAX),
                               rng.uniform(-3.0, 3.0)),
                "sigma": rng.uniform(1e-3, 1 - 1e-3),
                "z": rng.uniform(0.5, 0.95)}
        a, b = _ab(case)
        gap = rng.randint(0, 2) + (
            complex(rng.uniform(-1e-8, 1e-8), rng.uniform(-1e-8, 1e-8))
            if kind == "near_int" else rng.uniform(0.2, 0.8))
        case["abc"] = (a, b, a + b + gap)
        cases.append(case)
    reqs = []
    for c in cases:
        if c["kind"] in ("u1", "u2"):
            reqs.append({"f": c["kind"], "n": c["n"], "mu_sq": str(c["mu_sq"]),
                         "lam": _pair(c["lam"]), "sigma": c["sigma"]})
        else:
            a, b, cc = c["abc"]
            reqs.append({"f": "hyp2f1", "a": _pair(a), "b": _pair(b),
                         "c": _pair(cc), "z": c["z"]})

    def evaluate(refs: list) -> dict:
        hc = ctx.hc
        outcomes = []
        for c, want in zip(cases, refs):
            out = Outcome()
            try:
                if c["kind"] in ("u1", "u2"):
                    mode = hc.crosssec.Mode(float(c["mu_sq"]), 1, c["mu_sq"])
                    p = hc.resonances.hypergeom_params(c["n"], mode, c["lam"])
                    got = getattr(hc.resolvent, c["kind"])(p, c["sigma"])
                else:
                    got = hc.specfun.hyp2f1(*c["abc"], c["z"])
                out.accuracy(_rel(got, complex(*want)), POINT_TOL, c["kind"])
            except Exception as exc:  # every outcome is classified
                out.fail(exception_label(exc, hc.errors.HyperconeError))
            outcomes.append(out)
        return _summary(outcomes)

    return reqs, evaluate


def grid_frontier(ctx: Context):
    """Residual checks at -3 <= Im lambda < GRID_IM_MIN, |lambda| <= 3."""
    ops = []
    for i in range(2 if ctx.small else 6):
        rng = _rng(ctx.seed, "grid_frontier", i)
        lam = _grid_lambda(rng, -3.0, 3.0, -3.0, GRID_IM_MIN)
        ops.append(_grid_op(ctx, GRID_KINDS[i % 2], 1 + i % 4, lam,
                            rng.uniform(0.0, 9.0), rng))

    def evaluate(_refs: list) -> dict:
        outcomes = []
        for op in ops:
            try:
                raw = op.run()
            except Exception as exc:  # classified by the check
                raw = exc
            outcomes.append(op.check(raw))
        return _summary(outcomes)

    return [], evaluate


# -- registry -----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_op: Callable[[Context, int], Op]
    pass_size: int           # ops in one traced pass (and the digest)
    small_pass: int
    prepare: Callable[[Context], list[dict]] | None = None  # mpmath requests
    frontier: Callable[[Context], tuple] | None = None


WORKLOADS = {
    w.name: w for w in (
        Workload("lattice_count",
                 "weyl counts through the CLI over rational circles, odd "
                 "spheres, surd and float-only files: lattice enumeration "
                 "and merging do the work",
                 lattice_count_op, 40, 5, prepare=write_file_spectra),
        Workload("lattice_list",
                 "the same spectra listed in JSON and CSV: the lattice code "
                 "keeps every position and CLI emission takes a quarter",
                 lattice_list_op, 40, 5, prepare=write_file_spectra),
        Workload("kernel_grid",
                 "residual checks (sigma and r) and two-way Green pairings: "
                 "many sigma nodes per lambda, so quadrature and the "
                 "hypergeometric series dominate",
                 kernel_grid_op, 12, 3, frontier=grid_frontier),
        Workload("kernel_point",
                 "one lambda per case with few sigma: per-lambda setup, "
                 "point 2F1 values, single-point resolvents and residue "
                 "probes, each checked against mpmath",
                 kernel_point_op, POINT_POOL // 2, 4, prepare=point_prepare,
                 frontier=point_frontier),
    )
}
