"""Independent references the benchmark checks every operation against.

Lattice references are exact closed forms that never enumerate: a mode with
s_j contributes #{k >= 0 : 1/2 + k + s_j <= L} = floor(L - 1/2 - s_j) + 1
positions, taken with Fraction floors for rational s_j and an isqrt floor
for surds s_j = sqrt(q).  Kernel references are mpmath values at 30 digits,
computed from the primary inputs (n, mu^2, lambda, sigma) rather than from
the library's float parameters.

mpmath is a benchmark-only dependency and stays out of the workload
process: ``python3 bench/reference.py`` reads a JSON list of requests on
stdin and writes the list of [re, im] values on stdout.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

HALF = Fraction(1, 2)


# -- exact lattice references -------------------------------------------------

def s_form(n: int, mu_sq_exact: Fraction | None, mu_sq: float):
    """s = sqrt(((n-1)/2)^2 + mu^2) as ("rat", s), ("surd", s^2) or
    ("float", s).  Float data reproduces the library's double expression,
    because that float is the input the float path decides on."""
    if mu_sq_exact is None:
        return ("float", math.sqrt(((n - 1) / 2.0) ** 2 + mu_sq))
    sq = Fraction(n - 1, 2) ** 2 + mu_sq_exact
    num, den = math.isqrt(sq.numerator), math.isqrt(sq.denominator)
    if num * num == sq.numerator and den * den == sq.denominator:
        return ("rat", Fraction(num, den))
    return ("surd", sq)


def excluded(form) -> bool:
    """Modes with s in 1/2 + Z contribute no resonances."""
    kind, val = form
    if kind == "rat":
        return (val - HALF).denominator == 1
    if kind == "surd":
        return False  # an irrational s is never a half-integer
    return abs(val - math.floor(val) - 0.5) <= 1e-9


def _floor_minus_sqrt(x: Fraction, q: Fraction) -> int:
    # floor(x - sqrt(q)) for rational x and irrational sqrt(q)
    r = math.isqrt(q.numerator // q.denominator)  # floor(sqrt(q))
    m = math.floor(x) - r - 1                      # x - m > sqrt(q)
    while x - (m + 1) >= 0 and (x - (m + 1)) ** 2 > q:
        m += 1
    return m


def below(form, bound: Fraction) -> int:
    """#{k >= 0 : 1/2 + k + s <= bound}, exactly."""
    kind, val = form
    x = bound - HALF
    if kind == "surd":
        if x < 0 or x * x < val:
            return 0
        return _floor_minus_sqrt(x, val) + 1
    gap = x - (val if kind == "rat" else Fraction(val))
    return math.floor(gap) + 1 if gap >= 0 else 0


def lattice_count(n: int, modes, bound: float) -> int:
    """Resonances with multiplicity and |lambda| <= bound; modes are
    (mu_sq_exact, mu_sq, multiplicity) triples."""
    b = Fraction(bound)
    total = 0
    for exact, mu_sq, mult in modes:
        form = s_form(n, exact, mu_sq)
        if not excluded(form):
            total += mult * below(form, b)
    return total


def lattice_pairs(n: int, modes, bound: float) -> dict:
    """(j, k) -> (key, t) for every contributor at or below the bound.

    key identifies the position 1/2 + k + s_j exactly, so two contributors
    share a listed position iff their keys are equal: an integer over one
    common denominator for rational s, (s^2, k) for surds, and the double
    sum itself for float-only data.  t is the double the listing must
    show: the correctly rounded exact value, or the double sum."""
    b = Fraction(bound)
    forms = [s_form(n, exact, mu_sq) for exact, mu_sq, _ in modes]
    den = 2 * math.lcm(*(v.denominator for kind, v in forms if kind == "rat"))
    out = {}
    for j, form in enumerate(forms):
        if excluded(form):
            continue
        kind, val = form
        if kind == "rat":
            base = den // 2 + val.numerator * (den // val.denominator)
        elif kind == "surd":
            root = math.sqrt(val)
        for k in range(below(form, b)):
            if kind == "rat":
                num = base + k * den
                out[(j, k)] = (num, num / den)   # int / int rounds correctly
            elif kind == "surd":
                out[(j, k)] = ((val, k), 0.5 + k + root)
            else:
                t = 0.5 + k + val
                out[(j, k)] = (t, t)
    return out


def position_matches(key, t_ref: float, t: float) -> bool:
    """Does a listed position t show the exact position?  Rational positions
    must round to t exactly, surds within a few ulps, and float-only data
    within the library's 1e-9 merge width."""
    if isinstance(key, int):
        return t == t_ref
    if isinstance(key, tuple):
        return abs(t - t_ref) <= 4 * math.ulp(t_ref)
    return abs(t - t_ref) <= 1e-9


def rule_is_pole(n: int, mu_sq_exact: Fraction, on_lattice: bool) -> bool:
    """The paper's rule: a probe point is a pole iff it sits on the mode's
    lattice -i(1/2 + k + s) and s is not in 1/2 + Z."""
    return on_lattice and not excluded(s_form(n, mu_sq_exact, 0.0))


# -- mpmath references --------------------------------------------------------

def _mp_evaluate(requests: list[dict], dps: int = 30) -> list[list[float]]:
    import mpmath as mp

    mp.mp.dps = dps

    def cplx(v):
        return mp.mpc(v[0], v[1])

    def mu(v):
        return (mp.mpf(Fraction(v).numerator) / Fraction(v).denominator
                if isinstance(v, str) else mp.mpf(v))

    def params(req):
        n = mp.mpf(req["n"])
        lam = cplx(req["lam"])
        s = mp.sqrt(((n - 1) / 2) ** 2 + mu(req["mu_sq"]))
        a = mp.mpf(1) / 2 - 1j * lam
        return n, lam, s, a, a + s, 2 * a

    def reg2f1(a, b, c, z):
        total, poch = mp.mpc(0), mp.mpc(1)
        for k in range(4000):
            term = poch * mp.rgamma(c + k) * z ** k / mp.factorial(k)
            total += term
            if k > 4 and abs(term) < mp.mpf(10) ** (-dps - 5) * max(abs(total), 1):
                return total
            poch *= (a + k) * (b + k)
        raise ArithmeticError("regularized 2F1 reference did not converge")

    def apply(req):
        n, lam, s, a, b, c = params(req)
        lo, hi, sig = mp.mpf(req["lo"]), mp.mpf(req["hi"]), mp.mpf(req["sigma"])
        scale = ((hi - lo) / 2) ** 6
        e1 = -1 - n / 2 - 1j * lam
        e2 = s / 2 + (n - 1) / 4

        def weight(x):
            return ((x - lo) * (hi - x)) ** 3 / scale * x ** e1 * (1 - x) ** e2

        def g1(x):
            return mp.hyp2f1(a, b, c, x)

        def g2(x):
            return mp.hyp2f1(a, b, 1 + s, 1 - x)

        # the integrands are analytic on each closed piece: Gauss-Legendre
        upper = mp.quad(lambda x: weight(x) * g2(x), [max(sig, lo), hi],
                        method="gauss-legendre") if sig < hi else 0
        lower = mp.quad(lambda x: weight(x) * g1(x), [lo, min(sig, hi)],
                        method="gauss-legendre") if sig > lo else 0
        pref = mp.gamma(a) * mp.gamma(b) / (mp.gamma(c) * mp.gamma(1 + s))
        return (pref * (g1(sig) * upper + g2(sig) * lower)
                * sig ** (n / 2 - 1j * lam) * (1 - sig) ** (-(n - 1) / 4 + s / 2))

    out = []
    for req in requests:
        f = req["f"]
        if f == "u1":
            _, _, s, a, b, c = params(req)
            val = mp.hyp2f1(a, b, c, mp.mpf(req["sigma"]))
        elif f == "u2":
            _, _, s, a, b, c = params(req)
            val = mp.hyp2f1(a, b, 1 + s, 1 - mp.mpf(req["sigma"]))
        elif f == "hyp2f1":
            val = mp.hyp2f1(cplx(req["a"]), cplx(req["b"]), cplx(req["c"]),
                            mp.mpf(req["z"]))
        elif f == "reg2f1":
            val = reg2f1(cplx(req["a"]), cplx(req["b"]), cplx(req["c"]),
                         mp.mpf(req["z"]))
        elif f == "apply":
            val = apply(req)
        else:
            raise ValueError(f"unknown reference request {f!r}")
        val = mp.mpc(val)
        out.append([float(val.real), float(val.imag)])
    return out


def mp_version() -> str:
    from importlib.metadata import PackageNotFoundError, version
    try:
        return version("mpmath")
    except PackageNotFoundError:
        return "absent"


if __name__ == "__main__":
    json.dump(_mp_evaluate(json.load(sys.stdin)), sys.stdout)
