"""The one 2F1 evaluator beyond its seed bound (specfun._Ladder: series
seeds where the series is benign, ODE Taylor continuation from there)
against 30-digit mpmath, over the wide domain n in 1..4, mu^2 in [0, 9],
|Re lambda| <= 40, -3 <= Im lambda <= 3, sigma in [1e-4, 1 - 1e-4], and
public hyp2f1 on z in [0.5, 0.999].  Draws are seeded, so a failure
names a reproducible case.  Its list reads are compared bit for bit with
the scalar read they replaced (oracles.reference_ladder_read).
"""

import cmath
import math
import random
from fractions import Fraction

import pytest

from hypercone import Mode, hyp2f1, hypergeom_params, resonances, u1, u2
from hypercone.resolvent import _KernelData
from hypercone.specfun import _Ladder, _series_seed
from oracles import (
    oracle_hyp2f1,
    oracle_kernel_functions,
    reference_ladder_key,
    reference_ladder_read,
)

RE_MAX = 40.0


def _draw(rng: random.Random, im_lo: float, im_hi: float):
    n = rng.randint(1, 4)
    mu_sq = rng.uniform(0.0, 9.0)
    lam = complex(rng.uniform(-RE_MAX, RE_MAX), rng.uniform(im_lo, im_hi))
    # uniform on the interval, or log-uniform toward either end
    sigma = rng.choice((rng.uniform(1e-4, 1 - 1e-4),
                        10 ** rng.uniform(-4, -1),
                        1 - 10 ** rng.uniform(-4, -1)))
    return n, mu_sq, lam, sigma


def _values(n, mu_sq, lam, sigma):
    # (name, value, 30-digit reference) for the public and kernel functions
    p = hypergeom_params(n, Mode(mu_sq, 1), lam)
    kd = _KernelData(n, p)
    want_u1, want_u2, want_g1 = oracle_kernel_functions(n, mu_sq, lam, sigma)
    return [("u1", u1(p, sigma), want_u1), ("u2", u2(p, sigma), want_u2),
            ("g1", kd.g1([sigma])[0], want_g1),
            ("kernel u2", kd.u2([sigma])[0], want_u2)]


@pytest.mark.parametrize("seed", range(4))
def test_kernel_functions(seed):
    rng = random.Random(700 + seed)
    for _ in range(50):
        draw = _draw(rng, -2.0, 3.0)
        for name, got, want in _values(*draw):
            err = abs(got - want) / abs(want)
            assert err <= 1e-10, (name, draw, err)


def test_kernel_functions_deep_lower_half_plane():
    # for Im lambda < -2 and large |Re lambda| g1 can be nearly recessive
    # toward sigma = 1, so continuation toward 1 loses digits there; values
    # stay finite and within 1e-5
    rng = random.Random(800)
    for _ in range(60):
        draw = _draw(rng, -3.0, -2.0)
        for name, got, want in _values(*draw):
            assert cmath.isfinite(got), (name, draw)
            err = abs(got - want) / abs(want)
            assert err <= 1e-5, (name, draw, err)


def _check_placement(ladder):
    # every built key |i| >= 1 is anchored at the midpoint of its band
    # (q D, D], D = q^|i| / 2, and key 0 at 1/2; a leaf is scaled by the
    # half-band, so its band lies at |tau| <= 1, and an edge by the step to
    # its successor's anchor, so its band lies at |tau| <= half-band / step
    q = ladder.q

    def band(key):  # (low, high, anchor) in the key's own coordinate
        if key == 0:
            return q / 2, 1.0 - q / 2, 0.5
        high = 0.5 * q ** abs(key)
        return q * high, high, 0.5 * (q * high + high)

    for key, (m, r, _, edge) in ladder.expansions.items():
        low, high, mid = band(key)
        assert abs(m - mid) <= 1e-15 * m, key
        half = 0.5 * (high - low)
        assert (edge is None) == ladder._seeded(key - 1), key
        if edge is None:
            assert abs(r - half) <= 1e-14 * r, key
            reach = 1.0
        else:
            succ = band(key - 1)[2]
            step = abs((1.0 - succ if key == 0 else succ) - m)
            assert abs(r - step) <= 1e-12 * r, key
            reach = half / r
        for end in (low, high):
            assert abs(end - m) / r <= reach * (1.0 + 1e-12), (key, end)


@pytest.mark.parametrize("seed,im_lo,im_hi,draws", [
    (700, -2.0, 3.0, 50), (701, -2.0, 3.0, 50), (702, -2.0, 3.0, 50),
    (703, -2.0, 3.0, 50), (800, -3.0, -2.0, 60)])
def test_anchor_placement(seed, im_lo, im_hi, draws):
    # the draws of the two kernel tests above, read without the oracle
    rng = random.Random(seed)
    for _ in range(draws):
        n, mu_sq, lam, sigma = _draw(rng, im_lo, im_hi)
        kd = _KernelData(n, hypergeom_params(n, Mode(mu_sq, 1), lam))
        kd.g1([sigma])
        kd.u2([sigma])
        for ladder in (kd.g1, kd.f2):
            _check_placement(ladder)


def _parameters(rng: random.Random, family: str):
    if family == "large":
        # kernel-shaped: a = 1/2 - i lambda, b = a or a + s, c = 2a or a
        # large |Im c| of its own
        a = complex(rng.uniform(0.2, 2.0), rng.uniform(-12.0, 12.0))
        b = a + rng.choice((0.0, rng.uniform(0.5, 3.0)))
        c = rng.choice((2 * a, complex(rng.uniform(0.5, 3.0),
                                       rng.uniform(-25.0, 25.0))))
        return a, b, c
    if family == "generic":
        a = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        b = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        return a, b, complex(rng.uniform(0.3, 4), rng.uniform(-2, 2))
    # c - a - b within 1e-8 of an integer, where connection formulae
    # degenerate (the parameters of test_hyp2f1_integer_gap_battery)
    a = complex(rng.uniform(0.2, 2.0), rng.uniform(-1, 1))
    b = complex(rng.uniform(0.2, 2.0), rng.uniform(-1, 1))
    off = complex(rng.uniform(-1e-8, 1e-8), rng.uniform(-1e-8, 1e-8))
    return a, b, a + b + rng.randint(-1, 2) + off


@pytest.mark.parametrize("family", ["generic", "near_integer_gap", "large"])
def test_hyp2f1_above_half(family):
    rng = random.Random(900 + len(family))
    for _ in range(40):
        a, b, c = _parameters(rng, family)
        z = rng.uniform(0.5, 0.999)
        want = oracle_hyp2f1(a, b, c, z)
        err = abs(hyp2f1(a, b, c, z) - want) / abs(want)
        assert err <= 1e-12, (a, b, c, z, err)


def _boundary_points(q: float, depth: float = 1e-12):
    """(x, d = 1 - x exactly) on both sides of every anchor boundary
    0.5 q^i down to depth from either end (so on both sides of 1/2), x = 0,
    and points within 1e-12 of 1, where x itself rounds."""
    pts = [(0.0, 1.0)]
    i, dist = 0, 0.5
    while dist >= depth:
        for e in (math.nextafter(dist, 0.0), dist, math.nextafter(dist, 1.0)):
            pts += [(e, 1.0 - e), (1.0 - e, e)]
        i += 1
        dist = 0.5 * q ** i
    pts += [(1.0 - e, e) for e in (1e-12, 7.3e-13, 2.5e-13, 1e-13)]
    return pts


def _hex(v: complex) -> tuple[str, str]:
    return v.real.hex(), v.imag.hex()


def _ladders():
    # the two kernel ladders of three kernels (q = 3/4), g1's at c = -3 on
    # the exact lattice (its series in zeta, a head and the DLMF 15.2.3
    # tail), and a public-hyp2f1 ladder with spread 8.5, so q = 13/17
    out = []
    for n, mode, lam in ((2, Mode(2.0, 1), 1 - 0.7j),
                         (1, Mode(1.0, 1), 1 + 0.5j),
                         (3, Mode(8.0, 1), -0.3 - 1.1j)):
        kd = _KernelData(n, hypergeom_params(n, mode, lam))
        out += [kd.g1, kd.f2]
    p = hypergeom_params(1, Mode(1 / 9, 1, Fraction(1, 9)), -2j,
                         lam_im_exact=Fraction(-2))
    assert resonances._lattice_indices(p)[2] == 3
    out.append(_KernelData(1, p).g1)
    out.append(_Ladder(5.0 + 0j, 5.0 + 0j, 1.5 + 0j,
                       _series_seed(1.0 + 0j, 5.0 + 0j, 5.0 + 0j, 1.5 + 0j)))
    return out


class TestListReads:
    """A list read of _Ladder gives each point the value of the scalar
    read it replaced, bit for bit, in any order; where that read's one-sided
    key put a point one anchor too high, the two-sided key moves it.  The
    points a seed serves itself (g1's below x0) read its point value."""

    @pytest.mark.parametrize("index", range(8))
    def test_bit_identical_to_scalar_read(self, index):
        ladder = _ladders()[index]
        pts = _boundary_points(ladder.q)
        xs, ds = [x for x, _ in pts], [d for _, d in pts]
        got = ladder(xs, ds)
        moved = 0
        for (x, d), val in zip(pts, got):
            want = reference_ladder_read(ladder, x, d)
            dist = d if x > 0.5 else x
            served = x <= ladder.reach  # by the seed itself
            i = 0 if served else reference_ladder_key(ladder, dist)
            if served or 0.5 * ladder.q ** (i + 1) < dist:
                assert _hex(val) == _hex(want), (x, d)
                continue
            # dist is the lower bound of the old anchor i or one ulp below
            # it: the two-sided key reads anchor i + 1, the same function
            moved += 1
            bound = 0.5 * ladder.q ** (i + 1)
            assert dist <= bound <= math.nextafter(dist, 1.0)
            assert abs(val - want) <= 1e-14 * abs(want), (x, d)
        assert (moved > 0) == (ladder.q != 0.75)
        order = list(range(len(pts)))
        random.Random(index).shuffle(order)
        shuffled = ladder([xs[k] for k in order], [ds[k] for k in order])
        assert [_hex(v) for v in shuffled] == [_hex(got[k]) for k in order]
