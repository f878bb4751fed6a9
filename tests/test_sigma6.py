"""
sigma6 against independent paths: the delta-halving limit (evaluate the whole
Seifert form at 1/6 + delta for delta = 2^-10, 2^-11, ... until three
consecutive values agree with no extra nullity), the mpmath LDL^T on the
whole Seifert matrix at each block's slope-bound offset 1/6 + rho, the
earlier power-of-two offset, the lattice count for torus links, and exact
checks of the root-free points and of the rational point past 1/6. The
slope-bound point choice that the Descartes root test replaced lives here as
the reference: the pencil signature at its points must equal the one at
the points of src. The pairwise lattice count also checks the floor count
of torus_signature_oracle and the lower bound of theorem_bound at every
scale, and the row-by-row count that the floor sums replaced is kept here
as their reference, down to the text of each jump error. The galloping
Stern-Brocot walk that the continued fractions of _simplest_in replaced,
with its sigma6 window at the irrational end 1/sqrt3, is kept here as the
reference for the points of src: the simplest fraction of every interval
and the sigma6 point of every block must be the walk's. The per-block
records that signature_at and sigma6 share must give the same values cold
and warm, build each block once, and keep only the last used. The arc walk
that divided its radius by 16 after each failed root test, which galloping
and the kept arcs replaced, is kept here as the reference: at seeded theta
the point of the kept arcs must give its signature, on the same arc. A
theta in a kept arc runs no root test, from one thread or six.
"""

import functools
import math
import random
import sys
import threading
from fractions import Fraction
from math import isqrt

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_int
from mpmath.libmp.libmpi import (
    mpi_cos_sin,
    mpi_div,
    mpi_mul,
    mpi_one,
    mpi_pi,
    mpi_shift,
    mpi_square,
    mpi_sub,
)

import braidcob.inertia as inertia
import braidcob.signature as signature
from braidcob.alexander import alexander
from braidcob.certificates import Equivalence
from braidcob.cli import main
from braidcob.replication import (
    cabled_torus_word,
    sixstrand_certificate,
    theorem_bound,
    theorem_table,
    torus_word,
    trefoil_sum_word,
)
from braidcob.seifert import seifert_blocks, seifert_matrix
from braidcob.signature import (
    Sigma6Error,
    SignatureProfile,
    sigma6,
    signature_at,
    torus_signature_oracle,
)
from braidcob.words import BraidWord, make_word


def _ldl_profile(V, theta):
    """
    The mpmath LDL^T on the whole Seifert matrix V at theta, with nullity
    zeros + V.pieces - 1 as signature_at reports for a braid word.
    """
    total, zeros, bits = signature._ldl_signature(V, theta)
    return SignatureProfile(theta, total, zeros + V.pieces - 1, bits)


def _halving_sigma6(w, delta=Fraction(1, 1024), halvings=20):
    V = seifert_matrix(w)
    window = []
    for _ in range(halvings + 1):
        prof = _ldl_profile(V, Fraction(1, 6) + delta)
        if prof.nullity == V.pieces - 1:
            window.append(prof.signature)
        else:
            window = []
        if len(window) >= 3 and len(set(window[-3:])) == 1:
            return -window[-1]
        delta /= 2
    raise Sigma6Error(f"no stable window for {w}")


def _lattice_sigma6(p, q, theta=None):
    """
    Minus the lattice count of T(p,q) at theta, pair by pair, any gcd(p, q);
    ValueError when theta is a jump. theta defaults to 1/6 + 1/(12pq): past
    1/6 and before the next jump, which sits on a multiple of 1/pq. Over the
    common denominator p*q*b of i/p + j/q - a/b, the pair adds -1 below
    p*q*b and +1 above it, mod 2*p*q*b.
    """
    if theta is None:
        theta = Fraction(1, 6) + Fraction(1, 12 * p * q)
    a, b = theta.numerator, theta.denominator
    half = p * q * b
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            x = (i * q * b + j * p * b - a * p * q) % (2 * half)
            if x in (0, half):
                raise ValueError(f"jump at (i,j)=({i},{j})")
            total += 1 if x > half else -1
    return -total


def _row_count(p, q, theta):
    """
    torus_signature_oracle row by row, O(p): with theta = a/b, step = p*b
    and lo = a*p*q - i*q*b, (i,j) gives +1 exactly when j*step < lo or
    j*step > lo + q*step, and a jump when it is equal to either end, so
    each i takes four floor divisions.
    """
    if p < 1 or q < 1:
        raise ValueError(f"T(p,q) needs p, q >= 1, got {p},{q}")
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    a, b = theta.numerator, theta.denominator
    step = p * b
    total = 0
    for i in range(1, p):
        lo = a * p * q - i * q * b
        hi = lo + q * step
        # how many j in [1, q-1] have j*step <= x, for x = lo-1, lo, hi-1, hi
        below, upto_lo, below_hi, upto_hi = (
            min(q - 1, max(0, x // step)) for x in (lo - 1, lo, hi - 1, hi)
        )
        if below != upto_lo or below_hi != upto_hi:
            j = upto_lo if below != upto_lo else upto_hi
            raise ValueError(
                f"evaluation at jump: theta={theta} hits i/p+j/q for "
                f"(i,j)=({i},{j})"
            )
        total += q - 1 + 2 * (below - upto_hi)
    return total


def _seeded_words(seed, count):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(1, 6)
        cols = [c for c in range(1, n) if rng.random() < 0.75]
        letters = [rng.choice(cols) * rng.choice((1, 1, -1))
                   for _ in range(rng.randint(0, 14))] if cols else []
        words.append(make_word(n, letters))
    return words


# zeta6^k = a + b*zeta6 for k mod 6, from zeta6^2 = zeta6 - 1
_ZETA6_POWERS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _at_zeta6(coeffs):
    """(x, y) with sum c_k zeta6^k = x + y*zeta6."""
    x = y = 0
    for k, c in enumerate(coeffs):
        a, b = _ZETA6_POWERS[k % 6]
        x += a * c
        y += b * c
    return x, y


def _power_of_two_offset(coeffs, delta_start=Fraction(1, 1024)):
    """
    The offset sigma6 used before each block worked out its own width: the
    largest power of two delta <= delta_start with 2*(22/7)*delta*S <
    |Q(zeta6)|, for Q the nonzero polynomial with these coefficients with
    Phi6 divided out by hand.
    """
    q = list(coeffs)
    x, y = _at_zeta6(q)
    while x == y == 0:
        # divide out the monic Phi6 = t^2 - t + 1, top coefficient first
        quot = [0] * (len(q) - 2)
        for k in range(len(quot) - 1, -1, -1):
            c = quot[k] = q[k + 2]
            q[k + 1] += c
            q[k] -= c
        q = quot
        x, y = _at_zeta6(q)
    norm = x * x + x * y + y * y
    slope = sum(k * abs(c) for k, c in enumerate(q))
    delta = Fraction(1)
    while delta > delta_start:
        delta /= 2
    while (2 * Fraction(22, 7) * delta * slope) ** 2 >= norm:
        delta /= 2
    return delta


# ---------------------------------------------------------------------------
# the slope-bound point choice, kept as the reference for the root test
# ---------------------------------------------------------------------------

def _phi6_divmod(coeffs):
    """
    (quotient, remainder) of the polynomial with these coefficients, lowest
    first, divided by Phi6 = t^2 - t + 1; the remainder has two coefficients.
    """
    rem = list(coeffs) + [0] * (2 - len(coeffs))
    quot = [0] * (len(rem) - 2)
    for top in range(len(rem) - 1, 1, -1):  # subtract c t^(top-2) Phi6
        c = quot[top - 2] = rem[top]
        rem[top - 2] -= c
        rem[top - 1] += c
    return quot, rem[:2]


def _certified_offset(coeffs):
    """
    A width rho in (0, 1/2] with no root of the nonzero polynomial with
    these coefficients on the arc (1/6, 1/6 + rho]: with Phi6 divided out,
    the quotient Q has Q(zeta6) = x + y*zeta6 != 0, and S = sum k|q_k|
    bounds |Q'| on the unit circle. r = isqrt(N*2^32 - 1)/2^16 < sqrt(N) =
    |Q(zeta6)| for N = x^2 + xy + y^2, and 22/7 > pi, so rho = min(1/2,
    7r/(44S)) gives 2*pi*rho*S < |Q(zeta6)|.
    """
    while True:
        quot, (x, y) = _phi6_divmod(coeffs)
        if x or y:
            break
        coeffs = quot
    slope = sum(k * abs(c) for k, c in enumerate(coeffs))
    if not slope:
        return Fraction(1, 2)
    r = isqrt(((x * x + x * y + y * y) << 32) - 1)
    return min(Fraction(1, 2), Fraction(7 * r, 44 * slope << 16))


def _abs_below(coeffs, x, y, bits):
    """
    A lower bound within 2^-bits of |P(x + iy)|, for the polynomial P with
    these coefficients at dyadic x and y, by one exact Horner pass over the
    Gaussian integers.
    """
    scale = max(x.denominator, y.denominator)  # both powers of two
    e = scale.bit_length() - 1
    X, Y = int(x * scale), int(y * scale)
    re = im = 0  # scale^d P(x + iy), d the degree
    for k, c in enumerate(reversed(coeffs)):
        re, im = re * X - im * Y + (c << e * k), re * Y + im * X
    shift = 2 * (e * (len(coeffs) - 1) - bits)
    norm = re * re + im * im
    return Fraction(isqrt(norm >> shift if shift >= 0 else norm << -shift),
                    1 << bits)


def _slope_arc_point(coeffs, theta):
    """
    (p, q), p > 0, with q/p the fraction of least denominator within
    |Delta(w)|/(2S) of cot(pi*theta), w = e^{2*pi*i*theta}, for the nonzero
    Delta with these coefficients, S = sum k|c_k| and Delta(w) != 0: no
    root lies within |Delta(w)|/(2*pi*S) of theta, and |d theta/dv| <= 1/pi
    for v = cot(pi*theta). |Delta(w)| is bounded below from Delta at the
    midpoint z of an interval enclosure of w, minus |z - w| times 2S; the
    interval precision doubles from 64 bits until the bounds certify the
    arc.
    """
    slope = sum(k * abs(c) for k, c in enumerate(coeffs))
    if not slope:  # a nonzero constant: the whole circle is one arc
        return 1, 0
    a, b = from_int(theta.numerator), from_int(theta.denominator)
    prec = 64
    while True:
        half = mpi_div(mpi_mul(mpi_pi(prec), (a, a), prec), (b, b), prec)
        c, s = mpi_cos_sin(half, prec)
        if signature._ends(s)[0] > 0:
            vlo, vhi = signature._ends(mpi_div(c, s, prec))
            xlo, xhi = signature._ends(mpi_sub(
                mpi_shift(mpi_square(c, prec), 1), mpi_one, prec))
            ylo, yhi = signature._ends(mpi_shift(mpi_mul(s, c, prec), 1))
            eps = (xhi - xlo + yhi - ylo) / 2
            if len(coeffs) * eps <= Fraction(1, 2):
                low = _abs_below(coeffs, (xlo + xhi) / 2, (ylo + yhi) / 2,
                                 prec)
                radius = (low - 2 * eps * slope) / (2 * slope)
                if vhi - vlo < 2 * radius:
                    v = signature._simplest_in(vhi - radius, vlo + radius)
                    return v.denominator, v.numerator
        prec *= 2


def _run(holds):
    """
    The largest k >= 1 with holds(k), for holds true at 1 and true up to
    some k, false after it: doubling, then bisection.
    """
    hi = 2
    while holds(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _simplest_between(below, above):
    """
    The fraction x/y of least denominator in an open interval of positive
    reals, given as below(x, y), true exactly when x/y lies at or left of
    it, and above(x, y), true exactly when x/y lies at or right of it. The
    walk down the Stern-Brocot tree takes each run of turns the same way,
    (a + kc)/(b + kd) or (c + ka)/(d + kb), in one binary search.
    """
    a, b, c, d = 0, 1, 1, 0  # the interval lies strictly between a/b and c/d
    while True:
        x, y = a + c, b + d
        if below(x, y):
            k = _run(lambda k: below(a + k * c, b + k * d))
            a, b = a + k * c, b + k * d
        elif above(x, y):
            k = _run(lambda k: above(c + k * a, d + k * b))
            c, d = c + k * a, d + k * b
        else:
            return Fraction(x, y)


def _walk_simplest_in(lo, hi):
    """The fraction of least denominator in (lo, hi), by the walk."""
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -_walk_simplest_in(-hi, -lo)
    return _simplest_between(
        lambda x, y: x * lo.denominator <= lo.numerator * y,
        lambda x, y: x * hi.denominator >= hi.numerator * y,
    )


def _point_past_sixth(delta):
    """
    The fraction u* of least denominator in (1/sqrt3, 1/sqrt3 + 4*delta).
    Since tan(pi*theta) has slope more than 4 on [1/6, 1/2), u* =
    tan(pi*theta*) for some theta* in (1/6, 1/6 + delta).
    """
    n, d = (4 * delta).numerator, (4 * delta).denominator

    def above(x, y):  # x/y - n/d = z/(yd) > 1/sqrt3
        z = x * d - n * y
        return z > 0 and 3 * z * z > y * y * d * d

    return _simplest_between(lambda x, y: 3 * x * x < y * y, above)


def _walk_sixth_point(f):
    """
    The sigma6 point of the fold f by the walk: the first
    _point_past_sixth(delta), delta = 1/2, 1/32, ..., with f root-free on
    [x(1/u), 1], once x - 1 is divided out.
    """
    while not sum(f):
        f = signature._divide(f, [-1, 1])
    delta = Fraction(1, 2)
    while True:
        u = _point_past_sixth(delta)
        if signature._root_free(f, signature._two_cos(1 / u), Fraction(1)):
            return u
        delta /= 16


def _sixteenth_arc_point(f, theta):
    """
    The arc point of the fold f at theta, 0 < theta <= 1/2, by the walk
    that the galloping search and the kept arcs replaced: v = 0 at theta =
    1/2, v = 1 when f is root-free on [-2, 2], else the simplest fraction
    inside the first bracket (lo, hi) of an interval enclosure [vlo, vhi]
    of cot(pi*theta) that _root_free certifies, lo in (vlo - r, vlo) and hi
    in (vhi, vhi + r) the simplest fractions there, for r = 1, 1/16,
    1/256, ... and the enclosure narrower than r.
    """
    if theta == Fraction(1, 2):
        return 1, 0
    if signature._root_free(f, Fraction(-2), Fraction(2)):
        return 1, 1
    a, b = from_int(theta.numerator), from_int(theta.denominator)
    prec, r = 64, Fraction(1)
    while True:
        half = mpi_div(mpi_mul(mpi_pi(prec), (a, a), prec), (b, b), prec)
        c, s = mpi_cos_sin(half, prec)
        if signature._ends(s)[0] > 0:
            vlo, vhi = signature._ends(mpi_div(c, s, prec))
            while vhi - vlo < r:
                lo = max(Fraction(0), signature._simplest_in(vlo - r, vlo))
                hi = signature._simplest_in(vhi, vhi + r)
                if signature._root_free(f, signature._two_cos(lo),
                                        signature._two_cos(hi)):
                    v = signature._simplest_in(lo, hi)
                    return v.denominator, v.numerator
                r /= 16
        prec *= 2


def _cold_point(f, theta):
    """The arc point of src at theta for the fold f, with no arc kept."""
    return signature._arc_point(signature._Arcs(f), theta)


def _sixth_window(k):
    """
    The window (a, a + 4*delta), delta = 2^-k, that _sixth_point would ask
    for at this delta, a just above 1/sqrt3: its window of step j when k =
    4j + 1.
    """
    m = 4 * k + 36
    a = Fraction(isqrt(4 ** m // 3) + 1, 1 << m)
    return a, a + Fraction(4, 1 << k)


def _walk_fold(coeffs):
    """The polynomial both root-test walks of a block record run on."""
    return signature._square_free(signature._fold(coeffs))


def _nonzero_blocks(w):
    """(block, coefficients of Delta) for each block with Delta != 0."""
    for block in seifert_blocks(w):
        poly = alexander(block)
        if not poly.is_zero():
            yield block, poly.coefficients


def _offset_signatures(w):
    """
    (block, rho, the mpmath signature at 1/6 + rho) for each Seifert block
    whose Alexander polynomial is not 0, with rho its slope-bound offset.
    This is how sigma6 took each block's limit before the exact kernel.
    """
    out = []
    for block, coeffs in _nonzero_blocks(w):
        rho = _certified_offset(coeffs)
        prof = _ldl_profile(seifert_matrix(block), Fraction(1, 6) + rho)
        assert prof.nullity == 0, block
        out.append((block, rho, prof.signature))
    return out


def _zero_pivot_words(seed, count):
    """
    Mixed-sign words on 2-7 strands whose columns mostly alternate in
    sign, so many loops have two bands of opposite sign and a zero
    diagonal in the Seifert form.
    """
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(2, 7)
        letters, sign = [], {}
        for _ in range(rng.randint(2, 24)):
            c = rng.randint(1, n - 1)
            s = sign.get(c, rng.choice((1, -1)))
            sign[c] = -s if rng.random() < 0.8 else s
            letters.append(c * s)
        words.append(make_word(n, letters))
    return words


def _outcome(f, w):
    try:
        return f(w)
    except Sigma6Error:
        return "raises"


def test_sigma6_matches_halving_oracle():
    words = _seeded_words(6161, 220)
    kinds = {"unused column": 0, "split": 0, "several blocks": 0,
             "raises": 0, "mixed signs": 0}
    for w in words:
        expected = _outcome(_halving_sigma6, w)
        assert _outcome(sigma6, w) == expected, w
        used = {abs(k) for k in w.letters}
        kinds["unused column"] += len(used) < w.strands - 1
        kinds["split"] += seifert_matrix(w).pieces > 1
        kinds["several blocks"] += len(seifert_blocks(w)) > 1
        kinds["raises"] += expected == "raises"
        kinds["mixed signs"] += len({k > 0 for k in w.letters}) == 2
    assert min(kinds.values()) >= 15, kinds


@pytest.mark.parametrize("p, qs", [(6, range(1, 31)), (12, range(1, 21))])
def test_sigma6_matches_torus_lattice_count(p, qs):
    for q in qs:
        assert sigma6(torus_word(p, q)) == _lattice_sigma6(p, q), (p, q)


def test_floor_count_matches_pairwise_count():
    # both count or both raise, on links (gcd > 1) and on jumps alike
    rng = random.Random(6061)
    kinds = {"link": 0, "knot": 0, "jump": 0}
    for _ in range(3000):
        p, q = rng.randint(1, 14), rng.randint(1, 14)
        theta = Fraction(rng.randrange(1, 60), 60)
        try:
            want = -_lattice_sigma6(p, q, theta)
        except ValueError:
            with pytest.raises(ValueError, match="jump"):
                torus_signature_oracle(p, q, theta)
            kinds["jump"] += 1
            continue
        assert torus_signature_oracle(p, q, theta) == want, (p, q, theta)
        kinds["knot" if math.gcd(p, q) == 1 else "link"] += 1
    assert min(kinds.values()) >= 200, kinds


def _count_or_jump(f, p, q, theta):
    """f(p, q, theta), or the text of the ValueError it raises at a jump."""
    try:
        return f(p, q, theta)
    except ValueError as exc:
        return f"raises {exc}"


def test_floor_sums_match_row_count_on_every_small_case():
    # values and the exact jump text, p or q = 1, links and knots included
    kinds = {"jump": 0, "link": 0, "knot": 0}
    for b in range(2, 37):
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            theta = Fraction(a, b)
            for p in range(1, 25):
                for q in range(1, 25):
                    want = _count_or_jump(_row_count, p, q, theta)
                    got = _count_or_jump(torus_signature_oracle, p, q, theta)
                    assert got == want, (p, q, theta)
                    kinds["jump" if isinstance(want, str) else
                          "knot" if math.gcd(p, q) == 1 else "link"] += 1
    assert min(kinds.values()) >= 1000, kinds


def test_floor_sums_are_symmetric_in_p_and_q_at_scale():
    # odd draws sit on a jump i/p + j/q; both orders must raise there
    rng = random.Random(1217)
    jumps = 0
    for k in range(500):
        p, q = rng.randint(2, 10**12), rng.randint(2, 10**12)
        if k % 2:
            theta = Fraction(rng.randrange(1, p), p) + Fraction(
                rng.randrange(1, q), q)
            theta -= math.floor(theta)
            if theta == 0:
                continue
        else:
            theta = Fraction(rng.randrange(1, 10**6), 10**6 + 1)
        want = _count_or_jump(torus_signature_oracle, p, q, theta)
        got = _count_or_jump(torus_signature_oracle, q, p, theta)
        if isinstance(want, str):
            assert isinstance(got, str) and "jump" in want and "jump" in got
            jumps += 1
        else:
            assert got == want, (p, q, theta)
    assert jumps >= 200, jumps


def test_floor_sums_match_row_count_at_large_q():
    # past 1/6, generic, and on a jump i/p + j/q, for p <= 6
    rng = random.Random(607)
    jumps = 0
    for p in range(1, 7):
        for k in range(60):
            q = rng.randint(2, 10**9)
            theta = [
                Fraction(1, 6) + Fraction(1, 12 * p * q),
                Fraction(rng.randrange(1, 10**4), 10**4 + 7),
                Fraction(rng.randrange(1, max(p, 2)), p)
                + Fraction(rng.randrange(1, q), q),
            ][k % 3]
            theta -= math.floor(theta)
            if theta == 0:
                continue
            want = _count_or_jump(_row_count, p, q, theta)
            assert _count_or_jump(torus_signature_oracle, p, q, theta) == \
                want, (p, q, theta)
            jumps += isinstance(want, str)
    assert jumps >= 50, jumps


def _theorem_rows(m, n):
    base = math.ceil(Fraction(7 * m * n, 24))
    return [theorem_bound(m, n, base + off) for off in (0, 7, 20)]


def test_theorem_bound_is_sigma6_at_desk_scale():
    rng = random.Random(2501)
    points = [(1, 9), (2, 3), (6, 6), (6, 12), (4, 80), (11, 25)]
    points += [(m, rng.randint(1, 250 // (m - 1))) for m in range(2, 12)]
    for m, n in points:
        s6 = sigma6(torus_word(m, n))
        for rep in _theorem_rows(m, n):
            assert rep.lower == 2 * rep.N - s6 and rep.passed, rep


@pytest.mark.parametrize("m, n", [(18, 18), (2, 300), (600, 1200)])
def test_theorem_bound_is_exact_past_desk_scale(m, n):
    s6 = _lattice_sigma6(m, n)
    for rep in _theorem_rows(m, n):
        assert rep.lower == 2 * rep.N - s6 and rep.passed, rep


def test_theorem_table_passes_on_multiples_of_six():
    sixes = list(range(6, 121, 6))
    s6 = {(m, n): _lattice_sigma6(m, n) for m in sixes for n in sixes}
    reports = theorem_table(sixes, sixes)
    assert len(reports) == 3 * len(s6)
    for rep in reports:
        assert rep.passed and rep.lower <= rep.upper, rep
        assert rep.lower == 2 * rep.N - s6[rep.m, rep.n], rep


def test_one_kernel_call_per_block(monkeypatch):
    calls = []
    real = signature._pencil_signature

    def counting(V, p, q):
        calls.append(Fraction(p, q))
        return real(V, p, q)

    def never(*args, **kwargs):
        raise AssertionError("signature_at called")

    monkeypatch.setattr(signature, "_pencil_signature", counting)
    monkeypatch.setattr(signature, "signature_at", never)
    # one call per distinct block: the five trefoil summands are one block
    cases = [(trefoil_sum_word(5), 1, 10), (torus_word(6, 7), 1, 10),
             (make_word(4, [1, 2, 3]), 0, 0),
             (make_word(5, [1, 1, 1, -4, -4, -4]), 2, 0),
             (make_word(7, [1, 1, 1, -3, -3, -3, 5, 5, 5]), 2, 2)]
    for w, blocks, value in cases:
        calls.clear()
        assert sigma6(w) == value
        assert len(calls) == blocks, w
        assert calls == [signature._sixth_point(_walk_fold(coeffs))
                         for _, coeffs in dict(_nonzero_blocks(w)).items()
                         ], (w, calls)


def test_equal_blocks_are_evaluated_once(monkeypatch):
    counts = {"kernel": 0, "alexander": 0}
    kernel, alex = signature._pencil_signature, signature.alexander

    def counting_kernel(V, p, q):
        counts["kernel"] += 1
        return kernel(V, p, q)

    def counting_alexander(w):
        counts["alexander"] += 1
        return alex(w)

    monkeypatch.setattr(signature, "_pencil_signature", counting_kernel)
    monkeypatch.setattr(signature, "alexander", counting_alexander)
    w = trefoil_sum_word(20)
    assert seifert_blocks(w) == [make_word(2, [1, 1, 1])] * 20
    assert sigma6(w) == 40
    assert counts == {"kernel": 1, "alexander": 1}, counts


def test_exact_kernel_matches_signature_at_oracle():
    fixed = {"swap": 0, "shear": 0, "none": 0}
    words = _zero_pivot_words(2024, 120) + _seeded_words(6161, 60)
    for w in words:
        for block, rho, expected in _offset_signatures(w):
            u = _point_past_sixth(rho)
            got, swaps, shears = signature._pencil_signature(
                seifert_matrix(block), u.numerator, u.denominator)
            assert got == expected, (block, u)
            fixed["swap"] += swaps > 0
            fixed["shear"] += shears > 0
            fixed["none"] += swaps == shears == 0
    assert min(fixed.values()) >= 15, fixed


@pytest.mark.parametrize("k", [1, 2, 5, 10, 11, 20, 60])
def test_point_past_sixth_is_the_simplest_fraction_on_the_arc(k):
    # the simplest fraction of src in the rational window is the walk's
    # point in the window with the end 1/sqrt3
    delta = Fraction(1, 2 ** k)
    u = _point_past_sixth(delta)
    assert signature._simplest_in(*_sixth_window(k)) == u, k

    def inside(x):
        z = x - 4 * delta
        return 3 * x * x > 1 and (z < 0 or 3 * z * z < 1)

    assert inside(u), u
    # no fraction with a smaller denominator lies on the arc
    for q in range(1, min(u.denominator, 10 ** 4)):
        p = math.isqrt(q * q // 3)  # floor(q / sqrt3)
        assert not inside(Fraction(p + 1, q)), (q, u)
    if k == 10:
        assert u == Fraction(11, 19)


def test_simplest_in_matches_stern_brocot_walk():
    # seeded intervals: ends of 1 to 300 bits and of 1024, either sign,
    # straddling 0, touching it and with integer ends
    rng = random.Random(4242)

    def end():
        bits = rng.choice((rng.randint(1, 300), 1024))
        den = 1 if rng.random() < 0.1 else rng.getrandbits(bits) + 1
        num = rng.getrandbits(rng.choice((bits, rng.randint(1, 300))))
        return Fraction(rng.choice((1, -1)) * num, den)

    cases = [(Fraction(0), Fraction(1, 3)), (Fraction(-2, 7), Fraction(0)),
             (Fraction(1), Fraction(2)), (Fraction(3, 2), Fraction(2)),
             (Fraction(-5), Fraction(-4)), (Fraction(-1, 2), Fraction(1))]
    while len(cases) < 3000:
        x, y = end(), end()
        if x != y:
            cases.append((min(x, y), max(x, y)))
    for lo, hi in cases:
        assert signature._simplest_in(lo, hi) == _walk_simplest_in(lo, hi), \
            (lo, hi)


def _certificate_words():
    """
    The start and end closures and the words the steps name of the shipped
    certificates: fourstrand, coxeter, sixstrand l = 2..5 and the stack of
    trefoils (2, 6).
    """
    from braidcob import replication as r

    certs = [r.fourstrand_certificate(), r.coxeter_certificate(),
             r.trefoil_stack_certificate(2, 6)]
    certs += [r.sixstrand_certificate(l) for l in range(2, 6)]
    for cert in certs:
        yield from cert.start.closures
        yield from cert.end.closures
        for step in cert.steps:
            for value in vars(step).values():
                if isinstance(value, BraidWord):
                    yield value


def test_sigma6_points_match_stern_brocot_points():
    # the sigma6 point of each block record is the walk's, on the seeded
    # corpora, torus and cabled torus words, and every block of the shipped
    # certificates
    words = _seeded_words(77, 120) + _seeded_words(6161, 220)
    words += _seeded_words(1009, 120) + _zero_pivot_words(2024, 120)
    words += [torus_word(m, n) for m in range(2, 7) for n in range(1, 14)]
    words += [cabled_torus_word(l) for l in range(1, 5)]
    words += list(_certificate_words())
    seen = set()
    for w in words:
        for block, coeffs in _nonzero_blocks(w):
            if block not in seen:
                seen.add(block)
                assert signature._block_record(block).u \
                    == _walk_sixth_point(_walk_fold(coeffs)), block
    assert len(seen) >= 400, len(seen)


def test_zero_alexander_block_raises_without_evaluating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("signature_at called")

    with monkeypatch.context() as m:
        m.setattr(signature, "signature_at", never)
        with pytest.raises(Sigma6Error, match="Alexander polynomial 0"):
            sigma6(make_word(2, (1, -1)))
        with pytest.raises(Sigma6Error, match="Alexander polynomial 0"):
            sigma6(make_word(4, [1, -1, 3, 3, 3]))
    # a zero block after a trefoil block
    with pytest.raises(Sigma6Error, match="Alexander polynomial 0"):
        sigma6(make_word(4, [1, 1, 1, 3, -3]))


def test_singular_pencil_is_an_internal_error(monkeypatch):
    # Delta(T(2,4)) = (1 - t)(1 + t^2) vanishes at t = i, which is theta =
    # 1/4 and u = tan(pi/4) = 1, so the pencil at u = 1 is singular
    # (p, q) = (1, 1); the kernel is shared with signature_at, so its
    # error names neither caller
    w = make_word(2, [1, 1, 1, 1])
    V = seifert_matrix(w)
    with pytest.raises(ArithmeticError, match="internal error") as got:
        signature._pencil_signature(V, 1, 1)
    assert "sigma6" not in str(got.value).lower()
    assert signature._pencil_signature(V, 11, 19)[0] == -1
    with monkeypatch.context() as m:
        m.setattr(signature, "_sixth_point", lambda f: Fraction(1))
        with pytest.raises(Sigma6Error, match="internal error"):
            sigma6(w)
    # signature_at at theta = 1/3, off the roots, sent to the same point
    monkeypatch.setattr(signature, "_arc_point", lambda arcs, theta: (1, 1))
    with pytest.raises(ArithmeticError, match="internal error") as got:
        signature_at(w, Fraction(1, 3))
    assert not isinstance(got.value, Sigma6Error)
    assert "sigma6" not in str(got.value).lower()


def test_cli_sigma6_of_zero_alexander_word_exits_1(capsys):
    code = main(["link", "sigma", "--sigma6", "--strands", "2",
                 "--word", "1,-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "Alexander polynomial 0" in err
    assert "Traceback" not in err


# roots of the Alexander polynomials of T(3,4), T(2,5) and the trefoil, so
# that signature_at reaches the mpmath LDL^T, and points off them
_RECORD_THETAS = tuple(Fraction(*t) for t in (
    (1, 12), (1, 10), (1, 6), (1, 4), (3, 10), (1, 3), (5, 12), (1, 2),
    (389, 1009), (7, 9)))


def _record_outcomes(words):
    """signature_at profiles at _RECORD_THETAS and sigma6, per word."""
    return [([signature_at(w, theta) for theta in _RECORD_THETAS],
             _outcome(sigma6, w)) for w in words]


def test_block_records_change_no_value():
    words = _seeded_words(6161, 40) + _zero_pivot_words(2024, 40)
    words += [torus_word(3, 4), torus_word(2, 5), torus_word(6, 7),
              trefoil_sum_word(3)]
    cold = []
    for w in words:
        signature._kept_record.cache_clear()
        cold += _record_outcomes([w])
    assert sum(p.precision_bits > 0 for profiles, _ in cold
               for p in profiles) >= 100  # the LDL^T ran
    assert sum(s == "raises" for _, s in cold) >= 5
    signature._kept_record.cache_clear()
    assert _record_outcomes(words) == cold  # filling the records
    assert _record_outcomes(words) == cold  # all warm


def test_ldl_fallback_is_thread_safe():
    """
    The LDL^T works in an mpmath context of its own: six threads, switching
    every microsecond, evaluate the words that reach it at theta = 389/1009
    and get the single-thread profiles. With mpmath's global precision set
    per call, threads hung or counted at another thread's precision.
    """
    theta = Fraction(389, 1009)
    words = [w for w in _seeded_words(77, 40)
             if signature_at(w, theta).precision_bits > 0]
    assert len(words) == 8
    want = [signature_at(w, theta) for w in words]
    got = [None] * 6

    def run(t):
        got[t] = [signature_at(w, theta) for _ in range(5) for w in words]

    threads = [threading.Thread(target=run, args=(t,), daemon=True)
               for t in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want * 5] * 6


def test_one_alexander_and_seifert_matrix_per_block(monkeypatch):
    want = sigma6(torus_word(6, 18))
    calls = {"alexander": 0, "seifert_matrix": 0}
    for name in calls:
        real = getattr(signature, name)

        def counting(w, name=name, real=real):
            calls[name] += 1
            return real(w)

        monkeypatch.setattr(signature, name, counting)
    w = cabled_torus_word(1)
    assert len(seifert_blocks(w)) == 1
    for theta in _RECORD_THETAS:
        signature_at(w, theta)
    assert sigma6(w) == want
    assert calls == {"alexander": 1, "seifert_matrix": 1}, calls


def test_zero_alexander_block_raises_on_every_call():
    w = make_word(4, [1, 1, 1, 3, -3])
    zero = make_word(2, [1, -1])  # the block of columns 3 and -3
    assert zero in seifert_blocks(w)
    profile = signature_at(w, Fraction(1, 3))
    for _ in range(3):
        with pytest.raises(Sigma6Error, match="Alexander polynomial 0"):
            sigma6(w)
        assert signature_at(w, Fraction(1, 3)) == profile
    hits = signature._kept_record.cache_info().hits
    record = signature._block_record(zero)
    assert signature._kept_record.cache_info().hits == hits + 1
    for _ in range(2):  # the sigma6 point of Delta = 0 raises, not hangs
        with pytest.raises(ValueError, match="Alexander polynomial 0"):
            record.u
    with pytest.raises(ValueError, match="Alexander polynomial 0"):
        signature._sixth_point((0,))


def test_block_records_keep_the_last_used(monkeypatch):
    # sigma_1^n on two strands is one block of n letters
    first, second, *rest = (make_word(2, [1] * n)
                            for n in range(3, 4 + signature._RECORDS))
    built = []
    real = signature.alexander
    monkeypatch.setattr(signature, "alexander",
                        lambda w: built.append(w) or real(w))
    want = {w: sigma6(w) for w in [first, second] + rest[:-1]}  # all kept
    assert sigma6(first) == want[first]  # first is now used after second
    assert len(built) == signature._RECORDS
    sigma6(rest[-1])  # one record too many: second goes
    assert signature._kept_record.cache_info().currsize == signature._RECORDS
    del built[:]
    assert sigma6(first) == want[first] and built == []
    assert sigma6(second) == want[second] and built == [second]


def test_long_block_is_evaluated_not_kept(monkeypatch):
    monkeypatch.setattr(signature, "_RECORD_LETTERS", 6)
    short, long = make_word(2, [1] * 5), make_word(2, [1] * 7)
    want = {w: sigma6(w) for w in (short, long)}
    profile = signature_at(long, Fraction(1, 3))
    built = []
    real = signature.alexander
    monkeypatch.setattr(signature, "alexander",
                        lambda w: built.append(w) or real(w))
    for _ in range(2):
        assert sigma6(short) == want[short]
        assert sigma6(long) == want[long]
        assert signature_at(long, Fraction(1, 3)) == profile
    assert built == [long] * 4
    assert signature._kept_record.cache_info().currsize == 1


def _counting_root_tests(monkeypatch):
    """Count the _root_free calls from here on; returns their (lo, hi)."""
    calls = []
    real = signature._root_free
    monkeypatch.setattr(signature, "_root_free",
                        lambda f, lo, hi: calls.append((lo, hi))
                        or real(f, lo, hi))
    return calls


def _kept_arc(w, theta):
    """The kept interval (lo, hi, v) of w's one block that holds theta."""
    (block,) = set(seifert_blocks(w))
    v = Fraction(1 / math.tan(math.pi * theta))
    (arc,) = [arc for arc in signature._block_record(block).arcs.kept
              if arc[0] < v < arc[1]]
    return arc


def test_kept_arc_points_match_sixteenth_walk(monkeypatch):
    # on each block, at seeded theta: the point of the kept arcs and the
    # point of the divide-by-16 walk give the same pencil signature, and
    # the root test passes on the span between them (the same arc); later
    # theta of a block often hit an arc kept for an earlier one
    rng = random.Random(3301)
    walks = []
    real = signature._arc
    monkeypatch.setattr(signature, "_arc",
                        lambda f, theta: walks.append(theta)
                        or real(f, theta))
    words = _seeded_words(77, 120) + _seeded_words(6161, 220)
    words += _seeded_words(1009, 120) + _zero_pivot_words(2024, 120)
    words += [torus_word(m, n) for m in range(2, 7) for n in range(1, 14)]
    words += [cabled_torus_word(l) for l in range(1, 3)]
    words += list(_certificate_words())
    seen = set()
    looked = spans = 0
    for w in words:
        for block, coeffs in _nonzero_blocks(w):
            if block in seen:
                continue
            seen.add(block)
            rec = signature._block_record(block)
            for k in rng.sample(range(1, 997), 4):
                theta = Fraction(min(k, 997 - k), 997)
                if signature._vanishes_at(coeffs, theta.denominator):
                    continue
                got = signature._arc_point(rec.arcs, theta)
                want = _sixteenth_arc_point(rec.f, theta)
                assert (signature._pencil_signature(rec.V, *got)[0]
                        == signature._pencil_signature(rec.V, *want)[0]
                        ), (block, theta, got, want)
                a, b = sorted(Fraction(q, p) for p, q in (got, want))
                if a != b:
                    assert signature._root_free(
                        rec.f, signature._two_cos(a), signature._two_cos(b)
                    ), (block, theta, got, want)
                    spans += 1
                looked += 1
    assert len(seen) >= 400 and spans >= 200, (len(seen), spans)
    assert looked - len(walks) >= 300, (looked, len(walks))


def test_second_theta_in_a_kept_arc_makes_no_root_test(monkeypatch):
    w, first = torus_word(6, 7), Fraction(389, 1009)
    assert signature_at(w, first).signature \
        == torus_signature_oracle(6, 7, first)
    lo, hi, _ = _kept_arc(w, first)
    # a simple theta well inside the arc's theta-interval, other than first
    ends = sorted(Fraction(math.atan2(1, v) / math.pi) for v in (lo, hi))
    pad = (ends[1] - ends[0]) / 8
    second = signature._simplest_in(ends[0] + pad, ends[1] - pad)
    assert second != first
    calls = _counting_root_tests(monkeypatch)
    assert signature_at(w, second).signature \
        == torus_signature_oracle(6, 7, second)
    assert calls == []


def test_clearing_the_records_drops_the_arcs(monkeypatch):
    w, theta = torus_word(6, 7), Fraction(389, 1009)
    want = signature_at(w, theta)
    arc = _kept_arc(w, theta)
    calls = _counting_root_tests(monkeypatch)
    assert signature_at(w, theta) == want and calls == []
    signature._kept_record.cache_clear()
    assert signature_at(w, theta) == want and calls
    assert _kept_arc(w, theta) == arc  # walked to again


def test_near_root_theta_takes_few_root_tests(monkeypatch):
    # theta within 2^-1023 of 1/3, a root of the block's Delta (Phi3 |
    # Delta): the divide-by-16 walk took 258 root tests here, one per
    # radius down to 16^-256; galloping and bisection take at most 40, and
    # the kept arc then holds theta
    cert = sixstrand_certificate(3)
    (w,) = [step.target for step in cert.steps
            if isinstance(step, Equivalence) and len(step.target) == 120]
    theta = Fraction(2 ** 1023 // 3 + 1, 2 ** 1023)
    (block,) = set(seifert_blocks(w))
    assert signature._vanishes_at(signature._block_record(block).delta, 3)
    calls = _counting_root_tests(monkeypatch)
    assert signature_at(w, theta).signature == -65
    assert len(calls) <= 40, len(calls)
    del calls[:]
    assert signature_at(w, theta).signature == -65 and calls == []


def test_kept_arcs_are_thread_safe(monkeypatch):
    """
    Six threads, switching every microsecond, evaluate one word at twelve
    theta in different orders, merging arcs into the same kept tuple, and
    get the single-thread profiles. Afterwards the kept tuple is sorted and
    disjoint, and holds every theta, which a lost merge would break.
    """
    w = cabled_torus_word(1)
    thetas = [Fraction(k, 1009) for k in range(37, 505, 39)]
    want = [signature_at(w, theta) for theta in thetas]
    signature._kept_record.cache_clear()
    (block,) = set(seifert_blocks(w))
    arcs = signature._block_record(block).arcs  # shared by the threads
    assert arcs.kept == ()
    got = [None] * 6

    def run(t):
        order = thetas[2 * t:] + thetas[:2 * t]
        got[t] = dict(zip(order, (signature_at(w, theta) for theta in order)))

    threads = [threading.Thread(target=run, args=(t,), daemon=True)
               for t in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all([profiles[theta] for theta in thetas] == want
               for profiles in got)
    kept = arcs.kept
    assert all(lo < v < hi for lo, hi, v in kept)
    assert all(a[1] < b[0] for a, b in zip(kept, kept[1:]))
    calls = _counting_root_tests(monkeypatch)
    assert [signature_at(w, theta) for theta in thetas] == want
    assert calls == []


def _turn(coeffs, b):
    """coeffs times the cyclotomic polynomial Phi_b, b in (1, 2, 6)."""
    phi = {1: (-1, 1), 2: (1, 1), 6: (1, -1, 1)}[b]
    out = [0] * (len(coeffs) + len(phi) - 1)
    for i, x in enumerate(coeffs):
        for j, y in enumerate(phi):
            out[i + j] += x * y
    return tuple(out)


@pytest.mark.parametrize("n", [7, 13, 25, 601, 1199, 1200, 4801])
@pytest.mark.parametrize("phi6_power", [0, 2])
def test_certified_offset_avoids_roots_of_unity(n, phi6_power):
    # t^n - 1 has its roots at exactly theta = k/n: the sigma6 point must
    # lie before the first of them past 1/6, and the arc point of a theta
    # between two of them strictly between the two (up to n = 1200: at n =
    # 4801 one arc walk takes half a minute of degree-2400 Taylor shifts)
    coeffs = (-1,) + (0,) * (n - 1) + (1,)
    for _ in range(phi6_power):
        coeffs = _turn(coeffs, 6)
    f = _walk_fold(coeffs)
    u = signature._sixth_point(f)
    first = n // 6 + 1
    with mp.workprec(128):
        assert mp.atan(mpf(u.numerator) / u.denominator) / mp.pi \
            < mpf(first) / n, (n, u)
    for k in (first, n // 3, (n - 1) // 2) if n <= 1200 else ():
        theta = Fraction(2 * k + 1, 2 * n)
        assert not signature._vanishes_at(coeffs, theta.denominator)
        p, q = _cold_point(f, theta)
        with mp.workprec(128):
            at = mp.acot(mpf(q) / p) / mp.pi
            assert mpf(k) / n < at < mpf(k + 1) / n, (n, k, p, q)


def test_sigma6_point_of_trefoil_is_one():
    # Delta(3_1) = Phi6 leaves a constant, and Delta(4_1) = -1 + 3t - t^2
    # folds to 3 - x, with its root at x = 3 off [x(1), 1] = [0, 1]: the
    # first candidate, u = tan(pi/4) = 1, not 11/19 as at 1/1024
    assert _point_past_sixth(Fraction(1, 2)) == 1
    assert signature._simplest_in(*_sixth_window(1)) == 1
    for coeffs in ((1, -1, 1), (1,), (-1, 3, -1), _turn((1, -1, 1), 6)):
        assert signature._sixth_point(_walk_fold(coeffs)) == 1, coeffs
    assert sigma6(make_word(2, [1, 1, 1])) == 2


def test_sixth_point_windows_start_just_above_the_sixth(monkeypatch):
    # t^601 - 1 has a root at theta = 101/601, 1/6 + 1/3606, so the walk
    # takes four windows: each has width 4*delta, delta = 1/2, 1/32, ...,
    # and starts above 1/sqrt3 = tan(pi/6) by less than (2*delta/q)^2, q =
    # floor(1/(4*delta)) + 1 the largest denominator its simplest fraction
    # can have: close enough for that fraction to be the one with the end
    # 1/sqrt3 (see signature's module docstring)
    windows = []
    real = signature._simplest_in

    def recording(lo, hi):
        windows.append((lo, hi))
        return real(lo, hi)

    monkeypatch.setattr(signature, "_simplest_in", recording)
    u = signature._sixth_point(_walk_fold((-1,) + (0,) * 600 + (1,)))
    assert len(windows) == 4 and u == real(*windows[-1]), windows
    for j, (lo, hi) in enumerate(windows):
        delta = Fraction(1, 2 * 16 ** j)
        assert hi - lo == 4 * delta
        below = lo - (2 * delta / (1 // (4 * delta) + 1)) ** 2
        assert 3 * lo * lo > 1 and (below < 0 or 3 * below * below < 1), j
        assert real(lo, hi) == _point_past_sixth(delta), j


def test_sigma6_point_avoids_a_root_at_the_closed_end():
    # Delta(T(2,4)) = (1 - t)(1 + t^2) folds to x, whose root x = 0 is the
    # closed end x(1) of [x(1), 1], theta = 1/4: the walk must go past u = 1
    w = make_word(2, [1, 1, 1, 1])
    coeffs = alexander(w).coefficients
    assert signature._fold(coeffs) in ([0, 1], [0, -1])
    assert not signature._root_free([0, 1], Fraction(0), Fraction(1))
    assert not signature._root_free([0, 1], Fraction(-1), Fraction(0))
    assert signature._root_free([0, 1], Fraction(1, 2), Fraction(1))
    u = signature._sixth_point(_walk_fold(coeffs))
    assert Fraction(1, 3) < u * u < 1, u
    assert sigma6(w) == -torus_signature_oracle(
        2, 4, Fraction(1, 6) + Fraction(1, 96))
    # signature_at at theta = 1/4 + 1/1000, next to that root
    theta = Fraction(1, 4) + Fraction(1, 1000)
    assert signature_at(w, theta).signature \
        == torus_signature_oracle(2, 4, theta)


def test_fold_of_synthetic_deltas():
    # anti-palindromic: 1 - t + t^2 - t^3 = -(t - 1)(1 + t^2) = -(t - 1) t x
    assert signature._fold((1, -1, 1, -1)) == [0, -1]
    # odd palindromic: 1 + t^3 = (t + 1)(t^2 - t + 1) = (t + 1) t (x - 1)
    assert signature._fold((1, 0, 0, 1)) == [-1, 1]
    for coeffs in ((1, 2, 3), (1, 1, 0, 1), (2, -1, -2)):
        with pytest.raises(ArithmeticError, match="internal error"):
            signature._fold(coeffs)
    # Delta = (t - 1)^i (t + 1)^j t^e F(t + 1/t) on the seeded corpora; a
    # block's Delta = det(tV - V^T) has t^h Delta(1/t) = (-1)^h Delta(t), h
    # the size of V, so only the synthetic inputs above need t + 1
    folded = {(0, 0): 0, (1, 0): 0}
    for w in _seeded_words(77, 120) + _zero_pivot_words(2024, 120):
        for _, coeffs in _nonzero_blocks(w):
            f = signature._fold(coeffs)
            e = len(f) - 1
            back = [0] * (2 * e + 1)
            power = [1]  # t^e x^k, as coefficients of t^(e-k) ... t^(e+k)
            for k, c in enumerate(f):
                for i, y in enumerate(power):
                    back[e - k + 2 * i] += c * y
                power = list(map(sum, zip([0] + power, power + [0])))
            i = int(coeffs != coeffs[::-1])
            j = int((len(coeffs) - i) % 2 == 0)
            for b, times in ((1, i), (2, j)):
                for _ in range(times):
                    back = _turn(back, b)
            assert tuple(back) == coeffs, (w, coeffs, f)
            folded[i, j] += 1
    assert min(folded.values()) >= 50, folded


def _rational_gcd(a, b):
    """The monic gcd over Q of two polynomials, lowest first, by Euclid."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    while any(b):
        while not b[-1]:
            b.pop()
        while len(a) >= len(b):
            c = a[-1] / b[-1]
            for i, y in enumerate(b, len(a) - len(b)):
                a[i] -= c * y
            a.pop()
        a, b = b, a
    while not a[-1]:
        a.pop()
    return [x / a[-1] for x in a]


def _derivative(f):
    return [k * c for k, c in enumerate(f)][1:]


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_square_free_fold_keeps_every_point():
    # the square-free part divides the fold, has its roots each once (a
    # degree drop of deg gcd(F, F') over Q) and is its own square-free
    # part; both walks give the points they give on the fold itself. The
    # cable and the torus links add folds with high powers of a factor
    rng = random.Random(997)
    words = _seeded_words(77, 120) + _seeded_words(6161, 220)
    words += _zero_pivot_words(2024, 120) + [cabled_torus_word(1)]
    words += [torus_word(m, n) for m in (2, 3, 4, 6) for n in (6, 9, 12, 18)]
    blocks = repeated = 0
    for w in words:
        for block, coeffs in _nonzero_blocks(w):
            blocks += 1
            f = signature._fold(coeffs)
            part = signature._square_free(f)
            assert signature._divide(f, part) is not None, (block, part)
            assert len(part) == len(f) - len(_rational_gcd(f, _derivative(f))
                                             ) + 1, (block, part)
            assert _rational_gcd(part, _derivative(part)) == [1], block
            assert part[-1] * f[-1] > 0 and math.gcd(*part) == 1, block
            assert signature._square_free(part) == part, block
            repeated += len(part) < len(f)
            assert signature._sixth_point(part) \
                == signature._sixth_point(f), block
            for k in rng.sample(range(1, 997), 3):
                theta = Fraction(min(k, 997 - k), 997)
                if not signature._vanishes_at(coeffs, theta.denominator):
                    assert _cold_point(part, theta) \
                        == _cold_point(f, theta), (block, theta)
    assert blocks >= 300 and repeated >= 15, (blocks, repeated)


def test_square_free_part_of_synthetic_polynomials(monkeypatch):
    p = signature._prime(0)
    assert p == 1073741789 and signature._prime(1) == 1073741783
    assert all(p % k for k in range(2, isqrt(p) + 1))
    # x^2 + p is x^2 mod p, a square, but square-free over Z: the first
    # prime's gcd has degree 1 and the exact path must return it unchanged
    moduli = []
    real = signature._monic_gcd
    monkeypatch.setattr(signature, "_monic_gcd",
                        lambda a, b, q: moduli.append(q) or real(a, b, q))
    assert signature._square_free([p, 0, 1]) == [p, 0, 1]
    assert moduli[:2] == [p, signature._prime(1)], moduli
    # times (x + 1)^2, the first prime's gcd x(x + 1) is too high: the
    # second prime's gcd x + 1 starts the images again
    del moduli[:]
    assert signature._square_free([p, 2 * p, p + 1, 2, 1]) == [p, p, 1, 1]
    assert moduli[:2] == [p, signature._prime(1)], moduli
    # p x^2 + 1 drops its degree mod p, so p is skipped
    del moduli[:]
    assert signature._square_free([1, 0, p]) == [1, 0, p]
    assert moduli == [signature._prime(1)], moduli
    # (x - 1)^2 (x + 3) = x^3 + x^2 - 5x + 3, here with content 2 and a
    # negative leading sign; and (x - 1)(x + 3) is already square-free
    assert signature._square_free([-6, 10, -2, -2]) == [3, -2, -1]
    assert signature._square_free([3, 2, 1]) == [3, 2, 1]
    # a repeated factor of high degree, and one of low degree
    quintic, cubic = [1, -3, 0, 2, 5, 1], [2, 0, -1, 1]
    for e, k in ((4, 1), (1, 3)):
        f = functools.reduce(_times, [quintic] * e + [cubic] * k)
        assert signature._square_free(f) == _times(quintic, cubic), (e, k)
    # zero, constants and linear polynomials come back primitive
    assert signature._square_free([0]) == [0]
    assert signature._square_free([-4]) == [-1]
    assert signature._square_free([6, -4]) == [3, -2]


def _faked_gcds(monkeypatch, fakes):
    """
    Make _monic_gcd return the monic fakes[i], lowest first, at its call i
    and the true gcd at the others; fail past eight calls. The primes asked
    for are returned.
    """
    primes = []
    real = signature._monic_gcd

    def faked(a, b, q):
        primes.append(q)
        assert len(primes) <= 8, "too many primes"
        fake = fakes.get(len(primes) - 1)
        return [c % q for c in fake] if fake else real(a, b, q)

    monkeypatch.setattr(signature, "_monic_gcd", faked)
    return primes


def test_square_free_part_refuses_what_the_certificate_does_not_prove(
        monkeypatch):
    # F = (x - 1)^2 (x + 1)(x + 2): a first image (x + 1)(x + 2) divides F
    # but not F', so it is no common divisor and must be refused
    f = [2, -1, -3, 1, 1]
    primes = _faked_gcds(monkeypatch, {0: [2, 3, 1]})
    assert signature._square_free(f) == [-2, -1, 2, 1]
    assert len(primes) == 2, primes
    # F = (x - 100000)^2 (x + 1)(x + 2): the gcd's image is too long to try
    # after one prime, and a second prime whose gcd has the higher degree
    # 2 must be skipped, not combined, for the third to confirm the first
    root, one, two = [-100000, 1], [1, 1], [2, 1]
    f = functools.reduce(_times, [root, root, one, two])
    primes = _faked_gcds(monkeypatch, {1: _times(root, one)})
    assert signature._square_free(f) == functools.reduce(
        _times, [root, one, two])
    assert len(primes) == 3, primes


def test_certified_offset_is_no_narrower_than_power_of_two_offset():
    # on every block of the seeded corpora the slope-bound width is at least
    # the old power-of-two offset, so its point past 1/6 has no larger
    # denominator, and both points give the same exact signature
    words = _seeded_words(77, 120) + _seeded_words(6161, 220)
    words += _seeded_words(1009, 120) + _zero_pivot_words(2024, 120)
    blocks = wider = 0
    for w in words:
        for block, coeffs in _nonzero_blocks(w):
            rho, delta = (_certified_offset(coeffs),
                          _power_of_two_offset(coeffs))
            assert rho >= delta, (block, rho, delta)
            u, old = _point_past_sixth(rho), _point_past_sixth(delta)
            assert u.denominator <= old.denominator, (block, u, old)
            V = seifert_matrix(block)
            assert (signature._pencil_signature(V, u.numerator,
                                                u.denominator)[0]
                    == signature._pencil_signature(V, old.numerator,
                                                   old.denominator)[0]
                    ), (block, u, old)
            blocks += 1
            wider += u.denominator < old.denominator
    assert blocks >= 400 and wider >= blocks // 2, (blocks, wider)


def test_root_test_points_match_slope_bound_points():
    # the pencil signature at the root-tested points of src equals the one
    # at the slope-bound points, for sigma6 and at theta = k/997 on both
    # halves of the circle (no Delta here has the degree 996 of Phi_997);
    # the root-tested sigma6 points are no larger
    rng = random.Random(997)
    words = _seeded_words(77, 120) + _seeded_words(6161, 220)
    words += _zero_pivot_words(2024, 120)
    blocks = 0
    bits = {"slope": 0, "root": 0}  # of the sigma6 points
    for w in words:
        for block, coeffs in _nonzero_blocks(w):
            blocks += 1
            V = seifert_matrix(block)
            old = _point_past_sixth(_certified_offset(coeffs))
            new = signature._sixth_point(_walk_fold(coeffs))
            for key, u in (("slope", old), ("root", new)):
                bits[key] += (u.numerator * u.denominator).bit_length()
            pairs = [((old.numerator, old.denominator),
                      (new.numerator, new.denominator))]
            for k in rng.sample(range(1, 997), 3):
                theta = Fraction(k, 997)
                pairs.append((_slope_arc_point(coeffs, theta),
                              _cold_point(_walk_fold(coeffs),
                                          min(theta, 1 - theta))))
            for (p, q), (p2, q2) in pairs:
                assert (signature._pencil_signature(V, p, q)[0]
                        == signature._pencil_signature(V, p2, q2)[0]
                        ), (block, (p, q), (p2, q2))
    assert blocks >= 300, blocks
    assert bits["root"] <= bits["slope"], bits


# ---------------------------------------------------------------------------
# the nested-dissection kernel against the single-pass reference
# ---------------------------------------------------------------------------

def _reference_swap(rows: list[dict], k: int, m: int) -> None:
    """Symmetric swap of rows and columns k and m of the stored form."""
    for r in rows[k].keys() | rows[m].keys():
        row = rows[r]
        zk, zm = row.pop(k, None), row.pop(m, None)
        if zm is not None:
            row[k] = zm
        if zk is not None:
            row[m] = zk
    rows[k], rows[m] = rows[m], rows[k]


def _reference_pencil_signature(V, p, q):
    """
    The single-pass kernel that nested dissection replaced, kept as the
    reference: (signature, swaps, shears) of H = p(V + V^T) - iq(V - V^T),
    p > 0, by fraction-free elimination over Z[i] of all h rows in time
    order, counting the sign changes of the leading minors (Jacobi's rule).
    A zero pivot is fixed by a symmetric swap with the nearest later row
    whose diagonal is nonzero or, when every later diagonal is zero, by
    row/col k += c * row/col m with c in {1, i}; a zero row raises
    ArithmeticError.
    """
    h = V.size
    # rows[k] maps column j to H[k][j] = (real, imaginary), nonzeros only
    rows: list[dict[int, tuple[int, int]]] = [{} for _ in range(h)]

    def add(row: dict, j: int, x: int, y: int) -> None:
        zx, zy = row.get(j, (0, 0))
        if zx + x or zy + y:
            row[j] = (zx + x, zy + y)
        else:
            row.pop(j, None)

    for i, j, v in V.nonzeros:
        add(rows[i], j, p * v, -q * v)
        add(rows[j], i, p * v, q * v)

    pivots = [1]  # pivots[k]: the leading k x k minor
    level = [0] * h  # the step rows[i] was last brought up to

    def catch_up(i: int, k: int) -> dict[int, tuple[int, int]]:
        if level[i] != k:
            num, den = pivots[k], pivots[level[i]]
            rows[i] = {j: (x * num // den, y * num // den)
                       for j, (x, y) in rows[i].items()}
            level[i] = k
        return rows[i]

    swaps = shears = neg = 0
    for k in range(h):
        if k not in rows[k]:
            m = next((m for m in range(k + 1, h) if m in rows[m]), None)
            if m is not None:
                # a column swap stays inside each row, so waiting rows keep
                # their scale, and rescaling keeps the zeros of the stored
                # rows symmetric, as _swap needs
                _reference_swap(rows, k, m)
                level[k], level[m] = level[m], level[k]
                swaps += 1
            else:
                if not rows[k]:
                    raise ArithmeticError(
                        f"internal error: the form p(V + V^T) - iq(V - V^T) "
                        f"at (p, q) = ({p}, {q}) is singular (zero row at "
                        f"pivot {k} of {h})"
                    )
                # every later diagonal is 0: row/col k += c * row/col m
                # with c in {1, i} makes the diagonal 2*Re(c*H[m][k]) != 0;
                # the row step needs both rows at step k, the column step
                # stays inside each row
                m = min(rows[k])
                top, other = catch_up(k, k), catch_up(m, k)
                turn = other[k][0] == 0  # c = i: Re(i*(x + iy)) = -y
                for j, (s, t) in other.items():
                    add(top, j, *((-t, s) if turn else (s, t)))
                for r in list(other):
                    s, t = rows[r][m]
                    add(rows[r], k, *((t, -s) if turn else (s, t)))
                shears += 1
        top = catch_up(k, k)
        rows[k] = {}
        d = top.pop(k)[0]
        prev = pivots[k]
        neg += (d < 0) != (prev < 0)
        new = {}  # rows brought to step k + 1 so far
        for i in top:
            row = catch_up(i, k)
            fx, fy = row.pop(k)  # H[i][k] = conj(H[k][i])
            out = {}
            for j, (s, t) in top.items():
                x, y = row.pop(j, (0, 0))
                if j in new:  # the updated matrix is Hermitian too
                    z = new[j].get(i)
                    if z:
                        out[j] = (z[0], -z[1])
                    continue
                x = (d * x - fx * s + fy * t) // prev
                y = (d * y - fx * t - fy * s) // prev
                if x or y:
                    out[j] = (x, y)
            for j, (x, y) in row.items():
                out[j] = (d * x // prev, d * y // prev)
            rows[i] = new[i] = out
            level[i] = k + 1
        pivots.append(d)
    return h - 2 * neg, swaps, shears


class _KernelRecorder:
    """
    Wraps inertia._eliminate and inertia._merge to count where the kernel
    ran: whole forms, pieces with kept boundary rows, seams, and where a
    zero pivot was fixed by a swap or shear or deferred to the boundary.
    """

    def __init__(self, monkeypatch):
        self.seen = {"whole": 0, "piece": 0, "seam": 0, "fixed whole": 0,
                     "fixed piece": 0, "fixed seam": 0, "deferred": 0}
        self.in_seam = False
        eliminate, merge = inertia._eliminate, inertia._merge

        def recording_eliminate(rows, order, scale):
            kept = len(rows) - len(order)
            where = "seam" if self.in_seam else "piece" if kept else "whole"
            out = eliminate(rows, order, scale)
            _, swaps, shears, _ = out
            self.seen[where] += 1
            self.seen["fixed " + where] += bool(swaps or shears)
            self.seen["deferred"] += len(rows) > kept
            return out

        def recording_merge(*args):
            self.in_seam = True
            try:
                return merge(*args)
            finally:
                self.in_seam = False

        monkeypatch.setattr(inertia, "_eliminate", recording_eliminate)
        monkeypatch.setattr(inertia, "_merge", recording_merge)


def _kernel_points(w, seed, count):
    """
    (block, V, p, q) for each Seifert block of w with Delta != 0: its sigma6
    point and the arc points of count seeded theta off its jumps.
    """
    rng = random.Random(seed)
    for block, coeffs in _nonzero_blocks(w):
        V = seifert_matrix(block)
        u = signature._sixth_point(_walk_fold(coeffs))
        yield block, V, u.numerator, u.denominator
        for _ in range(count):
            theta = Fraction(rng.randrange(1, 997), 997)
            if not signature._vanishes_at(coeffs, theta.denominator):
                yield (block, V) + _cold_point(
                    _walk_fold(coeffs), min(theta, 1 - theta))


def _match_reference_on_seeded_corpora():
    words = _zero_pivot_words(2024, 120) + _seeded_words(6161, 60)
    for w in words:
        for block, V, p, q in _kernel_points(w, 31, 2):
            assert (signature._pencil_signature(V, p, q)[0]
                    == _reference_pencil_signature(V, p, q)[0]), (block, p, q)


def test_split_kernel_matches_reference_on_seeded_corpora(monkeypatch):
    # every piece of more than 2 rows splits, so the small forms of these
    # corpora reach zero pivots inside pieces and at seams
    recorder = _KernelRecorder(monkeypatch)
    monkeypatch.setattr(inertia, "_splits",
                        lambda size, cut, kept, one_sided: size > 2)
    _match_reference_on_seeded_corpora()
    seen = recorder.seen
    assert min(seen[k] for k in ("piece", "seam", "fixed piece",
                                 "fixed seam", "deferred")) >= 15, seen


@pytest.mark.parametrize("forced", [False, True])
def test_forced_one_sided_flag_matches_reference(monkeypatch, forced):
    # the split rule with leaves of 2 and 6 rows, so the small forms of the
    # corpora split, and with its one-sided flag forced: a piece taken for
    # either kind must give the signature of the single pass
    recorder = _KernelRecorder(monkeypatch)
    splits, flags = inertia._splits, {False: 0, True: 0}

    def forced_splits(size, cut, kept, one_sided):
        flags[one_sided] += 1
        return splits(size, cut, kept, forced)

    monkeypatch.setattr(inertia, "LEAF_ROWS", 2)
    monkeypatch.setattr(inertia, "ONE_SIDED_LEAF_ROWS", 6)
    monkeypatch.setattr(inertia, "_splits", forced_splits)
    _match_reference_on_seeded_corpora()
    # both kinds of piece occur, and the forced flag still splits many
    assert min(flags.values()) >= 15, flags
    assert min(recorder.seen[k] for k in ("seam", "fixed piece")) >= 15, \
        recorder.seen


@pytest.mark.parametrize("w", [torus_word(6, 18), torus_word(6, 42),
                               torus_word(6, 100), cabled_torus_word(1),
                               cabled_torus_word(2),
                               sixstrand_certificate(2).start.closures[0],
                               sixstrand_certificate(3).start.closures[0],
                               sixstrand_certificate(4).start.closures[0],
                               sixstrand_certificate(5).start.closures[0]],
                         ids=["T(6,18)", "T(6,42)", "T(6,100)", "cable 1",
                              "cable 2", "sixstrand 2", "sixstrand 3",
                              "sixstrand 4", "sixstrand 5"])
def test_split_kernel_matches_reference_on_large_forms(monkeypatch, w):
    recorder = _KernelRecorder(monkeypatch)
    for block, V, p, q in _kernel_points(w, len(w.letters), 2):
        got = signature._pencil_signature(V, p, q)[0]
        assert got == _reference_pencil_signature(V, p, q)[0], (p, q)
    # h = 85 and up: every form is split at least once
    assert recorder.seen["seam"] >= 3 and recorder.seen["whole"] == 0, \
        recorder.seen


@pytest.mark.parametrize("l", [2, 3])
def test_sixstrand_start_is_cut_once(monkeypatch, l):
    # the start block, h = 145 or 205, is cut at its middle; each half keeps
    # the separator rows at one end only, so it is eliminated whole
    (block, V, p, q), = _kernel_points(
        sixstrand_certificate(l).start.closures[0], 0, 0)
    assert V.size == 60 * l + 25
    recorder = _KernelRecorder(monkeypatch)
    signature._pencil_signature(V, p, q)
    seen = recorder.seen
    assert (seen["whole"], seen["piece"], seen["seam"]) == (0, 2, 1), seen


@pytest.mark.parametrize("forced", [False, True])
def test_singular_split_pencil_is_an_internal_error(monkeypatch, forced):
    # Delta(T(2,200)) has the factor 1 + t^2, which vanishes at theta =
    # 1/4, u = 1, so the pencil at (1, 1) is singular; h = 199 splits
    if forced:
        monkeypatch.setattr(inertia, "_splits",
                            lambda size, cut, kept, one_sided: size > 2)
    V = seifert_matrix(torus_word(2, 200))
    with pytest.raises(ArithmeticError, match="internal error"):
        _reference_pencil_signature(V, 1, 1)
    with pytest.raises(ArithmeticError, match="internal error"):
        signature._pencil_signature(V, 1, 1)
    assert (signature._pencil_signature(V, 11, 19)[0]
            == _reference_pencil_signature(V, 11, 19)[0])
