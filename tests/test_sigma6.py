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
as their reference, down to the text of each jump error. The per-block
records that signature_at and sigma6 share must give the same values cold
and warm, build each block once, and keep only the last used.
"""

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
from braidcob.words import make_word


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
        quot, (x, y) = signature._cyclotomic_divmod(coeffs, 6)
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
        assert calls == [signature._sixth_point(coeffs) for _, coeffs
                         in dict(_nonzero_blocks(w)).items()], (w, calls)


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
            u = signature._point_past_sixth(rho)
            got, swaps, shears = signature._pencil_signature(
                seifert_matrix(block), u.numerator, u.denominator)
            assert got == expected, (block, u)
            fixed["swap"] += swaps > 0
            fixed["shear"] += shears > 0
            fixed["none"] += swaps == shears == 0
    assert min(fixed.values()) >= 15, fixed


@pytest.mark.parametrize("k", [1, 2, 5, 10, 11, 20, 60])
def test_point_past_sixth_is_the_simplest_fraction_on_the_arc(k):
    delta = Fraction(1, 2 ** k)
    u = signature._point_past_sixth(delta)

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
        m.setattr(signature, "_sixth_point", lambda coeffs: Fraction(1))
        with pytest.raises(Sigma6Error, match="internal error"):
            sigma6(w)
    # signature_at at theta = 1/3, off the roots, sent to the same point
    monkeypatch.setattr(signature, "_arc_point", lambda f, theta: (1, 1))
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
    u = signature._sixth_point(coeffs)
    first = n // 6 + 1
    with mp.workprec(128):
        assert mp.atan(mpf(u.numerator) / u.denominator) / mp.pi \
            < mpf(first) / n, (n, u)
    for k in (first, n // 3, (n - 1) // 2) if n <= 1200 else ():
        theta = Fraction(2 * k + 1, 2 * n)
        assert not signature._vanishes_at(coeffs, theta.denominator)
        p, q = signature._arc_point(signature._fold(coeffs), theta)
        with mp.workprec(128):
            at = mp.acot(mpf(q) / p) / mp.pi
            assert mpf(k) / n < at < mpf(k + 1) / n, (n, k, p, q)


def test_sigma6_point_of_trefoil_is_one():
    # Delta(3_1) = Phi6 leaves a constant, and Delta(4_1) = -1 + 3t - t^2
    # folds to 3 - x, with its root at x = 3 off [x(1), 1] = [0, 1]: the
    # first candidate, u = tan(pi/4) = 1, not 11/19 as at 1/1024
    assert signature._point_past_sixth(Fraction(1, 2)) == 1
    for coeffs in ((1, -1, 1), (1,), (-1, 3, -1), _turn((1, -1, 1), 6)):
        assert signature._sixth_point(coeffs) == 1, coeffs
    assert sigma6(make_word(2, [1, 1, 1])) == 2


def test_sigma6_point_avoids_a_root_at_the_closed_end():
    # Delta(T(2,4)) = (1 - t)(1 + t^2) folds to x, whose root x = 0 is the
    # closed end x(1) of [x(1), 1], theta = 1/4: the walk must go past u = 1
    w = make_word(2, [1, 1, 1, 1])
    coeffs = alexander(w).coefficients
    assert signature._fold(coeffs) in ([0, 1], [0, -1])
    assert not signature._root_free([0, 1], Fraction(0), Fraction(1))
    assert not signature._root_free([0, 1], Fraction(-1), Fraction(0))
    assert signature._root_free([0, 1], Fraction(1, 2), Fraction(1))
    u = signature._sixth_point(coeffs)
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
            u, old = (signature._point_past_sixth(rho),
                      signature._point_past_sixth(delta))
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
            old = signature._point_past_sixth(_certified_offset(coeffs))
            new = signature._sixth_point(coeffs)
            for key, u in (("slope", old), ("root", new)):
                bits[key] += (u.numerator * u.denominator).bit_length()
            pairs = [((old.numerator, old.denominator),
                      (new.numerator, new.denominator))]
            for k in rng.sample(range(1, 997), 3):
                theta = Fraction(k, 997)
                pairs.append((_slope_arc_point(coeffs, theta),
                              signature._arc_point(signature._fold(coeffs),
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
        u = signature._sixth_point(coeffs)
        yield block, V, u.numerator, u.denominator
        for _ in range(count):
            theta = Fraction(rng.randrange(1, 997), 997)
            if not signature._vanishes_at(coeffs, theta.denominator):
                yield (block, V) + signature._arc_point(
                    signature._fold(coeffs), min(theta, 1 - theta))


def test_split_kernel_matches_reference_on_seeded_corpora(monkeypatch):
    # every piece of more than 2 rows splits, so the small forms of these
    # corpora reach zero pivots inside pieces and at seams
    recorder = _KernelRecorder(monkeypatch)
    monkeypatch.setattr(inertia, "_splits", lambda size, cut, kept: size > 2)
    words = _zero_pivot_words(2024, 120) + _seeded_words(6161, 60)
    for w in words:
        for block, V, p, q in _kernel_points(w, 31, 2):
            assert (signature._pencil_signature(V, p, q)[0]
                    == _reference_pencil_signature(V, p, q)[0]), (block, p, q)
    seen = recorder.seen
    assert min(seen[k] for k in ("piece", "seam", "fixed piece",
                                 "fixed seam", "deferred")) >= 15, seen


@pytest.mark.parametrize("w", [torus_word(6, 18), torus_word(6, 42),
                               torus_word(6, 100), cabled_torus_word(1),
                               cabled_torus_word(2),
                               sixstrand_certificate(2).start.closures[0],
                               sixstrand_certificate(3).start.closures[0]],
                         ids=["T(6,18)", "T(6,42)", "T(6,100)", "cable 1",
                              "cable 2", "sixstrand 2", "sixstrand 3"])
def test_split_kernel_matches_reference_on_large_forms(monkeypatch, w):
    recorder = _KernelRecorder(monkeypatch)
    for block, V, p, q in _kernel_points(w, len(w.letters), 2):
        got = signature._pencil_signature(V, p, q)[0]
        assert got == _reference_pencil_signature(V, p, q)[0], (p, q)
    # h = 85 and up: every form is split at least once
    assert recorder.seen["seam"] >= 3 and recorder.seen["whole"] == 0, \
        recorder.seen


@pytest.mark.parametrize("forced", [False, True])
def test_singular_split_pencil_is_an_internal_error(monkeypatch, forced):
    # Delta(T(2,200)) has the factor 1 + t^2, which vanishes at theta =
    # 1/4, u = 1, so the pencil at (1, 1) is singular; h = 199 splits
    if forced:
        monkeypatch.setattr(inertia, "_splits",
                            lambda size, cut, kept: size > 2)
    V = seifert_matrix(torus_word(2, 200))
    with pytest.raises(ArithmeticError, match="internal error"):
        _reference_pencil_signature(V, 1, 1)
    with pytest.raises(ArithmeticError, match="internal error"):
        signature._pencil_signature(V, 1, 1)
    assert (signature._pencil_signature(V, 11, 19)[0]
            == _reference_pencil_signature(V, 11, 19)[0])
