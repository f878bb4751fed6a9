"""
Levine-Tristram signatures of braid closures and the limit invariant at the
sixth root of unity.

signature_at works in the standard convention: the positive trefoil has
signature -2 on (1/6, 5/6). The public sigma6 flips the sign so that
sigma6(positive trefoil) = +2, is additive over summands, and counts each
positive trefoil summand as +2 and each negative one as -2.

Numerical policy: signature_at is exact away from the jumps, the roots of
the Alexander polynomial on the unit circle, where the signature is constant
(Levine 1969; Tristram 1969). The Seifert matrix of a braid word is
block-diagonal over the blocks of seifert_blocks, each with a connected
surface, so the form (1-w)V + (1-conj(w))V^T of a block is singular exactly
at the roots of the block's Alexander polynomial Delta, and the signature is
the sum over the blocks. With theta = a/b, w is a primitive b-th root of
unity, and Delta(w) = 0 exactly when the cyclotomic polynomial Phi_b divides
Delta; that needs phi(b) <= deg Delta, so there is nothing to test when
b > 2*deg^2, since phi(b) >= sqrt(b/2). For a block with Delta(w) != 0 the
point evaluated is moved to a rational one on the same arc. With
S = sum k|c_k| bounding |d Delta(e^{2 pi i t})/dt| / (2 pi), no root lies
within |Delta(w)|/(2 pi S) of theta. In the coordinate v = cot(pi*theta),
where |d theta/dv| <= 1/pi, the fraction q/p (p > 0) of least denominator
within |Delta(w)|/(2S) of v therefore lies on the arc. The form is
2*sin(pi*theta)^2 times (V + V^T) - i*v*(V - V^T), so at v = q/p it is a
positive multiple of H = p(V + V^T) - iq(V - V^T). The enclosures of
cot(pi*theta) and of w come from mpmath's interval arithmetic (the libmpi
functions under mpmath.iv, which round outwards); |Delta(w)| is bounded
below from Delta evaluated exactly at the midpoint z of the enclosure of w,
minus |z - w| times a bound on |Delta'|. The interval precision starts at
64 bits and doubles until the bounds certify the arc, which happens since
Delta(w) != 0 is known exactly.

Only two inputs reach the mpmath LDL^T: a block with Delta(w) = 0 (Delta = 0
included), and a SeifertMatrix argument. There the form is built at a
working precision of prec bits and the inertia is read off the pivots of one
sparse LDL^T. A number is taken for zero when it is at most eps =
2^(-prec/2) times the largest row sum; a small pivot is replaced by a
symmetric swap or a shear, and zeros are counted only when the whole
remaining block is at most eps. The whole computation is repeated at doubled
precision, and only a reproduced count is returned; past PRECISION_CAP_BITS
it raises PrecisionError. The starting precision must lie in [64,
PRECISION_CAP_BITS // 2], so that it is both meaningful and checked at least
once; it is checked on every call, whichever path runs. sigma6 uses no
floating point at all.

The limit at theta = 1/6 is certified, not searched for, block by block.
With Phi6 = t^2 - t + 1 divided out of the block's Delta as often as it
divides it, the quotient Q has Q(zeta6) = x + y*zeta6, the remainder of Q
mod Phi6, for integers x, y not both zero, so N = |Q(zeta6)|^2 = x^2 + xy +
y^2 >= 1; and S = sum k|q_k| bounds |Q'| on the unit circle. The block
takes the width rho = min(1/2, 7r/(44S)) with r = isqrt(N*2^32 - 1)/2^16 <
sqrt(N), and rho = 1/2 when S = 0. Since 22/7 > pi, 2*pi*rho*S < |Q(zeta6)|,
so Q has no root on the arc (1/6, 1/6 + rho], and neither has Phi6, whose
other root is at 5/6: the block's signature is constant there, and its
value at any one point of the arc is the one-sided limit.

That point is rational in the coordinate u = tan(pi*theta) = 1/v. theta =
1/6 is u = 1/sqrt3, and tan(pi*theta) climbs with slope at least 4*pi/3 > 4
on [1/6, 1/2), so the fraction u* = p/q of least denominator in (1/sqrt3,
1/sqrt3 + 4*rho) lies on the arc, and the block's signature there is that
of the same H = p(V + V^T) - iq(V - V^T), at v = q/p.

Both callers find their point by one walk down the Stern-Brocot tree, which
takes each run of turns the same way in one binary search, and count the
signature of H exactly with inertia._pencil_signature.
"""

from __future__ import annotations

import collections
import dataclasses
import os
from fractions import Fraction
from math import isqrt

from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import from_int, to_rational
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

from .alexander import alexander
from .inertia import _ldl_inertia, _pencil_signature
from .links import FormalLink
from .seifert import (
    SeifertMatrix,
    _surface_pieces,
    seifert_blocks,
    seifert_matrix,
)
from .words import BraidWord

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 64
PRECISION_CAP_BITS = 4096


class PrecisionError(RuntimeError):
    """An inertia count could not be separated from zero at any precision."""


class Sigma6Error(RuntimeError):
    """The one-sided limit is undefined, or a summand is opaque."""


def precision_default() -> int:
    """
    BRAIDCOB_PRECISION_BITS, or DEFAULT_PRECISION_BITS when it is unset or
    empty; ValueError naming the variable when it is not an integer.
    """
    env = os.environ.get("BRAIDCOB_PRECISION_BITS")
    if not env:
        return DEFAULT_PRECISION_BITS
    try:
        return int(env)
    except ValueError:
        raise ValueError(
            f"BRAIDCOB_PRECISION_BITS={env!r} is not an integer") from None


@dataclasses.dataclass(frozen=True)
class SignatureProfile:
    """
    Signature and nullity at omega = exp(2*pi*i*theta). precision_bits is 0
    when the count is exact; otherwise it is the starting precision whose
    mpmath LDL^T count the doubled run reproduced, the largest over the
    Seifert blocks that needed it.
    """

    theta: Fraction
    signature: int
    nullity: int
    precision_bits: int


def _inertia_at(V: SeifertMatrix, theta: Fraction, prec: int):
    """
    _ldl_inertia of the form (1-w)V + (1-conj(w))V^T, w = e^{2*pi*i*theta},
    at prec bits.
    """
    with workprec(prec):
        ang = 2 * mp.pi * mpf(theta.numerator) / theta.denominator
        c1 = 1 - mpc(mp.cos(ang), mp.sin(ang))
        c2 = mp.conj(c1)
        rows: list[dict] = [{} for _ in range(V.size)]
        for i, j, v in V.nonzeros:
            rows[i][j] = rows[i].get(j, 0) + c1 * v
            rows[j][i] = rows[j].get(i, 0) + c2 * v
        scale = max((sum(map(abs, row.values())) for row in rows), default=0)
        return _ldl_inertia(rows, scale * mpf(2) ** (-(prec // 2)))


def _ldl_signature(V: SeifertMatrix, theta: Fraction, prec: int
                   ) -> tuple[int, int, int]:
    """
    (signature, zeros, precision) of the form of V at theta from
    _inertia_at, returned once the counts reproduce at doubled precision;
    the precision escalates up to PRECISION_CAP_BITS, then PrecisionError.
    """
    last = _inertia_at(V, theta, prec)[:3]
    while prec * 2 <= PRECISION_CAP_BITS:
        check = _inertia_at(V, theta, prec * 2)[:3]
        if check == last:
            pos, neg, zero = check
            return pos - neg, zero, prec
        last = check
        prec *= 2
    raise PrecisionError(
        f"precision unresolved at theta={theta} after escalating to "
        f"{PRECISION_CAP_BITS} bits"
    )


def _cyclotomic_divmod(coeffs: tuple[int, ...], b: int
                       ) -> tuple[list[int], list[int]]:
    """
    (quotient, remainder) of the polynomial with these coefficients, lowest
    first, divided by the cyclotomic polynomial Phi_b (b >= 2); the
    remainder has phi(b) = deg Phi_b coefficients.
    """
    primes, rest, p = [], b, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    n = b
    for p in primes:
        n = n // p * (p - 1)
    rem = list(coeffs) + [0] * (n - len(coeffs))
    quot = [0] * (len(rem) - n)
    if not quot:
        return quot, rem
    # Phi_b is the product of (1 - t^(b/s))^mu(s) over the squarefree s | b,
    # here as a power series cut after t^n = t^phi(b)
    phi = [1] + [0] * n
    for mask in range(1 << len(primes)):
        d, odd = b, False
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d, odd = d // p, not odd
        if odd:  # divide by 1 - t^d
            for i in range(d, n + 1):
                phi[i] += phi[i - d]
        else:  # multiply by 1 - t^d
            for i in range(n, d - 1, -1):
                phi[i] -= phi[i - d]
    for top in range(len(rem) - 1, n - 1, -1):  # phi is monic
        c = quot[top - n] = rem[top]
        if c:
            for j, x in enumerate(phi, top - n):
                rem[j] -= c * x
    return quot, rem[:n]


def _vanishes_at(coeffs: tuple[int, ...], b: int) -> bool:
    """
    Whether the polynomial with these coefficients vanishes at the primitive
    b-th roots of unity (b >= 2), that is, whether Phi_b divides it; the
    zero polynomial vanishes everywhere.
    """
    if coeffs == (0,):
        return True
    deg = len(coeffs) - 1
    if b > 2 * deg * deg:  # phi(b) >= sqrt(b/2) > deg
        return False
    return not any(_cyclotomic_divmod(coeffs, b)[1])


def _ends(x) -> tuple[Fraction, Fraction]:
    """The two ends of the mpmath interval x, exactly."""
    return Fraction(*to_rational(x[0])), Fraction(*to_rational(x[1]))


def _abs_below(coeffs: tuple[int, ...], x: Fraction, y: Fraction,
               bits: int) -> Fraction:
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


def _arc_point(coeffs: tuple[int, ...], theta: Fraction) -> tuple[int, int]:
    """
    (p, q), p > 0, with q/p the fraction of least denominator within
    |Delta(w)|/(2S) of cot(pi*theta), w = e^{2*pi*i*theta}, for the nonzero
    Delta with these coefficients, S = sum k|c_k| and Delta(w) != 0 (see
    the module docstring). The interval precision doubles from 64 bits
    until the enclosures certify the arc.
    """
    slope = sum(k * abs(c) for k, c in enumerate(coeffs))
    if not slope:  # a nonzero constant: the whole circle is one arc
        return 1, 0
    a, b = from_int(theta.numerator), from_int(theta.denominator)
    prec = 64
    while True:
        # intervals at prec bits: pi*theta, then its cosine and sine
        half = mpi_div(mpi_mul(mpi_pi(prec), (a, a), prec), (b, b), prec)
        c, s = mpi_cos_sin(half, prec)
        if _ends(s)[0] > 0:
            vlo, vhi = _ends(mpi_div(c, s, prec))
            # w = cos(2*pi*theta) + i sin(2*pi*theta); z is the midpoint of
            # its enclosure, and |z - w| <= eps
            xlo, xhi = _ends(mpi_sub(mpi_shift(mpi_square(c, prec), 1),
                                     mpi_one, prec))
            ylo, yhi = _ends(mpi_shift(mpi_mul(s, c, prec), 1))
            eps = (xhi - xlo + yhi - ylo) / 2
            # |Delta'| <= S (1 + eps)^(d - 1) < 2S between z and w when
            # d*eps <= 1/2
            if len(coeffs) * eps <= Fraction(1, 2):
                low = _abs_below(coeffs, (xlo + xhi) / 2, (ylo + yhi) / 2,
                                 prec)
                radius = (low - 2 * eps * slope) / (2 * slope)
                if vhi - vlo < 2 * radius:
                    v = _simplest_in(vhi - radius, vlo + radius)
                    return v.denominator, v.numerator
        prec *= 2


def signature_at(
    w: BraidWord | SeifertMatrix,
    theta: Fraction,
    precision_bits: int | None = None,
) -> SignatureProfile:
    """
    Signature and nullity of the closure of w at omega = e^{2*pi*i*theta},
    0 < theta < 1. On a braid word each distinct Seifert block is evaluated
    once and counted with its multiplicity. A block whose Alexander
    polynomial does not vanish at omega is counted exactly (precision_bits
    0 in the profile); a block where it vanishes, and a SeifertMatrix
    argument, go to the mpmath LDL^T, whose counts must reproduce
    identically when the working precision is doubled; otherwise the
    precision escalates up to a cap. precision_bits is its starting
    precision, BRAIDCOB_PRECISION_BITS or DEFAULT_PRECISION_BITS when None;
    ValueError when it lies outside [MIN_PRECISION_BITS,
    PRECISION_CAP_BITS // 2].
    """
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    if precision_bits is None:
        prec, source = precision_default(), "BRAIDCOB_PRECISION_BITS"
    else:
        prec, source = precision_bits, "precision_bits"
    if not MIN_PRECISION_BITS <= prec <= PRECISION_CAP_BITS // 2:
        raise ValueError(
            f"starting precision {source}={prec} lies outside "
            f"[{MIN_PRECISION_BITS}, {PRECISION_CAP_BITS // 2}] bits")
    if isinstance(w, SeifertMatrix):
        total, zeros, used = _ldl_signature(w, theta, prec)
        return SignatureProfile(theta, total, zeros + w.pieces - 1, used)
    total = zeros = used = 0
    for block, copies in collections.Counter(seifert_blocks(w)).items():
        coeffs = alexander(block).coefficients
        V = seifert_matrix(block)
        if _vanishes_at(coeffs, theta.denominator):
            sig, zero, bits = _ldl_signature(V, theta, prec)
            zeros += copies * zero
            used = max(used, bits)
        else:
            sig = _pencil_signature(V, *_arc_point(coeffs, theta))[0]
        total += copies * sig
    return SignatureProfile(theta, total, zeros + _surface_pieces(w) - 1, used)


def torus_signature_oracle(p: int, q: int, theta: Fraction) -> int:
    """
    Standard-convention signature of the torus link T(p,q) at
    e^{2*pi*i*theta}, away from its jumps, by lattice counting: each pair
    (i,j) in [1,p-1]x[1,q-1] contributes -1 when (i/p + j/q - theta) mod 2
    lies in (0,1) and +1 when it lies in (1,2). Fully independent of Seifert
    matrices. With theta = a/b and lo = a*p*q - i*q*b, (i,j) gives +1
    exactly when j*p*b < lo or j*p*b > lo + p*q*b, and a jump when it is
    equal to either end, so each i takes four floor divisions.
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


def _certified_offset(coeffs: tuple[int, ...]) -> Fraction:
    """
    A width rho in (0, 1/2] for which the nonzero polynomial with these
    coefficients has no root on the arc (1/6, 1/6 + rho] of the unit circle
    (see the module docstring).
    """
    while True:  # divide out Phi6; the remainder is Q(zeta6) = x + y*zeta6
        quot, (x, y) = _cyclotomic_divmod(coeffs, 6)
        if x or y:
            break
        coeffs = quot
    slope = sum(k * abs(c) for k, c in enumerate(coeffs))
    if not slope:
        return Fraction(1, 2)
    # r = isqrt(N*2^32 - 1)/2^16 < sqrt(N) = |Q(zeta6)| with N = x^2 + xy +
    # y^2, and 22/7 > pi, so rho <= 7r/(44S) gives 2*pi*rho*S < |Q(zeta6)|
    r = isqrt(((x * x + x * y + y * y) << 32) - 1)
    return min(Fraction(1, 2), Fraction(7 * r, 44 * slope << 16))


def _run(holds) -> int:
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


def _simplest_between(below, above) -> Fraction:
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


def _simplest_in(lo: Fraction, hi: Fraction) -> Fraction:
    """The fraction of least denominator in the open interval (lo, hi)."""
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -_simplest_in(-hi, -lo)
    return _simplest_between(
        lambda x, y: x * lo.denominator <= lo.numerator * y,
        lambda x, y: x * hi.denominator >= hi.numerator * y,
    )


def _point_past_sixth(delta: Fraction) -> Fraction:
    """
    The fraction u* of least denominator in (1/sqrt3, 1/sqrt3 + 4*delta).
    Since tan(pi*theta) has slope more than 4 on [1/6, 1/2), u* =
    tan(pi*theta*) for some theta* in (1/6, 1/6 + delta).
    """
    n, d = (4 * delta).numerator, (4 * delta).denominator

    def above(x: int, y: int) -> bool:  # x/y - n/d = z/(yd) > 1/sqrt3
        z = x * d - n * y
        return z > 0 and 3 * z * z > y * y * d * d

    return _simplest_between(lambda x, y: 3 * x * x < y * y, above)


def _sigma6_of_word(w: BraidWord) -> int:
    """
    Paper-convention sigma_6 of one closure: minus the sum over its Seifert
    blocks of the standard signature just past theta = 1/6, each taken
    exactly at one rational point of the arc certified free of jumps. Equal
    blocks, such as the summands of a connected sum of trefoils, are
    evaluated once and counted with their multiplicity.
    """
    total = 0
    for block, copies in collections.Counter(seifert_blocks(w)).items():
        poly = alexander(block)
        if poly.is_zero():
            raise Sigma6Error(
                f"sigma6 is undefined for {w}: block {block} has Alexander "
                f"polynomial 0, so its form is singular at every theta"
            )
        u = _point_past_sixth(_certified_offset(poly.coefficients))
        try:
            total -= copies * _pencil_signature(
                seifert_matrix(block), u.numerator, u.denominator)[0]
        except ArithmeticError as exc:
            raise Sigma6Error(str(exc)) from exc
    return total


def sigma6(link: FormalLink | BraidWord) -> int:
    """
    The limit invariant at the sixth root of unity, paper convention:
    sigma6(positive trefoil) = +2, additive over summands, +2 per positive
    trefoil counter and -2 per negative one. Asserted summands must declare
    their value. Each Seifert block of a closure is evaluated once and
    exactly, at a rational point of the arc (1/6, 1/6 + rho] whose width
    rho the block's Alexander polynomial certifies free of signature jumps.
    Raises Sigma6Error when a block's Alexander polynomial is 0.
    """
    if isinstance(link, BraidWord):
        link = FormalLink(closures=(link,))
    total = 2 * link.trefoils_pos - 2 * link.trefoils_neg
    for summand in link.assertions:
        if summand.sigma6 is None:
            raise Sigma6Error(
                f"unknown summand: assertion {summand.label!r} has no "
                f"declared sigma6"
            )
        total += summand.sigma6
    for w in link.closures:
        total += _sigma6_of_word(w)
    return total
