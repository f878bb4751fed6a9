"""
Levine-Tristram signatures of braid closures and the limit invariant at the
sixth root of unity.

signature_at works in the standard convention: the positive trefoil has
signature -2 on (1/6, 5/6). The public sigma6 flips the sign so that
sigma6(positive trefoil) = +2, is additive over summands, and counts each
positive trefoil summand as +2 and each negative one as -2.

Exact evaluation: the signature is constant away from the jumps, the roots
of the Alexander polynomial on the unit circle (Levine 1969; Tristram
1969). The Seifert matrix of a braid word is block-diagonal over the blocks
of seifert_blocks, each with a connected surface, so the form (1-w)V +
(1-conj(w))V^T of a block, w = e^{2 pi i theta}, is singular exactly at the
roots of the block's Alexander polynomial Delta, and the signature is the
sum over the blocks. In the coordinate v = cot(pi*theta) the form is
2*sin(pi*theta)^2 times (V + V^T) - i*v*(V - V^T), so at a rational v =
q/p (p > 0) it is a positive multiple of the Gaussian-integer matrix H =
p(V + V^T) - iq(V - V^T), whose signature inertia._pencil_signature counts
exactly. Each block is counted at one such point, proved to lie on a
jump-free arc with the point asked for by a single root test.

The test. Delta is palindromic up to sign: once t - 1 is divided out of an
anti-palindromic Delta, and t + 1 out of one of odd degree (their roots lie
at theta = 0 and 1/2), it is t^e F(x) for a polynomial F over Z in x = t +
1/t = 2cos(2*pi*theta) (_fold). As theta runs over [0, 1/2], x falls from 2
to -2, and x = 2(v^2 - 1)/(v^2 + 1) is rational with v. F has no root on a
closed rational interval [lo, hi] when F(lo) and F(hi) are nonzero and (1 +
y)^d F((lo + hi*y)/(1 + y)) has no sign variation, since by Descartes' rule
of signs it then has no positive root (Collins and Akritas 1976); two
integer Taylor shifts compute it (_root_free). Conversely, the transform
has no sign variation once the disc with diameter [lo, hi] holds no complex
root of F (Obreschkoff's one-circle theorem; Alesina and Galuzzi 1998), so
the test passes on every short enough interval around a point where F is
nonzero. Both walks below ask only this test, and each ends because that
value is first known to be nonzero, exactly.

Both walks test the square-free part F_sf = F / gcd(F, F') (_square_free)
in place of F: it has the same real roots, each once, and one test costs
O(d^2) Taylor-shift work, so a fold that is a power of a few factors, as on
torus and cable blocks, is tested at a fraction of its degree (42 to 10 on
the 6-strand cable block of cabled_torus_word(1), 972 to 196 on the start
block of the l = 32 six-strand certificate). gcd(F, F') is certified
modularly (Brown 1971). For a prime q that divides neither lc(F) nor deg F,
F and F' keep their degrees mod q, so the gcd over Z reduces to a common
divisor mod q and deg gcd(F, F') <= deg gcd(F mod q, F' mod q). The first
prime below 2^30 (_prime) usually settles it at once: when its gcd has
degree 0, F is square-free and comes back as it is. Otherwise the smaller
of lc(F) gcd / lc(gcd) and lc(gcd) F / gcd is rebuilt from its images mod
one prime after another by the Chinese remainder theorem, keeping only the
primes of the least gcd degree k seen. It is tried once a prime leaves it
unchanged, or at once when its coefficients are below the square root of
the modulus, and accepted only if it gives a G of degree k that divides F
and F' exactly over Z. That G is gcd(F, F') up to a unit, since no common
divisor has a higher degree than k.

signature_at takes theta to min(theta, 1 - theta), since the form at
conj(w) is the conjugate of the form at w. With theta = a/b, Delta(w) = 0
exactly when the cyclotomic polynomial Phi_b divides Delta; that needs
phi(b) <= deg Delta, so there is nothing to test when b > 2*deg^2, since
phi(b) >= sqrt(b/2). Otherwise Phi_b is never built (_vanishes_at): t^b - 1
is the square-free product of the Phi_d over the d | b, and each Phi_d with
d < b divides t^(b/p) - 1 for a prime p | b/d, while the irreducible Phi_b
divides none of them. So Phi_b divides Delta exactly when t^b - 1 divides R
times the t^(b/p) - 1 over the primes p | b, for R = Delta mod t^b - 1 (the
exponents of Delta folded mod b): R times each factor mod t^b - 1 is one
pass over b coefficients, and Phi_b | Delta when the last product is zero.
A block with Delta(w) != 0 is counted at v = 0 when theta = 1/2, and
otherwise at the point of the kept arc of its record that holds
cot(pi*theta) (Block records, below). On a miss, the walk (_arc) certifies
a new arc. mpmath's interval arithmetic (the libmpi functions under
mpmath.iv, which round outwards) encloses cot(pi*theta) in [vlo, vhi], and
for a radius r = 16^-j the simplest fractions lo in (vlo - r, vlo), taken
as 0 when it is negative, and hi in (vhi, vhi + r) bracket it; the interval
precision doubles from 64 bits while the enclosure is not narrower than r.
The bracket passes the root test on [x(lo), x(hi)] for every j past some
j0, because Delta(w) != 0, so F(x) != 0 at the point asked for. j is found
by galloping, j = 0, 1, 2, 4, ... up to the first pass, then bisection
between it and the last failure (_gallop). So a theta within 2^-1023 of a
root costs a few dozen root tests, where trying each j in turn cost one per
j, 258 on a 6-strand block at 1/3. Each side of the passing bracket is then
widened in turn: its end moves to the simplest fraction of the window of
radius r*2^m, for the m that _gallop finds while the test on the widened
bracket passes, up to the m at which the window reaches 0 (left) or holds
an integer (right), past which no other end comes. Both bisections stop
within an eighth of the edge past 8, so a search costs about twice the
logarithm of what it finds. The widened [lo, hi] is the new arc, and its
point is its simplest fraction: the wider the arc, the smaller the point,
and the cheaper the pencil there (by about the square of its bits).

sigma6 takes the limit at theta = 1/6 block by block. Phi6 = t^2 - t + 1 is
t(x - 1), so x - 1 is divided out of F as often as it divides it, once at
most in F_sf; then F(1) != 0. For delta = 1/(2*16^j), j = 0, 1, ..., the
candidate u is the simplest fraction in (a, a + 4*delta), where a =
(isqrt(4^k // 3) + 1)/2^k, k = 16j + 40, is the rational end just above
1/sqrt3 = tan(pi/6), so u = tan(pi*theta*) with theta* > 1/6. As 1/sqrt3
has partial quotients at most 2, |1/sqrt3 - p/q| > 1/(4q^2), so no
fraction of denominator at most 1/(4*delta) + 1, a bound on u's, lies
within 2^-k of 1/sqrt3 or of 1/sqrt3 + 4*delta: u is also the simplest
fraction in (1/sqrt3, 1/sqrt3 + 4*delta), and since tan(pi*theta) has
slope more than 4 past 1/6, theta* < 1/6 + delta. The first u
with F root-free on [x(1/u), 1] is the point: the block's signature is
constant on (1/6, theta*], as Phi6 has its other root at 5/6, so its value
there, that of H at v = 1/u, is the one-sided limit. The walk ends because
F(1) != 0. sigma6 uses no floating point at all.

Both walks pick the simplest fraction of an interval with rational ends by
its continued fraction (_simplest_in).

Block records. What does not depend on theta is kept per distinct block: a
_Block holds V = seifert_matrix(block), the coefficients of Delta =
alexander(block) and, once first asked for, the square-free fold F_sf =
_square_free(_fold(Delta)) that both walks test, with one gcd per record,
the point u = _sixth_point(F_sf) of sigma6, and the arcs that signature_at
has certified (_Arcs). The last _RECORDS = 64 records used are kept, keyed
by the block's BraidWord; a block of more than _RECORD_LETTERS = 256
letters is evaluated but not kept. A block has fewer Seifert rows than
letters, and a record, key included, takes at most about 280 bytes a row,
F_sf at most about 22 more, and less than F where F has a repeated factor:
8 bytes a row on T(6, 51), where F has 126 coefficients and F_sf 53
(measured on torus, two-strand and random mixed-sign blocks of 256
letters), so the kept records take at most about 5 MB. The records pay off
when one process evaluates the same block again: sigma6 and signature_at of
one word, signature_at at several theta, the start, end and assertions of
certificates that share words, or summands repeated across words.

The arcs of a record are a sorted tuple of disjoint closed intervals [lo,
hi] of v on which the root test proved F_sf free of roots, each with one
point, its simplest fraction. When F_sf is root-free on all of [-2, 2] the
tuple is the single arc (0, infinity), with the point v = 1, from one test
per record; otherwise it starts empty. signature_at looks up among the
intervals an enclosure of cot(pi*theta) at 64 + 2b bits, for a denominator
of b bits, so that a theta near a root, which its walk brackets at a radius
of about 2^-b, finds the arc that walk kept; it runs the pencil at the
point of the interval that holds the enclosure. Two theta in one interval
have the same signature, so every value is the one the walk would give.
Only a miss runs the walk, and its arc is merged with every kept interval
it meets, then with the nearest one on either side when the root test
passes on the gap between them, so each arc is kept as one interval. A
record keeps at most deg F_sf + 1 intervals, the number of arcs between
the real roots of F_sf, three fractions each; a merge that would make more
is not kept. Readers take the tuple as it is, and a writer replaces it
whole under the record's lock, so no reader sees a half-merged tuple (two
threads that make one record's arcs at once may each keep into their own,
which costs a later miss, never a value). The records hold no signature
value, which would spare the pencil too: keeping one per block grew the
resident set of a benchmark run past its bound, whose reading grows with
the operations a run completes.

Only a block with Delta(w) = 0 (Delta = 0 included) reaches the mpmath
LDL^T. There the form is built at a working precision of prec bits and the
inertia is read off the pivots of one sparse LDL^T. A number is taken for
zero when it is at most eps = 2^(-prec/2) times the largest row sum; a
small pivot is replaced by a symmetric swap or a shear, and zeros are
counted only when the whole remaining block is at most eps. The whole
computation is repeated at doubled precision, and only a reproduced count
is returned; it starts at DEFAULT_PRECISION_BITS = 128 and past
PRECISION_CAP_BITS raises PrecisionError. The LDL^T has no setting, and it
works in mpmath contexts of its own, one per precision and never changed
once made, leaving mpmath's global precision alone, so signature_at is
safe to call from several threads at once.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import functools
import math
import threading
from fractions import Fraction
from itertools import accumulate, count
from math import gcd, isqrt
from operator import add, itemgetter, mul, sub

from mpmath import mp
from mpmath.libmp import from_int, to_rational
from mpmath.libmp.libmpi import mpi_cos_sin, mpi_div, mpi_mul, mpi_pi

from .alexander import alexander
from .inertia import _pencil_signature
from .links import FormalLink
from .seifert import (
    SeifertMatrix,
    _surface_pieces,
    seifert_blocks,
    seifert_matrix,
)
from .words import BraidWord

DEFAULT_PRECISION_BITS = 128
PRECISION_CAP_BITS = 4096


class PrecisionError(RuntimeError):
    """An inertia count could not be separated from zero at any precision."""


class Sigma6Error(RuntimeError):
    """The one-sided limit is undefined, or a summand is opaque."""


def precision_default() -> int:
    """
    DEFAULT_PRECISION_BITS, the precision the LDL^T starts at. The benchmark
    tracer (benchmarks/tracer.py) calls it by this name after every traced
    signature_at, so renaming it breaks traced runs.
    """
    return DEFAULT_PRECISION_BITS


@dataclasses.dataclass(frozen=True)
class SignatureProfile:
    """
    Signature and nullity at omega = exp(2*pi*i*theta). precision_bits is 0
    when the count is exact; otherwise it is the starting precision whose
    mpmath LDL^T count the doubled run reproduced, the largest over the
    Seifert blocks that needed it. The benchmark tracer reads
    precision_bits by this name after every traced signature_at.
    """

    theta: Fraction
    signature: int
    nullity: int
    precision_bits: int


def _swap(rows: list[dict], k: int, m: int) -> None:
    """
    Symmetric swap of rows and columns k and m of the stored form. The rows
    with an entry in column k or m are read off the keys of rows k and m, so
    a row must store an entry exactly where its transpose does.
    """
    for r in rows[k].keys() | rows[m].keys():
        row = rows[r]
        zk, zm = row.pop(k, None), row.pop(m, None)
        if zm is not None:
            row[k] = zm
        if zk is not None:
            row[m] = zk
    rows[k], rows[m] = rows[m], rows[k]


def _ldl_inertia(rows: list[dict], eps) -> tuple[int, int, int, int, int]:
    """
    (positive, negative, zero, swaps, shears) of the Hermitian form whose
    row k is the dict rows[k] = {j: H[k][j]} of its nonzero entries, by a
    sparse LDL^T that consumes rows, with the numbers of pivots fixed by a
    swap and by a shear. Pivot k is taken in order while |d_k| > eps, so on
    rows in time-major order the fill of a torus word stays inside a narrow
    band. Otherwise the later row with the largest |diagonal| is swapped in
    or, when every later diagonal is at most eps, row/col k += c * row/col m
    with b = H[k][m] the largest off-diagonal entry of row k and c =
    conj(b)/|b|, which makes the diagonal about 2|b| > 0. A row at most eps
    is deferred to the end, since later updates can refill it; zeros are
    counted only when the whole remaining block is at most eps.
    """
    h = len(rows)
    diag = lambda i: abs(rows[i].get(i, 0).real)
    pos = neg = swaps = shears = 0
    k, end = 0, h  # rows[end:] were at most eps when deferred
    while k < h:
        if k == end:
            if all(abs(x) <= eps for row in rows[k:] for x in row.values()):
                break
            end = h
        top = rows[k]
        if diag(k) <= eps:
            m = max(range(k + 1, h), key=diag, default=k)
            if diag(m) > eps:
                _swap(rows, k, m)
                swaps += 1
            else:
                m = max(top.keys() - {k}, key=lambda j: abs(top[j]),
                        default=k)
                if m == k or abs(top[m]) <= eps:
                    end -= 1
                    _swap(rows, k, end)
                    continue
                c = top[m].conjugate() / abs(top[m])
                for r in list(rows[m]):
                    rows[r][k] = rows[r].get(k, 0) + c * rows[r][m]
                for j, x in rows[m].items():
                    top[j] = top.get(j, 0) + c.conjugate() * x
                shears += 1
            top = rows[k]
        rows[k] = {}
        d = top.pop(k).real
        if d > 0:
            pos += 1
        else:
            neg += 1
        cols = list(top)
        for n, i in enumerate(cols):
            row = rows[i]
            del row[k]
            f = top[i].conjugate() / d  # H[i][k] / d
            for j in cols[n:]:
                row[j] = row.get(j, 0) - f * top[j]
            for j in cols[n + 1:]:  # the updated form is Hermitian too
                rows[j][i] = row[j].conjugate()
        k += 1
    return pos, neg, h - k, swaps, shears


@functools.cache
def _context(prec: int):
    """
    An mpmath context at prec bits, one per precision since making one takes
    about a millisecond; none is changed once made, so threads share them.
    """
    ctx = mp.clone()
    ctx.prec = prec
    return ctx


def _inertia_at(V: SeifertMatrix, theta: Fraction, prec: int):
    """
    _ldl_inertia of the form (1-w)V + (1-conj(w))V^T, w = e^{2*pi*i*theta},
    at prec bits, in the mpmath context _context(prec).
    """
    ctx = _context(prec)
    ang = 2 * ctx.pi * ctx.mpf(theta.numerator) / theta.denominator
    c1 = 1 - ctx.mpc(ctx.cos(ang), ctx.sin(ang))
    c2 = c1.conjugate()
    rows: list[dict] = [{} for _ in range(V.size)]
    for i, j, v in V.nonzeros:
        rows[i][j] = rows[i].get(j, 0) + c1 * v
        rows[j][i] = rows[j].get(i, 0) + c2 * v
    scale = max((sum(map(abs, row.values())) for row in rows), default=0)
    return _ldl_inertia(rows, scale * ctx.mpf(2) ** (-(prec // 2)))


def _ldl_signature(V: SeifertMatrix, theta: Fraction
                   ) -> tuple[int, int, int]:
    """
    (signature, zeros, precision) of the form of V at theta from
    _inertia_at, returned once the counts reproduce at doubled precision;
    the precision starts at DEFAULT_PRECISION_BITS and escalates up to
    PRECISION_CAP_BITS, then PrecisionError.
    """
    prec = DEFAULT_PRECISION_BITS
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


def _vanishes_at(coeffs: tuple[int, ...], b: int) -> bool:
    """
    Whether the polynomial Delta with these coefficients vanishes at the
    primitive b-th roots of unity (b >= 2), that is, whether Phi_b divides
    it; the zero polynomial vanishes everywhere. Phi_b divides t^b - 1, so
    it divides Delta exactly when it divides R = Delta mod t^b - 1, and
    that holds exactly when R times the t^(b/p) - 1 over the primes p | b
    is 0 mod t^b - 1: t^b - 1 is the square-free product of the Phi_d over
    the d | b, each Phi_d with d < b divides t^(b/p) - 1 for a prime p |
    b/d, and the irreducible Phi_b divides none of them.
    """
    if coeffs == (0,):
        return True
    deg = len(coeffs) - 1
    if b > 2 * deg * deg:  # phi(b) >= sqrt(b/2) > deg
        return False
    primes, rest, p, phi = [], b, 2, b
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
        phi -= phi // rest
    if phi > deg:
        return False
    r = [sum(coeffs[k::b]) for k in range(b)]
    for p in primes:  # r times t^(b/p) - 1, mod t^b - 1
        s = b // p
        r = list(map(sub, r[-s:] + r[:-s], r))
    return not any(r)


def _ends(x) -> tuple[Fraction, Fraction]:
    """The two ends of the mpmath interval x, exactly."""
    return Fraction(*to_rational(x[0])), Fraction(*to_rational(x[1]))


def _divide(a: list[int], b: list[int], q: int = 0) -> list[int] | None:
    """
    The quotient of the polynomial a by b, coefficients lowest first:
    exactly over Z, or None when b does not divide a there; or, given a
    prime q, mod q, for a b that is monic mod q and divides a mod q.
    """
    a, b = a[::-1], b[::-1]
    n = len(a) - len(b) + 1
    out: list[int] = []  # highest first, a[i] = sum_j b[j] out[i - j]
    for i, x in enumerate(a[:n] if q else a):
        lo = max(0, i - n)  # the terms j > lo have out[i - j] known
        x -= sum(map(mul, b[lo + 1:i + 1],
                     reversed(out[max(0, i - len(b) + 1):i - lo])))
        if q:
            out.append(x % q)
        elif i >= n:  # a coefficient of the remainder
            if x:
                return None
        elif x % b[0]:
            return None
        else:
            out.append(x // b[0])
    return out[::-1]


def _fold(coeffs: tuple[int, ...]) -> list[int]:
    """
    The coefficients, lowest first, of F with Delta = t^e F(t + 1/t) times
    t - 1 when Delta is anti-palindromic, times t + 1 when its degree is
    then odd, for the nonzero Delta with these coefficients; ArithmeticError
    when Delta is not palindromic up to sign.
    """
    c = list(coeffs)
    if c != c[::-1]:
        if c != [-x for x in reversed(c)]:
            raise ArithmeticError(
                f"internal error: {coeffs} is not palindromic up to sign")
        c = _divide(c, [-1, 1])
    if len(c) % 2 == 0:
        c = _divide(c, [1, 1])
    e = len(c) // 2
    # c = t^e (c_e + sum_j c_{e+j} s_j) with s_j = t^j + t^-j, where s_0 =
    # 2, s_1 = x and s_{j+1} = x s_j - s_{j-1} are polynomials in x
    f, prev, s = [c[e]] + [0] * e, [2], [0, 1]
    for j in range(1, e + 1):
        for k, y in enumerate(s):
            f[k] += c[e + j] * y
        s, prev = [y - z for y, z in zip([0] + s, prev + [0, 0])], s
    return f


def _monic_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """
    The monic gcd mod the prime q of the polynomials a and b, coefficients
    lowest first, whose leading coefficients q does not divide, by Euclid's
    algorithm.
    """
    a, b = [x % q for x in reversed(a)], [x % q for x in reversed(b)]
    while b:
        minus = q - pow(b[0], -1, q)
        while len(a) >= len(b):  # a -= (a[0]/b[0]) t^k b, then strip
            c = a[0] * minus % q
            a = [(x + c * y) % q for x, y in zip(a[1:len(b)], b[1:])] \
                + a[len(b):]
            a = a[next((i for i, x in enumerate(a) if x), len(a)):]
        a, b = b, a
    inverse = pow(a[0], -1, q)
    return [x * inverse % q for x in reversed(a)]


@functools.cache
def _prime(i: int) -> int:
    """
    The i-th prime below 2^30, largest first: 1073741789, 1073741783, ...
    Miller-Rabin to the bases 2, 3, 5 and 7 decides primality below
    3215031751.
    """
    n = _prime(i - 1) if i else 1 << 30
    while True:
        n -= 1
        d, s = n - 1, 0
        while not d & 1:
            d, s = d >> 1, s + 1
        for a in (2, 3, 5, 7):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                break  # a witnesses that n is composite
        else:
            return n


def _square_free(f: list[int]) -> list[int]:
    """
    The square-free part F / gcd(F, F') of the polynomial F with these
    coefficients, lowest first, made primitive with F's leading sign: F's
    roots, each once. Zero and linear F come back primitive. The modular
    certificate is in the module docstring.
    """
    if not any(f):
        return f
    f = [c // gcd(*f) for c in f]
    d = len(f) - 1
    if d < 2:
        return f
    df = [k * c for k, c in enumerate(f)][1:]
    least, image, mod = d, [], 1
    for q in map(_prime, count()):
        if f[-1] * d % q == 0:  # F and F' must keep their degrees mod q
            continue
        g = _monic_gcd(f, df, q)
        k = len(g) - 1
        if not k:
            return f
        if k > least:  # an unlucky prime: F_sf has a repeated root mod q
            continue
        # lc(F) gcd(F, F') / lc(gcd) or, when that has the higher degree,
        # lc(gcd) F / gcd, mod q: the one of degree at most d/2, whose
        # coefficients are the shorter
        part = ([c * f[-1] % q for c in g] if 2 * k <= d
                else _divide([c % q for c in f], g, q))
        if k < least:  # start again from the images at the lower degree
            least, image, mod = k, [0] * len(part), 1
        before = [c - mod if 2 * c > mod else c for c in image]
        step = pow(mod, -1, q)
        image = [c + mod * ((x - c) * step % q) for c, x in zip(image, part)]
        mod *= q
        guess = [c - mod if 2 * c > mod else c for c in image]
        # try the candidate once a prime left it unchanged, or at once when
        # its coefficients are so short that the next prime most likely will
        if guess != before and max(map(abs, guess)) ** 2 >= mod:
            continue
        # guess has F's leading sign: divide out its content, and the sign
        # too from a gcd, so that rest = F / common keeps F's sign
        unit = -gcd(*guess) if 2 * k <= d and f[-1] < 0 else gcd(*guess)
        guess = [c // unit for c in guess]
        # common has degree k, so dividing F and F' makes it their gcd
        common = guess if 2 * k <= d else _divide(f, guess)
        rest = _divide(f, common) if common is not None else None
        if rest is not None and _divide(df, common) is not None:
            return rest


def _scaled(f: list[int], a: int, b: int) -> list[int]:
    """The coefficients of b^d f(a*x/b), lowest first, d = deg f."""
    return [c * a ** k * b ** (len(f) - 1 - k) for k, c in enumerate(f)]


def _shift(f: list[int], a: int) -> list[int]:
    """f(x + a), coefficients lowest first, by Horner's rule in place."""
    for i in range(len(f) - 1):
        f[i:] = list(accumulate(reversed(f[i:]),
                                lambda acc, c: c + a * acc))[::-1]
    return f


def _sign_at(f: list[int], x: Fraction) -> int:
    """The sign of F(x), by Horner's rule on q^d F(p/q) for x = p/q."""
    p, q = x.numerator, x.denominator
    acc, qk = 0, 1
    for c in reversed(f):
        acc = acc * p + c * qk
        qk *= q
    return (acc > 0) - (acc < 0)


def _root_free(f: list[int], lo: Fraction, hi: Fraction) -> bool:
    """
    True only when the polynomial F with these coefficients, lowest first,
    has no root on [lo, hi], lo < hi: F is nonzero and of one sign at both
    ends, which Horner's rule checks in O(d) products, and (1 + y)^d F((lo
    + hi*y)/(1 + y)) has no sign variation (Descartes' rule; see the module
    docstring). The first Taylor shift is by the end x0 of the smaller
    denominator e, on e^d F(X/e), whose coefficients are short.
    """
    sign = _sign_at(f, lo)
    if not sign or _sign_at(f, hi) != sign:
        return False
    x0, x1 = (hi, lo) if hi.denominator <= lo.denominator else (lo, hi)
    e, step = x0.denominator, x0.denominator * (x1 - x0)
    # g(X) = e^d F(x0 + X/e), then h(z) = Q^d g((P/Q)z) for step = P/Q, so
    # that h(0) and h(1) are positive multiples of F(x0) and F(x1)
    g = _shift(_scaled(f, 1, e), x0.numerator)
    h = _scaled(g, step.numerator, step.denominator)
    positive = sign > 0
    # the Taylor shift of the reversal of h by 1, (1 + y)^d h(1/(1 + y)),
    # which fixes coefficient i in pass i and stops at a sign variation
    h.reverse()
    for i in range(len(h) - 1):
        h[i:] = list(accumulate(reversed(h[i:]), add))[::-1]
        if h[i] and (h[i] > 0) != positive:
            return False
    return True


def _two_cos(v: Fraction) -> Fraction:
    """2cos(2*pi*theta) for v = cot(pi*theta)."""
    return 2 * (v * v - 1) / (v * v + 1)


def _enclosure(theta: Fraction, r: Fraction, prec: int
               ) -> tuple[Fraction, Fraction, int]:
    """
    (vlo, vhi, bits): an interval enclosure [vlo, vhi] of cot(pi*theta), 0 <
    theta < 1/2, narrower than r, from mpmath's interval functions at the
    first of prec, 2*prec, 4*prec, ... bits that gives one.
    """
    a, b = from_int(theta.numerator), from_int(theta.denominator)
    while True:
        # intervals at prec bits: pi*theta, then its cosine and sine
        half = mpi_div(mpi_mul(mpi_pi(prec), (a, a), prec), (b, b), prec)
        c, s = mpi_cos_sin(half, prec)
        if _ends(s)[0] > 0:
            vlo, vhi = _ends(mpi_div(c, s, prec))
            if vhi - vlo < r:
                return vlo, vhi, prec
        prec *= 2


def _gallop(holds) -> tuple[int, int]:
    """
    (t, n), 0 <= t < n, with holds(t) true, or t = 0, taken as true and not
    asked, and holds(n) false: holds(1), holds(2), holds(4), ... up to the
    first false n, then bisection between n and the last true t while n - t
    > 1 + t/8: below 8 the edge is found exactly, past it within an eighth.
    """
    t, n = 0, 1
    while holds(n):
        t, n = n, 2 * n
    while n - t > 1 + t // 8:
        mid = (t + n) // 2
        if holds(mid):
            t = mid
        else:
            n = mid
    return t, n


def _arc(f: list[int], theta: Fraction) -> tuple[Fraction, Fraction]:
    """
    A closed interval [lo, hi], 0 <= lo < hi, that holds cot(pi*theta), 0 <
    theta < 1/2, and on whose image [x(lo), x(hi)] _root_free proves F free
    of roots, for F = _fold(Delta), or its square-free part, with Delta(w)
    != 0: the bracket of an enclosure at the radius 16^-j for the j that
    _gallop finds, each side then widened to the radius 16^-j * 2^m for the
    m that _gallop finds (see the module docstring).
    """
    vlo, vhi, prec = _enclosure(theta, Fraction(1), 64)

    @functools.cache
    def bracket(j):
        nonlocal vlo, vhi, prec
        r = Fraction(1, 16 ** j)
        if vhi - vlo >= r:
            vlo, vhi, prec = _enclosure(theta, r, 2 * prec)
        lo = max(Fraction(0), _simplest_in(vlo - r, vlo))
        hi = _simplest_in(vhi, vhi + r)
        return _root_free(f, _two_cos(lo), _two_cos(hi)) and (lo, hi, r)

    # the bracket passes from some j on, since F is nonzero at the point
    lo, hi, r = bracket(0) or bracket(_gallop(lambda j: not bracket(j))[1])

    @functools.cache
    def free(a, b):
        return (a, b) == (lo, hi) or _root_free(f, _two_cos(a), _two_cos(b))

    def left(m):
        return max(Fraction(0), _simplest_in(vlo - r * 2 ** m, vlo))

    def right(m):
        return _simplest_in(vhi, vhi + r * 2 ** m)

    # past these m the window reaches 0, or holds an integer, and gives
    # the end of the last one again
    reach = int(vlo / r).bit_length()
    m = _gallop(lambda m: m <= reach and free(left(m), hi))[0]
    lo = left(m) if m else lo
    reach = int(1 / r).bit_length()
    m = _gallop(lambda m: m <= reach and free(lo, right(m)))[0]
    hi = right(m) if m else hi
    return lo, hi


class _Arcs:
    """
    The jump-free arcs certified so far for F, the square-free fold of one
    block: kept is a sorted tuple of disjoint closed intervals (lo, hi, v)
    of v = cot(pi*theta) on which _root_free proved F free of roots in x,
    each with v the simplest fraction inside. It starts as the one arc (0,
    infinity), with v = 1, when F is root-free on all of [-2, 2], and empty
    otherwise. Readers take kept as it is; a writer replaces it whole, under
    lock, so no reader sees a half-merged tuple.
    """

    __slots__ = ("f", "kept", "lock")

    def __init__(self, f: list[int]):
        self.f = f
        self.lock = threading.Lock()
        whole = _root_free(f, Fraction(-2), Fraction(2))
        self.kept = ((Fraction(0), math.inf, Fraction(1)),) if whole else ()

    def keep(self, lo: Fraction, hi: Fraction) -> Fraction:
        """
        The point of [lo, hi] once merged into kept: with each kept interval
        it meets, then with the nearest one on either side when F is
        root-free on the gap between them. The merged tuple is kept while it
        has at most deg F + 1 intervals.
        """
        with self.lock:
            kept = self.kept
            i = bisect.bisect_left(kept, lo, key=itemgetter(1))
            j = bisect.bisect_right(kept, hi, key=itemgetter(0))
            if i < j:
                lo, hi = min(lo, kept[i][0]), max(hi, kept[j - 1][1])
            if i and _root_free(self.f, _two_cos(kept[i - 1][1]),
                                _two_cos(lo)):
                i -= 1
                lo = kept[i][0]
            if j < len(kept) and _root_free(self.f, _two_cos(hi),
                                            _two_cos(kept[j][0])):
                hi = kept[j][1]
                j += 1
            v = _simplest_in(lo, hi)
            merged = kept[:i] + ((lo, hi, v),) + kept[j:]
            if len(merged) <= len(self.f):
                self.kept = merged
        return v


def _arc_point(arcs: _Arcs, theta: Fraction) -> tuple[int, int]:
    """
    (p, q), p > 0 and q >= 0, with v = q/p on the arc of cot(pi*theta), 0 <
    theta <= 1/2, that arcs.f proves free of jumps, for Delta(w) != 0: v = 0
    at theta = 1/2, else the point of the kept interval that holds an
    enclosure of cot(pi*theta) at 64 + 2b bits, for a denominator of b bits,
    or on a miss of the one that the new arc of _arc is merged into.
    """
    if theta == Fraction(1, 2):
        return 1, 0
    kept = arcs.kept
    if kept and kept[0][1] == math.inf:
        v = kept[0][2]
    else:
        bits = 64 + 2 * theta.denominator.bit_length()
        vlo, vhi, _ = _enclosure(theta, Fraction(1), bits)
        i = bisect.bisect_right(kept, vlo, key=itemgetter(0))
        if i and vhi <= kept[i - 1][1]:
            v = kept[i - 1][2]
        else:
            v = arcs.keep(*_arc(arcs.f, theta))
    return v.denominator, v.numerator


# the block records kept: the last _RECORDS used, each of a block of at most
# _RECORD_LETTERS letters (module docstring)
_RECORDS = 64
_RECORD_LETTERS = 256


@dataclasses.dataclass(frozen=True)
class _Block:
    """
    What a Seifert block's evaluations share at every theta: its Seifert
    matrix V, the coefficients of its Alexander polynomial, the square-free
    part f of its fold that both root-test walks run on, its sigma6 point u
    and the jump-free arcs of signature_at, each made on first use.
    """

    V: SeifertMatrix
    delta: tuple[int, ...]

    @functools.cached_property
    def f(self) -> list[int]:
        return _square_free(_fold(self.delta))

    @functools.cached_property
    def u(self) -> Fraction:
        return _sixth_point(self.f)

    @functools.cached_property
    def arcs(self) -> _Arcs:
        return _Arcs(self.f)


def _new_record(block: BraidWord) -> _Block:
    return _Block(seifert_matrix(block), alexander(block).coefficients)


_kept_record = functools.lru_cache(maxsize=_RECORDS)(_new_record)


def _block_record(block: BraidWord) -> _Block:
    """The kept record of block, or a new one past _RECORD_LETTERS letters."""
    if len(block) > _RECORD_LETTERS:
        return _new_record(block)
    return _kept_record(block)


def signature_at(w: BraidWord, theta: Fraction) -> SignatureProfile:
    """
    Signature and nullity of the closure of w at omega = e^{2*pi*i*theta},
    0 < theta < 1. Each distinct Seifert block is evaluated once, from its V
    and Delta in the block records, and counted with its multiplicity. A
    block whose Alexander polynomial does not vanish at omega is counted
    exactly (precision_bits 0 in the profile), at the point of the kept
    jump-free arc that holds theta, or of a new one; a block where it vanishes
    goes to the mpmath LDL^T, whose counts must reproduce identically when
    the working precision is doubled; otherwise the precision escalates up
    to a cap.
    """
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    total = zeros = used = 0
    for block, copies in collections.Counter(seifert_blocks(w)).items():
        rec = _block_record(block)
        if _vanishes_at(rec.delta, theta.denominator):
            sig, zero, bits = _ldl_signature(rec.V, theta)
            zeros += copies * zero
            used = max(used, bits)
        else:
            point = _arc_point(rec.arcs, min(theta, 1 - theta))
            sig = _pencil_signature(rec.V, *point)[0]
        total += copies * sig
    return SignatureProfile(theta, total, zeros + _surface_pieces(w) - 1, used)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """
    sum_{k=0}^{n-1} floor((a*k + b)/m) for n, a, b >= 0 and m >= 1, by the
    Euclid-like reduction (Concrete Mathematics 3.5): take the whole parts
    of a/m and b/m out, then count the same lattice points by columns, which
    swaps the roles of a and m. O(log m) steps.
    """
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _clamped_sum(c: int, k: int, cap: int, slope: int, step: int) -> int:
    """
    sum_{i=1}^{k} min(cap, max(0, floor((c - i*slope)/step))) for
    cap >= 0 and slope, step >= 1. The floor falls as i grows, so the terms
    are a run of cap (i <= top), then plain floors (top < i <= last), then
    a run of 0; the plain floors, read from i = last down, are a floor sum
    with nonnegative slope and intercept.
    """
    top = min(k, max(0, (c - cap * step) // slope))
    last = min(k, max(0, (c - step) // slope))
    n = max(0, last - top)
    return top * cap + _floor_sum(n, step, slope, c - last * slope)


def torus_signature_oracle(p: int, q: int, theta: Fraction) -> int:
    """
    Standard-convention signature of the torus link T(p,q) at
    e^{2*pi*i*theta}, away from its jumps, by lattice counting: each pair
    (i,j) in [1,p-1]x[1,q-1] contributes -1 when (i/p + j/q - theta) mod 2
    lies in (0,1) and +1 when it lies in (1,2). Fully independent of Seifert
    matrices.

    With theta = a/b, step = p*b, lo_i = a*p*q - i*q*b and hi_i = lo_i +
    q*step, (i,j) gives +1 exactly when j*step < lo_i or j*step > hi_i, and
    a jump when it equals either end. Let f(x) = min(q-1, max(0,
    floor(x/step))), the number of j in [1, q-1] with j*step <= x. Row i
    gives q - 1 + 2*(f(lo_i - 1) - f(hi_i)), and holds a jump exactly when
    f(lo_i - 1) != f(lo_i) or f(hi_i - 1) != f(hi_i). Over i = 1..p-1 the
    count is (p-1)(q-1) + 2*(S(-1) - S(q*step)), where S(d) = sum_i
    f(a*p*q + d - i*q*b) is a clamped floor sum of a linear function of i,
    O(log(p*q*b)) integer steps (_clamped_sum). As f(x) - f(x-1) is 0 or 1,
    rows 1..k hold a jump exactly when S(0) - S(-1) + S(q*step) -
    S(q*step - 1) > 0 over them, so bisection on k finds the first such
    row, and the error names the (i, j) a row-by-row scan would meet first.
    """
    if p < 1 or q < 1:
        raise ValueError(f"T(p,q) needs p, q >= 1, got {p},{q}")
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    a, b = theta.numerator, theta.denominator
    step = p * b
    c, span = a * p * q, q * step

    def count(x):  # f(x) above
        return min(q - 1, max(0, x // step))

    def sums(k):
        return [_clamped_sum(c + d, k, q - 1, q * b, step)
                for d in (-1, 0, span - 1, span)]

    def jumps(k):  # whether rows 1..k hold a jump
        s = sums(k)
        return s[0] != s[1] or s[2] != s[3]

    below, upto_lo, below_hi, upto_hi = sums(p - 1)
    if below != upto_lo or below_hi != upto_hi:
        first = 1 + bisect.bisect_left(range(1, p - 1), True, key=jumps)
        x = c - first * q * b
        j = count(x) if count(x - 1) != count(x) else count(x + span)
        raise ValueError(
            f"evaluation at jump: theta={theta} hits i/p+j/q for "
            f"(i,j)=({first},{j})"
        )
    return (p - 1) * (q - 1) + 2 * (below - upto_hi)


def _simplest_in(lo: Fraction, hi: Fraction) -> Fraction:
    """
    The fraction of least denominator in the open interval (lo, hi), by
    continued fractions: while no integer lies strictly inside, take off the
    integer part n that both ends share and invert what is left, (lo, hi) ->
    (1/(hi - n), 1/(lo - n)), an end 1/0 standing for infinity; the
    smallest integer inside ends the expansion.
    """
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -_simplest_in(-hi, -lo)
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    p0, q0, p1, q1 = 0, 1, 1, 0  # the last two convergents
    while True:
        n = a // b
        if (n + 1) * d < c:
            n += 1
            return Fraction(n * p1 + p0, n * q1 + q0)
        p0, q0, p1, q1 = p1, q1, n * p1 + p0, n * q1 + q0
        a, b, c, d = d, c - n * d, b, a - n * b


def _sixth_point(f: list[int]) -> Fraction:
    """
    The first u, the fraction of least denominator in (a, a + 4*delta) for
    delta = 1/2, 1/32, ... and a rational a just above 1/sqrt3, for which F,
    with these coefficients, proves Delta free of roots on the arc (1/6,
    theta*], u = tan(pi*theta*), Phi6 aside (see the module docstring); F is
    the fold _fold(Delta) of the nonzero Delta or its square-free part.
    ValueError when Delta = 0, which has no such arc.
    """
    if not any(f):
        raise ValueError("Alexander polynomial 0 vanishes on every arc")
    while not sum(f):  # x - 1, that is Phi6, divides F: once if square-free
        f = _divide(f, [-1, 1])
    for j in count():  # delta = 1/(2*16^j), a = 1/sqrt3 + O(2^-k)
        k = 16 * j + 40
        a = Fraction(isqrt(4 ** k // 3) + 1, 1 << k)
        u = _simplest_in(a, a + Fraction(2, 16 ** j))
        if _root_free(f, _two_cos(1 / u), Fraction(1)):
            return u


def _sigma6_of_word(w: BraidWord) -> int:
    """
    Paper-convention sigma_6 of one closure: minus the sum over its Seifert
    blocks of the standard signature just past theta = 1/6, each taken
    exactly at one rational point of an arc certified free of jumps, the
    point u of the block's record. Equal blocks, such as the summands of a
    connected sum of trefoils, are evaluated once and counted with their
    multiplicity.
    """
    total = 0
    for block, copies in collections.Counter(seifert_blocks(w)).items():
        rec = _block_record(block)
        if rec.delta == (0,):
            raise Sigma6Error(
                f"sigma6 is undefined for {w}: block {block} has Alexander "
                f"polynomial 0, so its form is singular at every theta"
            )
        u = rec.u
        try:
            total -= copies * _pencil_signature(
                rec.V, u.numerator, u.denominator)[0]
        except ArithmeticError as exc:
            raise Sigma6Error(str(exc)) from exc
    return total


def sigma6(link: FormalLink | BraidWord) -> int:
    """
    The limit invariant at the sixth root of unity, paper convention:
    sigma6(positive trefoil) = +2, additive over summands, +2 per positive
    trefoil counter and -2 per negative one. Asserted summands must declare
    their value. Each Seifert block of a closure is evaluated once and
    exactly, at a rational point past 1/6 that its Alexander polynomial
    proves free of signature jumps up to 1/6. Raises Sigma6Error when a
    block's Alexander polynomial is 0.
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
