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

signature_at takes theta to min(theta, 1 - theta), since the form at
conj(w) is the conjugate of the form at w. With theta = a/b, Delta(w) = 0
exactly when the cyclotomic polynomial Phi_b divides Delta; that needs
phi(b) <= deg Delta, so there is nothing to test when b > 2*deg^2, since
phi(b) >= sqrt(b/2). A block with Delta(w) != 0 is counted at v = 0 when
theta = 1/2, and at v = 1 when F is root-free on all of [-2, 2], the
bracket (0, infinity). Otherwise mpmath's interval arithmetic (the libmpi
functions under mpmath.iv, which round outwards) encloses cot(pi*theta) in
[vlo, vhi], and the simplest fractions lo in (vlo - r, vlo), taken as 0
when it is negative, and hi in (vhi, vhi + r) bracket it, for windows r =
1, 1/16, 1/256, ...; the interval precision doubles from 64 bits while the
enclosure is not narrower than r. The first bracket with F root-free on
[x(lo), x(hi)] gives v, the simplest fraction in (lo, hi). The walk ends
because Delta(w) != 0, so F(x) != 0 at the point asked for.

sigma6 takes the limit at theta = 1/6 block by block. Phi6 = t^2 - t + 1
is t(x - 1), so x - 1 is divided out of F as often as it divides it; then
F(1) != 0. The candidates are u = _point_past_sixth(delta) =
tan(pi*theta*), theta* in (1/6, 1/6 + delta), for delta = 1/2, 1/32, ...,
and the first u with F root-free on [x(u), 1] is the point: the block's
signature is constant on (1/6, theta*], as Phi6 has its other root at 5/6,
so its value there, that of H at v = 1/u, is the one-sided limit. The walk
ends because F(1) != 0. sigma6 uses no floating point at all.

Both walks pick their fractions by one walk down the Stern-Brocot tree,
which takes each run of turns the same way in one binary search.

Block records. What does not depend on theta is kept per distinct block:
a _Block holds V = seifert_matrix(block), the coefficients of Delta =
alexander(block) and, once first asked for, the fold F = _fold(Delta) that
signature_at's arc walk tests and the point u = _sixth_point(Delta) of
sigma6. The last _RECORDS = 64 records used are kept, keyed by the
block's BraidWord; a block of more than _RECORD_LETTERS = 256 letters is
evaluated but not kept. A block has fewer Seifert rows than letters, and a
record, key included, takes at most about 280 bytes a row, F at most about
22 more (measured on torus, two-strand and random mixed-sign blocks of 256
letters), so the kept records take at most about 5 MB. The records pay
off when one process evaluates the same block again: sigma6 and
signature_at of one word, signature_at at several theta, the start, end
and assertions of certificates that share words, or summands repeated
across words. Everything that depends on theta (the cyclotomic test, the
arc point, the pencil and the LDL^T) runs on every call: the records hold
no signature values, since keeping one per arc or per block grew the
resident set of a benchmark run past its bound.

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

import collections
import dataclasses
import functools
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import add

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


def _deflate(coeffs: list[int], r: int) -> list[int]:
    """
    The quotient of the polynomial with these coefficients, lowest first,
    by t - r, for a root r.
    """
    return list(accumulate(coeffs[:0:-1], lambda acc, c: c + r * acc))[::-1]


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
        c = _deflate(c, 1)
    if len(c) % 2 == 0:
        c = _deflate(c, -1)
    e = len(c) // 2
    # c = t^e (c_e + sum_j c_{e+j} s_j) with s_j = t^j + t^-j, where s_0 =
    # 2, s_1 = x and s_{j+1} = x s_j - s_{j-1} are polynomials in x
    f, prev, s = [c[e]] + [0] * e, [2], [0, 1]
    for j in range(1, e + 1):
        for k, y in enumerate(s):
            f[k] += c[e + j] * y
        s, prev = [y - z for y, z in zip([0] + s, prev + [0, 0])], s
    return f


def _scaled(f: list[int], a: int, b: int) -> list[int]:
    """The coefficients of b^d f(a*x/b), lowest first, d = deg f."""
    return [c * a ** k * b ** (len(f) - 1 - k) for k, c in enumerate(f)]


def _shift(f: list[int], a: int) -> list[int]:
    """f(x + a), coefficients lowest first, by Horner's rule in place."""
    for i in range(len(f) - 1):
        f[i:] = list(accumulate(reversed(f[i:]),
                                lambda acc, c: c + a * acc))[::-1]
    return f


def _root_free(f: list[int], lo: Fraction, hi: Fraction) -> bool:
    """
    True only when the polynomial F with these coefficients, lowest first,
    has no root on [lo, hi], lo < hi: F is nonzero at both ends and (1 +
    y)^d F((lo + hi*y)/(1 + y)) has no sign variation (Descartes' rule; see
    the module docstring). The first Taylor shift is by the end x0 of the
    smaller denominator e, on e^d F(X/e), whose coefficients are short.
    """
    x0, x1 = (hi, lo) if hi.denominator <= lo.denominator else (lo, hi)
    e, step = x0.denominator, x0.denominator * (x1 - x0)
    # g(X) = e^d F(x0 + X/e), then h(z) = Q^d g((P/Q)z) for step = P/Q, so
    # that h(0) and h(1) are positive multiples of F(x0) and F(x1)
    g = _shift(_scaled(f, 1, e), x0.numerator)
    h = _scaled(g, step.numerator, step.denominator)
    positive = h[0] > 0
    if not h[0] or not sum(h) or (sum(h) > 0) != positive:
        return False
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


def _arc_point(f: list[int], theta: Fraction) -> tuple[int, int]:
    """
    (p, q), p > 0 and q >= 0, with v = q/p on the arc of cot(pi*theta), 0 <
    theta <= 1/2, that F = _fold(Delta), for the nonzero Delta, proves free
    of jumps, for Delta(w) != 0: v = 0 at theta = 1/2, else the simplest
    fraction inside the first bracket of cot(pi*theta) that _root_free
    certifies (see the module docstring).
    """
    if theta == Fraction(1, 2):
        return 1, 0
    if _root_free(f, Fraction(-2), Fraction(2)):  # the bracket (0, infinity)
        return 1, 1
    a, b = from_int(theta.numerator), from_int(theta.denominator)
    prec, r = 64, Fraction(1)
    while True:
        # intervals at prec bits: pi*theta, then its cosine and sine
        half = mpi_div(mpi_mul(mpi_pi(prec), (a, a), prec), (b, b), prec)
        c, s = mpi_cos_sin(half, prec)
        if _ends(s)[0] > 0:
            vlo, vhi = _ends(mpi_div(c, s, prec))
            while vhi - vlo < r:
                lo = max(Fraction(0), _simplest_in(vlo - r, vlo))
                hi = _simplest_in(vhi, vhi + r)
                if _root_free(f, _two_cos(lo), _two_cos(hi)):
                    v = _simplest_in(lo, hi)
                    return v.denominator, v.numerator
                r /= 16
        prec *= 2


# the block records kept: the last _RECORDS used, each of a block of at most
# _RECORD_LETTERS letters (module docstring)
_RECORDS = 64
_RECORD_LETTERS = 256


@dataclasses.dataclass(frozen=True)
class _Block:
    """
    What a Seifert block's evaluations share at every theta: its Seifert
    matrix V, the coefficients of its Alexander polynomial, and its fold F
    and sigma6 point u, each computed on first use.
    """

    V: SeifertMatrix
    delta: tuple[int, ...]

    @functools.cached_property
    def f(self) -> list[int]:
        return _fold(self.delta)

    @functools.cached_property
    def u(self) -> Fraction:
        return _sixth_point(self.delta)


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
    exactly (precision_bits 0 in the profile); a block where it vanishes
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
            point = _arc_point(rec.f, min(theta, 1 - theta))
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

    below, upto_lo, below_hi, upto_hi = sums(p - 1)
    if below != upto_lo or below_hi != upto_hi:
        first, last = 1, p - 1  # the first jump row lies in [first, last]
        while first < last:
            mid = (first + last) // 2
            s = sums(mid)
            if s[0] != s[1] or s[2] != s[3]:
                last = mid
            else:
                first = mid + 1
        x = c - first * q * b
        j = count(x) if count(x - 1) != count(x) else count(x + span)
        raise ValueError(
            f"evaluation at jump: theta={theta} hits i/p+j/q for "
            f"(i,j)=({first},{j})"
        )
    return (p - 1) * (q - 1) + 2 * (below - upto_hi)


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


def _sixth_point(coeffs: tuple[int, ...]) -> Fraction:
    """
    The first u = _point_past_sixth(delta), delta = 1/2, 1/32, ..., with
    the nonzero Delta with these coefficients proved free of roots on the
    arc (1/6, theta*], u = tan(pi*theta*), Phi6 aside (see the module
    docstring). ValueError when Delta = 0, which has no such arc.
    """
    if not any(coeffs):
        raise ValueError("Alexander polynomial 0 vanishes on every arc")
    f = _fold(coeffs)
    while not sum(f):  # x - 1, that is Phi6, divides F
        f = _deflate(f, 1)
    delta = Fraction(1, 2)
    while True:
        u = _point_past_sixth(delta)
        if _root_free(f, _two_cos(1 / u), Fraction(1)):
            return u
        delta /= 16


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
