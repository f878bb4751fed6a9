"""
Levine-Tristram signatures of braid closures and the limit invariant at the
sixth root of unity.

signature_at works in the standard convention: the positive trefoil has
signature -2 on (1/6, 5/6). The public sigma6 flips the sign so that
sigma6(positive trefoil) = +2, is additive over summands, and counts each
positive trefoil summand as +2 and each negative one as -2.

Both kernels read the nonzero entries of the Seifert matrix V straight
into sparse rows, in the time order of its basis, in which the form of a
torus word is banded and the fill of the elimination stays inside the band.

Numerical policy: signature_at, at any rational theta, builds the Hermitian
form (1-w)V + (1-conj(w))V^T at a working precision of prec bits and reads
the inertia off the pivots of one sparse LDL^T.
A number is taken for zero when it is at most eps = 2^(-prec/2) times the
largest row sum; a small pivot is replaced by a symmetric swap or a shear,
and zeros are counted only when the whole remaining block is at most eps.
The whole computation is repeated at doubled precision, and only a
reproduced count is returned; past PRECISION_CAP_BITS it raises
PrecisionError. The starting precision must lie in [64, PRECISION_CAP_BITS
// 2], so that it is both meaningful and checked at least once. sigma6 uses
no floating point at all.

The limit at theta = 1/6 is certified, not searched for. The Seifert matrix
is block-diagonal over the blocks of seifert_blocks, each with a connected
surface, so the form at w = e^{2 pi i theta} is singular exactly at the roots
of the block's Alexander polynomial Delta. With Phi6 = t^2 - t + 1 divided
out, the quotient Q has Q(zeta6) = x + y*zeta6 for integers x, y, not both
zero, so |Q(zeta6)|^2 = x^2 + xy + y^2 >= 1; and S = sum k|q_k| bounds |Q'|
on the unit circle. Whenever 2*pi*delta*S < |Q(zeta6)|, Q has no root on the
arc (1/6, 1/6 + delta], and neither has Phi6, so the block's signature is
constant there: its value at any one point of the arc is the one-sided
limit.

That point is rational in the right coordinate. With w = (1+iu)/(1-iu), that
is u = tan(pi*theta), the form is 2u/(1+u^2) times u(V + V^T) - i(V - V^T).
theta = 1/6 is u = 1/sqrt3, and tan(pi*theta) climbs with slope at least
4*pi/3 > 4 on [1/6, 1/2), so the fraction u* = p/q of least denominator in
(1/sqrt3, 1/sqrt3 + 4*delta) lies on the arc, and the block's signature
there is that of the Gaussian-integer Hermitian matrix H = p(V + V^T) -
iq(V - V^T). Its leading minors p_k are real; they come from fraction-free
(Bareiss) elimination over Z[i] on the sparse rows, in which
each division by the previous minor is exact and, as in alexander, a row
with a zero in the pivot column waits and is rescaled once when next used.
By Jacobi's rule the signature is h minus twice the number of sign changes
in 1, p_1, ..., p_h. A zero pivot is removed by a congruence, which keeps
the inertia: a symmetric swap with the nearest later row whose diagonal is
nonzero or, when every later diagonal is zero, row/col k += c * row/col m
with c in {1, i} and H[m][k] != 0, which makes the diagonal
2*Re(c*H[m][k]) != 0. A zero row means H is singular, which the certified
arc rules out, so it is reported as an internal error.
"""

from __future__ import annotations

import dataclasses
import os
from fractions import Fraction

from mpmath import mp, mpc, mpf, workprec

from .alexander import alexander
from .links import FormalLink
from .seifert import SeifertMatrix, seifert_blocks, seifert_matrix
from .words import BraidWord

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 64
PRECISION_CAP_BITS = 4096
SIGMA6_DELTA_START = Fraction(1, 1024)
# zeta6^k = a + b*zeta6 for k mod 6, from zeta6^2 = zeta6 - 1
_ZETA6_POWERS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


class PrecisionError(RuntimeError):
    """An inertia count could not be separated from zero at any precision."""


class Sigma6Error(RuntimeError):
    """The one-sided limit is undefined, or a summand is opaque."""


def precision_default() -> int:
    env = os.environ.get("BRAIDCOB_PRECISION_BITS")
    return int(env) if env else DEFAULT_PRECISION_BITS


@dataclasses.dataclass(frozen=True)
class SignatureProfile:
    """Signature and nullity at omega = exp(2*pi*i*theta)."""

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
                c = mp.conj(top[m]) / abs(top[m])
                for r in list(rows[m]):
                    rows[r][k] = rows[r].get(k, 0) + c * rows[r][m]
                for j, x in rows[m].items():
                    top[j] = top.get(j, 0) + mp.conj(c) * x
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
            f = mp.conj(top[i]) / d  # H[i][k] / d
            for j in cols[n:]:
                row[j] = row.get(j, 0) - f * top[j]
            for j in cols[n + 1:]:  # the updated form is Hermitian too
                rows[j][i] = mp.conj(row[j])
        k += 1
    return pos, neg, h - k, swaps, shears


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


def signature_at(
    w: BraidWord | SeifertMatrix,
    theta: Fraction,
    precision_bits: int | None = None,
) -> SignatureProfile:
    """
    Signature and nullity of the closure of w at omega = e^{2*pi*i*theta},
    0 < theta < 1. The counts must reproduce identically when the working
    precision is doubled; otherwise the precision escalates up to a cap.
    precision_bits is the starting precision, BRAIDCOB_PRECISION_BITS or
    DEFAULT_PRECISION_BITS when None; ValueError when it lies outside
    [MIN_PRECISION_BITS, PRECISION_CAP_BITS // 2].
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
    V = w if isinstance(w, SeifertMatrix) else seifert_matrix(w)
    last = _inertia_at(V, theta, prec)[:3]
    while prec * 2 <= PRECISION_CAP_BITS:
        check = _inertia_at(V, theta, prec * 2)[:3]
        if check == last:
            pos, neg, zero = check
            return SignatureProfile(
                theta=theta,
                signature=pos - neg,
                nullity=zero + (V.pieces - 1),
                precision_bits=prec,
            )
        last = check
        prec *= 2
    raise PrecisionError(
        f"precision unresolved at theta={theta} after escalating to "
        f"{PRECISION_CAP_BITS} bits"
    )


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


def _at_zeta6(coeffs: list[int]) -> tuple[int, int]:
    """(x, y) with sum c_k zeta6^k = x + y*zeta6."""
    x = y = 0
    for k, c in enumerate(coeffs):
        a, b = _ZETA6_POWERS[k % 6]
        x += a * c
        y += b * c
    return x, y


def _certified_offset(coeffs: tuple[int, ...], delta_start: Fraction
                      ) -> Fraction:
    """
    The largest power of two delta <= delta_start for which the nonzero
    polynomial with these coefficients has no root on the arc
    (1/6, 1/6 + delta] of the unit circle (see the module docstring).
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
    norm = x * x + x * y + y * y  # |Q(zeta6)|^2, a positive integer
    slope = sum(k * abs(c) for k, c in enumerate(q))
    delta = Fraction(1)
    while delta > delta_start:
        delta /= 2
    # 22/7 > pi, so this guarantees 2*pi*delta*slope < |Q(zeta6)|
    while (2 * Fraction(22, 7) * delta * slope) ** 2 >= norm:
        delta /= 2
    return delta


def _point_past_sixth(delta: Fraction) -> Fraction:
    """
    The fraction u* of least denominator in (1/sqrt3, 1/sqrt3 + 4*delta),
    found by walking the Stern-Brocot tree. Since tan(pi*theta) has slope
    more than 4 on [1/6, 1/2), u* = tan(pi*theta*) for some theta* in
    (1/6, 1/6 + delta).
    """
    a, b, c, d = 0, 1, 1, 0  # the walk stays strictly between a/b and c/d
    while True:
        x, y = a + c, b + d
        if 3 * x * x < y * y:  # x/y < 1/sqrt3
            a, b = x, y
        elif (z := Fraction(x, y) - 4 * delta) > 0 and 3 * z * z > 1:
            c, d = x, y  # x/y > 1/sqrt3 + 4*delta
        else:
            return Fraction(x, y)


def _pencil_signature(V: SeifertMatrix, u: Fraction) -> tuple[int, int, int]:
    """
    Signature of the Gaussian-integer Hermitian matrix
    H = p(V + V^T) - iq(V - V^T), u = p/q > 0, with the numbers of zero
    pivots fixed by a swap and by a shear (row/col k += c * row/col m).
    Raises Sigma6Error when H is singular (see the module docstring).
    """
    p, q = u.numerator, u.denominator
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
                _swap(rows, k, m)
                level[k], level[m] = level[m], level[k]
                swaps += 1
            else:
                if not rows[k]:
                    raise Sigma6Error(
                        f"internal error: the form at u={u} is singular "
                        f"(zero row at pivot {k} of {h})"
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


def _sigma6_of_word(
    w: BraidWord,
    delta_start: Fraction = SIGMA6_DELTA_START,
) -> int:
    """
    Paper-convention sigma_6 of one closure: minus the sum over its Seifert
    blocks of the standard signature just past theta = 1/6, each taken
    exactly at one rational point of the arc certified free of jumps.
    """
    total = 0
    for block in seifert_blocks(w):
        poly = alexander(block)
        if poly.is_zero():
            raise Sigma6Error(
                f"sigma6 is undefined for {w}: block {block} has Alexander "
                f"polynomial 0, so its form is singular at every theta"
            )
        delta = _certified_offset(poly.coefficients, delta_start)
        u = _point_past_sixth(delta)
        total -= _pencil_signature(seifert_matrix(block), u)[0]
    return total


def sigma6(
    link: FormalLink | BraidWord,
    delta_start: Fraction = SIGMA6_DELTA_START,
) -> int:
    """
    The limit invariant at the sixth root of unity, paper convention:
    sigma6(positive trefoil) = +2, additive over summands, +2 per positive
    trefoil counter and -2 per negative one. Asserted summands must declare
    their value. Each Seifert block of a closure is evaluated once and
    exactly, at a rational point of the arc (1/6, 1/6 + delta] with delta
    the largest power of two that is at most delta_start and certified free
    of signature jumps; the result does not depend on delta_start, which
    must lie in (0, 1/2]. Raises Sigma6Error when a block's Alexander
    polynomial is 0.
    """
    delta_start = Fraction(delta_start)
    if not 0 < delta_start <= Fraction(1, 2):
        raise ValueError(
            f"delta_start must lie in (0, 1/2], got {delta_start}")
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
        total += _sigma6_of_word(w, delta_start)
    return total
