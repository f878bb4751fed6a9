"""
Levine-Tristram signatures of braid closures and the limit invariant at the
sixth root of unity.

signature_at works in the standard convention: the positive trefoil has
signature -2 on (1/6, 5/6). The public sigma6 flips the sign so that
sigma6(positive trefoil) = +2, is additive over summands, and counts each
positive trefoil summand as +2 and each negative one as -2.

Numerical policy: the Hermitian form (1-w)V + (1-conj(w))V^T is factored by
a pivoted LDL^T at a working precision in bits, the inertia read off the
pivots, and the whole computation repeated at doubled precision; only a
reproduced count is returned.

The limit at theta = 1/6 is certified, not searched for. The Seifert matrix
is block-diagonal over the blocks of seifert_blocks, each with a connected
surface, so the form at w = e^{2 pi i theta} is singular exactly at the roots
of the block's Alexander polynomial Delta. With Phi6 = t^2 - t + 1 divided
out, the quotient Q has Q(zeta6) = x + y*zeta6 for integers x, y, not both
zero, so |Q(zeta6)|^2 = x^2 + xy + y^2 >= 1; and S = sum k|q_k| bounds |Q'|
on the unit circle. Whenever 2*pi*delta*S < |Q(zeta6)|, Q has no root on the
arc (1/6, 1/6 + delta], and neither has Phi6, so the block's signature is
constant there: one evaluation at theta = 1/6 + delta gives its one-sided
limit.
"""

from __future__ import annotations

import dataclasses
import os
from fractions import Fraction
from math import gcd

from mpmath import mp, mpc, mpf, workprec

from .alexander import alexander
from .links import FormalLink
from .seifert import SeifertMatrix, seifert_blocks, seifert_matrix
from .words import BraidWord

DEFAULT_PRECISION_BITS = 128
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


def _hermitian_form(V: SeifertMatrix, theta: Fraction):
    """Rows of (1-w)V + (1-conj(w))V^T at the working precision."""
    h = V.size
    ang = 2 * mp.pi * mpf(theta.numerator) / theta.denominator
    w = mpc(mp.cos(ang), mp.sin(ang))
    c1 = 1 - w
    c2 = mp.conj(c1)
    rows = V.rows()
    M = [[c1 * rows[i][j] + c2 * rows[j][i] for j in range(h)]
         for i in range(h)]
    return M


def _band_inertia(M, order, eps):
    """
    Unpivoted LDL^T on the reordered lower triangle. Fill stays inside the
    band, so this is the fast path for the (banded) torus-word forms. Returns
    None when a pivot is too small to trust without pivoting, or when the
    band is too wide to be worth it.
    """
    h = len(order)
    A = [[M[order[i]][order[j]] for j in range(i + 1)] for i in range(h)]
    width = 0
    for i in range(h):
        for j in range(i):
            if A[i][j] != 0:
                width = max(width, i - j)
    if width * width * 3 >= h * h:
        return None
    pos = neg = 0
    for k in range(h):
        d = A[k][k].real
        if abs(d) <= eps:
            return None
        if d > 0:
            pos += 1
        else:
            neg += 1
        hi = min(h, k + width + 1)
        for i in range(k + 1, hi):
            f = A[i][k] / d
            if f == 0:
                continue
            row_i = A[i]
            for j in range(k + 1, i + 1):
                row_i[j] -= f * mp.conj(A[j][k])
    return pos, neg, 0


def _dense_inertia(M, eps):
    """Symmetrically pivoted LDL^T with 1x1 and 2x2 pivots; full storage."""
    h = len(M)
    A = [row[:] for row in M]
    alive = list(range(h))
    pos = neg = zero = 0
    while alive:
        # best 1x1 pivot
        bk = max(alive, key=lambda i: abs(A[i][i].real))
        dmax = abs(A[bk][bk].real)
        if dmax > eps:
            d = A[bk][bk].real
            if d > 0:
                pos += 1
            else:
                neg += 1
            alive.remove(bk)
            col = {i: A[i][bk] for i in alive}
            for i in alive:
                fi = col[i] / d
                if fi == 0:
                    continue
                for j in alive:
                    A[i][j] -= fi * mp.conj(col[j])
            continue
        # best off-diagonal
        bi = bj = None
        omax = mpf(0)
        for x in range(len(alive)):
            for y in range(x + 1, len(alive)):
                v = abs(A[alive[x]][alive[y]])
                if v > omax:
                    omax = v
                    bi, bj = alive[x], alive[y]
        if bi is None or omax <= eps:
            zero += len(alive)
            break
        # 2x2 pivot block [[a, b], [conj(b), c]] with tiny a, c: inertia (+1, -1)
        a = A[bi][bi].real
        c = A[bj][bj].real
        b = A[bi][bj]
        det = a * c - (b.real * b.real + b.imag * b.imag)
        pos += 1
        neg += 1
        alive.remove(bi)
        alive.remove(bj)
        coli = {i: A[i][bi] for i in alive}
        colj = {i: A[i][bj] for i in alive}
        for i in alive:
            vi, vj = coli[i], colj[i]
            # [xi, xj] = [vi, vj] * inv(block)
            xi = (vi * c - vj * mp.conj(b)) / det
            xj = (vj * a - vi * b) / det
            for j in alive:
                A[i][j] -= xi * mp.conj(coli[j]) + xj * mp.conj(colj[j])
    return pos, neg, zero


def _inertia_at(V: SeifertMatrix, theta: Fraction, prec: int):
    with workprec(prec):
        M = _hermitian_form(V, theta)
        h = V.size
        if h == 0:
            return 0, 0, 0
        scale = max(sum(abs(x) for x in row) for row in M)
        if scale == 0:
            return 0, 0, h
        # loops arrive column-major; time-major reordering narrows the band
        if len(V.loop_starts) == h:
            order = sorted(range(h), key=lambda i: V.loop_starts[i])
        else:
            order = list(range(h))
        band = _band_inertia(M, order, scale * mpf(2) ** (-(prec // 3)))
        if band is not None:
            return band
        return _dense_inertia(M, scale * mpf(2) ** (-(prec // 2)))


def signature_at(
    w: BraidWord | SeifertMatrix,
    theta: Fraction,
    precision_bits: int | None = None,
) -> SignatureProfile:
    """
    Signature and nullity of the closure of w at omega = e^{2*pi*i*theta},
    0 < theta < 1. The counts must reproduce identically when the working
    precision is doubled; otherwise the precision escalates up to a cap.
    """
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    V = w if isinstance(w, SeifertMatrix) else seifert_matrix(w)
    prec = precision_bits if precision_bits else precision_default()
    last = _inertia_at(V, theta, prec)
    while prec * 2 <= PRECISION_CAP_BITS:
        check = _inertia_at(V, theta, prec * 2)
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
    Standard-convention signature of the torus knot T(p,q) at e^{2*pi*i*theta}
    by lattice counting: each pair (i,j) in [1,p-1]x[1,q-1] contributes -1
    when (i/p + j/q - theta) mod 2 lies in (0,1) and +1 when it lies in
    (1,2). Fully independent of Seifert matrices.
    """
    if gcd(p, q) != 1:
        raise ValueError(f"T({p},{q}) is not a knot: gcd must be 1")
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            x = (Fraction(i, p) + Fraction(j, q) - theta) % 2
            if x == 0 or x == 1:
                raise ValueError(
                    f"evaluation at jump: theta={theta} hits i/p+j/q for "
                    f"(i,j)=({i},{j})"
                )
            total += 1 if x > 1 else -1
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


def _sigma6_of_word(
    w: BraidWord,
    precision_bits: int | None = None,
    delta_start: Fraction = SIGMA6_DELTA_START,
) -> int:
    """
    Paper-convention sigma_6 of one closure: minus the sum over its Seifert
    blocks of the standard signature just past theta = 1/6, each taken by one
    evaluation at an offset certified free of jumps.
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
        theta = Fraction(1, 6) + delta
        prof = signature_at(block, theta, precision_bits)
        if prof.nullity:
            raise Sigma6Error(
                f"internal error: nullity {prof.nullity} for block {block} "
                f"at theta={theta}, where its Alexander polynomial has no root"
            )
        total -= prof.signature
    return total


def sigma6(
    link: FormalLink | BraidWord,
    precision_bits: int | None = None,
    delta_start: Fraction = SIGMA6_DELTA_START,
) -> int:
    """
    The limit invariant at the sixth root of unity, paper convention:
    sigma6(positive trefoil) = +2, additive over summands, +2 per positive
    trefoil counter and -2 per negative one. Asserted summands must declare
    their value. Each Seifert block of a closure is evaluated once, at
    theta = 1/6 + delta with delta the largest power of two that is at most
    delta_start and certified free of signature jumps; the result does not
    depend on delta_start, which must lie in (0, 1/2]. Raises Sigma6Error
    when a block's Alexander polynomial is 0.
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
        total += _sigma6_of_word(w, precision_bits, delta_start)
    return total
