"""
One-variable Alexander polynomials of braid closures.

alexander(w) uses Birman's closed-braid formula: for w in B_n with reduced
Burau matrix psi(w),

    Delta(t) * (1 + t + ... + t^{n-1})  =  det(I - psi(w))  up to +-t^k.

One pass over the word builds M = t^s psi(w) over Z[t]. A letter acts by
right multiplication, which changes only the three columns next to its
generator. An inverse letter brings in t^{-1}; instead the whole matrix is
multiplied by t and the shift s goes up by one, so every entry stays in
Z[t]. det(t^s I - M) then differs from det(I - psi(w)) by the unit
t^{s(n-1)}.

During the pass each entry P(t) is kept as the single integer P(2^K)
(Kronecker substitution): multiplying by t is a shift by K bits and adding
a column into its neighbour adds integers, with no loop over coefficients.
This is exact while every coefficient lies strictly between -2^(K-1) and
2^(K-1), and the integer then determines P. bound[c] bounds the absolute
values of the coefficients in column c: a letter adds the pivot column
into its neighbours, so their bounds add. When a letter would take a bound
to 2^(K-1), every entry is read back exactly as its balanced base-2^K
digits (adding 2^(K-1) to every digit makes them the bytes of a
nonnegative integer), each bound drops to the largest coefficient of its
column, and the entries are packed again if the width has to change. K is
the least multiple of 64 with PACK_HEADROOM = 32 bits to spare above the
largest coefficient, so a letter at most doubling a bound leaves at least
32 letters between readbacks. The coefficients of T(6, n) stay in {-1, 0,
1}: they pack at K = 64 and are read back once per 140 letters or so, and
the 2040 letters of T(6, 408) take 20 ms in place of 265 ms with
coefficient lists. At the end the entries are read back as lists.

The determinant is taken by fraction-free Bareiss elimination (Bareiss
1968) run over Z on the integer matrix A(2^K), for A = t^s I - M. Each
entry after step k is a (k+1)-minor, and the division by the previous
pivot is exact in Z[t]. Evaluation at t = 2^K is a ring map, so each
integer division is exact as well, and the last pivot is det(A)(2^K). A
row whose entry in the pivot column is zero would only be rescaled by
p_{k+1}/p_k (p_k the leading k x k minor). Such a row is left as it is and
remembers the step l it was last brought up to; when it is next used, at
step k, it is rescaled once by p_k/p_l, again an exact division. Words
whose letters climb the generators in order, such as connected sums, give
a nearly Hessenberg matrix, on which most rows wait out most steps.

The width K of the determinant is chosen afresh and certified, not
guessed; nothing is added to A once it is packed, so it needs no headroom
for later letters. Expanding a minor
of A over permutations, the absolute values of its coefficients sum to at
most B, the product over the columns c of 1 plus that sum for column c of
M. Dividing by 1 + t + ... + t^{n-1} at most doubles the sum. K is the
least multiple of 8 (whole bytes for the readback) with 2B < 2^(K-1), so
every minor and the quotient have all coefficients below 2^(K-1) in
absolute value, and such a polynomial is the balanced base-2^K digits of
its value at 2^K. In particular an entry is the zero polynomial exactly
when its integer is 0, so the elimination picks the pivots it would pick
over Z[t]. B is loose, because the determinant cancels most of what it
allows for, so K stops at the byte rather than at a multiple of 64 with
headroom, which keeps the integers short.

The determinant is divided exactly by 1 + t + ... + t^{n-1}, one integer
division by the sum of 2^(Ki) over i < n, and the quotient is read back
once. Unit factors t^k are then cleared and the top coefficient is made
positive. For a knot the result is the Alexander polynomial. For a link it
is the one-variable Alexander polynomial, equal up to units to
det(tV - V^T) for the Seifert matrix V of a connected Seifert surface; the
Levine-Tristram signature can jump only at its roots on the unit circle. A
split closure, for instance a word that never uses some generator, gives
the zero polynomial (0,).
"""

from __future__ import annotations

import dataclasses
import struct

from .words import BraidWord

# bits to spare above the largest coefficient when the width is chosen
# (see the module docstring)
PACK_HEADROOM = 32


@dataclasses.dataclass(frozen=True)
class AlexanderPolynomial:
    """Coefficients, lowest degree first; (0,) is the zero polynomial."""

    coefficients: tuple[int, ...]

    def is_zero(self) -> bool:
        return self.coefficients == (0,)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for d, c in enumerate(self.coefficients):
            if c == 0:
                continue
            term = "1" if abs(c) == 1 and d else str(abs(c))
            if d == 1:
                term = f"{term}*t" if term != "1" else "t"
            elif d > 1:
                term = f"{term}*t^{d}" if term != "1" else f"t^{d}"
            parts.append(("-" if c < 0 else "+") + term)
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s


def _normalize(coeffs: list[int]) -> AlexanderPolynomial:
    lo, hi = 0, len(coeffs)
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    if hi == lo:
        return AlexanderPolynomial((0,))
    while coeffs[lo] == 0:
        lo += 1
    out = coeffs[lo:hi]
    if out[-1] < 0:
        out = [-c for c in out]
    return AlexanderPolynomial(tuple(out))


def _width(bound: int) -> int:
    """
    The packing width K for coefficients of absolute value at most bound:
    a multiple of 64 with at least PACK_HEADROOM bits to spare.
    """
    return -(-(bound.bit_length() + PACK_HEADROOM) // 64) * 64


def _halves(n: int, K: int) -> int:
    """The integer whose n base-2^K digits are all 2^(K-1)."""
    return int.from_bytes((bytes(K // 8 - 1) + b"\x80") * n, "little")


def _unpack(x: int, K: int) -> list[int]:
    """
    The coefficients, lowest first, of the polynomial P with P(2^K) = x and
    every coefficient of absolute value below 2^(K-1): the balanced base
    2^K digits of x, read with 2^(K-1) added to each so that they are the
    bytes of a nonnegative integer.
    """
    if not x:
        return []
    n, size, half = x.bit_length() // K + 1, K // 8, 1 << (K - 1)
    raw = (x + _halves(n, K)).to_bytes(n * size, "little")
    if K == 64:
        out = [d - half for d in struct.unpack(f"<{n}Q", raw)]
    else:
        out = [int.from_bytes(raw[i:i + size], "little") - half
               for i in range(0, len(raw), size)]
    while not out[-1]:
        out.pop()
    return out


def _pack(coeffs: list[int], K: int) -> int:
    """P(2^K) for the polynomial P with these coefficients, lowest first."""
    half = 1 << (K - 1)
    raw = b"".join((c + half).to_bytes(K // 8, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _halves(len(coeffs), K)


def _burau_columns(w: BraidWord) -> tuple[list[list[list[int]]], int]:
    """
    Columns of M = t^s psi(w) and the shift s, for the reduced Burau
    representation in which sigma_i replaces row i-1 of the identity (rows
    and columns counted from 0) by (t, -t, 1) in columns i-2, i-1, i.
    Entries are packed at width K and bound[c] bounds the coefficients of
    column c (see the module docstring).
    """
    m = w.strands - 1
    cols = [[int(r == c) for r in range(m)] for c in range(m)]
    bound = [1] * m
    K = _width(1)
    s = 0
    for k in w.letters:
        j = abs(k) - 1
        if (bound[j] + max(bound[max(j - 1, 0):j + 2])) >> (K - 1):
            # a neighbour's bound would reach 2^(K-1): read the entries
            # back, bound them exactly and repack if the width changes
            polys = [[_unpack(x, K) for x in col] for col in cols]
            bound = [max((abs(c) for y in col for c in y), default=0)
                     for col in polys]
            if _width(max(bound)) != K:
                K = _width(max(bound))
                cols = [[_pack(y, K) for y in col] for col in polys]
        pivot = cols[j]
        t_pivot = [y << K for y in pivot]
        if k < 0:
            # t psi(sigma_i^{-1}) has t on the diagonal and (t, -1, 1) in
            # row i-1, where psi(sigma_i) has 1 and (t, -t, 1)
            cols = [[y << K for y in col] for col in cols]
            s += 1
        if j > 0:
            cols[j - 1] = [x + y for x, y in zip(cols[j - 1], t_pivot)]
            bound[j - 1] += bound[j]
        if j + 1 < m:
            cols[j + 1] = [x + y for x, y in zip(cols[j + 1], pivot)]
            bound[j + 1] += bound[j]
        cols[j] = [-y for y in (t_pivot if k > 0 else pivot)]
    return [[_unpack(x, K) for x in col] for col in cols], s


def _det(a: list[list[int]]) -> int:
    """
    Bareiss determinant over Z up to sign (row swaps are not counted, since
    the result is normalized); rows of a are consumed. An entry is 0 only
    when its polynomial is (see the module docstring). level[i] is the
    elimination step row i was last brought up to, and pivots[k] is the
    leading k x k minor, so a waiting row catches up to step k by
    pivots[k] / pivots[level[i]].
    """
    n = len(a)
    pivots = [1]
    level = [0] * n

    def catch_up(i: int, k: int) -> list[int]:
        if level[i] != k:
            num, den = pivots[k], pivots[level[i]]
            a[i] = [0] * k + [x * num // den for x in a[i][k:]]
            level[i] = k
        return a[i]

    for k in range(n):
        r = next((r for r in range(k, n) if a[r][k]), None)
        if r is None:
            return 0
        if r != k:
            a[k], a[r] = a[r], a[k]
            level[k], level[r] = level[r], level[k]
        top = catch_up(k, k)
        p, d = top[k], pivots[k]
        for i in range(k + 1, n):
            if not a[i][k]:
                continue
            row = catch_up(i, k)
            f = row[k]
            a[i] = [0] * (k + 1) + [(p * x - f * y) // d
                                    for x, y in zip(row[k + 1:], top[k + 1:])]
            level[i] = k + 1
        pivots.append(p)
    return pivots[n]


def _strip(rows: list[list[int]], K: int) -> None:
    """
    Divide each row of packed entries, then each column, by the largest
    power of t that divides all its entries, in place. The determinant
    changes only by a unit t^k, and its integers get K*k bits shorter.
    """
    def valuation(xs) -> int:
        # the lowest set bit of P(2^K) lies in the digit of P's lowest term
        return min(((x & -x).bit_length() - 1 for x in xs if x),
                   default=0) // K

    for i, row in enumerate(rows):
        v = K * valuation(row)
        if v:
            rows[i] = [x >> v for x in row]
    for c, col in enumerate(zip(*rows)):
        v = K * valuation(col)
        if v:
            for row in rows:
                row[c] >>= v


def alexander(w: BraidWord) -> AlexanderPolynomial:
    """Alexander polynomial of the closure of w, normalized."""
    cols, s = _burau_columns(w)
    # 2B bounds the coefficients of every minor of t^s I - M and of the
    # quotient, and K is the least multiple of 8 with 2B < 2^(K-1) (see the
    # module docstring)
    B = 1
    for col in cols:
        B *= sum(abs(c) for y in col for c in y) + 1
    K = ((2 * B).bit_length() + 8) // 8 * 8
    # eliminate on the rows of t^s I - M, not on the columns built above:
    # when M is nearly upper Hessenberg, a pivot column then reaches few
    # rows below the pivot
    rows = [[-_pack(y, K) for y in row] for row in zip(*cols)]
    for i, row in enumerate(rows):
        row[i] += 1 << (K * s)
    _strip(rows, K)
    quotient, rest = divmod(_det(rows),
                            sum(1 << (K * i) for i in range(w.strands)))
    if rest:
        raise ArithmeticError("inexact division by 1 + t + ... + t^(n-1)")
    return _normalize(_unpack(quotient, K))
