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

The determinant is taken by fraction-free Bareiss elimination (Bareiss
1968): each entry after step k is a (k+1)-minor, and the division by the
previous pivot is exact in Z[t]. A row whose entry in the pivot column is
zero would only be rescaled by p_{k+1}/p_k (p_k the leading k x k minor).
Such a row is left as it is and remembers the step it was last brought up
to; when it is next used it is rescaled once by p_K/p_L, again an exact
division. Words whose letters climb the generators in order, such as
connected sums, give a nearly Hessenberg matrix, on which most rows wait
out most steps.

The determinant is divided exactly by 1 + t + ... + t^{n-1}, then unit
factors t^k are cleared and the top coefficient is made positive. For a
knot the result is the Alexander polynomial. For a link it is the
one-variable Alexander polynomial, equal up to units to det(tV - V^T) for
the Seifert matrix V of a connected Seifert surface; the Levine-Tristram
signature can jump only at its roots on the unit circle. A split closure,
for instance a word that never uses some generator, gives the zero
polynomial (0,).
"""

from __future__ import annotations

import dataclasses

from .words import BraidWord


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


# Polynomials in Z[t] are coefficient lists, lowest degree first, with no
# trailing zeros; [] is zero.


def _add(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return out


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _div(a: list[int], b: list[int]) -> list[int]:
    """a / b for b dividing a in Z[t]; raises if the division is not exact."""
    if not a:
        return []
    a = a[:]
    lead, db = b[-1], len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + db]
        if c:
            qi, rem = divmod(c, lead)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            q[i] = qi
            for j, y in enumerate(b, i):
                a[j] -= qi * y
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def _burau_columns(w: BraidWord) -> tuple[list[list[list[int]]], int]:
    """
    Columns of M = t^s psi(w) and the shift s, for the reduced Burau
    representation in which sigma_i replaces row i-1 of the identity (rows
    and columns counted from 0) by (t, -t, 1) in columns i-2, i-1, i.
    """
    m = w.strands - 1
    cols = [[[1] if r == c else [] for r in range(m)] for c in range(m)]
    s = 0
    for k in w.letters:
        j = abs(k) - 1
        pivot = cols[j]
        t_pivot = [[0] + y if y else [] for y in pivot]
        if k < 0:
            # t psi(sigma_i^{-1}) has t on the diagonal and (t, -1, 1) in
            # row i-1, where psi(sigma_i) has 1 and (t, -t, 1)
            cols = [[[0] + y if y else [] for y in col] for col in cols]
            s += 1
        if j > 0:
            cols[j - 1] = [_add(x, y) for x, y in zip(cols[j - 1], t_pivot)]
        if j + 1 < m:
            cols[j + 1] = [_add(x, y) for x, y in zip(cols[j + 1], pivot)]
        cols[j] = [[-c for c in y] for y in (t_pivot if k > 0 else pivot)]
    return cols, s


def _det(a: list[list[list[int]]]) -> list[int]:
    """
    Bareiss determinant over Z[t] up to sign (row swaps are not counted,
    since the result is normalized); rows of a are consumed. level[i] is the
    elimination step row i was last brought up to, and pivots[k] is the
    leading k x k minor, so a waiting row catches up by pivots[K]/pivots[L].
    """
    n = len(a)
    pivots = [[1]]
    level = [0] * n

    def catch_up(i: int, k: int) -> list[list[int]]:
        if level[i] != k:
            num, den = pivots[k], pivots[level[i]]
            a[i] = [[]] * k + [_div(_mul(x, num), den) for x in a[i][k:]]
            level[i] = k
        return a[i]

    for k in range(n):
        r = next((r for r in range(k, n) if a[r][k]), None)
        if r is None:
            return []
        if r != k:
            a[k], a[r] = a[r], a[k]
            level[k], level[r] = level[r], level[k]
        top = catch_up(k, k)
        p = top[k]
        for i in range(k + 1, n):
            if not a[i][k]:
                continue
            row = catch_up(i, k)
            minus_f = [-c for c in row[k]]
            a[i] = [[]] * (k + 1) + [
                _div(_add(_mul(p, x), _mul(minus_f, y)), pivots[k])
                for x, y in zip(row[k + 1:], top[k + 1:])
            ]
            level[i] = k + 1
        pivots.append(p)
    return pivots[n]


def alexander(w: BraidWord) -> AlexanderPolynomial:
    """Alexander polynomial of the closure of w, normalized."""
    cols, s = _burau_columns(w)
    # eliminate on the rows of t^s I - M, not on the columns built above:
    # when M is nearly upper Hessenberg, a pivot column then reaches few
    # rows below the pivot
    rows = [[[-x for x in y] for y in row] for row in zip(*cols)]
    for i, row in enumerate(rows):
        row[i] = _add(row[i], [0] * s + [1])
    return _normalize(_div(_det(rows), [1] * w.strands))
