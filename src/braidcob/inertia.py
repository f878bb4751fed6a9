"""
Exact inertia of the sparse Gaussian-integer Hermitian forms of a Seifert
matrix V.

_pencil_signature reads the nonzero entries of V straight into dict rows,
in the time order of its basis, in which the form of a torus word is
banded and the fill of the elimination stays inside the band, and counts
the signature of H = p(V + V^T) - iq(V - V^T) exactly. Its pivots come from
fraction-free (Bareiss) elimination over Z[i] on the sparse rows, in which
each division by the previous pivot is exact and, as in alexander, a row
with a zero in the pivot column waits and is rescaled once when next used.
After k steps from scale 1 the pivot is the leading k x k minor p_k of H in
the order of elimination, and by Jacobi's rule the signature is h minus
twice the number of sign changes in 1, p_1, ..., p_h.

One pass over all h rows carries the minors in full; they grow by a roughly
constant number of bits per row, so every step multiplies O(h)-bit
integers. Nested dissection (George 1973) keeps them short. A piece S of
rows (all of H at first) is cut at its middle time. The separator F is the
set of rows of the first half with an entry in the second: the loops open
at the cut. The rest L of the first half and the second half R then share
no entry, so each is eliminated on its own from scale 1 and keeps its
boundary rows (F, and the rows outside S that it touches) last: L from its
start and R from its end inward, so that the fill meets the boundary only at
the end. A side s with pivot product D_s returns E_s = -D_s * H[b, s]
H[s, s]^-1 H[s, b] on its boundary b, a matrix of minors and so of Gaussian
integers. By Haynsworth's inertia additivity, In(H) = In(A) + In(H/A)
(Haynsworth 1968), the seam is

    T = D_R * E_L + D_L * E_R + D_L * D_R * H[F, F and the boundary of S],

which is D_L * D_R times the Schur complement of L and R. Bareiss goes on
through F on T from the scale D_L * D_R, so its pivots are again leading
minors of H, in the order L, R, F, and the sign changes of L and R (each
counted from 1) and of the seam (counted from D_L * D_R) add up to those of
one pass. The rows left, D times the Schur complement on the boundary of S
for D the product of all pivots taken, go up to the next seam.

When a piece splits: a piece of at most LEAF_ROWS = 48 rows is eliminated
whole, and so is a one-sided piece up to ONE_SIDED_LEAF_ROWS = 128 rows. A
piece is one-sided when the rows of it that its boundary touches all lie in
one half of it, as for the halves of the whole form: the separator touches
only the end of L and the start of R. The whole form, with no boundary, is
not. A piece whose separator and boundary together exceed a quarter of it
is never split, so that a wide form is not cut into dense seams. The two
sizes were measured on T(6, n) at its sigma6 point (band width 5), best of
25 interleaved runs on a 2-vCPU machine: h = 145 / 205 took 9.0 / 21.3 ms
whole, 6.5 / 9.4 ms cut once and 7.4 / 13.1 ms cut again, and below 48 rows
one cut saved at most 9 %. Under the one-sided rule, leaves of 64 rows, or
one-sided leaves of 96, 160, 192 or 256 rows, were 7 to 64 % slower at some
h (192 rows: 13 % faster at h = 265, 11 % slower at h = 385), and 40 rows
moved none by more than 5 %. A piece that keeps rows on both sides costs
about 2.7 times as much per row as a one-sided one, since the near ones
join every pivot row (64 / 128 rows of T(6, 100): 85 / 137 against 31 / 51
us per row, best of 25), and splitting a one-sided piece makes one such
half. When a piece was taken as one-sided only if its boundary was no wider
than its separator, the 67-row left half of h = 145 (5 boundary rows, a
4-row separator) was cut again, into 29 rows, 34 rows kept on both sides
and a seam. That rule against this one, median ms of 25 interleaved pairs
(11 at h = 2035) at the sigma6 point:

    h      form                      by width   by attachment
    85     T(6, 18)                    3.38        3.40
    145    sixstrand start, l = 2      7.84        6.01
    205    sixstrand start, l = 3      9.19        9.23
    265    sixstrand start, l = 4     24.59       24.57
    325    sixstrand start, l = 5     34.31       32.81
    505    sixstrand start, l = 8     64.85       65.45
    2035   T(6, 408)                 478.30      478.69

A zero pivot is removed by a congruence inside its piece, which keeps the
inertia: a symmetric swap with the nearest later row of the piece whose
diagonal is nonzero or, when every later diagonal is zero, row/col k += c *
row/col m with c in {1, i} for the first later row m of the piece with
H[m][k] != 0, which makes the diagonal 2*Re(c*H[m][k]) != 0. A row that has
neither, because its entries all lie in kept rows, moves to the piece's
boundary and is eliminated at the seam above with the separator; the whole
form keeps no rows, so no row gets past it. A zero row means H is singular,
which the callers' certified arcs rule out, so it is reported as an
internal error.
"""

from __future__ import annotations

from .seifert import SeifertMatrix


# the split rule (see the module docstring for the measurements)
LEAF_ROWS = 48
ONE_SIDED_LEAF_ROWS = 128

Row = dict[int, tuple[int, int]]  # column -> (real, imaginary), nonzeros


def _add(row: Row, j: int, x: int, y: int) -> None:
    zx, zy = row.get(j, (0, 0))
    if zx + x or zy + y:
        row[j] = (zx + x, zy + y)
    else:
        row.pop(j, None)


def _eliminate(rows: dict[int, Row], order: list[int], scale: int
               ) -> tuple[int, int, int, int]:
    """
    Fraction-free elimination of the rows named in order, in that order,
    from the previous pivot scale; every row of rows is at that scale, and
    the others are kept. Returns (sign changes, swaps, shears, last pivot);
    the rows left in rows are brought up to the last pivot. A row whose zero
    pivot no later row of order can repair is deferred: it leaves order and
    stays behind with the kept rows. Raises ArithmeticError on a zero row.
    """
    pivots = [scale]  # pivots[k]: the scale after k steps
    level = dict.fromkeys(rows, 0)  # the step each row was last brought to

    def catch_up(i: int, k: int) -> Row:
        if level[i] != k:
            num, den = pivots[k], pivots[level[i]]
            rows[i] = {j: (x * num // den, y * num // den)
                       for j, (x, y) in rows[i].items()}
            level[i] = k
        return rows[i]

    swaps = shears = neg = 0
    k = 0
    while k < len(order):
        r = order[k]
        if r not in rows[r]:
            at = next((a for a in range(k + 1, len(order))
                       if order[a] in rows[order[a]]), None)
            if at is not None:
                # a symmetric swap: take the nearest later row with a
                # nonzero diagonal first
                order[k], order[at] = order[at], r
                r = order[k]
                swaps += 1
            else:
                if not rows[r]:
                    raise ArithmeticError(f"zero row {r}")
                m = next((m for m in order[k + 1:] if m in rows[r]), None)
                if m is None:  # only kept rows left in row r
                    order.pop(k)
                    continue
                # every later diagonal is 0: row/col r += c * row/col m
                # with c in {1, i} makes the diagonal 2*Re(c*H[m][r]) != 0;
                # the row step needs both rows at step k, the column step
                # stays inside each row
                top, other = catch_up(r, k), catch_up(m, k)
                turn = other[r][0] == 0  # c = i: Re(i*(x + iy)) = -y
                for j, (s, t) in other.items():
                    _add(top, j, *((-t, s) if turn else (s, t)))
                for i in list(other):
                    s, t = rows[i][m]
                    _add(rows[i], r, *((t, -s) if turn else (s, t)))
                shears += 1
        top = catch_up(r, k)
        del rows[r]
        d = top.pop(r)[0]
        prev = pivots[k]
        neg += (d < 0) != (prev < 0)
        new = {}  # rows brought to step k + 1 so far
        for i in top:
            row = catch_up(i, k)
            fx, fy = row.pop(r)  # H[i][r] = conj(H[r][i])
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
        k += 1
    for i in rows:
        catch_up(i, k)
    return neg, swaps, shears, pivots[k]


def _splits(size: int, cut: int, kept: int, one_sided: bool) -> bool:
    """
    Whether a piece of size rows, cut at its middle by cut separator rows,
    with kept boundary rows that attach to one half of it only when
    one_sided, is split (see the module docstring).
    """
    if 4 * (cut + kept) > size:
        return False
    return size > (ONE_SIDED_LEAF_ROWS if one_sided else LEAF_ROWS)


def _dissect(H: list[Row], S: list[int], B: set[int], reverse: bool
             ) -> tuple[dict[int, Row], int, tuple[int, int, int]]:
    """
    Eliminates the rows S (in time order) of H, and consumes them, keeping
    the rows B, which hold every other neighbour of S. Returns (X, D, (sign changes, swaps,
    shears)) with D the product of the pivots taken and X the rows left
    (B and the deferred ones) as D times the Schur complement of what was
    eliminated; the entries of H among the rows of B are not included.
    """
    if len(S) > 1:
        half = len(S) // 2
        later = set(S[half:])
        F = {r for r in S[:half] if not later.isdisjoint(H[r])}
        near = {j for b in B for j in H[b]}  # the rows B attaches to
        one_sided = bool(B) and (near.isdisjoint(S[:half])
                                 or near.isdisjoint(later))
        if _splits(len(S), len(F), len(B), one_sided):
            inner = [r for r in S[:half] if r not in F]
            FB = F | B
            X1, D1, c1 = _dissect(
                H, inner, {j for r in inner for j in H[r] if j in FB}, False)
            X2, D2, c2 = _dissect(
                H, S[half:], {j for r in later for j in H[r] if j in FB},
                True)
            X, D, c = _merge(H, X1, D1, X2, D2, F, B)
            return X, D, tuple(map(sum, zip(c1, c2, c)))
    inside = set(S)
    rows = {r: H[r] for r in S}  # no other piece reads them
    for b in B:
        rows[b] = {j: z for j, z in H[b].items() if j in inside}
    neg, swaps, shears, D = _eliminate(rows, S[::-1] if reverse else S[:], 1)
    return rows, D, (neg, swaps, shears)


def _merge(H: list[Row], X1: dict[int, Row], D1: int, X2: dict[int, Row],
           D2: int, F: set[int], B: set[int]
           ) -> tuple[dict[int, Row], int, tuple[int, int, int]]:
    """
    The seam: D2*X1 + D1*X2 plus D1*D2 times the entries of H between F and
    F or B is D1*D2 times the Schur complement on F, B and the deferred
    rows, and Bareiss goes on from the scale D1*D2 through all but B.
    """
    D = D1 * D2
    rows = {i: {j: (x * D2, y * D2) for j, (x, y) in row.items()}
            for i, row in X1.items()}
    for i, row in X2.items():
        out = rows.setdefault(i, {})
        for j, (x, y) in row.items():
            _add(out, j, x * D1, y * D1)
    for f in F:
        out = rows.setdefault(f, {})
        for j, (x, y) in H[f].items():
            if j in F:
                _add(out, j, x * D, y * D)
            elif j in B:
                _add(out, j, x * D, y * D)
                _add(rows.setdefault(j, {}), f, x * D, -y * D)
    neg, swaps, shears, last = _eliminate(
        rows, sorted(i for i in rows if i not in B), D)
    return rows, last, (neg, swaps, shears)


def _pencil_signature(V: SeifertMatrix, p: int, q: int
                      ) -> tuple[int, int, int]:
    """
    Signature of the Gaussian-integer Hermitian matrix
    H = p(V + V^T) - iq(V - V^T), p > 0, with the numbers of zero pivots
    fixed by a swap and by a shear (row/col k += c * row/col m). Raises
    ArithmeticError when H is singular (see the module docstring).
    """
    h = V.size
    H: list[Row] = [{} for _ in range(h)]
    for i, j, v in V.nonzeros:
        _add(H[i], j, p * v, -q * v)
        _add(H[j], i, p * v, q * v)
    try:
        _, _, (neg, swaps, shears) = _dissect(H, list(range(h)), set(),
                                              False)
    except ArithmeticError as exc:
        raise ArithmeticError(
            f"internal error: the form p(V + V^T) - iq(V - V^T) at (p, q) = "
            f"({p}, {q}) is singular ({exc} of {h})") from None
    return h - 2 * neg, swaps, shears
