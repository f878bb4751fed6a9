"""
Inertia of the sparse Hermitian forms of a Seifert matrix V.

Both kernels read the nonzero entries of V straight into dict rows, in the
time order of its basis, in which the form of a torus word is banded and the
fill of the elimination stays inside the band.

_ldl_inertia counts the pivots of a sparse LDL^T in mpmath, with a caller's
eps for zero.

_pencil_signature counts the signature of the Gaussian-integer Hermitian
matrix H = p(V + V^T) - iq(V - V^T) exactly. Its pivots come from
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
whole, and so is one whose boundary is no wider than its separator (one
side kept, like the halves of the whole form) up to ONE_SIDED_LEAF_ROWS =
128 rows; a piece whose separator and boundary together exceed a quarter
of it is never split, so that a wide form is not cut into dense seams. The
two sizes were measured on T(6, n) at its sigma6 point (band width 5), best
of 25 interleaved runs on a 2-vCPU machine. A piece that keeps rows on both
sides costs about three times as much per row as one that keeps them on one
side, since the near ones join every pivot row (64 / 128 rows: 126 / 224
against 43 / 79 us per row), and splitting a one-sided piece makes one
such half. So h = 145 / 205 took 9.0 / 21.3 ms whole, 6.5 / 9.4 ms cut once
and 7.4 / 13.1 ms cut again; below 48 rows one cut saved at most 9 %.

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

from mpmath import mp

from .seifert import SeifertMatrix


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


def _splits(size: int, cut: int, kept: int) -> bool:
    """
    Whether a piece of size rows, cut at its middle by cut separator rows,
    with kept boundary rows, is split (see the module docstring).
    """
    if 4 * (cut + kept) > size:
        return False
    return size > (ONE_SIDED_LEAF_ROWS if 0 < kept <= cut else LEAF_ROWS)


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
        if _splits(len(S), len(F), len(B)):
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
