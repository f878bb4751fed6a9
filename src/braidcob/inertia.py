"""
Inertia of the sparse Hermitian forms of a Seifert matrix V.

Both kernels read the nonzero entries of V straight into dict rows, in the
time order of its basis, in which the form of a torus word is banded and the
fill of the elimination stays inside the band.

_ldl_inertia counts the pivots of a sparse LDL^T in mpmath, with a caller's
eps for zero. _pencil_signature counts the signature of the
Gaussian-integer Hermitian matrix H = p(V + V^T) - iq(V - V^T) exactly. The
leading minors p_k of H are real; they come from fraction-free (Bareiss)
elimination over Z[i] on the sparse rows, in which each division by the
previous minor is exact and, as in alexander, a row with a zero in the
pivot column waits and is rescaled once when next used. By Jacobi's rule
the signature is h minus twice the number of sign changes in 1, p_1, ...,
p_h. A zero pivot is removed by a congruence, which keeps the inertia: a
symmetric swap with the nearest later row whose diagonal is nonzero or,
when every later diagonal is zero, row/col k += c * row/col m with c in
{1, i} and H[m][k] != 0, which makes the diagonal 2*Re(c*H[m][k]) != 0. A
zero row means H is singular, which the callers' certified arcs rule out,
so it is reported as an internal error.
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


def _pencil_signature(V: SeifertMatrix, p: int, q: int
                      ) -> tuple[int, int, int]:
    """
    Signature of the Gaussian-integer Hermitian matrix
    H = p(V + V^T) - iq(V - V^T), p > 0, with the numbers of zero pivots
    fixed by a swap and by a shear (row/col k += c * row/col m). Raises
    ArithmeticError when H is singular (see the module docstring).
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
                _swap(rows, k, m)
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
