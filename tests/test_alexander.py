"""
Alexander polynomial fixtures against two independent oracles: a cofactor
reduced-Burau determinant over Q[t, 1/t], and the Seifert determinant
det(tV - V^T) of the closed-braid surface.
"""

import itertools
import random
from fractions import Fraction

from word_builders import mirror

import braidcob
import braidcob.alexander as alex
from braidcob.alexander import alexander
from braidcob.seifert import seifert_blocks, seifert_matrix
from braidcob.words import (
    components,
    conjugate,
    make_word,
    markov_stabilize,
)


def torus_word(m, n):
    return make_word(m, list(range(1, m)) * n)


# --- independent oracle: reduced Burau determinant ------------------------
# For a knot closure of an n-braid b, det(Burau(b) - I) equals the Alexander
# polynomial times (1 + t + ... + t^{n-1}) up to units.


class _Poly:
    """Laurent polynomials over Q, dict degree -> Fraction."""

    def __init__(self, coeffs=None):
        self.c = {d: Fraction(v) for d, v in (coeffs or {}).items() if v}

    def __add__(self, o):
        out = dict(self.c)
        for d, v in o.c.items():
            out[d] = out.get(d, Fraction(0)) + v
        return _Poly(out)

    def __sub__(self, o):
        out = dict(self.c)
        for d, v in o.c.items():
            out[d] = out.get(d, Fraction(0)) - v
        return _Poly(out)

    def __mul__(self, o):
        out = {}
        for d1, v1 in self.c.items():
            for d2, v2 in o.c.items():
                out[d1 + d2] = out.get(d1 + d2, Fraction(0)) + v1 * v2
        return _Poly(out)

    def normalized_tuple(self):
        if not self.c:
            return (0,)
        lo, hi = min(self.c), max(self.c)
        coeffs = [self.c.get(d, Fraction(0)) for d in range(lo, hi + 1)]
        assert all(v.denominator == 1 for v in coeffs)
        out = [int(v) for v in coeffs]
        if out[-1] < 0:
            out = [-v for v in out]
        return tuple(out)


def _burau_matrix(letter, n):
    """Reduced Burau of sigma_i^{+-1} acting on C^{n-1}, rows as _Poly."""
    i = abs(letter)
    t = _Poly({1: 1})
    tinv = _Poly({-1: 1})
    one = _Poly({0: 1})
    M = [[one if r == c else _Poly() for c in range(n - 1)]
         for r in range(n - 1)]
    if letter > 0:
        M[i - 1][i - 1] = _Poly({1: -1})
        if i - 2 >= 0:
            M[i - 1][i - 2] = t
        if i < n - 1:
            M[i - 1][i] = one
    else:
        M[i - 1][i - 1] = _Poly({-1: -1})
        if i - 2 >= 0:
            M[i - 1][i - 2] = one
        if i < n - 1:
            M[i - 1][i] = tinv
    return M


def _mat_mul(A, B):
    n = len(A)
    return [
        [sum((A[r][k] * B[k][c] for k in range(n)), _Poly())
         for c in range(n)]
        for r in range(n)
    ]


def _burau_alexander(w):
    """Alexander polynomial of a knot closure via reduced Burau, normalized."""
    n = w.strands
    M = [[_Poly({0: 1}) if r == c else _Poly() for c in range(n - 1)]
         for r in range(n - 1)]
    for k in w.letters:
        M = _mat_mul(M, _burau_matrix(k, n))
    for r in range(n - 1):
        M[r][r] = M[r][r] - _Poly({0: 1})
    # cofactor determinant over the Laurent ring (sizes here are tiny)
    def det(rows):
        m = len(rows)
        if m == 0:
            return _Poly({0: 1})
        if m == 1:
            return rows[0][0]
        total = _Poly()
        for c in range(m):
            minor = [r[:c] + r[c + 1:] for r in rows[1:]]
            term = rows[0][c] * det(minor)
            total = total + term if c % 2 == 0 else total - term
        return total

    d = det(M)
    # divide by 1 + t + ... + t^{n-1} via polynomial long division
    quot, rem = _divide(d, _Poly({i: 1 for i in range(n)}))
    assert not rem.c, "Burau determinant not divisible by the t-cyclotomic"
    return quot.normalized_tuple()


def _divide(num, den):
    if not num.c:
        return _Poly(), _Poly()
    lo = min(num.c)
    shifted = {d - lo: v for d, v in num.c.items()}
    dlo = min(den.c)
    dden = {d - dlo: v for d, v in den.c.items()}
    dhi = max(dden)
    lead = dden[dhi]
    quot = {}
    while shifted and max(shifted) >= dhi:
        hi = max(shifted)
        q = shifted[hi] / lead
        s = hi - dhi
        quot[s] = q
        for d, v in dden.items():
            nd = d + s
            shifted[nd] = shifted.get(nd, Fraction(0)) - q * v
            if not shifted[nd]:
                del shifted[nd]
    return (
        _Poly({d + lo - dlo: v for d, v in quot.items()}),
        _Poly(shifted),
    )


def test_module_and_function_import_forms():
    # the package names the module, not the function inside it
    assert alex is braidcob.alexander
    assert callable(alex._burau_columns)
    assert alexander is alex.alexander


def test_trefoil():
    assert alexander(make_word(2, [1, 1, 1])).coefficients == (1, -1, 1)


def test_unknot():
    assert alexander(make_word(1, [])).coefficients == (1,)
    assert alexander(make_word(3, [1, 2])).coefficients == (1,)


def test_figure_eight():
    assert alexander(make_word(3, [1, -2, 1, -2])).coefficients == (1, -3, 1)


def test_torus_2_5():
    assert alexander(torus_word(2, 5)).coefficients == (1, -1, 1, -1, 1)


def test_split_closure_vanishes():
    assert alexander(make_word(2, [1, -1])).is_zero()


def test_against_burau_oracle_on_knots():
    rng = random.Random(17)
    checked = 0
    while checked < 12:
        n = rng.randrange(2, 5)
        length = rng.randrange(3, 12)
        w = make_word(
            n, [rng.choice([1, -1]) * rng.randrange(1, n)
                for _ in range(length)]
        )
        if components(w) != 1:
            continue
        got = alexander(w).coefficients
        want = _burau_alexander(w)
        assert got == want or got == tuple(reversed(want)), (w, got, want)
        checked += 1


def test_invariance_under_markov_moves():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randrange(2, 5)
        length = rng.randrange(1, 12)
        w = make_word(
            n, [rng.choice([1, -1]) * rng.randrange(1, n)
                for _ in range(length)]
        )
        g = make_word(n, [rng.choice([1, -1]) * rng.randrange(1, n)
                          for _ in range(3)])
        assert alexander(conjugate(w, g)).coefficients == \
            alexander(w).coefficients
        assert alexander(markov_stabilize(w, 1)).coefficients == \
            alexander(w).coefficients


def test_mirror_invariance():
    w = torus_word(3, 4)
    assert alexander(mirror(w)).coefficients == alexander(w).coefficients


def test_symmetry_of_coefficients():
    for w in (torus_word(3, 5), torus_word(2, 9),
              make_word(4, [1, -2, 3, 1, -2, 3])):
        c = alexander(w).coefficients
        assert c == tuple(reversed(c)) or c == tuple(
            -x for x in reversed(c)
        )


def _seifert_alexander(w):
    """
    Normalized det(tV - V^T) by Laplace expansion along the rows, memoized
    on the set of columns used (2^h states, so small h only). A surface in
    several pieces is tubed together by zero rows, so it gives zero.
    """
    V = seifert_matrix(w)
    if V.pieces > 1:
        return (0,)
    h = V.size
    rows = V.rows()
    A = [[_Poly({1: rows[i][j], 0: -rows[j][i]}) for j in range(h)]
         for i in range(h)]
    memo = {}

    def minor(used):
        # determinant of rows popcount(used).. and the columns not in used
        i = bin(used).count("1")
        if i == h:
            return _Poly({0: 1})
        if used not in memo:
            total, sign = _Poly(), 1
            for j in range(h):
                if used >> j & 1:
                    continue
                if A[i][j].c:
                    term = A[i][j] * minor(used | 1 << j)
                    total = total + term if sign > 0 else total - term
                sign = -sign
            memo[used] = total
        return memo[used]

    return minor(0).normalized_tuple()


def test_against_seifert_determinant():
    rng = random.Random(31)
    kinds = set()
    for _ in range(120):
        n = rng.randrange(1, 7)
        length = rng.randrange(0, 13) if n > 1 else 0
        w = make_word(
            n, [rng.choice([1, -1]) * rng.randrange(1, n)
                for _ in range(length)]
        )
        want = _seifert_alexander(w)
        assert alexander(w).coefficients == want, (w, want)
        kinds.add((components(w) > 1, want == (0,)))
    # knots, non-split links and split closures all occur
    assert kinds == {(False, False), (True, False), (True, True)}


def test_evaluation_helper():
    coeffs = alexander(make_word(2, [1, 1, 1])).coefficients
    at = lambda t: sum(c * t**k for k, c in enumerate(coeffs))
    assert at(1) == 1
    assert at(-1) == 3  # determinant of the trefoil


# --- the packed Burau build against the list-based one --------------------


def _list_add(a, b):
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return out


def _reference_burau_columns(w):
    """
    The list-based build the packed one replaced, kept as the reference:
    columns of M = t^s psi(w) as coefficient lists, lowest first with no
    trailing zeros, and the shift s.
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
            cols[j - 1] = [_list_add(x, y) for x, y in zip(cols[j - 1], t_pivot)]
        if j + 1 < m:
            cols[j + 1] = [_list_add(x, y) for x, y in zip(cols[j + 1], pivot)]
        cols[j] = [[-c for c in y] for y in (t_pivot if k > 0 else pivot)]
    return cols, s


def test_packed_burau_matches_list_build(monkeypatch):
    calls = {"unpack": 0, "pack": 0}
    unpack, pack = alex._unpack, alex._pack

    def counting_unpack(x, K):
        calls["unpack"] += 1
        return unpack(x, K)

    def counting_pack(coeffs, K):
        calls["pack"] += 1
        return pack(coeffs, K)

    monkeypatch.setattr(alex, "_unpack", counting_unpack)
    monkeypatch.setattr(alex, "_pack", counting_pack)
    rng = random.Random(4242)
    words = [make_word(n, [rng.choice((1, -1)) * rng.randrange(1, n)
                           for _ in range(rng.randrange(0, 601))])
             for n in [2, 3, 3, 4, 5, 8, 12, 20, 36]
             + [rng.randint(2, 36) for _ in range(11)]]
    words.append(make_word(3, [1, -2] * 300))  # coefficients past 2^64
    widened = 0
    for w in words:
        calls["pack"] = 0
        assert alex._burau_columns(w) == _reference_burau_columns(w), w
        widened += calls["pack"] > 0
    assert widened >= 3, widened
    # T(6,204): 1020 letters whose coefficients stay in {-1, 0, 1}; the
    # per-column bounds still outgrow the width, so the pass reads every
    # entry back and rebounds it before the final read
    calls["unpack"] = calls["pack"] = 0
    w = torus_word(6, 204)
    assert alex._burau_columns(w) == _reference_burau_columns(w)
    assert calls["unpack"] > 25 and calls["pack"] == 0, calls


# --- the Bareiss determinant on packed integers against coefficient lists ---


def _list_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _list_div(a, b):
    """a / b for b dividing a in Z[t]; fails if the division is not exact."""
    if not a:
        return []
    a, q = a[:], [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i], rem = divmod(a[i + len(b) - 1], b[-1])
        assert not rem, "inexact polynomial division"
        for j, y in enumerate(b, i):
            a[j] -= q[i] * y
    assert not any(a), "inexact polynomial division"
    return q


def _reference_det(a):
    """
    The Bareiss determinant over coefficient lists that the packed one
    replaced, up to sign; rows of a are consumed. A row whose entry in the
    pivot column is zero waits at level[i] and catches up by
    pivots[k] / pivots[level[i]] when it is next used.
    """
    n = len(a)
    pivots = [[1]]
    level = [0] * n

    def catch_up(i, k):
        if level[i] != k:
            num, den = pivots[k], pivots[level[i]]
            a[i] = [[]] * k + [_list_div(_list_mul(x, num), den)
                               for x in a[i][k:]]
            level[i] = k
        return a[i]

    for k in range(n):
        r = next((r for r in range(k, n) if a[r][k]), None)
        if r is None:
            return []
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
                _list_div(_list_add(_list_mul(p, x), _list_mul(minus_f, y)),
                          pivots[k])
                for x, y in zip(row[k + 1:], top[k + 1:])
            ]
            level[i] = k + 1
        pivots.append(p)
    return pivots[n]


def _reference_alexander(w):
    """det(t^s I - M) / (1 + ... + t^{n-1}) on lists, units cleared."""
    cols, s = _reference_burau_columns(w)
    rows = [[[-c for c in y] for y in row] for row in zip(*cols)]
    for i, row in enumerate(rows):
        row[i] = _list_add(row[i], [0] * s + [1])
    q = _list_div(_reference_det(rows), [1] * w.strands)
    if not q:
        return (0,)
    while not q[0]:
        q.pop(0)
    return tuple(q) if q[-1] > 0 else tuple(-c for c in q)


def test_packed_determinant_matches_list_bareiss():
    rng = random.Random(9090)
    words = [make_word(1, []), make_word(2, [1, -1]), torus_word(6, 18),
             make_word(3, [1, -2] * 300)]  # coefficients past 2^64
    for _ in range(120):
        n = rng.randint(2, 9)
        # a random subset of the generators: unused ones split the closure
        cols = [c for c in range(1, n) if rng.random() < 0.85] or [1]
        words.append(make_word(n, [rng.choice(cols) * rng.choice((1, -1))
                                   for _ in range(rng.randint(0, 40))]))
    words += [b for w in words[4:40] for b in seifert_blocks(w)]
    zero = big = 0
    for w in words:
        got = alexander(w).coefficients
        assert got == _reference_alexander(w), w
        zero += got == (0,)
        big += max(map(abs, got)) >> 64 > 0
    assert zero >= 15 and big >= 1, (zero, big)


def test_t_power_strip_matches_list_bareiss_on_a_long_word(monkeypatch):
    # a seeded 250-letter mixed-sign 6-strand word: its inverse letters
    # put a power of t into t^s I - M, which _strip divides out of every
    # row and column before the determinant
    rng = random.Random(99)
    w = make_word(6, [rng.choice((1, -1)) * rng.randrange(1, 6)
                      for _ in range(250)])
    seen = []
    strip = alex._strip

    def recording_strip(rows, K):
        before = sum(x.bit_length() for row in rows for x in row)
        strip(rows, K)
        seen.append(([row[:] for row in rows], K, before))  # _det eats rows

    monkeypatch.setattr(alex, "_strip", recording_strip)
    assert alexander(w).coefficients == _reference_alexander(w)
    ((rows, K, before),) = seen
    assert sum(x.bit_length() for row in rows for x in row) < before
    # a packed entry's lowest base-2^K digit is its constant term, and some
    # entry of each row and of each column keeps a nonzero one
    for line in rows + [list(col) for col in zip(*rows)]:
        assert any(x % (1 << K) for x in line)


def test_unpack_reads_balanced_digits():
    for K in (8, 16, 64, 128):
        top = 2 ** (K - 1) - 1
        for coeffs in ([1], [-1], [0, 0, 5], [top, -top], [-3, 0, 0, 7, -1]):
            x = sum(c << (K * i) for i, c in enumerate(coeffs))
            assert alex._unpack(x, K) == coeffs, (K, coeffs)
            assert alex._pack(coeffs, K) == x, (K, coeffs)
    assert alex._unpack(0, 64) == [] and alex._pack([], 64) == 0
    # three digits at K = 8, from either end of (-2^7, 2^7) and around 0
    for coeffs in itertools.product((-127, -64, -1, 0, 1, 63, 127), repeat=3):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        x = alex._pack(coeffs, 8)
        assert x == sum(c << (8 * i) for i, c in enumerate(coeffs))
        assert alex._unpack(x, 8) == coeffs, coeffs
