"""
Seifert matrix fixtures. The local entry rules are pinned here before
anything downstream: the positive trefoil must produce [[-1,1],[0,-1]],
the figure eight the right Alexander polynomial, and det(V - V^T) = +-1
for every knot closure.
"""

import random
from fractions import Fraction

from braidcob.seifert import seifert_blocks, seifert_matrix
from braidcob.signature import signature_at
from braidcob.words import components, make_word


def _det_int(rows):
    h = len(rows)
    M = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for k in range(h):
        piv = next((r for r in range(k, h) if M[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        det *= M[k][k]
        inv = 1 / M[k][k]
        for r in range(k + 1, h):
            f = M[r][k] * inv
            if f:
                for c in range(k, h):
                    M[r][c] -= f * M[k][c]
    return int(det)


def test_trefoil_matrix():
    V = seifert_matrix(make_word(2, [1, 1, 1]))
    assert V.size == 2
    assert V.entries == ((-1, 1), (0, -1))
    assert V.components == 1
    assert V.euler_char == -1


def test_empty_word_matrix():
    V = seifert_matrix(make_word(1, []))
    assert V.size == 0
    assert V.components == 1
    V4 = seifert_matrix(make_word(4, []))
    assert V4.size == 0 and V4.pieces == 4 and V4.components == 4


def test_figure_eight_matrix():
    V = seifert_matrix(make_word(3, [1, -2, 1, -2]))
    assert V.size == 2
    rows = V.rows()
    d = _det_int(
        [[rows[i][j] - rows[j][i] for j in range(2)] for i in range(2)]
    )
    assert d in (1, -1)


def test_size_formula():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randrange(2, 7)
        length = rng.randrange(0, 25)
        w = make_word(
            n, [rng.choice([1, -1]) * rng.randrange(1, n)
                for _ in range(length)]
        )
        V = seifert_matrix(w)
        assert V.size == len(w.letters) - w.strands + V.pieces
        assert V.euler_char == w.strands - len(w.letters)


def test_intersection_form_unimodular_for_knots():
    rng = random.Random(13)
    seen = 0
    while seen < 25:
        n = rng.randrange(2, 6)
        length = rng.randrange(n, 20)
        w = make_word(
            n, [rng.choice([1, -1]) * rng.randrange(1, n)
                for _ in range(length)]
        )
        V = seifert_matrix(w)
        if components(w) != 1 or V.pieces != 1:
            continue
        seen += 1
        rows = V.rows()
        h = V.size
        d = _det_int(
            [[rows[i][j] - rows[j][i] for j in range(h)] for i in range(h)]
        )
        assert d in (1, -1), f"det(V-V^T)={d} for {w}"


def test_loop_starts_metadata():
    V = seifert_matrix(make_word(3, [1, 2, 1, 2, 1, 2]))
    assert len(V.loop_starts) == V.size
    assert all(isinstance(s, int) for s in V.loop_starts)


def _random_words(seed, count, max_strands, max_letters):
    """Mixed-sign words that skip some columns, so closures often split."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(1, max_strands)
        cols = [c for c in range(1, n) if rng.random() < 0.75]
        letters = [rng.choice(cols) * rng.choice((1, 1, -1))
                   for _ in range(rng.randint(0, max_letters))] if cols else []
        words.append(make_word(n, letters))
    return words


def _loops_per_column(w):
    uses = {}
    for k in w.letters:
        uses[abs(k)] = uses.get(abs(k), 0) + 1
    return {c: n - 1 for c, n in sorted(uses.items()) if n > 1}


def test_seifert_blocks_are_the_diagonal_blocks():
    several = 0
    for w in _random_words(3131, 150, 7, 22):
        V = seifert_matrix(w)
        blocks = seifert_blocks(w)
        several += len(blocks) > 1
        start = 0
        spans = []
        for b in blocks:
            B = seifert_matrix(b)
            assert B.pieces == 1, (w, b)
            stop = start + B.size
            assert B.size > 0
            assert tuple(r[start:stop] for r in V.entries[start:stop]) \
                == B.entries, (w, b)
            # maximal: neighbouring columns inside a block are linked
            sizes = list(_loops_per_column(b).values())
            assert len(sizes) == b.strands - 1, (w, b)
            at = 0
            for lo, hi in zip(sizes, sizes[1:]):
                assert any(B.entries[i][j] or B.entries[j][i]
                           for i in range(at, at + lo)
                           for j in range(at + lo, at + lo + hi)), (w, b)
                at += lo
            spans.append(range(start, stop))
            start = stop
        assert start == V.size, w
        for x, sx in enumerate(spans):
            for sy in spans[x + 1:]:
                assert all(V.entries[i][j] == 0 and V.entries[j][i] == 0
                           for i in sx for j in sy), w
        for theta in (Fraction(1, 7), Fraction(2, 5), Fraction(5, 8)):
            whole = signature_at(V, theta)
            parts = [signature_at(b, theta) for b in blocks]
            assert whole.signature == sum(p.signature for p in parts), w
            assert whole.nullity == sum(p.nullity for p in parts) \
                + V.pieces - 1, w
    assert several >= 30


def test_seifert_blocks_relabel_columns():
    # columns 1 and 2 never interleave (a single switch), column 4 is used
    # once, and columns 5, 6 interleave
    w = make_word(8, [1, 1, 2, -2, 2, 4, 5, 6, -5, 6, 7])
    assert seifert_blocks(w) == [
        make_word(2, [1, 1]),
        make_word(2, [1, -1, 1]),
        make_word(3, [1, 2, -1, 2]),
    ]
    assert seifert_blocks(make_word(4, [1, 2, 3])) == []
