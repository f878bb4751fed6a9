"""
Seifert matrix fixtures. The local entry rules are pinned here before
anything downstream: the positive trefoil must produce [[-1,1],[0,-1]],
the figure eight the right Alexander polynomial, and det(V - V^T) = +-1
for every knot closure. The one-pass construction is checked entry by
entry against the local rules applied to every pair of loops.
"""

import itertools
import random
from fractions import Fraction

from braidcob import signature
from braidcob.seifert import _surface_pieces, seifert_blocks, seifert_matrix
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
    assert V.rows() == [[-1, 1], [0, -1]]


def test_empty_word_matrix():
    V = seifert_matrix(make_word(1, []))
    assert V.size == 0
    V4 = seifert_matrix(make_word(4, []))
    assert V4.size == 0 and V4.pieces == 4


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


def test_basis_is_in_first_band_order():
    # the column-2 loop (bands 0, 2) starts before the column-1 loop (bands
    # 1, 3), so it comes first although its column is higher; the two
    # interleave with the upper one starting first, so the lower one's row
    # has -1 in the upper one's column (column order would give
    # [[-1, -1], [0, -1]])
    V = seifert_matrix(make_word(3, [2, 1, 2, 1]))
    assert V.rows() == [[-1, 0], [-1, -1]]
    # loops by first band: column 3 (0, 3), column 1 (1, 4), column 2
    # (2, 5), column 1 (4, 6)
    V = seifert_matrix(make_word(4, [3, 1, -2, 3, 1, -2, 1]))
    assert V.rows() == [[-1, 0, 0, 0],
                        [0, -1, 1, 1],
                        [-1, 0, 1, 0],
                        [0, 0, -1, -1]]


def _pairwise_seifert(w):
    """
    The Seifert matrix by the local rules applied to every pair of loops,
    basis in time order (by first band).
    """
    cols = {}
    for pos, k in enumerate(w.letters):
        cols.setdefault(abs(k), []).append((pos, 1 if k > 0 else -1))
    loops = sorted((p1, col, p2, e1, e2)
                   for col, occ in cols.items()
                   for (p1, e1), (p2, e2) in zip(occ, occ[1:]))
    h = len(loops)
    V = [[0] * h for _ in range(h)]
    for x, (_p1, _c, _p2, e1, e2) in enumerate(loops):
        V[x][x] = -(e1 + e2) // 2
    for x, y in itertools.combinations(range(h), 2):
        a1, cx, a2, _, _ = loops[x]
        b1, cy, b2, ey1, _ = loops[y]
        if cx == cy:
            if a2 == b1:
                # consecutive loops sharing the band at b1, sign ey1
                V[x][y] = (1 + ey1) // 2
                V[y][x] = (ey1 - 1) // 2
        elif abs(cx - cy) == 1:
            # orient so xx lives in the lower column
            if cy == cx + 1:
                xx, yy, lo1, lo2, hi1, hi2 = x, y, a1, a2, b1, b2
            else:
                xx, yy, lo1, lo2, hi1, hi2 = y, x, b1, b2, a1, a2
            if lo1 < hi1 < lo2 < hi2:
                V[xx][yy] = 1
            elif hi1 < lo1 < hi2 < lo2:
                V[xx][yy] = -1
    return V


def test_one_pass_matches_pairwise_rules():
    rng = random.Random(4242)
    seen = {"one strand": 0, "empty": 0, "mixed signs": 0,
            "unused column": 0, "column used once": 0}
    words = [make_word(1, []), make_word(5, [])]
    for _ in range(2400):
        n = rng.randint(1, 8)
        cols = [c for c in range(1, n) if rng.random() < 0.8]
        words.append(make_word(n, [
            rng.choice(cols) * rng.choice((1, 1, -1))
            for _ in range(rng.randint(0, 30))] if cols else []))
    for w in words:
        V = seifert_matrix(w)
        assert V.rows() == _pairwise_seifert(w), w
        assert all(v for _i, _j, v in V.nonzeros), w
        pairs = {frozenset((i, j)) for i, j, _v in V.nonzeros}
        assert len(pairs) == len(V.nonzeros), w
        uses = [sum(abs(k) == c for k in w.letters)
                for c in range(1, w.strands)]
        seen["one strand"] += w.strands == 1
        seen["empty"] += not w.letters
        seen["mixed signs"] += len({k > 0 for k in w.letters}) == 2
        seen["unused column"] += 0 in uses
        seen["column used once"] += 1 in uses
    assert len(words) >= 2000
    assert min(seen.values()) >= 200, seen


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


def _loop_columns(w):
    """The column of each basis loop, in time order."""
    later = set()
    cols = []
    for k in reversed(w.letters):
        if abs(k) in later:
            cols.append(abs(k))
        later.add(abs(k))
    return cols[::-1]


def test_seifert_blocks_are_principal_submatrices():
    several = apart = 0
    for w in _random_words(3131, 150, 7, 22):
        V = seifert_matrix(w)
        rows = V.rows()
        cols = _loop_columns(w)
        assert len(cols) == V.size
        blocks = seifert_blocks(w)
        several += len(blocks) > 1
        spans = []
        first = 1
        for b in blocks:
            B = seifert_matrix(b)
            assert B.pieces == 1, (w, b)
            assert B.size > 0
            # the block's first column: its loops are those of V in its
            # columns, in the same time order
            first = min(c for c in cols if c >= first)
            span = [x for x, c in enumerate(cols)
                    if first <= c < first + b.strands - 1]
            assert [[rows[i][j] for j in span] for i in span] == B.rows(), \
                (w, b)
            # maximal: neighbouring columns inside a block are linked
            inner = _loop_columns(b)
            assert set(inner) == set(range(1, b.strands)), (w, b)
            Brows = B.rows()
            for lo in range(1, b.strands - 1):
                assert any(Brows[i][j] or Brows[j][i]
                           for i in range(B.size) if inner[i] == lo
                           for j in range(B.size) if inner[j] == lo + 1), \
                    (w, b)
            spans.append(span)
            apart += span[-1] - span[0] >= len(span)
            first += b.strands - 1
        assert sorted(x for s in spans for x in s) == list(range(V.size)), w
        for x, sx in enumerate(spans):
            for sy in spans[x + 1:]:
                assert all(rows[i][j] == 0 and rows[j][i] == 0
                           for i in sx for j in sy), w
        for theta in (Fraction(1, 7), Fraction(2, 5), Fraction(5, 8)):
            # the mpmath LDL^T on the whole matrix against the blocks
            total, zeros, _ = signature._ldl_signature(V, theta)
            parts = [signature_at(b, theta) for b in blocks]
            assert total == sum(p.signature for p in parts), w
            assert zeros == sum(p.nullity for p in parts), w
    assert several >= 30
    # blocks whose loops are not contiguous in time order
    assert apart >= 30, apart


def _filtered_blocks(w):
    """
    seifert_blocks as it was before the one-pass split: the same runs of
    columns, then one filter over the whole word for each run.
    """
    uses, last, switches = {}, {}, {}
    for k in w.letters:
        c = abs(k)
        uses[c] = uses.get(c, 0) + 1
        for lo in (c - 1, c):
            if last.get(lo, c) != c:
                switches[lo] = switches.get(lo, 0) + 1
            last[lo] = c
    runs = []
    for c in sorted(c for c, n in uses.items() if n > 1):
        if runs and runs[-1][-1] == c - 1 and switches.get(c - 1, 0) >= 3:
            runs[-1].append(c)
        else:
            runs.append([c])
    return [
        make_word(run[-1] - run[0] + 2,
                  [k - run[0] + 1 if k > 0 else k + run[0] - 1
                   for k in w.letters if run[0] <= abs(k) <= run[-1]])
        for run in runs
    ]


def test_one_pass_blocks_match_per_block_filter():
    from braidcob.replication import torus_word, trefoil_sum_word

    words = _random_words(5150, 1500, 9, 40)
    words += [trefoil_sum_word(n) for n in (1, 7, 60)]
    words += [torus_word(6, 5), make_word(8, [1, 1, 3, 3, 3, 5, -5, 7, 7])]
    seen = {"several": 0, "multi-column": 0, "none": 0}
    for w in words:
        blocks = seifert_blocks(w)
        assert blocks == _filtered_blocks(w), w
        seen["several"] += len(blocks) > 1
        seen["multi-column"] += any(b.strands > 2 for b in blocks)
        seen["none"] += not blocks
    assert min(seen.values()) >= 100, seen


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


def _union_find_pieces(w):
    """Pieces of the surface by union-find of the strands over used columns."""
    parent = list(range(w.strands))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in w.letters:
        parent[find(abs(k) - 1)] = find(abs(k))
    return len({find(i) for i in range(w.strands)})


def test_surface_pieces_match_union_find():
    rng = random.Random(2718)
    words = [make_word(1, []), make_word(5, []), make_word(40, [])]
    for _ in range(400):
        n = rng.randint(1, 40)
        # a random subset of the generators, so some are left unused
        cols = [c for c in range(1, n) if rng.random() < 0.6]
        letters = [rng.choice(cols) * rng.choice((1, -1))
                   for _ in range(rng.randint(0, 60))] if cols else []
        words.append(make_word(n, letters))
    seen = set()
    for w in words:
        want = _union_find_pieces(w)
        assert _surface_pieces(w) == want, w
        seen.add((want == 1, want == w.strands))
    # connected, fully split and partly split surfaces all occur
    assert {(True, False), (False, True), (False, False)} <= seen, seen
