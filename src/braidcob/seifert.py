"""
Seifert matrices of closed braids.

The surface is the one produced by Seifert's algorithm on the closed-braid
diagram: one disk per strand, one twisted band per letter. A homology basis
has one loop for each pair of consecutive letters in the same generator
column. The linking entries follow local rules with three cases: a loop
paired with itself, two consecutive loops in one column sharing a band, and
loops in adjacent columns whose time intervals interleave.

The sign conventions are pinned by fixtures (the positive trefoil must come
out as [[-1,1],[0,-1]], giving signature -2 at theta=1/2) and cross-checked
against the lattice-point torus oracle; any of the congruence-equivalent
variants would do, but this one is frozen so serialized matrices are stable.
"""

from __future__ import annotations

import dataclasses
import itertools

from .words import BraidWord, make_word


@dataclasses.dataclass(frozen=True)
class SeifertMatrix:
    """Integer Seifert pairing of the closed-braid surface."""

    entries: tuple[tuple[int, ...], ...]
    size: int
    components: int
    pieces: int
    euler_char: int
    # word position of each basis loop's first band; time-major reordering
    # keeps the symmetrized form banded for factorization
    loop_starts: tuple[int, ...] = ()

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def _surface_pieces(w: BraidWord) -> int:
    """Connected pieces of the surface: strands glued along used columns."""
    parent = list(range(w.strands))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in w.letters:
        i = abs(k) - 1
        ra, rb = find(i), find(i + 1)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(w.strands)})


def seifert_matrix(w: BraidWord) -> SeifertMatrix:
    """Seifert matrix of the closure of w, basis ordered by column then time."""
    from .words import components  # local import to keep module deps flat

    cols: dict[int, list[tuple[int, int]]] = {}
    for pos, k in enumerate(w.letters):
        cols.setdefault(abs(k), []).append((pos, 1 if k > 0 else -1))

    loops: list[tuple[int, int, int, int, int]] = []
    for col in sorted(cols):
        occ = cols[col]
        for (p1, e1), (p2, e2) in zip(occ, occ[1:]):
            loops.append((col, p1, p2, e1, e2))

    h = len(loops)
    V = [[0] * h for _ in range(h)]
    for x, (_c, _p1, _p2, e1, e2) in enumerate(loops):
        V[x][x] = -(e1 + e2) // 2

    for x, y in itertools.combinations(range(h), 2):
        cx, a1, a2, _, _ = loops[x]
        cy, b1, b2, ey1, _ = loops[y]
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

    return SeifertMatrix(
        entries=tuple(tuple(r) for r in V),
        size=h,
        components=components(w),
        pieces=_surface_pieces(w),
        euler_char=w.strands - len(w.letters),
        loop_starts=tuple(p1 for _c, p1, _p2, _e1, _e2 in loops),
    )


def seifert_blocks(w: BraidWord) -> list[BraidWord]:
    """
    The sub-braids over which seifert_matrix(w) is block-diagonal, in column
    order. A block is a maximal run of generator columns that carry loops,
    in which every two neighbouring columns carry interleaving loops; by the
    local rules above no loop of one block links a loop of another. A block
    keeps the letters of its columns in order, relabelled so that its first
    column is 1, so seifert_matrix(block) is its diagonal block of
    seifert_matrix(w), and its surface is connected.
    """
    uses: dict[int, int] = {}
    # neighbouring columns lo, lo+1 carry interleaving loops exactly when
    # their letters, read in time order, switch column at least three times
    last: dict[int, int] = {}
    switches: dict[int, int] = {}
    for k in w.letters:
        c = abs(k)
        uses[c] = uses.get(c, 0) + 1
        for lo in (c - 1, c):
            if last.get(lo, c) != c:
                switches[lo] = switches.get(lo, 0) + 1
            last[lo] = c

    runs: list[list[int]] = []
    for c in sorted(c for c, n in uses.items() if n > 1):
        if runs and runs[-1][-1] == c - 1 and switches.get(c - 1, 0) >= 3:
            runs[-1].append(c)
        else:
            runs.append([c])
    return [
        make_word(
            run[-1] - run[0] + 2,
            [k - run[0] + 1 if k > 0 else k + run[0] - 1
             for k in w.letters if run[0] <= abs(k) <= run[-1]],
        )
        for run in runs
    ]
