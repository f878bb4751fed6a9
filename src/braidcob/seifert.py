"""
Seifert matrices of closed braids.

The surface is the one produced by Seifert's algorithm on the closed-braid
diagram: one disk per strand, one twisted band per letter. A homology basis
has one loop for each pair of consecutive letters in the same generator
column. Loops are numbered in time order, by the word position of their
first band: both signature kernels factor the form in that order, in which
the symmetrized form of a torus word is banded. The linking entries follow
local rules with three cases: a loop paired with itself, two consecutive
loops in one column sharing a band, and loops in adjacent columns whose
time intervals interleave. A loop therefore links at most two loops of its
own column and two of each neighbouring column, and only those nonzero
entries are stored, found in one pass over the letters.

The sign conventions are pinned by fixtures (the positive trefoil must come
out as [[-1,1],[0,-1]], giving signature -2 at theta=1/2) and cross-checked
against the lattice-point torus oracle; any of the congruence-equivalent
variants would do, but this one is frozen so serialized matrices are stable.
"""

from __future__ import annotations

import dataclasses

from .words import BraidWord, make_word


@dataclasses.dataclass(frozen=True)
class SeifertMatrix:
    """
    Integer Seifert pairing of the closed-braid surface, basis in time
    order. nonzeros lists (i, j, V[i][j]) for each nonzero entry; off the
    diagonal, V[i][j] and V[j][i] are never both nonzero.
    """

    nonzeros: tuple[tuple[int, int, int], ...]
    size: int
    pieces: int

    def rows(self) -> list[list[int]]:
        """The dense matrix."""
        V = [[0] * self.size for _ in range(self.size)]
        for i, j, v in self.nonzeros:
            V[i][j] = v
        return V


def _surface_pieces(w: BraidWord) -> int:
    """
    Connected pieces of the surface: strands glued along used columns. The
    columns are edges of the path on the strands, and any set of them is a
    forest, so each used column joins two pieces.
    """
    return w.strands - len({abs(k) for k in w.letters})


def seifert_matrix(w: BraidWord) -> SeifertMatrix:
    """
    Seifert matrix of the closure of w, basis in time order. While the
    letters are read a loop is named by the position of its first band; its
    entries with the loops that closed before it are known when its second
    band closes it, and the names are renumbered at the end.
    """
    last: dict[int, int] = {}  # column -> position of its latest band
    # column -> its latest band's position and sign, and the latest bands of
    # the same column and of the columns below and above just before it
    opened: dict[int, tuple] = {}
    starts: list[int] = []
    found: list[tuple[int, int, int]] = []
    for pos, k in enumerate(w.letters):
        c, e = abs(k), (1 if k > 0 else -1)
        if c in opened:
            # the loop from the column's previous band b to pos closes
            b, eb, before, below, above = opened[c]
            starts.append(b)
            if eb == e:
                found.append((b, b, -e))
            if before is not None:  # the column's previous loop ends at b
                found.append((before, b, 1) if eb > 0 else (b, before, -1))
            # a neighbouring loop that was open at b and has closed since
            # interleaves with this one; the lower column's loop gets the
            # entry, +1 when it started first
            if below is not None and last[c - 1] > b:
                found.append((below, b, 1))
            if above is not None and last[c + 1] > b:
                found.append((b, above, -1))
        opened[c] = (pos, e, last.get(c), last.get(c - 1), last.get(c + 1))
        last[c] = pos

    number = {b: x for x, b in enumerate(sorted(starts))}
    return SeifertMatrix(
        nonzeros=tuple((number[i], number[j], v) for i, j, v in found),
        size=len(starts),
        pieces=_surface_pieces(w),
    )


def seifert_blocks(w: BraidWord) -> list[BraidWord]:
    """
    The sub-braids over which seifert_matrix(w) is block-diagonal, in column
    order. A block is a maximal run of generator columns that carry loops,
    in which every two neighbouring columns carry interleaving loops; by the
    local rules above no loop of one block links a loop of another. A block
    keeps the letters of its columns in order, relabelled so that its first
    column is 1, so seifert_matrix(block) is the principal submatrix of
    seifert_matrix(w) on its loops, and its surface is connected.
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
    # each column of a run maps to the run's letters and its relabelling
    # shift, so one more pass hands every letter to its block
    place: dict[int, tuple[list[int], int]] = {}
    letters: list[list[int]] = []
    for run in runs:
        letters.append([])
        for c in run:
            place[c] = letters[-1], run[0] - 1
    for k in w.letters:
        if (got := place.get(abs(k))) is not None:
            got[0].append(k - got[1] if k > 0 else k + got[1])
    return [make_word(run[-1] - run[0] + 2, out)
            for run, out in zip(runs, letters)]
