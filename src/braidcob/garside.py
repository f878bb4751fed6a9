"""
Left greedy normal form for braid words, and the word problem by Dynnikov
coordinates.

Every braid is written as Delta^d * A_1 * ... * A_k where Delta is the
positive half twist, each A_i is a nontrivial permutation braid (a positive
braid in which every pair of strands crosses at most once, determined by its
permutation), and every adjacent pair is left-weighted: the starting set of
A_{i+1} is contained in the finishing set of A_i. Two words represent the
same element of B_n exactly when these data coincide, so the canonical form
doubles as a dictionary key for group elements.

A word (or each piece of one, see below) is read left to right, and the
braid read so far is kept as Delta^d * A_1 * ... * A_k * f, where
A_1 ... A_k is already in normal form (no A_i is the identity or Delta)
and f is a pending simple factor:

- f absorbs sigma_i while f*sigma_i stays simple, and sigma_i^{-1} while
  sigma_i right-divides f. Both keep f simple and touch nothing else.
- Otherwise f is appended and combed backwards: each pair (A_j, A_{j+1}) is
  made left-weighted, right to left, stopping at the first pair the comb
  leaves untouched; every pair to its left is unchanged and so still
  left-weighted. A pair (a, b) is made left-weighted in one insertion pass
  over the positions s of the sequence of pairs (b[s], a^{-1}[s]): an
  element moves left past its neighbour while b has a descent there and
  a^{-1} has none, and each such swap moves the letter sigma_{s+1} from the
  front of b to the back of a, keeping ab and both factors simple. The pass
  leaves no such swap anywhere, so it stops at a left-weighted pair, and
  that pair is the only one with product ab: in it, a is the greatest
  simple left divisor of ab.
- A sigma_i^{-1} that f cannot absorb uses x*sigma_i^{-1} =
  Delta^{-1} * tau(x) * (Delta*sigma_i^{-1}), with tau conjugation by Delta:
  d drops by one, everything read so far is twisted by tau, and f restarts
  as the permutation braid Delta*sigma_i^{-1}. tau maps simple factors to
  simple factors and left-weighted pairs to left-weighted pairs, so the
  prefix stays normal. The twist is lazy: one global parity is flipped, and
  each stored factor carries the parity it was last twisted to, so a factor
  is twisted only when the comb next reads it (or at the end).
- When the comb grows some A_j into Delta, A_1 ... A_{j-1} * Delta =
  Delta * tau(A_1 ... A_{j-1}): the Delta is popped into d, the global
  parity flips, and the stamps of the factors right of it flip so they keep
  their values. The comb goes on with the pair that the pop made adjacent.

Delta factors therefore never travel through the prefix one comb step at a
time, and none is left to strip at the end (El-Rifai and Morton,
Algorithms for positive braids, 1994; Epstein et al., Word Processing in
Groups, ch. 9).

Near-Delta pairs. The factor Delta*sigma_i^{-1} that an inverse letter
leaves has n(n-1)/2 - 1 crossings, and the comb carries it back through
the prefix. For a pair (A, B) with B = Delta c^{-1}, where the complement
c = B^{-1} Delta is small, the insertion pass would move almost all of B
into A, one letter per swap. Instead, AB = Delta tau(A) c^{-1}; let J be
the least common left multiple of tau(A) and c, J = y tau(A) = z c. Then
tau(A) c^{-1} = y^{-1} z, and (Delta y^{-1}, J c^{-1}) is the
left-weighted pair with product AB: as J is least, Delta y^{-1} is the
greatest simple left divisor of AB. On permutations, the inversion set of
J^{-1} (pairs of end positions) is the transitive closure of the union of
those of tau(A)^{-1} and c^{-1}. _fix_near builds it by adding the
crossings of c one at a time to the arrangement of A, each a short run of
the list moved in one slice, at the cost of a few list products of length
n. When y = 1 the new left factor is Delta and is popped as above;
otherwise Delta y^{-1} is again near Delta, with complement y, and the
comb hands it on: the pair to its left takes the same route. The comb
tries the route only where the right factor was made near Delta, that is
on the pending factor after an inverse letter, on the left factor the
route has just left, and on the factors a merge pushes; the first and
last values of b refuse most others in constant time. It takes the route
from NEAR_STRANDS = 16 strands up, for complements of at most n^2/64
crossings; every other pair takes the insertion pass, which skips the
positions where no swap can start. On the 36-strand word_problem shapes
the route fixes 44 to 46 % of the pairs, at 14 to 16 us a pair where the
insertion pass takes 46 to 52 us on the same pairs; at 16 and 24 strands
the two break even near 4 and 10 crossings of c, at 36 near 20.

normal_form does not read the whole word that way. It splits the letters
in halves, recursively, down to pieces of at most LEAF_LETTERS letters,
reads each piece left to right as above, and merges two normalised halves
by

    Delta^a A * Delta^b B = Delta^(a+b) tau^b(A) B,

since A Delta^b = Delta^b tau^b(A). tau^2 is the identity and
tau keeps A a normal form, so the right half's Delta power crosses the
left half as one flip of the left half's parity, whatever b is: no stamp
changes and no factor is twisted until the comb reads it. B's factors are
then pushed onto tau^b(A) one at a time with the comb. Once one is
appended unchanged, because its pair with its left neighbour is already
left-weighted, the rest of B is appended as it is: B's own pairs are
left-weighted and none of them has changed, so its factors are only
restamped to the merged parity. Read left to right, each inverse letter
that the pending factor cannot absorb leaves a near-Delta factor (Delta
sigma_i^{-1}, about n^2/2 crossings) that the comb carries back through the
whole prefix. Read by halves, it is carried back through its own piece,
and what crosses the left half at a merge is the right half's normal form.

The leaf rule: LEAF_LETTERS = 32, or NARROW_LEAF_LETTERS = 256 on
NARROW_STRANDS = 4 strands or fewer. Measured on the word_problem
benchmark shapes, strands x letters, ms per normal form (8 words a shape,
median of 9 interleaved runs, 2-vCPU machine shared with other work),
unsplit / pieces of 16 / 32 / 64 / 256:

    3 x 800   1.81 / 2.92 / 2.28 / 1.85 / 1.85
    4 x 600   2.95 / 4.02 / 3.53 / 3.11 / 3.01
    6 x 450   3.37 / 3.22 / 3.48 / 3.44 / 3.41
    8 x 420   5.34 / 3.87 / 3.89 / 4.40 / 5.40
    12 x 330  7.24 / 4.75 / 4.53 / 4.60 / 5.85
    16 x 270  6.95 / 5.93 / 4.53 / 5.74 / 6.08
    24 x 200  5.80 / 4.26 / 4.00 / 4.35 / 4.83
    36 x 140  4.19 / 3.74 / 3.69 / 3.61 / 4.07
    36 x 300  10.75 / 9.54 / 8.28 / 8.78 / 10.05

On 3 and 4 strands a near-Delta factor has at most 5 crossings and the
pending factor absorbs most letters, so a split saves no combing and only
adds seams (each piece pushes its pending factor at its end). From 6
strands up, pieces of 16 to 64 letters are best, 32 on most shapes. The
near-Delta route more than halves the 36-strand shapes: interleaved with
the insertion pass alone, without its trims, in pieces of 32, they took
3.36 and 8.16 ms against 7.90 and 17.42 ms (24 x 200: 4.42 against 7.11 ms; 3 to 16
strands within 12 %). Single larger words: 36 x 4800 takes
0.88 s unsplit and 0.24 s in pieces of 32 (1.58 s and 0.43 s with the
insertion pass alone), 256 x 1000 0.19 s and 0.13 s (3.13 s and 1.22 s),
1024 x 250 0.11 s and 0.14 s (7.62 s and 5.22 s).

A merge can still push every factor of B through all of A. From 4 strands
up, words made of long periodic blocks, such as (sigma_2 sigma_4)^m
(sigma_5 sigma_3^{-1})^m on 6 strands, keep every factor of the left block
changing: split or not, their cost grows with the square of the letters
(95,874 / 379,498 / 1,509,496 pair fixes at 1000 / 2000 / 4000 letters).
normal_form(w, max_fixes) counts the pairs the comb fixes and raises
CombBudgetError past max_fixes; braid nf sets it from NF_MAX_WORK.

equal first cancels the longest common prefix and suffix of the two
letter sequences: P*X*S = P*Y*S in the group B_n exactly when X = Y, so an
equivalence that rewrites a window of a long word reads only the window.
It then rejects middles with different exponent sums or permutations (both
homomorphisms out of B_n), and decides the rest by Dynnikov coordinates,
never by normal forms.

Dynnikov coordinates. An integral lamination of a disk with m punctures in
a row is fixed by 2(m - 2) integers (a_1, b_1, ..., a_{m-2}, b_{m-2}), and
B_m acts on them by piecewise-linear maps, each generator changing two
adjacent pairs (Dynnikov, On a Yang-Baxter map and the Dehornoy ordering,
Russian Math. Surveys 57, 2002). _dynnikov takes m = n + 2 and lets the
letter sigma_i^{+-1} of B_n act as sigma_{i+1} of B_{n+2}, on the pairs i
and i + 1 of the start vector (0, 1)^n. With x+ = max(x, 0) and
x- = min(x, 0), and every right side read from the old values:

- sigma_i: c = a_i - b_i- - a_{i+1} + b_{i+1}+;
  a_i <- a_i + b_i+ + (b_{i+1}+ - c)+,      b_i <- b_{i+1} - c+,
  a_{i+1} <- a_{i+1} + b_{i+1}- + (b_i- + c)-,  b_{i+1} <- b_i + c+.
- sigma_i^{-1}: d = a_i + b_i- - a_{i+1} - b_{i+1}+;
  a_i <- a_i - b_i+ - (b_{i+1}+ + d)+,      b_i <- b_{i+1} + d-,
  a_{i+1} <- a_{i+1} - b_{i+1}- - (b_i- - d)-,  b_{i+1} <- b_i - d-.

A braid is trivial exactly when it fixes (0, 1)^n (Dehornoy, Efficient
solutions to the braid isotopy problem, Discrete Appl. Math. 156, 2008),
so two words are equal exactly when they move (0, 1)^n to the same vector.
The two extra punctures are needed because on D_n itself the full twist
Delta^2 is the boundary twist: it fixes every lamination of D_n, yet it is
not trivial; on D_{n+2} it moves (0, 1)^n for every n >= 2. The cost is a
fixed number of integer operations per letter, and each letter grows the
bit length of the coordinates by at most a constant, so the work is linear
in the letters times the coordinate length, which is itself at most linear
in the letters.

Permutations are stored as 0-based image tuples in the diagrammatic
convention of words.py: factor products apply the left factor first.
"""

from __future__ import annotations

import dataclasses
import math

from .words import (
    BraidWord,
    WordError,
    exponent_sum,
    permutation,
)


# the split rule of normal_form (see the module docstring for the
# measurements): pieces of at most this many letters are read left to right
LEAF_LETTERS = 32
NARROW_LEAF_LETTERS = 256  # on NARROW_STRANDS strands or fewer
NARROW_STRANDS = 4
# the near-Delta route: from NEAR_STRANDS strands up, for complements of at
# most n^2/64 crossings (see the module docstring for the measurements)
NEAR_STRANDS = 16

_FLIP = bytes([1, 0]) + bytes(254)  # stamps.translate(_FLIP) flips each


class CombBudgetError(Exception):
    """normal_form fixed more pairs than its max_fixes allowed."""


@dataclasses.dataclass(frozen=True)
class CanonicalBraid:
    """Left greedy normal form: infimum (power of Delta) plus factors."""

    strands: int
    infimum: int
    factors: tuple[tuple[int, ...], ...]

    def __repr__(self):
        return (
            f"CanonicalBraid(n={self.strands}, inf={self.infimum}, "
            f"len={len(self.factors)})"
        )


def _identity(n: int) -> list[int]:
    return list(range(n))


def _w0(n: int) -> list[int]:
    return list(range(n - 1, -1, -1))


def _tau(p: list[int], n: int) -> list[int]:
    """Conjugation by Delta: tau(p)(i) = n-1-p(n-1-i)."""
    return [n - 1 - x for x in reversed(p)]


def _invert_perm(p: list[int]) -> list[int]:
    inv = [0] * len(p)
    for pos, v in enumerate(p):
        inv[v] = pos
    return inv


def _fix_pair(a, ainv, b, binv) -> bool:
    """
    Transfer letters from the front of b to the back of a until the pair
    (a, b) is left-weighted: the starting set of b (descents of its image
    tuple) must lie in the finishing set of a (descents of its inverse).

    One insertion pass sorts the pairs (b[s], ainv[s]): the element at s
    moves left past s-1 while b[s-1] > b[s] and ainv[s-1] < ainv[s]. Each
    such swap is the transfer a <- a*sigma_s, b <- sigma_s^{-1}*b. The
    elements an insertion shifts right keep their neighbours, and the one
    inserted cannot move back, so no legal swap is left behind the pass.
    The result is the unique left-weighted pair with product ab. Only b and
    ainv are written during the pass; a and binv are rebuilt once over the
    touched suffix. All four arrays are mutated in place; returns True if
    anything moved.
    """
    n = len(a)
    lo = n
    for s in range(1, n):
        # no legal swap starts at s unless b descends and ainv ascends there
        x = b[s]
        if b[s - 1] < x:
            continue
        y = ainv[s]
        if ainv[s - 1] > y:
            continue
        j = s - 1
        b[s] = b[j]
        ainv[s] = ainv[j]
        while j and b[j - 1] > x and ainv[j - 1] < y:
            b[j] = b[j - 1]
            ainv[j] = ainv[j - 1]
            j -= 1
        b[j], ainv[j] = x, y
        if j < lo:
            lo = j
    for s in range(lo, n):
        a[ainv[s]] = s
        binv[b[s]] = s
    return lo < n


def _fix_near(a, ainv, b, binv, cap: int) -> bool | None:
    """
    _fix_pair for a right factor b = Delta c^{-1} whose complement c has at
    most cap crossings, by the lcm of tau(a) and c (see the module
    docstring); returns None, having changed nothing, when c has more.

    The items are the middle positions s. Read right to left, the order
    _fix_pair leaves them in is the join, in the weak order, of the
    arrangement a (item x at place ainv[x]) and of Y = binv reversed,
    whose inversions are the pairs where b ascends, one per crossing of c.
    An insertion sort of Y's window lists those inversions; read
    backwards, the list climbs from the identity to Y one cover at a time.
    Adding an inversion x < y to the join arr built so far: if x comes
    first, the run of arr from x to y holds only items at most x and items
    at least y (arr stays a join), and the second kind moves, in order,
    ahead of the first. The runs are short, so the cost is a few list
    products of length n instead of about n^2/2 transfers.
    """
    n = len(a)
    n1 = n - 1
    # b[0] = n-1-k, or b[n-1] = k, puts at least k crossings in c
    if b[0] < n1 - cap or b[n1] > cap:
        return None
    rev = binv[::-1]
    pairs = []
    first = 0
    while first < n and rev[first] == first:
        first += 1
    if first < n:
        last = n1
        while rev[last] == last:
            last -= 1
        w = rev[first:last + 1]
        for s in range(1, len(w)):
            v = w[s]
            if w[s - 1] < v:
                continue
            j = s
            while j and w[j - 1] > v:
                pairs.append((v, w[j - 1]))
                w[j] = w[j - 1]
                j -= 1
            w[j] = v
            if len(pairs) > cap:
                return None
    arr = a[:]
    lo, hi = n, -1  # arr differs from a only in arr[lo:hi + 1]
    for x, y in reversed(pairs):
        px = arr.index(x)
        py = arr.index(y)
        if py < px:
            continue
        if py == px + 1:
            arr[px] = y
            arr[py] = x
        else:
            arr[px:py + 1] = sorted(arr[px:py + 1], key=x.__ge__)
        if px < lo:
            lo = px
        if py > hi:
            hi = py
    if arr[0] == n1 and arr == _w0(n):
        return False  # the join is Delta: the pair is left-weighted
    # the new pair reads the items in reversed arr; an item x outside
    # arr[lo:hi + 1] keeps its place ainv[x], so there a maps v to n-1-v
    # and b^{-1} maps v to n-1-ainv[binv[v]]
    na = _w0(n)
    nbinv = [n1 - ainv[x] for x in binv]
    for k in range(lo, hi + 1):
        x = arr[k]
        na[ainv[x]] = nbinv[b[x]] = n1 - k
    arr.reverse()
    b[:] = [b[x] for x in arr]
    ainv[:] = [ainv[x] for x in arr]
    a[:] = na
    binv[:] = nbinv
    return True


class _Form:
    """
    Delta^power * A_1 ... A_k with A_1 ... A_k a normal form (left-weighted,
    none the identity or Delta) up to the lazy twist: A_i is perms[i] when
    stamps[i] == parity and tau(perms[i]) otherwise; invs[i] is the
    inverse of perms[i]. cap is the most crossings a complement may have
    for the near-Delta route (-1 below NEAR_STRANDS strands: never), and
    budget[0] is how many more pair fixes the comb may make, shared by
    every form of one normal_form call.
    """

    __slots__ = ("ident", "w0", "power", "parity", "perms", "invs", "stamps",
                 "cap", "budget")

    def __init__(self, n: int, budget: list):
        self.ident = _identity(n)
        self.w0 = _w0(n)
        self.power = 0
        self.parity = 0
        self.perms: list[list[int]] = []
        self.invs: list[list[int]] = []
        self.stamps = bytearray()  # 0 or 1 each
        self.cap = n * n // 64 if n >= NEAR_STRANDS else -1
        self.budget = budget

    def push(self, f: list[int], finv: list[int], near: bool = False) -> bool:
        """
        Right-multiply by the simple factor f and comb it backwards. Returns
        False when f is appended unchanged (no left neighbour, or a pair
        with its neighbour that is already left-weighted), True otherwise.
        near says that f may be Delta c^{-1} with a small complement c:
        its pair then tries the near-Delta route, and so does each pair to
        its left while the route leaves such a left factor.
        """
        n = len(f)
        ident, w0 = self.ident, self.w0
        if f == ident:
            return True
        if f == w0:
            # P * Delta = Delta * tau(P); tau keeps P a normal form
            self.power += 1
            self.parity ^= 1
            return True
        perms, invs, stamps = self.perms, self.invs, self.stamps
        parity = self.parity
        cap = self.cap if near else -1
        perms.append(f)
        invs.append(finv)
        stamps.append(parity)
        j = len(perms) - 2
        moved = False
        fixes = 0
        while 0 <= j < len(perms) - 1:
            fixes += 1
            if stamps[j] != parity:
                perms[j] = _tau(perms[j], n)
                invs[j] = _tau(invs[j], n)
                stamps[j] = parity
            # A pair the comb leaves untouched ends it: the factors to its
            # left have not changed, so their pairs are still left-weighted.
            fixed = None if cap < 0 else _fix_near(
                perms[j], invs[j], perms[j + 1], invs[j + 1], cap)
            if fixed is None:
                cap = -1
                fixed = _fix_pair(perms[j], invs[j], perms[j + 1],
                                  invs[j + 1])
            if not fixed:
                break
            moved = True
            emptied = perms[j + 1] == ident
            if emptied:
                perms.pop(j + 1)
                invs.pop(j + 1)
                stamps.pop(j + 1)
            if perms[j] == w0:
                # A_1 ... A_{j-1} Delta = Delta tau(A_1 ... A_{j-1}): pop
                # the Delta into the exponent; the parity flip twists the
                # factors to its left, and flipping the stamps of those to
                # its right keeps their values. A_{j-1} and the factor now
                # at j have become adjacent, so the comb goes on with them.
                perms.pop(j)
                invs.pop(j)
                stamps.pop(j)
                self.power += 1
                parity ^= 1
                self.parity = parity
                stamps[j:] = stamps[j:].translate(_FLIP)
                cap = -1  # the factor now at j is not near Delta
            elif emptied and j < len(perms) - 1:
                cap = -1  # nor is the factor now at j + 1
                continue  # re-examine the new adjacency at this j
            j -= 1
        budget = self.budget
        budget[0] -= fixes
        if budget[0] < 0:
            raise CombBudgetError("the comb passed its budget of pair fixes")
        return moved


def _read(n: int, letters, budget: list) -> _Form:
    """The normal form of the letters, read left to right."""
    form = _Form(n, budget)
    push = form.push
    w0 = form.w0
    f, finv = _identity(n), _identity(n)
    near = False  # f was made Delta sigma_s^{-1}
    for k in letters:
        s = abs(k) - 1
        # f absorbs sigma_s when f*sigma_s is simple (the strands ending at
        # s, s+1 have not crossed in f) and sigma_s^{-1} when sigma_s
        # right-divides f (they have); either way f swaps the values s, s+1.
        if (finv[s] < finv[s + 1]) == (k > 0):
            pa, pb = finv[s], finv[s + 1]
            f[pa], f[pb] = s + 1, s
            finv[s], finv[s + 1] = pb, pa
            continue
        push(f, finv, near)
        near = k < 0
        if k > 0:
            f = _identity(n)
            f[s], f[s + 1] = s + 1, s
        else:
            # P * sigma_s^{-1} = Delta^{-1} tau(P) (Delta sigma_s^{-1}), and
            # Delta sigma_s^{-1} is Delta with the values s, s+1 swapped
            form.power -= 1
            form.parity ^= 1
            f = w0[:]
            f[n - 1 - s], f[n - 2 - s] = s + 1, s
        finv = _invert_perm(f)
    push(f, finv, near)
    return form


def _merge(left: _Form, right: _Form) -> _Form:
    """
    Delta^a A * Delta^b B = Delta^(a+b) tau^b(A) B, into left: tau^b(A) is
    one parity flip, and B's factors are pushed until one is appended
    unchanged; the rest of B is left-weighted already and is appended as
    it is.
    """
    left.power += right.power
    left.parity ^= right.power & 1
    perms, invs, stamps = right.perms, right.invs, right.stamps
    for i, (p, q) in enumerate(zip(perms, invs)):
        if stamps[i] != right.parity:
            p, q = _tau(p, len(p)), _tau(q, len(q))
        if not left.push(p, q, True):
            rest = stamps[i + 1:]
            if left.parity != right.parity:
                rest = rest.translate(_FLIP)
            left.perms += perms[i + 1:]
            left.invs += invs[i + 1:]
            left.stamps += rest
            break
    return left


def _halves(n: int, letters: tuple[int, ...], leaf: int,
            budget: list) -> _Form:
    """The normal form of the letters, split in halves down to leaf size."""
    if len(letters) <= leaf:
        return _read(n, letters, budget)
    mid = len(letters) // 2
    return _merge(_halves(n, letters[:mid], leaf, budget),
                  _halves(n, letters[mid:], leaf, budget))


def normal_form(w: BraidWord, max_fixes: int | None = None) -> CanonicalBraid:
    """
    Left greedy normal form; a complete invariant of the group element.
    Raises CombBudgetError once the comb has fixed more than max_fixes
    pairs (no limit by default).
    """
    n = w.strands
    leaf = LEAF_LETTERS if n > NARROW_STRANDS else NARROW_LEAF_LETTERS
    budget = [math.inf if max_fixes is None else max_fixes]
    form = _halves(n, w.letters, leaf, budget)
    factors = tuple(
        tuple(p) if st == form.parity else tuple(_tau(p, n))
        for p, st in zip(form.perms, form.stamps)
    )
    return CanonicalBraid(n, form.power, factors)


def _dynnikov(w: BraidWord,
              start: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """
    The Dynnikov coordinates (a_1, b_1, ..., a_n, b_n) that w gives the
    start vector, by default (0, 1)^n; from (0, 1)^n they are a complete
    invariant of the group element.
    """
    v = [0, 1] * w.strands if start is None else list(start)
    for k in w.letters:
        j = 2 * k - 2 if k > 0 else -2 * k - 2
        a1, b1, a2, b2 = v[j:j + 4]
        b1p, b1m = (b1, 0) if b1 > 0 else (0, b1)
        b2p, b2m = (b2, 0) if b2 > 0 else (0, b2)
        if k > 0:
            c = a1 - b1m - a2 + b2p
            cp = c if c > 0 else 0
            e = b2p - c
            f = b1m + c
            v[j] = a1 + b1p + (e if e > 0 else 0)
            v[j + 1] = b2 - cp
            v[j + 2] = a2 + b2m + (f if f < 0 else 0)
            v[j + 3] = b1 + cp
        else:
            d = a1 + b1m - a2 - b2p
            dm = d if d < 0 else 0
            e = b2p + d
            f = b1m - d
            v[j] = a1 - b1p - (e if e > 0 else 0)
            v[j + 1] = b2 + dm
            v[j + 2] = a2 - b2m - (f if f < 0 else 0)
            v[j + 3] = b1 - dm
    return tuple(v)


def _common_prefix(a: tuple, b: tuple, limit: int) -> int:
    """
    The length of the longest common prefix of a and b, at most limit.
    Bisects on slice equality, so the letters are compared by C-level tuple
    comparisons of halving windows rather than one at a time in Python.
    """
    lo, hi = 0, limit  # a[:lo] == b[:lo], and no common prefix exceeds hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def equal(w1: BraidWord, w2: BraidWord) -> bool:
    """
    Decide whether two words represent the same element of B_n.

    The longest common prefix P and suffix S of the two letter sequences
    are cancelled first, so that w1 = P*X*S and w2 = P*Y*S; B_n is a group,
    so w1 = w2 exactly when X = Y. Only the middles X and Y reach the
    invariants and the Dynnikov coordinates. P and S may not overlap in the
    shorter word: (1, 1) against (1, 1, 1) leaves X empty and Y = (1,).
    """
    if w1.strands != w2.strands:
        raise WordError(
            f"strand count mismatch: {w1.strands} vs {w2.strands}"
        )
    a, b = w1.letters, w2.letters
    short = min(len(a), len(b))
    p = _common_prefix(a, b, short)
    s = _common_prefix(a[::-1], b[::-1], short - p)
    x = BraidWord(w1.strands, a[p:len(a) - s])
    y = BraidWord(w1.strands, b[p:len(b) - s])
    # Cheap invariants first (homomorphisms to Z and to S_n); they reject
    # most unequal pairs before any coordinates are computed.
    if exponent_sum(x) != exponent_sum(y):
        return False
    if permutation(x) != permutation(y):
        return False
    return _dynnikov(x) == _dynnikov(y)
