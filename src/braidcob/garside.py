"""
Left greedy normal form for braid words.

Every braid is written as Delta^d * A_1 * ... * A_k where Delta is the
positive half twist, each A_i is a nontrivial permutation braid (a positive
braid in which every pair of strands crosses at most once, determined by its
permutation), and every adjacent pair is left-weighted: the starting set of
A_{i+1} is contained in the finishing set of A_i. Two words represent the
same element of B_n exactly when these data coincide, so the canonical form
doubles as a dictionary key for group elements.

Permutations are stored as 0-based image tuples in the diagrammatic
convention of words.py: factor products apply the left factor first.
"""

from __future__ import annotations

import dataclasses

from .words import BraidWord, Permutation, WordError, exponent_sum, free_reduce


@dataclasses.dataclass(frozen=True)
class CanonicalBraid:
    """Left greedy normal form: infimum (power of Delta) plus factors."""

    strands: int
    infimum: int
    factors: tuple[tuple[int, ...], ...]

    def factor_permutations(self) -> tuple[Permutation, ...]:
        """The factors as 1-based permutations of {1..n}."""
        return tuple(
            Permutation(tuple(i + 1 for i in f)) for f in self.factors
        )

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
    return [n - 1 - p[n - 1 - i] for i in range(n)]


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
    All four arrays are mutated in place; returns True if anything moved.
    """
    n = len(a)
    changed = False
    while True:
        moved = False
        for s in range(n - 1):
            if b[s] > b[s + 1] and ainv[s] < ainv[s + 1]:
                # a <- a * sigma_{s+1}: swap the values s, s+1 in a
                pa, pb = ainv[s], ainv[s + 1]
                a[pa], a[pb] = s + 1, s
                ainv[s], ainv[s + 1] = pb, pa
                # b <- sigma_{s+1} * b: swap the inputs s, s+1
                b[s], b[s + 1] = b[s + 1], b[s]
                binv[b[s]], binv[b[s + 1]] = s, s + 1
                moved = changed = True
        if not moved:
            return changed


def normal_form(w: BraidWord) -> CanonicalBraid:
    """Left greedy normal form; a complete invariant of the group element."""
    n = w.strands
    if n == 1:
        return CanonicalBraid(1, 0, ())
    w0 = _w0(n)

    # Rewrite each negative letter as Delta^{-1} followed by the permutation
    # braid Delta*sigma_i^{-1}, then push all the Delta^{-1} to the front.
    # Conjugation by Delta is an involution, so a factor is twisted once per
    # Delta^{-1} sitting to its right.
    factors: list[list[int]] = []
    neg_positions: list[int] = []  # index into factors

    for k in w.letters:
        i = abs(k) - 1
        if k > 0:
            t = _identity(n)
            t[i], t[i + 1] = t[i + 1], t[i]
            factors.append(t)
        else:
            neg_positions.append(len(factors))
            # perm of Delta*sigma_i^{-1}: w0 with the values i, i+1 swapped.
            t = [w0[p] for p in range(n)]
            t[n - 1 - i], t[n - 2 - i] = i + 1, i
            factors.append(t)

    delta_power = -len(neg_positions)
    if neg_positions:
        # Number of Delta^{-1} strictly to the right of each factor.
        to_right = [0] * (len(factors) + 1)
        for pos in neg_positions:
            to_right[pos] += 1
        suffix = 0
        for idx in range(len(factors) - 1, -1, -1):
            suffix += to_right[idx + 1]
            if suffix % 2:
                factors[idx] = _tau(factors[idx], n)

    # Left greedy normalization, incremental: keep a normalized prefix and
    # append one factor at a time, combing it backwards. Once a pair is
    # untouched by the comb, everything to its left stays left-weighted.
    ident = _identity(n)
    perms: list[list[int]] = []
    invs: list[list[int]] = []
    for f in factors:
        if f == ident:
            continue
        perms.append(f)
        invs.append(_invert_perm(f))
        j = len(perms) - 2
        while j >= 0:
            changed = _fix_pair(
                perms[j], invs[j], perms[j + 1], invs[j + 1]
            )
            if not changed:
                break
            if perms[j + 1] == ident:
                perms.pop(j + 1)
                invs.pop(j + 1)
                if j <= len(perms) - 2:
                    continue  # re-examine the new adjacency at this j
            j -= 1

    lo, hi = 0, len(perms)
    while lo < hi and perms[lo] == w0:
        lo += 1
        delta_power += 1
    while lo < hi and perms[hi - 1] == ident:
        hi -= 1

    return CanonicalBraid(
        n, delta_power, tuple(tuple(f) for f in perms[lo:hi])
    )


def equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Decide whether two words represent the same element of B_n."""
    if w1.strands != w2.strands:
        raise WordError(
            f"strand count mismatch: {w1.strands} vs {w2.strands}"
        )
    # Cheap invariants first; they reject most unequal pairs.
    if exponent_sum(w1) != exponent_sum(w2):
        return False
    r1, r2 = free_reduce(w1), free_reduce(w2)
    if r1.letters == r2.letters:
        return True
    return normal_form(r1) == normal_form(r2)
