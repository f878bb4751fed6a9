"""
Expected values that do not come from the code under test.

Everything here is a few lines of plain arithmetic on letter lists, so a
benchmark check never trusts the function it times: permutations and
exponent sums are braid invariants, braid-relation rewriting produces a word
equal to its input by construction, and the torus-link signature comes from
lattice counting instead of a Seifert matrix.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil


def exponent_sum(letters) -> int:
    return sum(1 if k > 0 else -1 for k in letters)


def permutation(strands: int, letters) -> tuple[int, ...]:
    """Where each strand ends; sigma_i and its inverse swap positions i, i+1."""
    at = list(range(strands))  # at[p] = strand currently at position p
    for k in letters:
        i = abs(k) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    end = [0] * strands
    for pos, strand in enumerate(at):
        end[strand] = pos
    return tuple(end)


def random_letters(rng: random.Random, strands: int, length: int) -> list[int]:
    """Mixed-sign letters with no adjacent cancelling pair."""
    out: list[int] = []
    while len(out) < length:
        k = rng.randrange(1, strands) * rng.choice((1, -1))
        if not out or out[-1] != -k:
            out.append(k)
    return out


def rewrite(rng: random.Random, strands: int, letters, moves: int) -> list[int]:
    """
    Apply `moves` random defining relations of B_n: far commutation
    s_i s_j = s_j s_i (|i-j| >= 2), the braid relation
    s_i s_j s_i = s_j s_i s_j (|i-j| = 1, one sign throughout), and insertion
    or removal of a cancelling pair. The result is equal to the input as a
    braid, whatever the normal-form code says.
    """
    w = list(letters)
    for _ in range(moves):
        kind = rng.randrange(4)
        n = len(w)
        start = rng.randrange(n) if n else 0
        if kind == 0 or n < 3:
            g = rng.randrange(1, strands) * rng.choice((1, -1))
            pos = rng.randrange(n + 1)
            w[pos:pos] = [g, -g]
            continue
        for off in range(n):
            p = (start + off) % n
            if kind == 1 and p + 1 < n and abs(abs(w[p]) - abs(w[p + 1])) >= 2:
                w[p], w[p + 1] = w[p + 1], w[p]
                break
            if kind == 2 and p + 2 < n:
                a, b, c = w[p], w[p + 1], w[p + 2]
                if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
                    w[p:p + 3] = [b, a, b]
                    break
            if kind == 3 and p + 1 < n and w[p] == -w[p + 1]:
                del w[p:p + 2]
                break
    return w


def unequal_twin(rng: random.Random, strands: int, letters) -> list[int]:
    """
    Swap one letter for another generator of the same sign: the exponent sum
    stays, the permutation changes, so the two braids differ.
    """
    base = permutation(strands, letters)
    while True:
        w = list(letters)
        p = rng.randrange(len(w))
        sign = 1 if w[p] > 0 else -1
        g = rng.randrange(1, strands)
        if g == abs(w[p]):
            continue
        w[p] = sign * g
        if permutation(strands, w) != base:
            return w


def torus_sigma6(p: int, q: int) -> int:
    """
    sigma6 of the torus link T(p,q) in the paper's sign convention: minus the
    lattice count at theta = 1/6 + 1/(12pq), which lies past 1/6 and before
    the next jump of the signature function (jumps sit on multiples of 1/pq).
    """
    theta = Fraction(1, 6) + Fraction(1, 12 * p * q)
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            x = (Fraction(i, p) + Fraction(j, q) - theta) % 2
            total += 1 if x > 1 else -1
    return -total


def theorem_base(m: int, n: int) -> int:
    """Smallest admissible trefoil count, ceil(7mn/24)."""
    return ceil(Fraction(7 * m * n, 24))
