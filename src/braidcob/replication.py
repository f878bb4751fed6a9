"""
Generators for the torus-link words, cobordism certificates, and bound
formulas of the trefoil-cobordism construction, parameterized exactly as in
the source arguments.

The braid letters a,b,c,d,e used in names and comments are the standard
generators sigma_1..sigma_5. The two workhorse scripts:

* the 4-strand script reduces a^-3 c^-3 (abc)^12 to the trivial braid by
  ten t3-cube deletions threaded through three verified identities;
* the 6-strand script starts from the framed 2-cable word of T(6,12l+6),
  spends exactly 90 saddles (18 framing letters + two 36-letter blocks)
  to reach beta = (dced(bacb)^5 a^3 c^3)^(2l-2), runs the 4-strand script
  once per period, and closes with a constant tail: five saddles to a
  3-component link of vanishing sigma6, a trusted concordance to the
  trivial link, two saddles to the unknot, and twenty counter-trefoils.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import gcd

from .certificates import (
    CobordismCertificate,
    ConcordanceAssertion,
    CrossingChange,
    Equivalence,
    MarkovDestab,
    SaddleDelete,
    SaddleInsert,
    Step,
    TCube,
)
from .links import FormalLink
from .signature import torus_signature_oracle
from .words import BraidWord, make_word

# the clover bound 5mn/18 - Am - Bn - C; Am + Bn + C is also the window of
# theorem_bound, and C the constant of its 6-strand cost
A, B, C = 20, 20, 200

# letters of the recurring 6-strand pieces
_BACB = (2, 1, 3, 2)
_DCED = (4, 3, 5, 4)
_Q = _DCED + (-2, -3, -1, -2)  # dced (bacb)^-1
_D5 = _DCED + _BACB * 5
_D5_A3C3 = _D5 + (1, 1, 1, 3, 3, 3)
_GAMMA_PERIOD = (1, 1, 3, 2, 1, 1, 1, 3, 2)  # a^2 c b a^3 c b


def torus_word(m: int, n: int) -> BraidWord:
    """(sigma_1 ... sigma_{m-1})^n in B_m; closure is the torus link T(m,n)."""
    if m < 1 or n < 0:
        raise ValueError(f"torus_word needs m >= 1, n >= 0, got {m},{n}")
    return make_word(m, tuple(range(1, m)) * n)


def trefoil_sum_word(n: int) -> BraidWord:
    """sigma_1^3 ... sigma_n^3 in B_{n+1}: the connected sum of n trefoils."""
    if n < 0:
        raise ValueError("trefoil count must be nonnegative")
    letters = []
    for i in range(1, n + 1):
        letters += [i, i, i]
    return make_word(n + 1 if n else 1, letters)


def bbl_word(l: int) -> BraidWord:
    """(b a^4 b a^3 (b a^5)^(l-1))^2 in B_3; closure is T(3,6l+3)."""
    if l < 1:
        raise ValueError(f"bbl_word needs l >= 1, got {l}")
    period = (2,) + (1,) * 4 + (2,) + (1,) * 3 + ((2,) + (1,) * 5) * (l - 1)
    return make_word(3, period * 2)


def cabled_torus_word(l: int) -> BraidWord:
    """
    The framed 2-cable word
    (ace)^(4l+2) (dced(bacb)^4 dced(bacb)^3 (dced(bacb)^5)^(l-1))^2 in B_6,
    with 60l+30 letters; closure is T(6,12l+6).
    """
    if l < 1:
        raise ValueError(f"cabled_torus_word needs l >= 1, got {l}")
    framing = (1, 3, 5) * (4 * l + 2)
    body = _DCED + _BACB * 4 + _DCED + _BACB * 3 + (_DCED + _BACB * 5) * (l - 1)
    return make_word(6, framing + body * 2)


# ---------------------------------------------------------------------------
# the 4-strand reduction script
# ---------------------------------------------------------------------------


def _ten_cubes(lead: tuple[int, ...], suffix: tuple[int, ...]) -> list[Step]:
    """
    Steps from lead + (abc)^12 + suffix to lead + c^2 a^3 c + suffix by ten
    cube deletions through the identity chain (abc)^12 = (a^2cba^3cb)^4 ->
    (a^2(cb)^2)^4 = c^2(a^2bc^3)^3 a^2bc -> c^2(a^2b)^4 c = c^2(a^3b)^3 c ->
    c^2 a^3 c, inside closure 0 on 4 strands, or 6 when lead or suffix
    needs them.
    """
    strands = 6 if any(abs(x) > 3 for x in lead + suffix) else 4
    word = lambda ls: make_word(strands, lead + ls + suffix)
    base = len(lead)
    steps: list[Step] = [Equivalence(0, word(_GAMMA_PERIOD * 4))]
    for i in (3, 2, 1, 0):  # a^3 sits at offset 4 of each 9-letter period
        steps.append(TCube(0, base + 9 * i + 4, 1, 1))
    steps.append(
        Equivalence(0, word((3, 3) + (1, 1, 2, 3, 3, 3) * 3 + (1, 1, 2, 3))))
    for i in (2, 1, 0):  # c^3 at offset 3 of each 6-letter block after c^2
        steps.append(TCube(0, base + 2 + 6 * i + 3, 3, 1))
    steps.append(Equivalence(0, word((3, 3) + (1, 1, 1, 2) * 3 + (3,))))
    steps.append(TCube(0, base + 2 + 8, 1, 1))  # third a^3
    steps.append(TCube(0, base + 2 + 4, 1, 1))  # second a^3
    steps.append(TCube(0, base + 2 + 3, 2, 1))  # then b^3
    return steps


def _fourstrand_steps(
    prefix: tuple[int, ...], suffix: tuple[int, ...]
) -> list[Step]:
    """
    Steps reducing prefix + a^-3 c^-3 (abc)^12 + suffix to prefix + suffix
    in closure 0, on >= 4 strands: the ten cubes of _ten_cubes leave
    c^2 a^3 c, which cancels the leading a^-3 c^-3.
    """
    steps = _ten_cubes(prefix + (-1, -1, -1, -3, -3, -3), suffix)
    strands = steps[0].target.strands
    return steps + [Equivalence(0, make_word(strands, prefix + suffix))]


def fourstrand_certificate() -> CobordismCertificate:
    """
    From the closure of a^-3 c^-3 (abc)^12 in B_4 to the trivial 4-braid
    closure by exactly ten positive-cube deletions.
    """
    start_word = make_word(4, (-1, -1, -1, -3, -3, -3) + (1, 2, 3) * 12)
    steps = _fourstrand_steps((), ())
    return CobordismCertificate(
        start=FormalLink(closures=(start_word,)),
        steps=tuple(steps),
        end=FormalLink(closures=(make_word(4, ()),), trefoils_pos=10),
        metadata="ten negative t3-moves trivialize a^-3 c^-3 (abc)^12",
    )


def coxeter_certificate() -> CobordismCertificate:
    """
    From the closure of (abc)^12 in B_4 (the cube of the full twist) to the
    trivial closure by twelve positive-cube deletions.
    """
    # the ten cubes leave c^2 a^3 c: delete a^3, then the remaining c^3
    steps = _ten_cubes((), ()) + [TCube(0, 2, 1, 1), TCube(0, 0, 3, 1)]
    return CobordismCertificate(
        start=FormalLink(closures=(make_word(4, (1, 2, 3) * 12),)),
        steps=tuple(steps),
        end=FormalLink(closures=(make_word(4, ()),), trefoils_pos=12),
        metadata="twelve negative t3-moves trivialize (abc)^12",
    )


# ---------------------------------------------------------------------------
# the 6-strand certificate
# ---------------------------------------------------------------------------


def _framing_exponents(m: int) -> tuple[int, int, int]:
    """
    Cube counts per framing generator after sliding each period's a^3 c^3 to
    the front of (dced(bacb)^5 ...)^m: the cable pairs are permuted by the
    3-cycle 1->2->3->1, so the framing of period j lands on pairs
    rho^-j(1), rho^-j(2).
    """
    rho_inv = {1: 3, 2: 1, 3: 2}
    counts = {1: 0, 2: 0, 3: 0}
    p1, p2 = 1, 2
    for _ in range(m):
        p1, p2 = rho_inv[p1], rho_inv[p2]
        counts[p1] += 1
        counts[p2] += 1
    return counts[1], counts[2], counts[3]


def sixstrand_certificate(l: int) -> CobordismCertificate:
    """
    Certificate from the closure of cabled_torus_word(l), the torus link
    T(6,12l+6), to the connected sum of 20l trefoils (as counters, with an
    unknot closure left over).

    Cost layout: 90 saddles to reach beta = (dced(bacb)^5 a^3 c^3)^(2l-2),
    10(2l-2) cubes through the 4-strand script, 5 + 2 saddles around the
    trusted concordance to the trivial 3-component link, and 4 saddles for
    each of the final 20 trefoil summands.
    """
    if l < 2:
        raise ValueError(f"sixstrand_certificate needs l >= 2, got {l}")
    m = 2 * l - 2
    f = 4 * l + 2
    steps: list[Step] = []
    B6 = lambda ls: make_word(6, ls)

    # phase 1: sort the framing (a, c, e commute pairwise)
    body = _DCED + _BACB * 4 + _DCED + _BACB * 3 + (_DCED + _BACB * 5) * (l - 1)
    sorted_framing = (1,) * f + (3,) * f + (5,) * f
    steps.append(Equivalence(0, B6(sorted_framing + body * 2)))

    # phase 2: trim the framing runs to the exponents that slide into place
    n1, n2, n3 = _framing_exponents(m)
    for run, keep in ((2, 3 * n3), (1, 3 * n2), (0, 3 * n1)):
        for pos in range(run * f + f - 1, run * f + keep - 1, -1):
            steps.append(SaddleDelete(0, pos))

    # phase 3: delete the two 36-letter blocks dced(bacb)^4 dced(bacb)^3
    front = 3 * (n1 + n2 + n3)
    body_len = len(body)
    for block_start in (front + body_len, front):
        for _ in range(36):
            steps.append(SaddleDelete(0, block_start))

    # phase 4: slide the framing back in: front + D5^m = (D5 a^3 c^3)^m
    steps.append(Equivalence(0, B6(_D5_A3C3 * m)))

    # phase 5: the 4-strand script once per period
    for j in range(m):
        prefix = _Q * (j + 1)
        suffix = _D5_A3C3 * (m - j - 1)
        steps.extend(_fourstrand_steps(prefix, suffix))

    # phase 6: five saddles into a 3-component link with sigma6 = 0, the
    # trusted concordance to the trivial link, two saddles to the unknot
    last = 8 * (m - 1)
    for off in (7, 6, 2, 1, 0):
        steps.append(SaddleDelete(0, last + off))
    steps.append(
        ConcordanceAssertion(
            0,
            to=make_word(3, ()),
            justification=(
                "mirror-symmetric halves make the split-off link smoothly "
                "concordant to the trivial link"
            ),
        )
    )
    steps.append(SaddleInsert(0, 0, 1))
    steps.append(SaddleInsert(0, 1, 2))

    # phase 7: twenty more trefoil summands, two saddles short of free
    for _ in range(20):
        for _i in range(3):
            steps.append(SaddleInsert(0, 2, 2))
        steps.append(TCube(0, 2, 2, 1))

    return CobordismCertificate(
        start=FormalLink(closures=(cabled_torus_word(l),)),
        steps=tuple(steps),
        end=FormalLink(
            closures=(make_word(3, (1, 2)),), trefoils_pos=20 * l
        ),
        metadata=(
            f"T(6,{12 * l + 6}) to 3_1^{20 * l}: 90-saddle cable phase, "
            f"{10 * m} t3-cubes, constant tail"
        ),
    )


def sixstrand_step_count(l: int) -> int:
    """
    len(sixstrand_certificate(l).steps) without building it: 92 steps in
    phases 1-4 (two equivalences, 18 + 72 saddle deletions), 14 per period
    of the 4-strand script over 2l - 2 periods, and 88 in phases 6 and 7.
    """
    return 92 + 14 * (2 * l - 2) + 88


def trefoil_stack_certificate(n: int, nprime: int) -> CobordismCertificate:
    """
    From the connected sum of nprime trefoils to the connected sum of n,
    one crossing change (cost 2) per dropped summand; the signature lower
    bound is met with equality.
    """
    if not 0 <= n <= nprime:
        raise ValueError(f"need 0 <= n <= n', got n={n}, n'={nprime}")
    steps: list[Step] = []
    for j in range(nprime, n, -1):
        strands = j + 1
        # flip the first letter of the top block sigma_j^3
        steps.append(CrossingChange(0, 3 * (j - 1)))
        reduced = trefoil_sum_word(j - 1)
        steps.append(
            Equivalence(0, make_word(strands, reduced.letters + (j,)))
        )
        steps.append(MarkovDestab(0))
    return CobordismCertificate(
        start=FormalLink(closures=(trefoil_sum_word(nprime),)),
        steps=tuple(steps),
        end=FormalLink(closures=(trefoil_sum_word(n),)),
        metadata=f"3_1^{nprime} to 3_1^{n} by {nprime - n} crossing changes",
    )


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------


def gg_estimate(m: int, n: int) -> tuple[Fraction, int]:
    """
    The quasimorphism estimate (5mn/18, tolerance): tolerance 2m when the
    braid index is divisible by six, else 2m+15 to cover the saddle moves
    that reduce to that case.
    """
    if m < 1 or n < 0:
        raise ValueError(f"gg_estimate needs m >= 1, n >= 0, got {m},{n}")
    tol = 2 * m if m % 6 == 0 else 2 * m + 15
    return Fraction(5 * m * n, 18), tol


def clover_bound(m: int, n: int) -> Fraction:
    """
    Lower bound 5mn/18 - Am - Bn - C for any clover invariant on T(m,n);
    ValueError unless m, n >= 1.
    """
    if m < 1 or n < 1:
        raise ValueError(f"clover_bound needs m, n >= 1, got {m},{n}")
    return Fraction(5 * m * n, 18) - A * m - B * n - C


@dataclasses.dataclass(frozen=True)
class BoundReport:
    m: int
    n: int
    N: int
    upper: int
    sigma_estimate: Fraction
    lower: int
    slack: int
    window: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "m": self.m, "n": self.n, "N": self.N,
            "upper": self.upper,
            "sigma_estimate": str(self.sigma_estimate),
            "lower": self.lower, "slack": self.slack,
            "window": self.window, "pass": self.passed,
        }


def theorem_bound(m: int, n: int, N: int) -> BoundReport:
    """
    Chained upper bound for d_chi(T(m,n), 3_1^N): the twisting step to
    T(6,6kl) # 3_1^t plus the 6-strand cost formula, against the signature
    lower bound 2N - sigma6(T(m,n)), counted exactly at every (m, n).
    ValueError unless m, n >= 1 and N >= ceil(7mn/24). One lattice count;
    everything else is integer arithmetic (see _bound_rows).
    """
    return _bound_rows(m, n, (N,))[0]


def theorem_table(
    ms: list[int], ns: list[int], offsets: list[int] = (0, 5, 10)
) -> list[BoundReport]:
    """
    BoundReports over a grid, N = ceil(7mn/24) + offset per point, m outer,
    then n, then offset; a negative offset raises theorem_bound's
    ValueError. The rows of one (m, n) share its lattice count, so a table
    makes len(ms) * len(ns) counts whatever the number of offsets.
    """
    out = []
    if not offsets:  # no rows, so no (m, n) to check
        return out
    for m in ms:
        for n in ns:
            base = -(-7 * m * n // 24)
            out += _bound_rows(m, n, [base + off for off in offsets])
    return out


def _round_sixth(x: int) -> int:
    """round(x / 6), halves to even (9 -> 2, 15 -> 2), in integers."""
    q, r = divmod(x, 6)
    return q + (r > 3 or (r == 3 and q % 2 == 1))


def _bound_rows(m: int, n: int, Ns) -> list[BoundReport]:
    """
    The BoundReport of theorem_bound at (m, n, N) for each N of Ns, after
    checking every N. Only N moves between rows: the lower bound is 2N
    minus sigma6(T(m,n)), and the upper bound 2N plus the cost of the
    construction at (m, n), so the slack and the verdict are the same in
    each row.
    """
    if m < 1 or n < 1:
        raise ValueError(f"theorem_bound needs m, n >= 1, got {m},{n}")
    mn = m * n
    for N in Ns:
        if 24 * N < 7 * mn:
            raise ValueError(
                f"theorem_bound needs N >= 7mn/24 = {Fraction(7 * mn, 24)}, "
                f"got N={N}"
            )
    k = max(1, _round_sixth(m))
    lq = max(1, _round_sixth(n))
    adjust = 0 if (m == 6 * k and n == 6 * lq) else 3 * (m + n)
    nongeneric = 36 * k if gcd(k, lq) != 1 else 0
    # the twist to T(6,6kl) # 3_1^t, t = ceil(kl/2) >= (k-1)(l-1)/2, costs
    # 2t + 10 and the 6-strand script on the N - t trefoils left costs
    # 2(N - t) - 10kl + C, so the upper bound is 2N + cost and t cancels
    cost = 10 - 10 * k * lq + C + nongeneric + adjust
    # jumps sit on multiples of 1/lcm(m, n), so this point is past 1/6 and
    # before the next jump, where the lattice count is -sigma6(T(m,n))
    count = torus_signature_oracle(m, n, Fraction(2 * mn + 1, 12 * mn))
    slack = cost - count
    window = A * m + B * n + C
    passed = 0 <= slack <= window  # lower <= upper is slack >= 0
    estimate = Fraction(5 * mn, 18)  # gg_estimate(m, n) without tolerance
    return [
        BoundReport(
            m=m, n=n, N=N, upper=2 * N + cost, sigma_estimate=estimate,
            lower=2 * N + count, slack=slack, window=window, passed=passed,
        )
        for N in Ns
    ]
