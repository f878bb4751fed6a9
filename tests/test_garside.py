"""
Word-problem tests: the normal form against paper identities, random
relation rewrites, the faithful Artin action on the free group as an
independent oracle, the letter-by-letter comb as a reference
implementation, and a structural check that uses neither.
"""

import itertools
import random

import pytest

from braidcob import garside
from braidcob.garside import CanonicalBraid, equal, normal_form
from braidcob.words import (
    WordError,
    components,
    compose,
    conjugate,
    exponent_sum,
    invert,
    make_word,
    permutation,
    power,
)


def _random_word(rng, n=None, length=None):
    n = n or rng.randrange(2, 9)
    length = rng.randrange(0, 61) if length is None else length
    return make_word(
        n, [rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(length)]
    )


def _random_rewrite(rng, w, moves=14):
    """Apply braid relations, far commutations, and free insertions."""
    letters = list(w.letters)
    for _ in range(moves):
        op = rng.randrange(3)
        if op == 0 and len(letters) >= 2:
            i = rng.randrange(len(letters) - 1)
            a, b = letters[i], letters[i + 1]
            if abs(abs(a) - abs(b)) >= 2:
                letters[i], letters[i + 1] = b, a
        elif op == 1:
            i = rng.randrange(len(letters) + 1)
            g = rng.randrange(1, w.strands)
            s = rng.choice([1, -1])
            letters[i:i] = [s * g, -s * g]
        elif op == 2 and len(letters) >= 3:
            i = rng.randrange(len(letters) - 2)
            a, b, c = letters[i: i + 3]
            if a > 0 and b > 0 and c > 0 and a == c and abs(a - b) == 1:
                letters[i: i + 3] = [b, a, b]
    return make_word(w.strands, letters)


# --- the Artin action on the free group: a faithful independent oracle ----


def _fg_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _fg_inv(word):
    return tuple(-x for x in reversed(word))


def _artin_images(w):
    images = [(j + 1,) for j in range(w.strands)]
    for k in w.letters:
        i = abs(k) - 1
        xi, xi1 = images[i], images[i + 1]
        if k > 0:
            images[i] = _fg_reduce(xi + xi1 + _fg_inv(xi))
            images[i + 1] = xi
        else:
            images[i] = xi1
            images[i + 1] = _fg_reduce(_fg_inv(xi1) + xi + xi1)
    return tuple(images)


# --- the letter-by-letter comb: a reference normal form --------------------


def _sweep_fix_pair(a, ainv, b, binv):
    """
    The left-weighting step by repeated sweeps: move sigma_{s+1} from the
    front of b to the back of a wherever b has a descent at s and a^{-1}
    has none, and sweep again until a sweep moves nothing. All four arrays
    are updated at every move. Returns True if anything moved.
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
                # b <- sigma_{s+1}^{-1} * b: swap the inputs s, s+1
                b[s], b[s + 1] = b[s + 1], b[s]
                binv[b[s]], binv[b[s + 1]] = s, s + 1
                moved = changed = True
        if not moved:
            return changed


def _reference_normal_form(w):
    """
    One factor per letter: sigma_i, or Delta^{-1} times the permutation
    braid Delta*sigma_i^{-1}. All Delta^{-1} are pushed to the front first
    (twisting each factor once per Delta^{-1} to its right); the factors
    are then combed one at a time, carrying every Delta the comb builds to
    the front one factor at a time, and the leading Deltas are stripped.
    """
    n = w.strands
    if n == 1:
        return CanonicalBraid(1, 0, ())
    ident = list(range(n))
    w0 = ident[::-1]
    factors = []
    for k in w.letters:
        i = abs(k) - 1
        if k > 0:
            t = ident[:]
            t[i], t[i + 1] = t[i + 1], t[i]
        else:
            t = w0[:]
            t[n - 1 - i], t[n - 2 - i] = i + 1, i
        factors.append(t)
    negatives = 0
    for idx in range(len(factors) - 1, -1, -1):
        if negatives % 2:
            factors[idx] = garside._tau(factors[idx], n)
        if w.letters[idx] < 0:
            negatives += 1

    perms, invs = [], []
    for f in factors:
        if f == ident:
            continue
        perms.append(f)
        invs.append(garside._invert_perm(f))
        j = len(perms) - 2
        while j >= 0:
            if not _sweep_fix_pair(perms[j], invs[j], perms[j + 1],
                                   invs[j + 1]):
                break
            if perms[j + 1] == ident:
                perms.pop(j + 1)
                invs.pop(j + 1)
                if j <= len(perms) - 2:
                    continue
            j -= 1

    lo, hi = 0, len(perms)
    while lo < hi and perms[lo] == w0:
        lo += 1
    while lo < hi and perms[hi - 1] == ident:
        hi -= 1
    return CanonicalBraid(
        n, lo - negatives, tuple(tuple(f) for f in perms[lo:hi])
    )


def _structure_errors(nf, w):
    """
    Check a normal form of w without computing one: every factor is a
    permutation other than the identity and Delta, every adjacent pair is
    left-weighted (the descents of A_{i+1} lie in the descents of A_i^{-1}),
    and Delta^inf A_1 ... A_k has the exponent sum and the permutation of w.
    """
    n = w.strands
    ident, w0 = tuple(range(n)), tuple(range(n - 1, -1, -1))
    if nf.strands != n:
        return "strand count changed"
    for f in nf.factors:
        if sorted(f) != list(ident):
            return f"factor {f} is not a permutation"
        if f in (ident, w0):
            return f"factor {f} is the identity or Delta"
    for a, b in zip(nf.factors, nf.factors[1:]):
        ainv = [0] * n
        for pos, v in enumerate(a):
            ainv[v] = pos
        for s in range(n - 1):
            if b[s] > b[s + 1] and ainv[s] < ainv[s + 1]:
                return f"pair {a}, {b} is not left-weighted at {s}"
    crossings = sum(
        1 for f in nf.factors for i in range(n) for j in range(i + 1, n)
        if f[i] > f[j]
    )
    if nf.infimum * n * (n - 1) // 2 + crossings != exponent_sum(w):
        return "exponent sum changed"
    perm = list(ident) if nf.infimum % 2 == 0 else list(w0)
    for f in nf.factors:
        perm = [f[p] for p in perm]
    if tuple(p + 1 for p in perm) != permutation(w).images:
        return "permutation changed"
    return None


def _skewed_word(rng, n, length, skew):
    """A random word whose letters are negative with probability skew."""
    if n == 1:
        return make_word(1, [])
    return make_word(n, [
        (-1 if rng.random() < skew else 1) * rng.randrange(1, n)
        for _ in range(length)
    ])


def _check_against_reference(w):
    nf = normal_form(w)
    assert nf == _reference_normal_form(w), w
    assert _structure_errors(nf, w) is None, (w, _structure_errors(nf, w))


def _leaf(n):
    """The piece size below which normal_form reads a word left to right."""
    if n > garside.NARROW_STRANDS:
        return garside.LEAF_LETTERS
    return garside.NARROW_LEAF_LETTERS


def _delta_letters(n, e):
    """Delta^e as (sigma_1 ... sigma_{n-1})(sigma_1 ... sigma_{n-2}) ..."""
    delta = [i for top in range(n - 1, 0, -1) for i in range(1, top + 1)]
    return delta * e if e >= 0 else [-k for k in delta[::-1]] * -e


def test_normal_form_matches_reference_on_seeded_words():
    rng = random.Random(4242)
    strands = list(range(1, 14))
    skews = (0, 0.1, 0.5, 0.9, 1)
    for trial in range(3250):
        n = strands[trial % len(strands)]
        skew = skews[(trial // len(strands)) % len(skews)]
        _check_against_reference(
            _skewed_word(rng, n, rng.randrange(0, 41), skew)
        )
    # lengths around the leaf size reach the merge of normalised halves;
    # skew 1 makes every half a Delta^{-1} power times its factors
    for n in range(2, 14):
        leaf = _leaf(n)
        for length in (leaf - 1, leaf, leaf + 1, 2 * leaf):
            for skew in (0, 0.5, 1):
                _check_against_reference(_skewed_word(rng, n, length, skew))
    # right halves that are exactly Delta^{+-m}, m odd and even, so the
    # merge twists the left half or leaves it
    for n in (2, 3, 4, 5, 8):
        size = n * (n - 1) // 2
        m = -(-(_leaf(n) + 1) // (2 * size))
        for e in (m, m + 1, -m, -m - 1):
            u = _skewed_word(rng, n, abs(e) * size, 0.5).letters
            _check_against_reference(make_word(n, u + tuple(
                _delta_letters(n, e))))
    # long words on few strands, where a pushed factor soon leaves its
    # neighbour untouched and the rest of the right half is appended
    for n in (3, 4):
        for skew in (0, 0.5, 1):
            _check_against_reference(_skewed_word(rng, n, 1500, skew))
    # u * u^{-1}: the halves cancel to the identity
    for n in range(2, 14):
        for length in (_leaf(n), _leaf(n) + 1, 2 * _leaf(n) + 3):
            u = _skewed_word(rng, n, length, 0.5)
            w = compose(u, invert(u))
            _check_against_reference(w)
            assert normal_form(w) == CanonicalBraid(n, 0, ())


def test_normal_form_matches_reference_on_wide_words():
    # the seeded test above stops at 13 strands; the word_problem shapes
    # reach 36, where a comb step moves dozens of letters
    rng = random.Random(1636)
    for n in (16, 24, 36):
        leaf = _leaf(n)
        for skew in (0, 0.5, 1):
            for length in (60, 90, 120, 150,
                           leaf - 1, leaf, leaf + 1, 2 * leaf):
                _check_against_reference(_skewed_word(rng, n, length, skew))


def _grow(rng, factors, steps):
    """
    Right-multiply each (f, finv) in factors by the same random letters, up
    to steps of them, while the first factor stays simple.
    """
    guard = factors[0][1]
    for _ in range(steps):
        room = [s for s in range(len(guard) - 1) if guard[s] < guard[s + 1]]
        if not room:
            return
        s = rng.choice(room)
        for f, finv in factors:
            pa, pb = finv[s], finv[s + 1]
            f[pa], f[pb] = s + 1, s
            finv[s], finv[s + 1] = pb, pa


def _transferable_pair(rng, n):
    """
    A random simple a and b = t*c with a*t simple, so that the letters of
    t, most of b, can move to a.
    """
    a = list(range(n))
    rng.shuffle(a)
    ainv = garside._invert_perm(a)
    b, binv = list(range(n)), list(range(n))
    _grow(rng, [(a[:], ainv[:]), (b, binv)], rng.randrange(n * n))
    _grow(rng, [(b, binv)], rng.randrange(n))
    return a, b


def test_fix_pair_matches_sweep():
    rng = random.Random(2718)
    for trial in range(1400):
        n = 2 + trial % 35
        if trial % 2:
            a, b = list(range(n)), list(range(n))
            rng.shuffle(a)
            rng.shuffle(b)
        else:
            a, b = _transferable_pair(rng, n)
        want = [a[:], garside._invert_perm(a), b[:], garside._invert_perm(b)]
        got = [x[:] for x in want]
        moved = _sweep_fix_pair(*want)
        assert garside._fix_pair(*got) == moved, (a, b)
        assert got == want, (a, b)
        assert garside._fix_pair(*got) is False


def _crossings(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


def _near_pair(rng, n, pops):
    """
    A pair (a, b) with b = Delta c^{-1} for a small c. a is random simple,
    or, when pops, tau(J) for a left multiple J of c, so that the lcm of
    tau(a) and c is tau(a) itself (y = 1) and the pair becomes (Delta, z).
    """
    c, cinv = list(range(n)), list(range(n))
    _grow(rng, [(c, cinv)], rng.randrange(0, n + 1))
    if pops:
        j = c[:]
        for _ in range(rng.randrange(0, n * n)):
            room = [i for i in range(n - 1) if j[i] < j[i + 1]]
            if not room:
                break
            i = rng.choice(room)
            j[i], j[i + 1] = j[i + 1], j[i]  # sigma_{i+1} * j, still simple
        a = garside._tau(j, n)
    elif rng.random() < 0.5:
        a = list(range(n))
        rng.shuffle(a)
    else:
        a, ainv = list(range(n)), list(range(n))
        _grow(rng, [(a, ainv)], rng.randrange(0, 3 * n))
    return a, [cinv[n - 1 - i] for i in range(n)]


def test_fix_near_matches_fix_pair():
    # the insertion pass is the oracle for the near-Delta route: the same
    # four arrays and the same answer, or None with nothing changed when
    # the complement has more crossings than the cap
    rng = random.Random(3141)
    pops = refused = 0
    for trial in range(3000):
        n = 2 + trial % 63
        a, b = _near_pair(rng, n, trial % 3 == 0)
        want = [a[:], garside._invert_perm(a), b[:], garside._invert_perm(b)]
        moved = garside._fix_pair(*want)
        got = [a[:], garside._invert_perm(a), b[:], garside._invert_perm(b)]
        cap = rng.choice((n, n * n // 64, 2))
        fixed = garside._fix_near(*got, cap)
        if fixed is None:
            assert n * (n - 1) // 2 - _crossings(b) > cap, (a, b, cap)
            assert got == [a, garside._invert_perm(a), b,
                           garside._invert_perm(b)]
            refused += 1
            continue
        assert fixed == moved and got == want, (a, b, cap)
        pops += want[0] == garside._w0(n)
    assert pops >= 500 and refused >= 300, (pops, refused)


def test_near_route_keeps_normal_forms_on_wide_words(monkeypatch):
    def by_insertion(w):
        # normal_form with the near-Delta route refused on every pair
        with monkeypatch.context() as m:
            m.setattr(garside, "_fix_near", lambda *args: None)
            return normal_form(w)

    rng = random.Random(2236)
    for n, length in ((16, 800), (24, 600), (36, 600), (64, 500),
                      (128, 400), (256, 300)):
        for skew in (0.5, 0.9):
            w = _skewed_word(rng, n, length, skew)
            nf = normal_form(w)
            assert nf == by_insertion(w), (n, skew)
            assert _structure_errors(nf, w) is None
    # periodic blocks, the words on which the comb runs longest, on 6
    # strands (below NEAR_STRANDS: the insertion pass alone, against the
    # letter-by-letter reference) and spread over 36 strands, where the
    # route carries the comb
    m = 150
    _check_against_reference(make_word(6, [2, 4] * m + [5, -3] * m))
    evens, odds = list(range(2, 36, 2)), list(range(3, 36, 2))
    w = make_word(36, evens * (m // 8) + [k if i % 2 else -k for i, k in
                                          enumerate(odds)] * (m // 8))
    nf = normal_form(w)
    assert nf == by_insertion(w)
    assert _structure_errors(nf, w) is None


def test_normal_form_stops_past_max_fixes():
    m = 250
    w = make_word(6, [2, 4] * m + [5, -3] * m)
    with pytest.raises(garside.CombBudgetError):
        normal_form(w, max_fixes=1000)
    nf = normal_form(w, max_fixes=10 ** 6)
    assert nf == normal_form(w)


def test_normal_form_matches_reference_on_two_strands():
    # in B_2, sigma_1 is Delta and Delta*sigma_1^{-1} is the identity
    rng = random.Random(2)
    leaf = _leaf(2)
    lengths = [length for length in range(9) for _ in range(40)]
    lengths += [leaf - 1, leaf, leaf + 1, 2 * leaf, 2000] * 3
    for length in lengths:
        w = _skewed_word(rng, 2, length, rng.choice((0, 0.5, 1)))
        _check_against_reference(w)
        nf = normal_form(w)
        assert nf.factors == () and nf.infimum == exponent_sum(w)


def test_normal_form_matches_reference_on_the_large_word():
    # the same 36-strand word as test_large_word_normal_form_runs
    rng = random.Random(5)
    _random_word(rng, n=12, length=300)
    _check_against_reference(_random_word(rng, n=36, length=1200))


def test_normal_form_matches_reference_on_certificate_words():
    from braidcob.certificates import apply_step
    from braidcob.replication import sixstrand_certificate

    cert = sixstrand_certificate(3)
    state, seen = cert.start, list(cert.start.closures)
    for step in cert.steps:
        state = apply_step(state, step)
        seen.extend(w for w in state.closures if w not in seen)
    assert len(seen) >= 20
    for w in seen:
        _check_against_reference(w)


def test_braid_relation():
    assert equal(make_word(3, [1, 2, 1]), make_word(3, [2, 1, 2]))


def test_far_commutation():
    assert equal(make_word(4, [1, 3]), make_word(4, [3, 1]))


def test_unequal_words():
    assert not equal(make_word(3, [1, 2]), make_word(3, [2, 1]))
    assert not equal(make_word(3, [1, -2, 1]), make_word(3, [1, 1, -2]))


def test_equal_requires_same_strands():
    with pytest.raises(WordError):
        equal(make_word(3, [1]), make_word(4, [1]))


def test_figure_one_identity():
    lhs = power(make_word(4, [1, 2, 3]), 12)
    rhs = power(make_word(4, [1, 1, 3, 2, 1, 1, 1, 3, 2]), 4)
    assert equal(lhs, rhs)


def test_a2b_fourth_equals_a3b_third():
    lhs = power(make_word(4, [1, 1, 2]), 4)
    rhs = power(make_word(4, [1, 1, 1, 2]), 3)
    assert equal(lhs, rhs)


def test_square_bracket_identity():
    lhs = power(make_word(4, [1, 1, 3, 2, 3, 2]), 4)
    rhs = compose(
        compose(make_word(4, [3, 3]),
                power(make_word(4, [1, 1, 2, 3, 3, 3]), 3)),
        make_word(4, [1, 1, 2, 3]),
    )
    assert equal(lhs, rhs)


def test_cable_square_identity():
    lhs = compose(power(make_word(6, [2, 1, 3, 2]), 6),
                  make_word(6, [1, 1, 1, 3, 3, 3]))
    rhs = compose(make_word(6, [-1, -1, -1, -3, -3, -3]),
                  power(make_word(6, [1, 2, 3]), 12))
    assert equal(lhs, rhs)


def test_normal_form_of_identity_words():
    nf = normal_form(make_word(5, [2, -2, 3, -3]))
    assert nf.infimum == 0 and nf.factors == ()
    # the one-strand braid group is trivial: the general path gives the
    # empty form
    assert normal_form(make_word(1, [])) == CanonicalBraid(1, 0, ())


def test_normal_form_full_twist():
    # (abc)^4 is Delta^2 in B_4
    nf = normal_form(power(make_word(4, [1, 2, 3]), 4))
    assert nf.infimum == 2 and nf.factors == ()


def test_normal_form_invariant_under_rewrites():
    rng = random.Random(20240)
    for _ in range(80):
        w = _random_word(rng)
        w2 = _random_rewrite(rng, w)
        assert normal_form(w) == normal_form(w2)
        assert equal(w, w2)


def test_conjugation_fixture():
    rng = random.Random(7)
    for _ in range(30):
        w = _random_word(rng)
        g = _random_word(rng, n=w.strands, length=5)
        assert equal(compose(compose(w, g), invert(g)), w)


def _permuted_twin(rng, w):
    """
    w with one letter moved to another generator of the same sign: the
    exponent sum is kept and the permutation changes.
    """
    letters = list(w.letters)
    pos = rng.randrange(len(letters))
    k = letters[pos]
    g = rng.choice([g for g in range(1, w.strands) if g != abs(k)])
    letters[pos] = g if k > 0 else -g
    return make_word(w.strands, letters)


def test_equal_matches_artin_oracle():
    rng = random.Random(99)
    for trial in range(300):
        n = rng.randrange(2, 6)
        length = rng.randrange(0, 13)
        w = _random_word(rng, n=n, length=length)
        if trial % 2:
            w2 = _random_word(rng, n=n, length=length)
        else:
            w2 = _random_rewrite(rng, w, moves=6)
        assert equal(w, w2) == (_artin_images(w) == _artin_images(w2))
        if n >= 3 and length:
            w3 = _permuted_twin(rng, w)
            assert exponent_sum(w3) == exponent_sum(w)
            assert not equal(w, w3)
            assert _artin_images(w) != _artin_images(w3)


def test_equal_rejects_permutation_mismatch_without_normal_form(
    monkeypatch,
):
    def forbidden(w):
        raise AssertionError("normal_form called")

    rng = random.Random(17)
    pairs = [(make_word(3, [1, 2]), make_word(3, [2, 1]))]
    for _ in range(200):
        w = _random_word(rng, n=rng.randrange(3, 9), length=rng.randrange(1, 40))
        pairs.append((w, _permuted_twin(rng, w)))
    monkeypatch.setattr(garside, "normal_form", forbidden)
    for w1, w2 in pairs:
        assert exponent_sum(w1) == exponent_sum(w2)
        assert permutation(w1) != permutation(w2)
        assert equal(w1, w2) is False


def _wrap(p, x, s):
    return make_word(x.strands, p.letters + x.letters + s.letters)


def test_equal_with_common_prefix_and_suffix_matches_reference():
    # three kinds of middle Y: a relation rewrite of X (equal), X times the
    # pure braid sigma_1^2 sigma_2^-2 (same exponent sum and permutation,
    # not equal), and a random word (either)
    rng = random.Random(1313)
    verdicts = {0: set(), 1: set(), 2: set()}
    for trial in range(240):
        kind = trial % 3
        n = rng.randrange(3 if kind == 1 else 2, 7)
        p = _random_word(rng, n=n, length=rng.randrange(0, 31))
        s = _random_word(rng, n=n, length=rng.randrange(0, 31))
        x = _random_word(rng, n=n, length=rng.randrange(0, 13))
        if kind == 0:
            y = _random_rewrite(rng, x, moves=6)
        elif kind == 1:
            y = compose(x, make_word(n, [1, 1, -2, -2]))
        else:
            y = _random_word(rng, n=n, length=rng.randrange(0, 13))
        w1, w2 = _wrap(p, x, s), _wrap(p, y, s)
        got = equal(w1, w2)
        assert got == (_reference_normal_form(w1)
                       == _reference_normal_form(w2)), (w1, w2)
        verdicts[kind].add(got)
    assert verdicts == {0: {True}, 1: {False}, 2: {False, True}}


def _loop_common_prefix(a, b, limit):
    # the per-letter loop that garside._common_prefix replaces
    p = 0
    while p < limit and a[p] == b[p]:
        p += 1
    return p


def test_common_prefix_matches_the_letter_loop():
    rng = random.Random(2525)
    for _ in range(2000):
        a = tuple(rng.choice((1, -1, 2)) for _ in range(rng.randrange(0, 40)))
        cut = rng.randrange(0, len(a) + 1)
        b = a[:cut] + tuple(rng.choice((1, -1, 2))
                            for _ in range(rng.randrange(0, 40)))
        limit = rng.randrange(0, min(len(a), len(b)) + 1)
        assert (garside._common_prefix(a, b, limit)
                == _loop_common_prefix(a, b, limit)), (a, b, limit)


def test_equal_with_long_common_prefix_and_suffix_matches_reference():
    # P and S of 100-300 letters around short middles that start or end
    # like S or P, so the cancelled runs reach into the middles and the
    # no-overlap rule decides where the suffix stops
    rng = random.Random(4747)
    verdicts = set()
    for trial in range(60):
        n = rng.randrange(2, 6)
        p = _random_word(rng, n=n, length=rng.randrange(100, 301))
        s = _random_word(rng, n=n, length=rng.randrange(100, 301))
        x = _random_word(rng, n=n, length=rng.randrange(0, 7))
        kind = trial % 4
        if kind == 0:  # the last letter of X inverted
            last = x.letters[-1] if x.letters else 1
            y = make_word(n, x.letters[:-1] + (-last,))
        elif kind == 1:  # Y repeats the head of S, or X the tail of P
            y = make_word(n, x.letters + s.letters[:rng.randrange(1, 6)])
        elif kind == 2:
            y = make_word(n, p.letters[-rng.randrange(1, 6):] + x.letters)
        else:
            y = _random_rewrite(rng, x, moves=6)
        w1, w2 = _wrap(p, x, s), _wrap(p, y, s)
        got = equal(w1, w2)
        assert got == (_reference_normal_form(w1)
                       == _reference_normal_form(w2)), (w1, w2)
        assert equal(w2, w1) == got
        verdicts.add(got)
    assert verdicts == {False, True}


def test_equal_cancellation_edge_cases():
    # the prefix and the suffix may not overlap in the shorter word: (1, 1)
    # against (1, 1, 1) has prefix 2 and would have suffix 2 as well
    assert not equal(make_word(2, [1, 1]), make_word(2, [1, 1, 1]))
    assert not equal(make_word(2, [1, 1, 1]), make_word(2, [1, 1]))
    assert not equal(make_word(3, [1, -2, 1]), make_word(3, [1, -2, -2, 1]))
    # one middle empty
    p, s = make_word(4, [3, 2, -1]), make_word(4, [2, 2, 3])
    empty = make_word(4, [])
    trivial = make_word(4, [1, 2, 1, -2, -1, -2])
    assert equal(_wrap(p, trivial, s), _wrap(p, empty, s))
    assert equal(_wrap(p, empty, s), _wrap(p, trivial, s))
    assert not equal(_wrap(p, make_word(4, [1, -3]), s), _wrap(p, empty, s))
    assert not equal(_wrap(p, make_word(4, [1, 1]), s), _wrap(p, empty, s))
    # identical and empty words
    assert equal(empty, empty)
    assert equal(make_word(1, []), make_word(1, []))
    w = _random_word(random.Random(3), n=5, length=40)
    assert equal(w, w)
    with pytest.raises(WordError):
        equal(make_word(3, [1, 2]), make_word(4, [1, 2]))


def test_equal_reads_coordinates_of_only_the_differing_middle(monkeypatch):
    seen = []
    dynnikov = garside._dynnikov

    def recording(w):
        seen.append(len(w.letters))
        return dynnikov(w)

    def forbidden(w):
        raise AssertionError("normal_form called")

    rng = random.Random(8)
    p = _random_word(rng, n=5, length=200)
    s = _random_word(rng, n=5, length=200)
    w1 = _wrap(p, make_word(5, [1, 2, 1]), s)
    w2 = _wrap(p, make_word(5, [2, 1, 2]), s)
    monkeypatch.setattr(garside, "_dynnikov", recording)
    monkeypatch.setattr(garside, "normal_form", forbidden)
    assert equal(w1, w2)
    assert seen and max(seen) <= 3


# --- Dynnikov coordinates against the relations and the normal form -------


def _act(n, letters, v):
    return garside._dynnikov(make_word(n, letters), v)


def test_dynnikov_action_satisfies_the_relations():
    # the piecewise-linear maps satisfy the defining relations of B_n on
    # every integer vector, not only on the orbit of (0, 1)^n
    rng = random.Random(2002)
    for trial in range(20000):
        n = 3 + trial % 5
        bound = (2, 40, 1 << 70)[trial % 3]
        v = tuple(rng.randint(-bound, bound) for _ in range(2 * n))
        i = rng.randrange(1, n)
        assert _act(n, [i, -i], v) == v, (i, v)
        assert _act(n, [-i, i], v) == v, (i, v)
        if i < n - 1:
            assert _act(n, [i, i + 1, i], v) == _act(n, [i + 1, i, i + 1], v)
            assert (_act(n, [-i, -i - 1, -i], v)
                    == _act(n, [-i - 1, -i, -i - 1], v))
        far = [j for j in range(1, n) if abs(i - j) >= 2]
        if far:
            j = rng.choice(far)
            a, b = rng.choice((i, -i)), rng.choice((j, -j))
            assert _act(n, [a, b], v) == _act(n, [b, a], v), (a, b, v)


@pytest.mark.parametrize("n, length, classes", [(3, 5, 263), (4, 4, 469)])
def test_dynnikov_classes_are_the_normal_form_classes(n, length, classes):
    # every word of at most `length` letters: the two invariants split the
    # words into the same classes, so neither merges what the other splits
    letters = [g for i in range(1, n) for g in (i, -i)]
    by_dynnikov, by_normal_form = {}, {}
    for size in range(length + 1):
        for word in itertools.product(letters, repeat=size):
            w = make_word(n, word)
            by_dynnikov.setdefault(garside._dynnikov(w), []).append(word)
            by_normal_form.setdefault(normal_form(w), []).append(word)
    assert len(by_dynnikov) == len(by_normal_form) == classes
    assert (sorted(by_dynnikov.values())
            == sorted(by_normal_form.values()))


def test_dynnikov_full_twist_moves_the_start_vector():
    # Delta^2 is central and acts trivially on the laminations of D_n; the
    # two extra punctures are what let the coordinates see it
    for n in range(2, 8):
        full_twist = power(make_word(n, list(range(1, n))), n)
        assert normal_form(full_twist).infimum == 2
        assert garside._dynnikov(full_twist) != (0, 1) * n
        assert garside._dynnikov(make_word(n, [])) == (0, 1) * n


def test_equal_matches_artin_oracle_on_pure_braid_twins():
    # the twin inserts a conjugate of a pure braid into w: the exponent sum
    # and the permutation agree, so only the coordinates decide. The
    # commutator with the central Delta^2 is trivial; sigma_i^2 sigma_j^-2
    # is not.
    rng = random.Random(606)
    verdicts = set()
    for trial in range(300):
        n = rng.randrange(3, 6)
        w = _random_word(rng, n=n, length=rng.randrange(0, 9))
        u = _random_word(rng, n=n, length=rng.randrange(0, 4))
        if trial % 2:
            i, j = rng.sample(range(1, n), 2)
            core = make_word(n, [i, i, -j, -j])
        else:
            full_twist = power(make_word(n, list(range(1, n))), n)
            g = _random_word(rng, n=n, length=rng.randrange(1, 4))
            core = compose(compose(g, full_twist),
                           compose(invert(g), invert(full_twist)))
        pos = rng.randrange(len(w.letters) + 1)
        twin = make_word(n, w.letters[:pos]
                         + compose(compose(u, core), invert(u)).letters
                         + w.letters[pos:])
        assert exponent_sum(twin) == exponent_sum(w)
        assert permutation(twin) == permutation(w)
        got = equal(w, twin)
        assert got == (_artin_images(w) == _artin_images(twin)), (w, twin)
        verdicts.add(got)
    assert verdicts == {False, True}


def test_invariants_preserved_by_rewrites():
    rng = random.Random(31)
    for _ in range(40):
        w = _random_word(rng)
        w2 = _random_rewrite(rng, w)
        assert exponent_sum(w) == exponent_sum(w2)
        assert permutation(w) == permutation(w2)
        assert components(w) == components(w2)


def test_cable2_respects_braid_relation():
    from word_builders import cable2

    assert equal(cable2(make_word(3, [1, 2, 1])),
                 cable2(make_word(3, [2, 1, 2])))


def test_large_word_normal_form_runs():
    # certificate-scale and headroom-scale words; factor storage stays
    # linear in the word length
    rng = random.Random(5)
    w = _random_word(rng, n=12, length=300)
    nf = normal_form(w)
    assert len(nf.factors) <= 300
    big = _random_word(rng, n=36, length=1200)
    nf_big = normal_form(big)
    assert len(nf_big.factors) <= 1200
    assert equal(big, compose(big, make_word(36, [7, -7])))
