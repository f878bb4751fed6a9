"""
Signature fixtures and properties: brute-force eigenvalue oracles for the
tiny cases, the lattice-point torus oracle for the serious ones, and the
invariance properties that pin the convention.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from word_builders import mirror

from braidcob.links import AssertedSummand, FormalLink
from braidcob.seifert import seifert_matrix
from braidcob.signature import (
    Sigma6Error,
    sigma6,
    signature_at,
    torus_signature_oracle,
)
from braidcob.words import (
    components,
    conjugate,
    make_word,
    markov_stabilize,
)


def torus_word(m, n):
    return make_word(m, list(range(1, m)) * n)


def _brute_signature(w, theta):
    """Independent float eigenvalue count; fine for small well-split cases."""
    V = np.array(seifert_matrix(w).rows(), dtype=float)
    if V.size == 0:
        return 0, 0
    om = np.exp(2j * np.pi * float(theta))
    M = (1 - om) * V + (1 - np.conj(om)) * V.T
    ev = np.linalg.eigvalsh(M)
    tol = 1e-8 * max(1.0, float(np.abs(M).sum()))
    return int((ev > tol).sum() - (ev < -tol).sum()), int(
        (np.abs(ev) <= tol).sum()
    )


def test_trefoil_at_half():
    prof = signature_at(make_word(2, [1, 1, 1]), Fraction(1, 2))
    assert (prof.signature, prof.nullity) == (-2, 0)
    assert _brute_signature(make_word(2, [1, 1, 1]), Fraction(1, 2)) == (-2, 0)


def test_trefoil_nullity_at_sixth():
    prof = signature_at(make_word(2, [1, 1, 1]), Fraction(1, 6))
    assert prof.nullity == 1


def test_empty_word_unlink_convention():
    for n in (1, 2, 5):
        prof = signature_at(make_word(n, []), Fraction(2, 7))
        assert prof.signature == 0
        assert prof.nullity == n - 1


def test_theta_range_validated():
    with pytest.raises(ValueError):
        signature_at(make_word(2, [1]), Fraction(3, 2))


def test_figure_eight_signature_zero():
    prof = signature_at(make_word(3, [1, -2, 1, -2]), Fraction(1, 2))
    assert prof.signature == 0


def test_oracle_fixture_values():
    assert torus_signature_oracle(2, 3, Fraction(1, 2)) == -2
    assert torus_signature_oracle(2, 7, Fraction(1, 2)) == -6
    assert torus_signature_oracle(3, 5, Fraction(1, 100)) == 0


def test_oracle_rejects_jump_and_counts_links():
    with pytest.raises(ValueError, match="jump"):
        torus_signature_oracle(2, 3, Fraction(5, 6))
    with pytest.raises(ValueError, match="p, q >= 1"):
        torus_signature_oracle(2, 0, Fraction(1, 2))
    # torus links (gcd > 1) away from the jumps, as the Seifert form has them
    for p, q, theta, want in ((2, 4, Fraction(1, 2), -3),
                              (6, 12, Fraction(1, 6) + Fraction(1, 864), -23)):
        assert torus_signature_oracle(p, q, theta) == want
        assert signature_at(torus_word(p, q), theta).signature == want


def test_oracle_equivalence_random_theta():
    rng = random.Random(2718)
    pairs = [(p, q) for p in (2, 3) for q in range(2, 14)
             if __import__("math").gcd(p, q) == 1]
    for p, q in pairs:
        done = 0
        while done < 20:
            theta = Fraction(rng.randrange(1, 840), 840)
            if theta == 0 or theta == 1:
                continue
            try:
                want = torus_signature_oracle(p, q, theta)
            except ValueError:
                continue
            got = signature_at(torus_word(p, q), theta)
            assert got.signature == want, (p, q, theta)
            done += 1


def test_torus_oracle_at_h_800():
    w = torus_word(2, 801)
    assert seifert_matrix(w).size == 800
    for theta in (Fraction(1, 7), Fraction(2, 5), Fraction(5, 9)):
        prof = signature_at(w, theta)
        assert (prof.signature, prof.nullity) == (
            torus_signature_oracle(2, 801, theta), 0), theta
    past = Fraction(1, 6) + Fraction(1, 12 * 2 * 801)
    assert sigma6(w) == -torus_signature_oracle(2, 801, past) == 268


def test_mirror_antisymmetry():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randrange(2, 6)
        length = rng.randrange(1, 16)
        w = make_word(
            n, [rng.choice([1, -1]) * rng.randrange(1, n)
                for _ in range(length)]
        )
        theta = Fraction(rng.randrange(1, 97), 97)
        a = signature_at(w, theta)
        b = signature_at(mirror(w), theta)
        assert a.signature == -b.signature
        assert a.nullity == b.nullity


def test_isotopy_invariance_conjugation_stabilization():
    rng = random.Random(44)
    for _ in range(20):
        n = rng.randrange(2, 7)
        length = rng.randrange(1, 14)
        w = make_word(
            n, [rng.choice([1, -1]) * rng.randrange(1, n)
                for _ in range(length)]
        )
        g = make_word(
            n, [rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(4)]
        )
        theta = Fraction(rng.randrange(1, 101), 101)
        base = signature_at(w, theta)
        conj = signature_at(conjugate(w, g), theta)
        stab = signature_at(markov_stabilize(w, rng.choice([1, -1])), theta)
        assert (base.signature, base.nullity) == (conj.signature, conj.nullity)
        assert (base.signature, base.nullity) == (stab.signature, stab.nullity)


def test_sigma6_trefoil_and_mirror():
    assert sigma6(make_word(2, [1, 1, 1])) == 2
    assert sigma6(make_word(2, [-1, -1, -1])) == -2


def test_sigma6_unknot_zero():
    assert sigma6(make_word(1, [])) == 0
    assert sigma6(make_word(3, [1, 2])) == 0


def test_sigma6_additive_over_connected_sum_words():
    # single-word connected sums against formal sums
    from braidcob.replication import trefoil_sum_word

    for n in (1, 2, 3, 5):
        assert sigma6(trefoil_sum_word(n)) == 2 * n
        formal = FormalLink(trefoils_pos=n)
        assert sigma6(formal) == 2 * n


def test_sigma6_additive_over_closure_multiset():
    link = FormalLink(
        closures=(make_word(2, [1, 1, 1]), make_word(2, [-1, -1, -1])),
        trefoils_pos=2,
    )
    assert sigma6(link) == 2 - 2 + 4


def test_sigma6_asserted_summands():
    ok = FormalLink(
        assertions=(AssertedSummand("trivial-3", 3, 0, "unlink"),),
        trefoils_pos=1,
    )
    assert sigma6(ok) == 2
    bad = FormalLink(
        assertions=(AssertedSummand("mystery", 2, None, "unknown"),)
    )
    with pytest.raises(Sigma6Error, match="unknown summand"):
        sigma6(bad)


def test_sigma6_torus_window():
    # |sigma6(T(6,m)) - 5m/3| <= 12, sampled
    for m in (6, 9, 13):
        val = sigma6(torus_word(6, m))
        assert abs(val - Fraction(5 * m, 3)) <= 12


def test_sigma6_stability_under_schedule_shift():
    # sigma6 is read at one certified point per block, with no schedule to
    # shift: check it against the lattice count just past 1/6, at 1/6 +
    # 1/(12mn), before the next jump
    for m, n in ((2, 3), (3, 7), (6, 6)):
        theta = Fraction(1, 6) + Fraction(1, 12 * m * n)
        assert sigma6(torus_word(m, n)) == \
            -torus_signature_oracle(m, n, theta), (m, n)


def test_step_constancy_between_alexander_roots():
    # the signature is constant on theta intervals free of unit-circle
    # Alexander roots: sample T(2,7), whose jumps sit at odd k/14
    w = torus_word(2, 7)
    jumps = [Fraction(k, 14) for k in range(1, 14, 2)]
    rng = random.Random(8)
    for lo, hi in zip(jumps, jumps[1:]):
        samples = sorted(
            lo + (hi - lo) * Fraction(rng.randrange(1, 50), 50)
            for _ in range(3)
        )
        values = {signature_at(w, th).signature for th in samples}
        assert len(values) == 1


def test_frozen_fixture_file():
    """
    Replay the versioned fixture file: every stored (word, theta) must
    reproduce its signature and nullity, and the knot entries must also
    match the lattice oracle. sigma6(T(6,12)) = 23 sits inside the stated
    |v - 20| <= 12 window via the 1/6+delta entries.
    """
    import json
    import pathlib
    from math import gcd

    path = pathlib.Path(__file__).parent / "fixtures" / "signatures.json"
    data = json.loads(path.read_text())
    assert data["version"] == 1
    from braidcob.words import BraidWord

    for fx in data["fixtures"]:
        w = BraidWord.from_json(fx["word"])
        theta = Fraction(fx["theta_num"], fx["theta_den"])
        prof = signature_at(w, theta)
        assert prof.signature == fx["signature"], fx
        assert prof.nullity == fx["nullity"], fx
        letters = [abs(k) for k in w.letters]
        if letters and letters == sorted(letters):
            continue  # not a plain torus word
    # oracle cross-checks for the torus-knot entries
    for p, q, num, den in ((2, 5, 1, 3), (2, 7, 1, 2), (3, 4, 1, 2),
                           (3, 5, 1, 100), (3, 7, 2, 5)):
        assert gcd(p, q) == 1
        theta = Fraction(num, den)
        assert (
            torus_signature_oracle(p, q, theta)
            == signature_at(torus_word(p, q), theta).signature
        )
    assert sigma6(torus_word(6, 12)) == 23
    assert abs(23 - 20) <= 12


def _ldl_profile(V, theta):
    """
    The mpmath LDL^T on the whole Seifert matrix V at theta, the oracle for
    signature_at, with nullity zeros + V.pieces - 1 as for a braid word.
    """
    from braidcob import signature

    total, zeros, bits = signature._ldl_signature(V, theta)
    return signature.SignatureProfile(theta, total, zeros + V.pieces - 1,
                                      bits)


def _dense_inertia(M, eps):
    """
    Symmetrically pivoted LDL^T with 1x1 and 2x2 pivots on full storage:
    signature_at's fallback engine before the sparse LDL^T replaced it.
    """
    from mpmath import mp, mpf

    h = len(M)
    A = [row[:] for row in M]
    alive = list(range(h))
    pos = neg = zero = 0
    while alive:
        # best 1x1 pivot
        bk = max(alive, key=lambda i: abs(A[i][i].real))
        dmax = abs(A[bk][bk].real)
        if dmax > eps:
            d = A[bk][bk].real
            if d > 0:
                pos += 1
            else:
                neg += 1
            alive.remove(bk)
            col = {i: A[i][bk] for i in alive}
            for i in alive:
                fi = col[i] / d
                if fi == 0:
                    continue
                for j in alive:
                    A[i][j] -= fi * mp.conj(col[j])
            continue
        # best off-diagonal
        bi = bj = None
        omax = mpf(0)
        for x in range(len(alive)):
            for y in range(x + 1, len(alive)):
                v = abs(A[alive[x]][alive[y]])
                if v > omax:
                    omax = v
                    bi, bj = alive[x], alive[y]
        if bi is None or omax <= eps:
            zero += len(alive)
            break
        # 2x2 pivot block [[a, b], [conj(b), c]] with tiny a, c: inertia (+1, -1)
        a = A[bi][bi].real
        c = A[bj][bj].real
        b = A[bi][bj]
        det = a * c - (b.real * b.real + b.imag * b.imag)
        pos += 1
        neg += 1
        alive.remove(bi)
        alive.remove(bj)
        coli = {i: A[i][bi] for i in alive}
        colj = {i: A[i][bj] for i in alive}
        for i in alive:
            vi, vj = coli[i], colj[i]
            # [xi, xj] = [vi, vj] * inv(block)
            xi = (vi * c - vj * mp.conj(b)) / det
            xj = (vj * a - vi * b) / det
            for j in alive:
                A[i][j] -= xi * mp.conj(coli[j]) + xj * mp.conj(colj[j])
    return pos, neg, zero


def _dense_profile(w, theta, paths):
    """
    signature_at as it was before the sparse LDL^T: every entry of the
    dense form in mpmath, the row-sum scale over all of them, an unpivoted
    band LDL^T on the time-ordered lower triangle at eps 2^(-prec/3) that
    gives up on a wide band or a small pivot, then the dense engine above
    at eps 2^(-prec/2). Adds the path taken ("none", "band" or "dense") to
    paths.
    """
    from mpmath import mp, mpc, mpf, workprec

    from braidcob import signature

    V = seifert_matrix(w)
    h = V.size

    def band(M, eps):
        A = [[M[i][j] for j in range(i + 1)] for i in range(h)]
        width = max([i - j for i in range(h) for j in range(i)
                     if A[i][j] != 0], default=0)
        if width * width * 3 >= h * h:
            return None
        pos = neg = 0
        for k in range(h):
            d = A[k][k].real
            if abs(d) <= eps:
                return None
            if d > 0:
                pos += 1
            else:
                neg += 1
            for i in range(k + 1, min(h, k + width + 1)):
                f = A[i][k] / d
                if f == 0:
                    continue
                for j in range(k + 1, i + 1):
                    A[i][j] -= f * mp.conj(A[j][k])
        return pos, neg, 0

    def inertia(prec):
        with workprec(prec):
            ang = 2 * mp.pi * mpf(theta.numerator) / theta.denominator
            c1 = 1 - mpc(mp.cos(ang), mp.sin(ang))
            c2 = mp.conj(c1)
            rows = V.rows()
            M = [[c1 * rows[i][j] + c2 * rows[j][i] for j in range(h)]
                 for i in range(h)]
            if h == 0:
                paths.add("none")
                return 0, 0, 0
            scale = max(sum(abs(x) for x in row) for row in M)
            if scale == 0:
                paths.add("none")
                return 0, 0, h
            got = band(M, scale * mpf(2) ** (-(prec // 3)))
            paths.add("band" if got else "dense")
            if got is not None:
                return got
            return _dense_inertia(M, scale * mpf(2) ** (-(prec // 2)))

    prec = signature.precision_default()
    last = inertia(prec)
    while prec * 2 <= signature.PRECISION_CAP_BITS:
        check = inertia(prec * 2)
        if check == last:
            pos, neg, zero = check
            return signature.SignatureProfile(
                theta, pos - neg, zero + V.pieces - 1, prec)
        last, prec = check, prec * 2
    return "unresolved"


def test_sparse_form_matches_dense_construction():
    rng = random.Random(97)
    words = [make_word(1, []), make_word(3, []), torus_word(2, 7),
             torus_word(6, 5), torus_word(3, 10)]
    for _ in range(40):
        n = rng.randint(2, 7)
        words.append(make_word(n, [rng.randint(1, n - 1) * rng.choice((1, -1))
                                   for _ in range(rng.randint(0, 24))]))
    thetas = [Fraction(1, 2), Fraction(1, 6), Fraction(1, 3),
              Fraction(1, 6) + Fraction(1, 1024), Fraction(389, 1009),
              Fraction(13, 14)]
    paths = set()
    for w in words:
        for theta in thetas:
            want = _dense_profile(w, theta, paths)
            assert _ldl_profile(seifert_matrix(w), theta) == want, (w, theta)
            got = signature_at(w, theta)
            assert (got.signature, got.nullity) == (
                want.signature, want.nullity), (w, theta)
    assert paths == {"none", "band", "dense"}


def _split_words(seed, count):
    """Words that leave one column unused, so the closure is split."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(3, 7)
        cut = rng.randint(1, n - 1)
        cols = [c for c in range(1, n) if c != cut]
        words.append(make_word(n, [rng.choice(cols) * rng.choice((1, 1, -1))
                                   for _ in range(rng.randint(1, 16))]))
    return words


def _zero_tail_words(seed, count):
    """
    A short positive prefix, then letters whose sign flips in each column,
    so the late loops in time order have two bands of opposite sign and a
    zero diagonal in the form.
    """
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(2, 6)
        letters = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))]
        sign = {}
        for _ in range(rng.randint(2, 16)):
            c = rng.randint(1, n - 1)
            s = sign.get(c, rng.choice((1, -1)))
            sign[c] = -s
            letters.append(c * s)
        words.append(make_word(n, letters))
    return words


def test_sparse_ldl_matches_dense_oracle_on_differential_corpus(monkeypatch):
    from braidcob import signature
    from braidcob.replication import cabled_torus_word

    rng = random.Random(360)
    cases = [(w, Fraction(k, 360))
             for w in (torus_word(6, 18), cabled_torus_word(1))
             for k in rng.sample(range(1, 360), 6)]
    # links at the roots of their Alexander polynomials, e.g. T(2,4) at 1/4
    # and T(3,3) at 1/3, where the form is singular
    for p, q in ((2, 4), (3, 3), (2, 6), (4, 4), (3, 6), (4, 6), (6, 6)):
        cases += [(torus_word(p, q), Fraction(a, b))
                  for b in (2, 3, 4, 6) for a in range(1, b)]
    cases += [(w, Fraction(rng.randrange(1, 12), 12))
              for w in _split_words(7, 40) + _zero_tail_words(11, 80)]
    seen = []
    real = signature._inertia_at

    def recording(V, theta, prec):
        seen.append(real(V, theta, prec))
        return seen[-1]

    monkeypatch.setattr(signature, "_inertia_at", recording)
    ran = {"swap": 0, "shear": 0, "zero tail": 0, "split": 0}
    paths = set()
    for w, theta in cases:
        seen.clear()
        prof = _ldl_profile(seifert_matrix(w), theta)
        assert prof == _dense_profile(w, theta, paths), (w, theta)
        _, _, zero, swaps, shears = seen[0]
        ran["swap"] += swaps > 0
        ran["shear"] += shears > 0
        ran["zero tail"] += zero > 0
        ran["split"] += seifert_matrix(w).pieces > 1
    assert min(ran.values()) >= 15, ran
    assert {"band", "dense"} <= paths


def test_deferred_row_refilled_by_a_later_pivot_is_not_a_zero():
    """
    Row 2 is at most eps when the shear at pivot 0 leaves it behind, and it
    is deferred; the next pivot refills it. Counting it as a zero at once
    would report (2, 1, 1); the eigenvalues are +-1 and +-2*eps.
    """
    from mpmath import mpc, mpf, workprec

    from braidcob.signature import _ldl_inertia

    e = mpf(2) ** -20
    A = [[0, 2 * e, e / 2, 0], [2 * e, 0, 0, -e / 2],
         [e / 2, 0, 0, 1], [0, -e / 2, 1, 0]]
    ev = np.linalg.eigvalsh(np.array(A, dtype=float))
    assert (ev > float(e)).sum() == (ev < -float(e)).sum() == 2
    rows = [{j: mpc(x) for j, x in enumerate(row) if x} for row in A]
    with workprec(128):
        assert _ldl_inertia(rows, e)[:3] == (2, 2, 0)


def test_precision_doubles_to_the_cap_then_raises(monkeypatch, capsys):
    from braidcob import signature
    from braidcob.cli import main
    from braidcob.signature import PRECISION_CAP_BITS, PrecisionError

    asked = []

    def unstable(V, theta, prec):
        asked.append(prec)
        return prec, 0, 0, 0, 0  # a different count at every precision

    # theta = 1/6 is a root of the trefoil's Alexander polynomial, so the
    # word reaches the LDL^T there, as the whole matrix does at any theta
    monkeypatch.setattr(signature, "_inertia_at", unstable)
    trefoil = make_word(2, [1, 1, 1])
    V = seifert_matrix(trefoil)
    for run in (lambda: signature_at(trefoil, Fraction(1, 6)),
                lambda: _ldl_profile(V, Fraction(1, 6)),
                lambda: _ldl_profile(V, Fraction(1, 2))):
        asked.clear()
        with pytest.raises(PrecisionError,
                           match=f"{PRECISION_CAP_BITS} bits"):
            run()
        assert asked == [128, 256, 512, 1024, 2048, 4096]
    asked.clear()
    code = main(["link", "sigma", "--theta", "1/6",
                 "--strands", "2", "--word", "1,1,1"])
    assert code == 1 and "precision unresolved" in capsys.readouterr().err
    assert asked == [128, 256, 512, 1024, 2048, 4096]

    def settles(V, theta, prec):
        # the counts reproduce from 512 bits on; the shear count never does
        # and is not compared
        asked.append(prec)
        return (1, 0, 0, 0, prec) if prec >= 512 else (prec, 0, 0, 0, 0)

    monkeypatch.setattr(signature, "_inertia_at", settles)
    for run in (lambda: signature_at(trefoil, Fraction(1, 6)),
                lambda: _ldl_profile(V, Fraction(1, 6))):
        asked.clear()
        prof = run()
        assert (prof.signature, prof.precision_bits) == (1, 512)
        assert asked == [128, 256, 512, 1024]


def test_no_environment_variable_changes_a_result(monkeypatch, capsys):
    """
    The LDL^T starts at 128 bits whatever BRAIDCOB_PRECISION_BITS, the
    starting precision of earlier versions, holds: unset, not an integer,
    or outside [64, 2048], the profiles and the CLI output are the same.
    """
    from braidcob import signature
    from braidcob.cli import main

    trefoil, t37 = make_word(2, [1, 1, 1]), torus_word(3, 7)
    for value in (None, "abc", "0", "64", "3000"):
        if value is None:
            monkeypatch.delenv("BRAIDCOB_PRECISION_BITS", raising=False)
        else:
            monkeypatch.setenv("BRAIDCOB_PRECISION_BITS", value)
        signature._kept_record.cache_clear()
        assert signature.precision_default() == 128
        for w, theta, want in (
                (trefoil, Fraction(1, 6), (-1, 1, 128)),  # a root of Delta
                (t37, Fraction(1, 21), (-1, 1, 128)),
                (make_word(4, [1, 1, 1, 3, -3]), Fraction(1, 3),
                 (-2, 2, 128)),
                (t37, Fraction(13, 60), (-6, 0, 0)),  # off the roots
                (trefoil, Fraction(1, 2), (-2, 0, 0)),
                (trefoil, Fraction(1, 3), (-2, 0, 0))):
            prof = signature_at(w, theta)
            got = (prof.signature, prof.nullity, prof.precision_bits)
            assert got == want, (value, w, theta)
        # the LDL^T on the whole matrix, at any theta
        for w, theta, want in ((trefoil, Fraction(1, 2), (-2, 0, 128)),
                               (t37, Fraction(13, 60), (-6, 0, 128))):
            prof = _ldl_profile(seifert_matrix(w), theta)
            got = (prof.signature, prof.nullity, prof.precision_bits)
            assert got == want, (value, w, theta)
        for theta, out in (("1/6", "signature -1, nullity 1\n"),
                           ("1/3", "signature -2, nullity 0\n")):
            code = main(["link", "sigma", "--strands", "2", "--word",
                         "1,1,1", "--theta", theta])
            assert (code, capsys.readouterr()) == (0, (out, "")), value


def _exact_path_cases(seed):
    """
    Seeded (word, theta) pairs: random knots and links, split words, torus
    words and zero-diagonal words, at random k/b on both halves of the
    circle, at theta = 1/2, next to the trefoil's root 1/6, at the roots of
    unity of small order and at tiny theta.
    """
    rng = random.Random(seed)
    words = [torus_word(2, 3), torus_word(2, 4), torus_word(3, 4),
             torus_word(3, 6), torus_word(2, 6)]
    for _ in range(250):
        n = rng.randint(2, 6)
        words.append(make_word(n, [rng.randint(1, n - 1) * rng.choice((1, -1))
                                   for _ in range(rng.randint(1, 14))]))
    words += _split_words(seed + 1, 60) + _zero_tail_words(seed + 2, 60)
    near = Fraction(1, 10 ** 9)
    special = [Fraction(1, 2), Fraction(1, 6) - near, Fraction(1, 6) + near,
               Fraction(5, 6) + near, Fraction(1, 10 ** 12),
               1 - Fraction(1, 10 ** 12)]
    cases = []
    for w in words:
        thetas = [Fraction(rng.randrange(1, 1009), 1009),
                  Fraction(rng.randrange(505, 1009), 1009),
                  Fraction(rng.randrange(1, 12), 12),
                  Fraction(rng.randrange(1, 60), 60),
                  rng.choice(special), rng.choice(special)]
        cases += [(w, theta) for theta in thetas]
    return cases


def test_exact_path_matches_ldl_on_differential_corpus(monkeypatch):
    """
    signature_at on a braid word counts each block off its roots exactly;
    the mpmath LDL^T on the whole Seifert matrix is the oracle.
    """
    from braidcob import signature

    calls = []
    real = signature._inertia_at

    def counting(V, theta, prec):
        calls.append(theta)
        return real(V, theta, prec)

    monkeypatch.setattr(signature, "_inertia_at", counting)
    cases = _exact_path_cases(1009)
    assert len(cases) >= 2000
    kinds = {"exact": 0, "jump": 0, "link": 0, "split": 0, "past 1/2": 0,
             "near 1/6": 0, "tiny": 0, "nonzero nullity": 0}
    for w, theta in cases:
        calls.clear()
        got = signature_at(w, theta)
        exact = not calls
        want = _ldl_profile(seifert_matrix(w), theta)
        assert (got.signature, got.nullity) == (
            want.signature, want.nullity), (w, theta)
        assert (got.precision_bits == 0) == exact, (w, theta)
        kinds["exact"] += exact
        kinds["jump"] += not exact
        kinds["link"] += exact and components(w) > 1
        kinds["split"] += exact and seifert_matrix(w).pieces > 1
        kinds["past 1/2"] += exact and theta > Fraction(1, 2)
        kinds["near 1/6"] += exact and abs(theta - Fraction(1, 6)) < 1e-6
        kinds["tiny"] += exact and min(theta, 1 - theta) < 1e-9
        kinds["nonzero nullity"] += exact and got.nullity > 0
    assert min(kinds.values()) >= 30, kinds
    assert kinds["exact"] >= 1500, kinds


def test_signature_at_is_the_sum_over_block_occurrences():
    """
    signature_at(w) evaluates each distinct Seifert block once and counts it
    with its multiplicity; the oracle evaluates every occurrence on its own
    and adds the surface's extra pieces to the nullity.
    """
    from braidcob.replication import trefoil_sum_word
    from braidcob.seifert import _surface_pieces, seifert_blocks
    from braidcob.signature import SignatureProfile

    rng = random.Random(4711)
    cases = [case for case in _exact_path_cases(1009) if rng.random() < 0.3]
    cases += [(w, Fraction(rng.randrange(1, 12), 12))
              for w in _split_words(7, 40) + _zero_tail_words(11, 80)]
    # equal blocks off and on their roots, and equal blocks with Delta = 0
    repeated = [trefoil_sum_word(6), make_word(7, [1, -1, 3, -3, 5, -5]),
                make_word(8, [1, 1, 1, -3, -3, -3, 5, 5, 5, 7, -7]),
                make_word(9, [1, 2] * 4 + [5, 6] * 4 + [8, 8, 8])]
    cases += [(w, theta) for w in repeated
              for theta in (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2),
                            Fraction(7, 12), Fraction(2, 7))]
    repeats = 0
    for w, theta in cases:
        blocks = seifert_blocks(w)
        parts = [signature_at(block, theta) for block in blocks]
        want = SignatureProfile(
            theta, sum(p.signature for p in parts),
            sum(p.nullity for p in parts) + _surface_pieces(w) - 1,
            max((p.precision_bits for p in parts), default=0))
        assert signature_at(w, theta) == want, (w, theta)
        repeats += len(set(blocks)) < len(blocks)
    assert len(cases) >= 700 and repeats >= 20, (len(cases), repeats)


def test_ldl_runs_only_at_a_root_of_a_block(monkeypatch):
    from braidcob import signature

    calls = []
    real = signature._inertia_at

    def counting(V, theta, prec):
        calls.append(V.size)
        return real(V, theta, prec)

    monkeypatch.setattr(signature, "_inertia_at", counting)
    trefoil, t37 = make_word(2, [1, 1, 1]), torus_word(3, 7)
    for w, theta, want in ((trefoil, Fraction(1, 3), (-2, 0)),
                           (t37, Fraction(13, 60), (-6, 0))):
        calls.clear()
        prof = signature_at(w, theta)
        assert (prof.signature, prof.nullity, prof.precision_bits) == (
            *want, 0)
        assert calls == [], (w, theta)
    # Phi_6 divides Delta(3_1), Phi_21 divides Delta(T(3,7)), and the
    # second block of the last word is sigma_1 sigma_1^-1, with Delta = 0;
    # only that block reaches the LDL^T, the trefoil block stays exact
    for w, theta, want, sizes in (
            (trefoil, Fraction(1, 6), (-1, 1), {2}),
            (t37, Fraction(1, 21), (-1, 1), {12}),
            (make_word(4, [1, 1, 1, 3, -3]), Fraction(1, 3), (-2, 2), {1})):
        calls.clear()
        prof = signature_at(w, theta)
        assert (prof.signature, prof.nullity, prof.precision_bits) == (
            *want, 128)
        assert calls and set(calls) == sizes, (w, theta, calls)


def _exact_quotient(a, b):
    """a / b in Z[t], coefficient lists lowest first; b must divide a."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i], rem = divmod(a[i + len(b) - 1], b[-1])
        assert not rem, (a, b)
        for j, y in enumerate(b, i):
            a[j] -= q[i] * y
    assert not any(a), (a, b)
    return q


def _cyclotomic_by_division(b):
    """Phi_b = (t^b - 1) / prod of Phi_d over the proper divisors d of b."""
    poly = [-1] + [0] * (b - 1) + [1]
    for d in range(1, b):
        if b % d == 0:
            poly = _exact_quotient(poly, _cyclotomic_by_division(d))
    return poly


def _divides(f, g):
    """Whether the monic f divides g in Z[t], by long division."""
    r = list(g)
    for top in range(len(r) - 1, len(f) - 2, -1):
        c = r[top]
        for j, x in enumerate(f, top - len(f) + 1):
            r[j] -= c * x
    return not any(r)


def test_cyclotomic_test_is_exact_on_both_sides_of_the_cut():
    """
    _vanishes_at(coeffs, b) says whether Phi_b divides the polynomial; past
    b = 2*deg^2 it answers without a division, since phi(b) >= sqrt(b/2).
    """
    from braidcob.alexander import alexander
    from braidcob.signature import _vanishes_at

    from math import gcd

    phis = {b: _cyclotomic_by_division(b) for b in range(2, 120)}

    def mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        return out

    rng = random.Random(6)
    polys = [alexander(torus_word(p, q)).coefficients
             for p, q in ((2, 3), (2, 5), (3, 4), (3, 5), (2, 4), (4, 6),
                          (3, 7))]
    for _ in range(40):
        f = [1]
        for b in rng.sample(range(2, 40), rng.randint(1, 3)):
            f = mul(f, phis[b])
        f = mul(f, [rng.choice((1, -1, 2, 3)), rng.choice((0, 1, -1))])
        polys.append(tuple(f) if f[-1] else tuple(f[:-1]))
    below = above = hits = 0
    for coeffs in polys:
        deg = len(coeffs) - 1
        for b in range(2, min(119, 2 * deg * deg + 40)):
            want = len(phis[b]) - 1 <= deg and _divides(phis[b], coeffs)
            assert _vanishes_at(coeffs, b) == want, (coeffs, b)
            below += b <= 2 * deg * deg
            above += b > 2 * deg * deg
            hits += want
    assert min(below, above, hits) >= 100, (below, above, hits)
    assert _vanishes_at((0,), 10 ** 12) and not _vanishes_at((5,), 2)
    # the cut is sound: phi(b) >= sqrt(b/2)
    for b in range(1, 5000):
        phi = sum(1 for k in range(1, b + 1) if gcd(k, b) == 1)
        assert 2 * phi * phi >= b, b


def test_cyclotomic_test_on_blocks_of_high_degree():
    """
    _vanishes_at agrees with long division by Phi_b where deg Delta is far
    above b: T(6, 408) (degree 2035), cabled_torus_word(8) (degree 505)
    and a 400-letter mixed-sign 6-strand word (degree 135, coefficients of
    up to 80 bits), at every b from 2 to 59; and a 1024-bit denominator is
    never a root.
    """
    from braidcob.alexander import alexander
    from braidcob.replication import cabled_torus_word
    from braidcob.signature import _vanishes_at

    rng = random.Random(1)
    mixed = make_word(6, [rng.choice((1, -1)) * rng.randint(1, 5)
                          for _ in range(400)])
    phis = {b: _cyclotomic_by_division(b) for b in range(2, 60)}
    for w, hits in ((torus_word(6, 408), 10), (cabled_torus_word(8), 6),
                    (mixed, 0)):
        coeffs = alexander(w).coefficients
        assert len(coeffs) - 1 > 2 * max(phis), len(coeffs)
        got = [b for b in phis if _vanishes_at(coeffs, b)]
        assert got == [b for b in phis if _divides(phis[b], coeffs)]
        assert len(got) == hits, got
        assert not _vanishes_at(coeffs, (1 << 1023) + 1)
