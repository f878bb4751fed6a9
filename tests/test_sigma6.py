"""
sigma6 against independent paths: the delta-halving limit (evaluate the whole
Seifert form at 1/6 + delta for delta = 2^-10, 2^-11, ... until three
consecutive values agree with no extra nullity), the lattice count for torus
links, and exact checks of the certified offset on polynomials whose roots
are known.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

import braidcob.signature as signature
from braidcob.cli import main
from braidcob.replication import torus_word, trefoil_sum_word
from braidcob.seifert import seifert_blocks, seifert_matrix
from braidcob.signature import Sigma6Error, sigma6, signature_at
from braidcob.words import make_word


def _halving_sigma6(w, delta=Fraction(1, 1024), halvings=20):
    V = seifert_matrix(w)
    window = []
    for _ in range(halvings + 1):
        prof = signature_at(V, Fraction(1, 6) + delta)
        if prof.nullity == V.pieces - 1:
            window.append(prof.signature)
        else:
            window = []
        if len(window) >= 3 and len(set(window[-3:])) == 1:
            return -window[-1]
        delta /= 2
    raise Sigma6Error(f"no stable window for {w}")


def _lattice_sigma6(p, q):
    """
    Minus the lattice count of T(p,q) at theta = 1/6 + 1/(12pq), any
    gcd(p, q): past 1/6 and before the next jump, which sits on a multiple
    of 1/pq.
    """
    theta = Fraction(1, 6) + Fraction(1, 12 * p * q)
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            x = (Fraction(i, p) + Fraction(j, q) - theta) % 2
            total += 1 if x > 1 else -1
    return -total


def _seeded_words(seed, count):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(1, 6)
        cols = [c for c in range(1, n) if rng.random() < 0.75]
        letters = [rng.choice(cols) * rng.choice((1, 1, -1))
                   for _ in range(rng.randint(0, 14))] if cols else []
        words.append(make_word(n, letters))
    return words


def _outcome(f, w):
    try:
        return f(w)
    except Sigma6Error:
        return "raises"


def test_sigma6_matches_halving_oracle():
    words = _seeded_words(6161, 220)
    kinds = {"unused column": 0, "split": 0, "several blocks": 0,
             "raises": 0, "mixed signs": 0}
    for w in words:
        expected = _outcome(_halving_sigma6, w)
        assert _outcome(sigma6, w) == expected, w
        used = {abs(k) for k in w.letters}
        kinds["unused column"] += len(used) < w.strands - 1
        kinds["split"] += seifert_matrix(w).pieces > 1
        kinds["several blocks"] += len(seifert_blocks(w)) > 1
        kinds["raises"] += expected == "raises"
        kinds["mixed signs"] += len({k > 0 for k in w.letters}) == 2
    assert min(kinds.values()) >= 15, kinds


@pytest.mark.parametrize("p, qs", [(6, range(1, 31)), (12, range(1, 21))])
def test_sigma6_matches_torus_lattice_count(p, qs):
    for q in qs:
        assert sigma6(torus_word(p, q)) == _lattice_sigma6(p, q), (p, q)


def test_one_evaluation_per_block(monkeypatch):
    calls = []
    real = signature.signature_at

    def counting(w, theta, precision_bits=None):
        calls.append(theta)
        return real(w, theta, precision_bits)

    monkeypatch.setattr(signature, "signature_at", counting)
    cases = [(trefoil_sum_word(5), 5, 10), (torus_word(6, 7), 1, 10),
             (make_word(4, [1, 2, 3]), 0, 0),
             (make_word(5, [1, 1, 1, -4, -4, -4]), 2, 0)]
    for w, blocks, value in cases:
        calls.clear()
        assert sigma6(w) == value
        assert len(calls) == blocks, w


def test_zero_alexander_block_raises_without_evaluating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("signature_at called")

    with monkeypatch.context() as m:
        m.setattr(signature, "signature_at", never)
        with pytest.raises(Sigma6Error, match="Alexander polynomial 0"):
            sigma6(make_word(2, (1, -1)))
        with pytest.raises(Sigma6Error, match="Alexander polynomial 0"):
            sigma6(make_word(4, [1, -1, 3, 3, 3]))
    # a zero block after a trefoil block
    with pytest.raises(Sigma6Error, match="Alexander polynomial 0"):
        sigma6(make_word(4, [1, 1, 1, 3, -3]))


def test_nullity_at_the_certified_offset_is_an_error(monkeypatch):
    real = signature.signature_at

    def singular(w, theta, precision_bits=None):
        prof = real(w, theta, precision_bits)
        return dataclasses.replace(prof, nullity=1)

    monkeypatch.setattr(signature, "signature_at", singular)
    with pytest.raises(Sigma6Error, match="internal error"):
        sigma6(make_word(2, [1, 1, 1]))


def test_cli_sigma6_of_zero_alexander_word_exits_1(capsys):
    code = main(["link", "sigma", "--sigma6", "--strands", "2",
                 "--word", "1,-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "Alexander polynomial 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n", [7, 13, 25, 601, 1199, 1200, 4801])
@pytest.mark.parametrize("phi6_power", [0, 2])
def test_certified_offset_avoids_roots_of_unity(n, phi6_power):
    # t^n - 1 has its roots at exactly theta = k/n; (1/6, 1/6 + delta] must
    # hold none of them
    coeffs = [-1] + [0] * (n - 1) + [1]
    for _ in range(phi6_power):
        coeffs = [a - b + c for a, b, c in
                  zip(coeffs + [0, 0], [0] + coeffs + [0], [0, 0] + coeffs)]
    for start in (Fraction(1, 2), Fraction(1, 1024), Fraction(3, 5000)):
        delta = signature._certified_offset(tuple(coeffs), start)
        assert delta <= start and delta.numerator == 1
        assert delta.denominator & (delta.denominator - 1) == 0
        k = n // 6 + 1  # the first k/n past 1/6
        assert Fraction(k, n) > Fraction(1, 6) + delta, (n, delta)


def test_certified_offset_of_trefoil_is_delta_start():
    # Delta(3_1) = Phi6, so nothing remains to bound
    assert signature._certified_offset((1, -1, 1), Fraction(1, 2)) \
        == Fraction(1, 2)
    assert signature._certified_offset((1, -1, 1), Fraction(1, 3)) \
        == Fraction(1, 4)


def test_sigma6_independent_of_delta_start():
    # delta_start = 1/2 leaves the whole arc (1/6, 2/3] to the certificate,
    # which must stop short of every real jump
    words = [torus_word(2, 5), torus_word(3, 7), torus_word(6, 11),
             torus_word(12, 5), trefoil_sum_word(4)]
    words += [w for w in _seeded_words(77, 40)
              if _outcome(sigma6, w) != "raises"]
    for w in words:
        base = sigma6(w)
        for start in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5000)):
            assert sigma6(w, delta_start=start) == base, (w, start)


@pytest.mark.parametrize("start", [Fraction(0), Fraction(-1, 8),
                                   Fraction(3, 4)])
def test_delta_start_out_of_range(start):
    with pytest.raises(ValueError, match="delta_start"):
        sigma6(make_word(2, [1, 1, 1]), delta_start=start)
