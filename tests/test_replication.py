"""
The generated words, certificates, and bound formulas: light versions of
the isotopy audits (the full grid lives in the acceptance suite).
"""

import math
import random
from fractions import Fraction

import pytest

import braidcob.replication as replication
from braidcob.alexander import alexander
from braidcob.certificates import TCube, verify
from braidcob.garside import equal
from braidcob.replication import (
    BoundReport,
    bbl_word,
    cabled_torus_word,
    clover_bound,
    coxeter_certificate,
    fourstrand_certificate,
    gg_estimate,
    sixstrand_certificate,
    sixstrand_step_count,
    theorem_bound,
    theorem_table,
    torus_word,
    trefoil_stack_certificate,
    trefoil_sum_word,
)
from braidcob.signature import signature_at, torus_signature_oracle
from braidcob.words import components, exponent_sum, make_word


def test_torus_word_examples():
    assert torus_word(2, 3).letters == (1, 1, 1)
    assert components(torus_word(6, 12)) == 6
    for m in (6, 7):
        assert exponent_sum(torus_word(6, m)) == 5 * m
    with pytest.raises(ValueError):
        torus_word(0, 3)


def test_trefoil_sum_word():
    assert trefoil_sum_word(0).letters == ()
    assert trefoil_sum_word(2).letters == (1, 1, 1, 2, 2, 2)
    assert components(trefoil_sum_word(7)) == 1


def test_bbl_word_shape():
    w = bbl_word(1)
    assert w.strands == 3 and len(w) == 18
    for l in (1, 2, 3):
        assert exponent_sum(bbl_word(l)) == 12 * l + 6
        assert components(bbl_word(l)) == 3


def test_bbl_isotopy_audit_small():
    # closure of bbl_word(l) should be T(3,6l+3): invariant audit at l=1
    w, t = bbl_word(1), torus_word(3, 9)
    assert exponent_sum(w) == exponent_sum(t)
    assert components(w) == components(t)
    assert alexander(w).coefficients == alexander(t).coefficients
    for theta in (Fraction(1, 5), Fraction(4, 9)):
        assert signature_at(w, theta).signature == \
            signature_at(t, theta).signature


def test_cabled_torus_word_shape():
    assert exponent_sum(cabled_torus_word(1)) == 90
    for l in (1, 2, 3):
        w = cabled_torus_word(l)
        assert w.strands == 6
        assert len(w) == 60 * l + 30
        assert components(w) == 6
        assert exponent_sum(w) == exponent_sum(torus_word(6, 12 * l + 6))


def test_cabled_isotopy_audit_small():
    w, t = cabled_torus_word(1), torus_word(6, 18)
    for theta in (Fraction(1, 5), Fraction(3, 7)):
        a = signature_at(w, theta)
        b = signature_at(t, theta)
        assert (a.signature, a.nullity) == (b.signature, b.nullity)


def test_fourstrand_certificate():
    cert = fourstrand_certificate()
    cubes = [s for s in cert.steps if isinstance(s, TCube)]
    assert len(cubes) == 10
    rep = verify(cert)
    assert rep.total_cost == 10
    assert cert.end.trefoils_pos == 10
    assert cert.end.closures[0].letters == ()
    assert rep.bound_ok is True


def test_coxeter_certificate():
    cert = coxeter_certificate()
    cubes = [s for s in cert.steps if isinstance(s, TCube)]
    assert len(cubes) == 12
    rep = verify(cert)
    assert rep.total_cost == 12
    assert cert.end.trefoils_pos == 12
    assert rep.bound_ok is True


def test_fourstrand_equivalences_prove_identity_chain():
    # every equivalence in the script passes equal() on its own
    from braidcob.certificates import Equivalence, apply_step
    from braidcob.links import FormalLink

    cert = fourstrand_certificate()
    state = cert.start
    for step in cert.steps:
        if isinstance(step, Equivalence):
            assert equal(state.closures[0], step.target)
        state = apply_step(state, step)


def test_trefoil_stack_certificate():
    rep = verify(trefoil_stack_certificate(0, 1))
    assert rep.total_cost == 2 and rep.lower_bound == 2
    rep = verify(trefoil_stack_certificate(3, 3))
    assert rep.total_cost == 0
    rep = verify(trefoil_stack_certificate(2, 6))
    assert rep.total_cost == 8 == rep.lower_bound
    assert rep.bound_ok is True
    with pytest.raises(ValueError):
        trefoil_stack_certificate(4, 2)


def test_sixstrand_certificate_small():
    cert = sixstrand_certificate(2)
    rep = verify(cert)
    assert rep.bound_ok is True
    assert cert.end.trefoils_pos == 40
    saddles = sum(
        1 for s in cert.steps if s.OP in ("saddle_del", "saddle_ins")
    )
    cubes = sum(1 for s in cert.steps if s.OP == "tcube")
    # 90 cable-phase saddles + 5 + 2 around the concordance + 60 in the tail
    assert saddles == 90 + 5 + 2 + 60
    assert cubes == 10 * 2 + 20
    with pytest.raises(ValueError):
        sixstrand_certificate(1)


def test_sixstrand_step_count_is_28l_plus_152():
    for l in (2, 3):
        assert len(sixstrand_certificate(l).steps) == sixstrand_step_count(l)
        assert sixstrand_step_count(l) == 28 * l + 152


def test_gg_estimate():
    assert gg_estimate(6, 6) == (Fraction(10), 12)
    est, tol = gg_estimate(5, 7)
    assert est == Fraction(175, 18) and tol == 25


def test_clover_bound():
    assert clover_bound(6, 6) == -430
    assert clover_bound(36, 36) == Fraction(5 * 36 * 36, 18) - 20 * 36 * 2 - 200


@pytest.mark.parametrize("m, n", [(0, 3), (-2, 6), (6, 0), (3, -1)])
def test_clover_bound_needs_positive_m_and_n(m, n):
    with pytest.raises(ValueError, match="m, n >= 1"):
        clover_bound(m, n)


def test_theorem_bound_hypothesis_checked():
    with pytest.raises(ValueError, match="7mn/24"):
        theorem_bound(6, 6, 10)


def test_theorem_bound_point():
    rep = theorem_bound(6, 6, 11)
    assert rep.passed
    assert rep.lower <= rep.upper
    assert rep.sigma_estimate == Fraction(10)


def test_theorem_table_grid_small():
    reports = theorem_table([6], [6, 12], [0, 5])
    assert len(reports) == 4
    assert all(r.passed for r in reports)


def test_theorem_table_counts_each_torus_link_once(monkeypatch):
    calls = []
    real = replication.torus_signature_oracle

    def counting(m, n, theta):
        calls.append((m, n))
        return real(m, n, theta)

    monkeypatch.setattr(replication, "torus_signature_oracle", counting)
    reports = theorem_table([6, 7, 12], [6, 7, 12], [0, 5, 10, 20])
    assert len(reports) == 36
    assert sorted(calls) == [(m, n) for m in (6, 7, 12) for n in (6, 7, 12)]


def _fraction_theorem_bound(m, n, N):
    """
    theorem_bound with ceil, round and the evaluation point taken through
    Fraction, one lattice count per row and the estimate from gg_estimate:
    the reference for the integer rows of src.
    """
    if m < 1 or n < 1:
        raise ValueError(f"theorem_bound needs m, n >= 1, got {m},{n}")
    if N < math.ceil(Fraction(7 * m * n, 24)):
        raise ValueError(
            f"theorem_bound needs N >= 7mn/24 = {Fraction(7 * m * n, 24)}, "
            f"got N={N}"
        )
    k = max(1, round(Fraction(m, 6)))
    lq = max(1, round(Fraction(n, 6)))
    adjust = 0 if (m == 6 * k and n == 6 * lq) else 3 * (m + n)
    nongeneric = 36 * k if math.gcd(k, lq) != 1 else 0
    t = -(-(k * lq) // 2)
    upper = (2 * t + 10) + (2 * (N - t) - 10 * k * lq + 200) + nongeneric \
        + adjust
    lower = 2 * N + torus_signature_oracle(
        m, n, Fraction(1, 6) + Fraction(1, 12 * m * n))
    slack = upper - lower
    window = 20 * m + 20 * n + 200
    return BoundReport(
        m=m, n=n, N=N, upper=upper, sigma_estimate=gg_estimate(m, n)[0],
        lower=lower, slack=slack, window=window,
        passed=(lower <= upper) and (0 <= slack <= window),
    )


# round(m / 6) sits on a half at 9, 15, 21, 27 and at 6 * 2^60 + 3 or + 9,
# where a float m / 6 is no longer exact; 10^400 is past any float
_EDGE_VALUES = [1, 2, 3, 9, 15, 21, 27, 6 * 2**60 + 3, 6 * 2**60 + 9,
                10**400]


def test_theorem_table_matches_the_fraction_formula():
    rng = random.Random(2901)
    ms = _EDGE_VALUES + [rng.randrange(1, 10 ** rng.randrange(1, 40))
                         for _ in range(8)]
    ns = rng.sample(ms, len(ms))
    offsets = [0, 1, 13]
    want = [_fraction_theorem_bound(m, n, math.ceil(Fraction(7 * m * n, 24))
                                    + off)
            for m in ms for n in ns for off in offsets]
    got = theorem_table(ms, ns, offsets)
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    for m, n in [(m, n) for m in _EDGE_VALUES for n in _EDGE_VALUES] + \
            [(0, 3), (3, 0), (-2, 6)]:
        N = math.ceil(Fraction(7 * m * n, 24)) - 1
        with pytest.raises(ValueError) as ref:
            _fraction_theorem_bound(m, n, N)
        with pytest.raises(ValueError) as exc:
            theorem_bound(m, n, N)
        assert str(exc.value) == str(ref.value)
        with pytest.raises(ValueError) as exc:
            theorem_table([m], [n], [0, -1])
        assert str(exc.value) == str(ref.value)
