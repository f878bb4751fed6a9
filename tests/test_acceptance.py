"""
Acceptance suite: one test per criterion, each printing a PASS line with
the measured values. Tolerances are pinned here and nowhere else.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import random
import time
from fractions import Fraction
from math import ceil, gcd

import pytest

from braidcob.alexander import alexander
from braidcob.certificates import TCube, verify
from braidcob.garside import equal
from braidcob.links import FormalLink
from braidcob.replication import (
    bbl_word,
    cabled_torus_word,
    coxeter_certificate,
    fourstrand_certificate,
    sixstrand_certificate,
    theorem_bound,
    torus_word,
    trefoil_stack_certificate,
    trefoil_sum_word,
)
from braidcob.signature import sigma6, signature_at, torus_signature_oracle
from braidcob.words import components, exponent_sum, make_word, power


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS  ({detail})")


def test_criterion_01_braid_identities():
    t0 = time.time()
    lhs = power(make_word(4, [1, 2, 3]), 12)
    rhs = power(make_word(4, [1, 1, 3, 2, 1, 1, 1, 3, 2]), 4)
    assert equal(lhs, rhs)
    elapsed_1 = time.time() - t0
    assert elapsed_1 < 1.0

    t0 = time.time()
    assert equal(
        power(make_word(4, [1, 1, 2]), 4), power(make_word(4, [1, 1, 1, 2]), 3)
    )
    elapsed_2 = time.time() - t0
    assert elapsed_2 < 1.0
    _report(
        "1 braid identities",
        f"(abc)^12=(a2cba3cb)^4 in {elapsed_1:.3f}s, "
        f"(a2b)^4=(a3b)^3 in {elapsed_2:.3f}s",
    )


def test_criterion_02_fourstrand_and_coxeter_certificates():
    cert = fourstrand_certificate()
    cubes = [s for s in cert.steps if isinstance(s, TCube)]
    rep = verify(cert)
    assert len(cubes) == 10
    assert rep.total_cost == 10
    assert cert.end.trefoils_pos == 10
    assert cert.end.closures[0].letters == ()
    assert cert.end.closures[0].strands == 4

    cert_cox = coxeter_certificate()
    cubes_cox = [s for s in cert_cox.steps if isinstance(s, TCube)]
    rep_cox = verify(cert_cox)
    assert len(cubes_cox) == 12
    assert rep_cox.total_cost == 12
    assert cert_cox.end.trefoils_pos == 12
    _report(
        "2 t3-move certificates",
        f"fourstrand cost {rep.total_cost} with 10 cubes, "
        f"coxeter cost {rep_cox.total_cost} with 12 cubes",
    )


def test_criterion_03_sigma6_of_trefoil_sums():
    assert sigma6(make_word(2, [1, 1, 1])) == 2
    for n in range(0, 51):
        assert sigma6(FormalLink(trefoils_pos=n)) == 2 * n
        assert sigma6(trefoil_sum_word(n)) == 2 * n
    _report(
        "3 sigma6 normalization",
        "sigma6(3_1)=2 and sigma6(3_1^N)=2N for N<=50, counter and "
        "word forms",
    )


def test_criterion_04_sixstrand_torus_window():
    t0 = time.time()
    errors = []
    for m in range(1, 31):
        value = sigma6(torus_word(6, m))
        err = value - Fraction(5 * m, 3)
        errors.append(err)
        assert abs(err) <= 12, (m, value)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(
        "4 sigma6(T(6,m)) window",
        f"max |E(m)| = {max(abs(e) for e in errors)} <= 12 over m<=30, "
        f"signed range [{min(errors)}, {max(errors)}], {elapsed:.1f}s",
    )


def test_criterion_05_quasimorphism_window():
    worst = Fraction(0)
    for m in (6, 12):
        for n in range(1, 21):
            value = sigma6(torus_word(m, n))
            err = abs(value - Fraction(5 * m * n, 18))
            worst = max(worst, err / m)
            assert err <= 2 * m, (m, n, value)
    _report(
        "5 quasimorphism window",
        f"max |sigma6 - 5mn/18|/m = {float(worst):.2f} <= 2 for "
        f"m in {{6,12}}, n <= 20",
    )


def test_criterion_06_oracle_equivalence():
    rng = random.Random(60606)
    checked = 0
    for p in (2, 3):
        for q in range(2, 14):
            if gcd(p, q) != 1:
                continue
            done = 0
            while done < 20:
                theta = Fraction(rng.randrange(1, 2 * 3 * 4 * 5 * 7), 2520)
                try:
                    want = torus_signature_oracle(p, q, theta)
                except ValueError:
                    continue
                got = signature_at(torus_word(p, q), theta)
                assert got.signature == want, (p, q, theta)
                done += 1
                checked += 1
    _report(
        "6 oracle equivalence",
        f"{checked} exact matches, p in {{2,3}}, q <= 13, random theta",
    )


def test_criterion_07_trefoil_stack_equality():
    rng = random.Random(70707)
    pairs = set()
    while len(pairs) < 10:
        nprime = rng.randrange(1, 21)
        n = rng.randrange(0, nprime)
        pairs.add((n, nprime))
    for n, nprime in sorted(pairs):
        rep = verify(trefoil_stack_certificate(n, nprime))
        assert rep.total_cost == 2 * (nprime - n)
        assert rep.lower_bound == 2 * (nprime - n)
        assert rep.bound_ok is True
    _report(
        "7 trefoil stack distance",
        f"cost = lower bound = 2(n'-n) on {len(pairs)} random pairs",
    )


@pytest.mark.parametrize("l", [2, 3])
def test_criterion_08_sixstrand_certificate(l):
    t0 = time.time()
    cert = sixstrand_certificate(l)
    rep = verify(cert)
    elapsed = time.time() - t0
    assert rep.bound_ok is True
    assert cert.end.trefoils_pos == 20 * l
    sigma_torus = rep.sigma6_start
    window_value = abs(rep.total_cost + sigma_torus - 2 * (20 * l))
    assert window_value <= 200, (l, rep.total_cost, sigma_torus)
    assert elapsed < 120.0
    _report(
        f"8 sixstrand l={l}",
        f"cost {rep.total_cost}, sigma6(T(6,{12 * l + 6}))={sigma_torus}, "
        f"|cost+sigma6-40l| = {window_value} <= 200, {elapsed:.1f}s",
    )


def test_criterion_09_theorem_bound_grid():
    worst = 0
    count = 0
    for m in (6, 12, 18):
        for n in (6, 12, 18):
            base = ceil(Fraction(7 * m * n, 24))
            for off in (0, 5, 10):
                rep = theorem_bound(m, n, base + off)
                assert rep.lower <= rep.upper, rep
                assert 0 <= rep.slack <= rep.window, rep
                worst = max(worst, rep.slack - rep.window)
                count += 1
    _report(
        "9 theorem bound grid",
        f"{count} grid points, lower <= upper and slack within "
        f"20m+20n+200 on all",
    )


@pytest.mark.parametrize("l", [1, 2, 3])
def test_criterion_10_isotopy_audits(l):
    bbl, torus3 = bbl_word(l), torus_word(3, 6 * l + 3)
    assert components(bbl) == components(torus3) == 3
    assert exponent_sum(bbl) == exponent_sum(torus3) == 12 * l + 6
    assert alexander(bbl).coefficients == alexander(torus3).coefficients

    cable, torus6 = cabled_torus_word(l), torus_word(6, 12 * l + 6)
    assert len(cable) == 60 * l + 30
    assert components(cable) == components(torus6) == 6
    assert exponent_sum(cable) == exponent_sum(torus6)
    assert alexander(cable).coefficients == alexander(torus6).coefficients

    rng = random.Random(1000 + l)
    thetas = []
    while len(thetas) < 5:
        theta = Fraction(rng.randrange(1, 360), 360)
        thetas.append(theta)
    for theta in thetas:
        a = signature_at(bbl, theta)
        b = signature_at(torus3, theta)
        assert (a.signature, a.nullity) == (b.signature, b.nullity), theta
        c = signature_at(cable, theta)
        d = signature_at(torus6, theta)
        assert (c.signature, c.nullity) == (d.signature, d.nullity), theta
    _report(
        f"10 isotopy audits l={l}",
        "components, exponent sums, Alexander, and 5 sampled signatures "
        "agree for both word pairs",
    )


def test_criterion_11_stability_of_sigma6():
    # every sigma6 evaluation class used in criteria 3-5, against a value
    # found without Seifert matrices: 2n for n trefoils, and the torus
    # lattice count at 1/6 + 1/(12mn), past 1/6 and before the next jump
    cases = [(trefoil_sum_word(n), 2 * n) for n in (1, 7, 25, 50)]
    torus = [(6, m) for m in range(1, 31)]
    torus += [(m, n) for m in (6, 12) for n in range(1, 21)]
    cases += [(torus_word(m, n), -torus_signature_oracle(
        m, n, Fraction(1, 6) + Fraction(1, 12 * m * n))) for m, n in torus]
    for w, want in cases:
        assert sigma6(w) == want, w
    _report(
        "11 sigma6 stability",
        f"{len(cases)} evaluations equal to 2n for 3_1^n and to the torus "
        f"lattice count just past 1/6",
    )
