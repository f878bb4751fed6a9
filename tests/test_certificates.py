"""
Step semantics, replay, the lower-bound report, and the JSON wire format.
"""

import dataclasses
import hashlib
import json
import time

import pytest
from test_cli import far_commuted_twins

from braidcob.certificates import (
    CertificateError,
    CobordismCertificate,
    ConcordanceAssertion,
    Conjugation,
    CrossingChange,
    Equivalence,
    MarkovDestab,
    MarkovStab,
    SaddleDelete,
    SaddleInsert,
    StepError,
    SumMerge,
    SumSplit,
    TCube,
    apply_step,
    verify,
)
from braidcob.links import AssertedSummand, FormalLink, same_link
from braidcob.words import MAX_WIRE_LETTERS, MAX_WIRE_STRANDS, make_word


def tre():
    return make_word(2, [1, 1, 1])


def state(*words, tpos=0, tneg=0, assertions=()):
    return FormalLink(
        closures=tuple(words),
        trefoils_pos=tpos,
        trefoils_neg=tneg,
        assertions=tuple(assertions),
    )


def test_tcube_on_trefoil():
    out = apply_step(state(tre()), TCube(0, 0, 1, 1))
    assert out.closures[0].letters == ()
    assert out.trefoils_pos == 1
    assert TCube.COST == 1


def test_tcube_requires_literal_substring():
    with pytest.raises(StepError, match="absent"):
        apply_step(state(make_word(3, [1, 2, 1])), TCube(0, 0, 1, 1))
    with pytest.raises(StepError, match="absent"):
        apply_step(state(tre()), TCube(0, 1, 1, 1))
    # a position must lie in the word; as a slice index, -6 would find the
    # first cube of [1,1,1,2,2,2]
    w = make_word(3, [1, 1, 1, 2, 2, 2])
    for pos, gen in ((-6, 1), (-1, 2), (4, 2)):
        with pytest.raises(StepError, match="absent"):
            apply_step(state(w), TCube(0, pos, gen, 1))


def test_negative_tcube_counts_negative_trefoil():
    out = apply_step(
        state(make_word(2, [-1, -1, -1])), TCube(0, 0, 1, -1)
    )
    assert out.trefoils_neg == 1


def test_equivalence_checks_group_equality():
    s = state(make_word(3, [1, 2, 1]))
    out = apply_step(s, Equivalence(0, make_word(3, [2, 1, 2])))
    assert out.closures[0].letters == (2, 1, 2)
    with pytest.raises(StepError, match="equivalence fails"):
        apply_step(s, Equivalence(0, make_word(3, [1, 2])))


def test_saddle_steps():
    s = state(make_word(3, [1, 2]))
    out = apply_step(s, SaddleDelete(0, 1))
    assert out.closures[0].letters == (1,)
    out = apply_step(s, SaddleInsert(0, 2, -2))
    assert out.closures[0].letters == (1, 2, -2)
    with pytest.raises(StepError, match="out of range"):
        apply_step(state(make_word(2, [])), SaddleDelete(0, 0))


@pytest.mark.parametrize("step, text", [
    (Equivalence(0, make_word(3, [1])), "equiv: strand count mismatch"),
    (Conjugation(0, make_word(3, [2])), "conj: strand count mismatch"),
    (MarkovStab(0, 0), "stab: stabilization sign"),
    (MarkovDestab(0), "destab: destabilization needs"),
    (SaddleInsert(0, 0, 5), "saddle_ins: letter 5"),
])
def test_word_errors_become_step_errors_naming_the_op(step, text):
    with pytest.raises(StepError, match=text) as exc:
        apply_step(state(tre()), step)
    assert exc.value.index is None


def test_crossing_change():
    out = apply_step(state(tre()), CrossingChange(0, 1))
    assert out.closures[0].letters == (1, -1, 1)


def test_markov_steps():
    s = state(tre())
    up = apply_step(s, MarkovStab(0, 1))
    assert up.closures[0].strands == 3
    down = apply_step(up, MarkovDestab(0))
    assert down.closures[0].letters == (1, 1, 1)
    with pytest.raises(StepError):
        apply_step(s, MarkovDestab(0))


def test_conjugation_step():
    s = state(make_word(3, [1, 2]))
    out = apply_step(s, Conjugation(0, make_word(3, [2])))
    assert out.closures[0].letters == (2, 1, 2, -2)


def test_assertion_checks_components():
    s = state(make_word(4, []))  # 4-component unlink closure
    ok = apply_step(
        s,
        ConcordanceAssertion(
            0, to=AssertedSummand("trivial-4", 4, 0, "cited")
        ),
    )
    assert ok.closures == ()
    assert ok.assertions[0].label == "trivial-4"
    with pytest.raises(StepError, match="component count"):
        apply_step(
            s,
            ConcordanceAssertion(
                0, to=AssertedSummand("knot", 1, 0, "cited")
            ),
        )


def test_assertion_to_word():
    s = state(make_word(2, [1, 1]))  # Hopf link, 2 components
    out = apply_step(
        s, ConcordanceAssertion(0, to=make_word(2, [1, 1, 1, 1]))
    )
    assert out.closures[0].letters == (1, 1, 1, 1)
    with pytest.raises(StepError, match="component count"):
        apply_step(
            s, ConcordanceAssertion(0, to=make_word(3, [1, 1, 2, 2]))
        )


def test_sum_split_and_merge():
    s = state(make_word(5, [1, 4, 1]))
    split = apply_step(s, SumSplit(0, 2))
    assert [w.strands for w in split.closures] == [2, 3]
    assert split.closures[0].letters == (1, 1)
    assert split.closures[1].letters == (2,)
    merged = apply_step(split, SumMerge(0, 1, "disjoint"))
    assert merged.closures[0].strands == 5
    with pytest.raises(StepError, match="column in use"):
        apply_step(s, SumSplit(0, 1))


def test_sum_merge_connected_is_connected_sum():
    s = state(tre(), tre())
    merged = apply_step(s, SumMerge(0, 1, "connected"))
    assert merged.closures[0].strands == 3
    assert merged.closures[0].letters == (1, 1, 1, 2, 2, 2)


def test_verify_empty_certificate_on_unknot():
    cert = CobordismCertificate(
        start=state(make_word(1, [])),
        steps=(),
        end=state(make_word(1, [])),
    )
    rep = verify(cert)
    assert rep.total_cost == 0
    assert rep.bound_ok is True
    assert rep.lower_bound == 0


def test_verify_reports_step_index_on_failure():
    cert = CobordismCertificate(
        start=state(tre()),
        steps=(TCube(0, 0, 1, 1), TCube(0, 0, 1, 1)),
        end=state(make_word(2, []), tpos=2),
    )
    with pytest.raises(StepError, match="step 1"):
        verify(cert)


def test_verify_checks_end_state():
    cert = CobordismCertificate(
        start=state(tre()),
        steps=(TCube(0, 0, 1, 1),),
        end=state(tre(), tpos=1),
    )
    with pytest.raises(CertificateError, match="end state"):
        verify(cert)


def test_verify_cost_and_bound():
    cert = CobordismCertificate(
        start=state(tre()),
        steps=(TCube(0, 0, 1, 1),),
        end=state(make_word(2, []), tpos=1),
    )
    rep = verify(cert)
    assert rep.total_cost == 1
    # sigma6: trefoil 2 -> unlink 0 + counter 2 = 2; lower bound 0 <= 1
    assert rep.sigma6_start == 2 and rep.sigma6_end == 2
    assert rep.lower_bound == 0
    assert rep.bound_ok is True


def test_verify_unknown_sigma6_degrades_bound():
    summand = AssertedSummand("mystery", 1, None, "cited")
    cert = CobordismCertificate(
        start=state(tre()),
        steps=(ConcordanceAssertion(0, to=summand),),
        end=FormalLink(assertions=(summand,)),
    )
    rep = verify(cert)
    assert rep.sigma6_start == 2
    assert rep.sigma6_end is None
    assert rep.bound_ok is None
    assert rep.lower_bound is None
    assert rep.step_log[0].note == "sigma6 not evaluated"


def test_assertion_sigma6_mismatch_fails_replay():
    # asserting the trefoil concordant to the unknot contradicts sigma6
    cert = CobordismCertificate(
        start=state(tre()),
        steps=(ConcordanceAssertion(0, to=make_word(2, [1])),),
        end=state(make_word(2, [1])),
    )
    with pytest.raises(StepError, match="sigma6 mismatch"):
        verify(cert)


def test_exponent_sum_audit_of_step_costs():
    from braidcob.words import exponent_sum

    s = state(tre())
    for step, delta_letters in (
        (Equivalence(0, make_word(2, [1, 1, 1])), 0),
        (SaddleDelete(0, 0), -1),
        (SaddleInsert(0, 0, -1), 1),
        (TCube(0, 0, 1, 1), -3),
    ):
        out = apply_step(s, step)
        assert (
            len(out.closures[0].letters) - len(s.closures[0].letters)
            == delta_letters
        )
    flipped = apply_step(s, CrossingChange(0, 0))
    assert exponent_sum(flipped.closures[0]) == exponent_sum(
        s.closures[0]
    ) - 2


def test_compose_split_fourstrand_reproduces_script():
    # the script cut in two at the state apply_step reaches; each half
    # verifies on its own and the halves' costs add up to the whole
    from braidcob.replication import fourstrand_certificate

    cert = fourstrand_certificate()
    cut = 7
    mid = cert.start
    for step in cert.steps[:cut]:
        mid = apply_step(mid, step)
    first = CobordismCertificate(cert.start, cert.steps[:cut], mid)
    second = CobordismCertificate(mid, cert.steps[cut:], cert.end)
    halves = verify(first).total_cost + verify(second).total_cost
    assert halves == verify(cert).total_cost == 10


def test_markov_and_conjugation_exponent_behavior():
    from braidcob.words import exponent_sum

    s = state(tre())
    w0 = s.closures[0]
    conj = apply_step(s, Conjugation(0, make_word(2, [1]))).closures[0]
    assert exponent_sum(conj) == exponent_sum(w0)
    up = apply_step(s, MarkovStab(0, 1)).closures[0]
    # stabilization shifts exponent sum by its sign; the normalized writhe
    # exponent_sum - (strands - 1) is what positive stabilization preserves
    assert exponent_sum(up) - (up.strands - 1) == exponent_sum(w0) - (
        w0.strands - 1
    )


def test_compose_bridges_group_equal_spellings():
    # a free Equivalence respells aba as bab, so the position-addressed
    # deletion after it acts on the spelling it was written for
    cert = CobordismCertificate(
        start=state(make_word(3, [1, 2, 1])),
        steps=(Equivalence(0, make_word(3, [2, 1, 2])), SaddleDelete(0, 0)),
        end=state(make_word(3, [1, 2])),
    )
    assert verify(cert).total_cost == 1
    with pytest.raises(CertificateError, match="does not match"):
        verify(dataclasses.replace(cert, steps=cert.steps[1:]))


def _all_ops_certificate():
    """Every op once or more, with both kinds of assertion target."""
    return CobordismCertificate(
        start=state(tre(), tpos=1),
        steps=(
            Equivalence(0, tre()),
            Conjugation(0, make_word(2, [1])),
            MarkovStab(0, -1),
            MarkovDestab(0),
            SaddleDelete(0, 0),
            SaddleInsert(0, 0, 1),
            TCube(0, 0, 1, 1),
            CrossingChange(0, 0),
            ConcordanceAssertion(
                0, to=AssertedSummand("x", 1, 3, "cited")
            ),
            SumMerge(0, 1, "connected"),
            SumSplit(0, 1),
            ConcordanceAssertion(0, to=make_word(2, ())),
        ),
        end=state(make_word(2, [1])),
        metadata="round trip",
    )


def test_json_round_trip():
    cert = _all_ops_certificate()
    text = cert.dumps()
    back = CobordismCertificate.loads(text)
    assert back == cert
    assert json.loads(text)["steps"][6]["op"] == "tcube"
    # an empty target word must still travel as a word, not as a summand
    assert back.steps[-1].to == make_word(2, ())


# sha256 prefix of _all_ops_certificate().dumps(): the one pin that covers
# conj, stab, sum_split, sum_merge and an asserted-summand target
ALL_OPS_GOLDEN = "a00cecff79625cbe"


def test_all_ops_wire_output():
    text = _all_ops_certificate().dumps()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == ALL_OPS_GOLDEN
    ops = {step["op"] for step in json.loads(text)["steps"]}
    assert len(ops) == 11


# sha256 prefixes of cert.dumps() and of the compact verify report
GOLDEN = {
    "fourstrand": ("4c85126726295523", "3919d473c27c8de6"),
    "coxeter": ("314c4bf1227873e4", "6aee1d1bb04ee6ad"),
    "sixstrand-2": ("e56ec6bc9b45a5e9", "95794ac72bf78cf2"),
    "sixstrand-3": ("182aee6ee1252a8a", "ef595d789168baa9"),
    "trefoils-2-6": ("fb711b08ade81e0a", "10066c9ca2b37d3e"),
}


def _generated(name):
    from braidcob import replication as r

    return {
        "fourstrand": r.fourstrand_certificate,
        "coxeter": r.coxeter_certificate,
        "sixstrand-2": lambda: r.sixstrand_certificate(2),
        "sixstrand-3": lambda: r.sixstrand_certificate(3),
        "trefoils-2-6": lambda: r.trefoil_stack_certificate(2, 6),
    }[name]()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_wire_output(name):
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    cert = _generated(name)
    text = cert.dumps()
    report = json.dumps(verify(cert).to_json(), separators=(",", ":"))
    assert (digest(text), digest(report)) == GOLDEN[name]
    assert CobordismCertificate.loads(text) == cert


def test_step_table_covers_every_field():
    import typing

    from braidcob.certificates import Step

    classes = typing.get_args(Step)
    assert len({cls.OP for cls in classes}) == len(classes) == 11
    for cls in classes:
        # a field for every row and a row for every field; rows keep wire
        # order, which may differ from the constructor's
        fields = [f.name for f in dataclasses.fields(cls)]
        assert sorted(name for name, _ in cls.WIRE) == sorted(fields)
        keys = [key for _, key in cls.WIRE]
        assert len(set(keys)) == len(keys) and "op" not in keys


def test_absent_optional_keys_take_the_defaults():
    data = CobordismCertificate(
        start=state(tre()), steps=(), end=state(tre())
    ).to_json()
    data["steps"] = [
        {"op": "stab", "closure": 0},
        {"op": "sum_merge", "closure": 0, "other": 1},
        {"op": "assert_conc", "closure": 0, "to": {"n": 2, "w": []}},
    ]
    steps = CobordismCertificate.from_json(data).steps
    assert steps == (MarkovStab(0, 1), SumMerge(0, 1, "disjoint"),
                     ConcordanceAssertion(0, to=make_word(2, ())))
    data["steps"] = [{"op": "tcube", "closure": 0, "pos": 0, "gen": 1}]
    with pytest.raises(KeyError, match="sign"):
        CobordismCertificate.from_json(data)


def test_unknown_op_is_hard_error():
    cert = CobordismCertificate(
        start=state(tre()), steps=(), end=state(tre())
    )
    data = cert.to_json()
    data["steps"] = [{"op": "teleport", "closure": 0}]
    with pytest.raises(StepError, match="unknown step op"):
        CobordismCertificate.from_json(data)


@pytest.mark.parametrize("key", ["closures", "asserted"])
@pytest.mark.parametrize("value", ["", {}, "ab", {"n": 2, "w": [1]}],
                         ids=["empty-string", "empty-object", "string",
                              "word-object"])
def test_link_lists_must_be_lists(key, value):
    with pytest.raises(TypeError, match=f"{key}: expected a list"):
        FormalLink.from_json({key: value})


def test_same_link_is_group_level():
    a = state(make_word(3, [1, 2, 1]))
    b = state(make_word(3, [2, 1, 2]))
    assert same_link(a, b)
    assert not same_link(a, state(make_word(3, [1, 2])))


@pytest.mark.parametrize("n, words", [
    (MAX_WIRE_STRANDS, far_commuted_twins(1024)),
    # the slowest word seen at the letter cap: its coordinates grow to
    # about 45 000 bits
    (3, ([1, 2, 1] + [1, -2] * (MAX_WIRE_LETTERS // 2 - 3) + [1, 2, 1],
         [2, 1, 2] + [1, -2] * (MAX_WIRE_LETTERS // 2 - 3) + [2, 1, 2])),
], ids=["1024-strands", "3-strands"])
def test_same_link_at_the_letter_cap_is_bounded(n, words):
    a, b = (state(make_word(n, w)) for w in words)
    start = time.perf_counter()
    assert same_link(a, b)
    assert time.perf_counter() - start < 5


def test_same_link_compares_assertions_as_multisets():
    def asserted(*summands):
        return FormalLink(assertions=summands)

    paper = AssertedSummand("K", 1, 2, "from paper")
    table = AssertedSummand("K", 1, 2, "from table")
    known, unknown = AssertedSummand("L", 1, -2), AssertedSummand("L", 1, None)
    # summands that tie on label, components and sigma6 in either order
    assert same_link(asserted(paper, table), asserted(table, paper))
    assert same_link(asserted(unknown, known), asserted(known, unknown))
    # one justification apart, or one copy more, is another multiset
    assert not same_link(asserted(paper, table), asserted(paper, paper))
    assert not same_link(asserted(paper), asserted(paper, paper))
