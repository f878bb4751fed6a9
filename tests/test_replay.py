"""
verify replays a certificate on one mutable ReplayState; apply_step runs the
same rules as a pure function of a FormalLink. The two must agree: on the
shipped certificates and on the wire fuzzer's mutants, replaying on one
state and folding apply_step over the steps reach the same end state, fail
at the same step with the same text, and give byte-identical report JSON.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_certificates import _all_ops_certificate
from test_wire_fuzz import CERTIFICATES, _mutate

from braidcob.certificates import (
    CertificateError,
    CertificateReport,
    CobordismCertificate,
    ConcordanceAssertion,
    Conjugation,
    CrossingChange,
    Equivalence,
    MarkovDestab,
    MarkovStab,
    ReplayState,
    SaddleDelete,
    SaddleInsert,
    StepError,
    StepRecord,
    SumMerge,
    SumSplit,
    TCube,
    _apply,
    _assertion_note,
    _try_sigma6,
    apply_step,
    verify,
)
from braidcob.links import AssertedSummand, FormalLink, same_link
from braidcob.replication import (
    coxeter_certificate,
    fourstrand_certificate,
    sixstrand_certificate,
    trefoil_stack_certificate,
)
from braidcob.words import WordError, make_word


def _replayed(cert):
    """(failing index, its reason, state) replaying on one ReplayState."""
    state = ReplayState(cert.start)
    for idx, step in enumerate(cert.steps):
        try:
            _apply(state, step)
        except StepError as exc:
            return idx, exc.reason, state.freeze()
    return None, None, state.freeze()


def _folded(cert):
    """(failing index, its reason, state) folding apply_step."""
    link = cert.start
    for idx, step in enumerate(cert.steps):
        try:
            link = apply_step(link, step)
        except StepError as exc:
            return idx, exc.reason, link
    return None, None, link


def _folded_verify(cert):
    """verify, with each step applied by apply_step to a frozen link."""
    link, log, total = cert.start, [], 0
    for idx, step in enumerate(cert.steps):
        try:
            note = (_assertion_note(ReplayState(link), step)
                    if isinstance(step, ConcordanceAssertion) else "")
            link = apply_step(link, step)
        except StepError as exc:
            raise StepError(exc.reason, idx) from exc
        total += step.COST
        log.append(StepRecord(idx, step.OP, step.COST, note))
    if not same_link(link, cert.end):
        raise CertificateError(
            "replayed end state does not match the declared end: "
            f"got {link.to_json()}, declared {cert.end.to_json()}"
        )
    s_start, s_end = _try_sigma6(cert.start), _try_sigma6(cert.end)
    lower = None if s_start is None or s_end is None else abs(s_start - s_end)
    return CertificateReport(
        total_cost=total, sigma6_start=s_start, sigma6_end=s_end,
        lower_bound=lower, bound_ok=None if lower is None else lower <= total,
        step_log=tuple(log),
    )


def _outcome(run, cert):
    try:
        report = run(cert)
    except (StepError, CertificateError, WordError) as exc:
        return type(exc).__name__, getattr(exc, "index", None), str(exc)
    return "report", json.dumps(report.to_json(), separators=(",", ":"))


def _check_agreement(cert):
    assert _replayed(cert) == _folded(cert)
    assert _outcome(verify, cert) == _outcome(_folded_verify, cert)


@pytest.mark.parametrize("make", [
    lambda: sixstrand_certificate(2),
    lambda: sixstrand_certificate(3),
    lambda: sixstrand_certificate(4),
    fourstrand_certificate,
    coxeter_certificate,
    lambda: trefoil_stack_certificate(2, 6),
], ids=["six-2", "six-3", "six-4", "four", "coxeter", "trefoils"])
def test_replay_matches_the_fold_of_apply_step(make):
    cert = make()
    index, _, end = _replayed(cert)
    assert index is None and same_link(end, cert.end)
    _check_agreement(cert)


def test_replay_matches_the_fold_on_every_op():
    # every op once or more; the replay stops at the summand assertion
    cert = _all_ops_certificate()
    assert _replayed(cert)[0] == 8
    _check_agreement(cert)


# about one mutant in eight stays readable and so reaches the replay
@settings(derandomize=True, deadline=None, max_examples=800)
@given(data=st.data())
def test_replay_matches_the_fold_on_mutated_certificates(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(CERTIFICATES))))
    _mutate(data, doc)
    try:
        cert = CobordismCertificate.from_json(doc)
    except (ValueError, KeyError, TypeError):
        return  # unreadable: the CLI exits 2 before any replay
    _check_agreement(cert)


def test_a_failing_step_is_reported_at_its_index_by_both():
    cert = fourstrand_certificate()
    bad = CobordismCertificate(
        cert.start, cert.steps[:5] + (SaddleInsert(0, 3, 9),)
        + cert.steps[5:], cert.end)
    index, reason, _ = _replayed(bad)
    assert index == 5
    assert reason == "saddle_ins: letter 9 at position 3 exceeds n-1=3"
    _check_agreement(bad)


_LINK = FormalLink(closures=(make_word(3, [1, 1, 1, -2, 1, 2]),
                             make_word(2, [-1])), trefoils_pos=1)


@pytest.mark.parametrize("step", [
    Equivalence(0, make_word(3, [1, 1, 1])),
    Conjugation(0, make_word(2, [1])),
    MarkovStab(0, 0),
    MarkovDestab(0),
    SaddleDelete(0, 6),
    SaddleDelete(2, 0),
    SaddleInsert(0, 7, 1),
    SaddleInsert(0, 2, -3),
    TCube(0, 0, 1, -1),
    TCube(0, 1, 1, 1),
    TCube(0, 0, 0, 1),
    CrossingChange(1, 1),
    ConcordanceAssertion(0, make_word(3, [1])),
    ConcordanceAssertion(1, AssertedSummand("unlink", 2, 0)),
    SumSplit(0, 1),
    SumSplit(1, 2),
    SumMerge(0, 0),
    SumMerge(0, 1, "bogus"),
    SumMerge(1, 2),
], ids=lambda step: step.OP)
def test_a_failing_step_leaves_the_replay_state_unchanged(step):
    state = ReplayState(_LINK)
    with pytest.raises(StepError):
        _apply(state, step)
    assert state.freeze() == _LINK


def test_apply_step_leaves_its_input_unchanged():
    link = FormalLink(closures=(make_word(2, [1, 1, 1]),
                                make_word(3, [1, -2])), trefoils_neg=2)
    before = json.dumps(link.to_json())
    closures = link.closures
    out = apply_step(link, TCube(0, 0, 1, 1))
    assert out.closures[0].letters == () and out.trefoils_pos == 1
    with pytest.raises(StepError, match="absent"):
        apply_step(link, TCube(1, 0, 1, 1))
    with pytest.raises(StepError, match="saddle_ins: letter 0"):
        apply_step(link, SaddleInsert(1, 1, 0))
    assert json.dumps(link.to_json()) == before
    assert link.closures is closures
    # and a later step on the result leaves the result unchanged
    again = apply_step(out, SaddleInsert(1, 0, 2))
    assert out.closures[1].letters == (1, -2)
    assert again.closures[1].letters == (2, 1, -2)


def test_verify_leaves_the_certificate_unchanged():
    good, bad = sixstrand_certificate(2), _all_ops_certificate()
    texts = good.dumps(), bad.dumps()
    verify(good)
    with pytest.raises(StepError, match="step 8"):
        verify(bad)
    assert (good.dumps(), bad.dumps()) == texts
