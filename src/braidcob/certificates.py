"""
Cobordism certificates: typed steps, deterministic replay, and the
signature lower-bound check.

A certificate claims that its start link can be turned into its end link by
the listed steps. Replaying is literal: equivalences are decided by the word
problem, cube deletions require the exact substring at the cited position,
and every step carries a fixed saddle cost. The verified total cost is an
upper-bound witness for the cobordism distance; the report compares it with
the lower bound |sigma6(start) - sigma6(end)|.
"""

from __future__ import annotations

import dataclasses
import json

from .garside import equal
from .links import AssertedSummand, FormalLink, same_link
from .signature import PrecisionError, Sigma6Error, sigma6
from .words import (
    BraidWord,
    WordError,
    components,
    compose,
    conjugate,
    markov_destabilize,
    markov_stabilize,
    shift,
)


class StepError(ValueError):
    """A step failed to apply; carries the step index when replayed."""

    def __init__(self, reason: str, index: int | None = None):
        self.reason = reason
        self.index = index
        at = f"step {index}: " if index is not None else ""
        super().__init__(f"{at}{reason}")


class CertificateError(ValueError):
    """The replayed end state does not match the declared one."""


@dataclasses.dataclass(frozen=True)
class Equivalence:
    closure: int
    target: BraidWord
    COST = 0
    OP = "equiv"


@dataclasses.dataclass(frozen=True)
class Conjugation:
    closure: int
    by: BraidWord
    COST = 0
    OP = "conj"


@dataclasses.dataclass(frozen=True)
class MarkovStab:
    closure: int
    sign: int = 1
    COST = 0
    OP = "stab"


@dataclasses.dataclass(frozen=True)
class MarkovDestab:
    closure: int
    COST = 0
    OP = "destab"


@dataclasses.dataclass(frozen=True)
class SaddleDelete:
    closure: int
    position: int
    COST = 1
    OP = "saddle_del"


@dataclasses.dataclass(frozen=True)
class SaddleInsert:
    closure: int
    position: int
    letter: int
    COST = 1
    OP = "saddle_ins"


@dataclasses.dataclass(frozen=True)
class TCube:
    """Delete sigma_gen^{+-3} at the cited position; one saddle, one trefoil."""

    closure: int
    position: int
    generator: int
    sign: int
    COST = 1
    OP = "tcube"


@dataclasses.dataclass(frozen=True)
class CrossingChange:
    closure: int
    position: int
    COST = 2
    OP = "crossing"


@dataclasses.dataclass(frozen=True)
class ConcordanceAssertion:
    """
    Replace a closure by a concordant link taken on trust. The verifier
    checks component counts always and declared sigma6 agreement when both
    sides are evaluable; the justification must cite the source.
    """

    closure: int
    to_word: BraidWord | None = None
    to_summand: AssertedSummand | None = None
    justification: str = ""
    COST = 0
    OP = "assert_conc"


@dataclasses.dataclass(frozen=True)
class SumSplit:
    """Split one closure whose word never uses column `at` into two."""

    closure: int
    at: int
    COST = 0
    OP = "sum_split"


@dataclasses.dataclass(frozen=True)
class SumMerge:
    """Merge two closures: disjoint union or declared connected sum."""

    closure: int
    other: int
    mode: str = "disjoint"
    COST = 0
    OP = "sum_merge"


Step = (
    Equivalence
    | Conjugation
    | MarkovStab
    | MarkovDestab
    | SaddleDelete
    | SaddleInsert
    | TCube
    | CrossingChange
    | ConcordanceAssertion
    | SumSplit
    | SumMerge
)


def step_cost(step: Step) -> int:
    return step.COST


def _closure(state: FormalLink, index: int) -> BraidWord:
    if not 0 <= index < len(state.closures):
        raise StepError(
            f"closure index {index} out of range "
            f"(state has {len(state.closures)})"
        )
    return state.closures[index]


def apply_step(state: FormalLink, step: Step) -> FormalLink:
    """Apply one step, checking its validity condition; pure function."""
    if isinstance(step, Equivalence):
        w = _closure(state, step.closure)
        try:
            ok = equal(w, step.target)
        except WordError as exc:
            raise StepError(f"equivalence ill-formed: {exc}") from exc
        if not ok:
            raise StepError(
                f"equivalence fails: {w} is not the same braid as "
                f"{step.target}"
            )
        return state.replace_closure(step.closure, step.target)

    if isinstance(step, Conjugation):
        w = _closure(state, step.closure)
        try:
            return state.replace_closure(step.closure, conjugate(w, step.by))
        except WordError as exc:
            raise StepError(f"conjugation ill-formed: {exc}") from exc

    if isinstance(step, MarkovStab):
        w = _closure(state, step.closure)
        try:
            return state.replace_closure(
                step.closure, markov_stabilize(w, step.sign)
            )
        except WordError as exc:
            raise StepError(str(exc)) from exc

    if isinstance(step, MarkovDestab):
        w = _closure(state, step.closure)
        try:
            return state.replace_closure(step.closure, markov_destabilize(w))
        except WordError as exc:
            raise StepError(str(exc)) from exc

    if isinstance(step, SaddleDelete):
        w = _closure(state, step.closure)
        if not 0 <= step.position < len(w.letters):
            raise StepError(
                f"saddle delete position {step.position} out of range "
                f"(word has {len(w.letters)} letters)"
            )
        letters = w.letters[: step.position] + w.letters[step.position + 1:]
        return state.replace_closure(
            step.closure, BraidWord(w.strands, letters)
        )

    if isinstance(step, SaddleInsert):
        w = _closure(state, step.closure)
        if not 0 <= step.position <= len(w.letters):
            raise StepError(
                f"saddle insert position {step.position} out of range"
            )
        letters = (
            w.letters[: step.position]
            + (step.letter,)
            + w.letters[step.position:]
        )
        try:
            return state.replace_closure(
                step.closure, BraidWord(w.strands, letters)
            )
        except WordError as exc:
            raise StepError(str(exc)) from exc

    if isinstance(step, TCube):
        w = _closure(state, step.closure)
        if step.sign not in (1, -1) or step.generator < 1:
            raise StepError(
                f"malformed t3-cube: gen={step.generator} sign={step.sign}"
            )
        cube = (step.sign * step.generator,) * 3
        if (not 0 <= step.position <= len(w.letters) - 3
                or w.letters[step.position: step.position + 3] != cube):
            raise StepError(
                f"t3-cube substring {list(cube)} absent at position "
                f"{step.position} of {list(w.letters)}"
            )
        letters = w.letters[: step.position] + w.letters[step.position + 3:]
        state = state.replace_closure(
            step.closure, BraidWord(w.strands, letters)
        )
        if step.sign > 0:
            return dataclasses.replace(
                state, trefoils_pos=state.trefoils_pos + 1
            )
        return dataclasses.replace(state, trefoils_neg=state.trefoils_neg + 1)

    if isinstance(step, CrossingChange):
        w = _closure(state, step.closure)
        if not 0 <= step.position < len(w.letters):
            raise StepError(
                f"crossing change position {step.position} out of range"
            )
        letters = list(w.letters)
        letters[step.position] = -letters[step.position]
        return state.replace_closure(
            step.closure, BraidWord(w.strands, tuple(letters))
        )

    if isinstance(step, ConcordanceAssertion):
        w = _closure(state, step.closure)
        if (step.to_word is None) == (step.to_summand is None):
            raise StepError(
                "assertion needs exactly one of to_word / to_summand"
            )
        have = components(w)
        if step.to_word is not None:
            want = components(step.to_word)
            if have != want:
                raise StepError(
                    f"assertion changes component count {have} -> {want}; "
                    f"concordance preserves it"
                )
            return state.replace_closure(step.closure, step.to_word)
        if have != step.to_summand.components:
            raise StepError(
                f"assertion changes component count {have} -> "
                f"{step.to_summand.components}; concordance preserves it"
            )
        closures = list(state.closures)
        closures.pop(step.closure)
        return dataclasses.replace(
            state,
            closures=tuple(closures),
            assertions=state.assertions + (step.to_summand,),
        )

    if isinstance(step, SumSplit):
        w = _closure(state, step.closure)
        if not 1 <= step.at < w.strands:
            raise StepError(f"split strand {step.at} out of range")
        lo, hi = [], []
        for k in w.letters:
            if abs(k) < step.at:
                lo.append(k)
            elif abs(k) > step.at:
                hi.append(k - step.at if k > 0 else k + step.at)
            else:
                raise StepError(
                    f"cannot split at strand {step.at}: column in use"
                )
        closures = list(state.closures)
        closures[step.closure: step.closure + 1] = [
            BraidWord(step.at, tuple(lo)),
            BraidWord(w.strands - step.at, tuple(hi)),
        ]
        return dataclasses.replace(state, closures=tuple(closures))

    if isinstance(step, SumMerge):
        if step.mode not in ("disjoint", "connected"):
            raise StepError(f"unknown merge mode {step.mode!r}")
        if step.closure == step.other:
            raise StepError("cannot merge a closure with itself")
        w1 = _closure(state, step.closure)
        w2 = _closure(state, step.other)
        offset = w1.strands if step.mode == "disjoint" else w1.strands - 1
        n = w1.strands + w2.strands - (0 if step.mode == "disjoint" else 1)
        merged = compose(BraidWord(n, w1.letters), shift(w2, offset, n))
        closures = [
            c for i, c in enumerate(state.closures)
            if i not in (step.closure, step.other)
        ]
        closures.insert(min(step.closure, step.other), merged)
        return dataclasses.replace(state, closures=tuple(closures))

    raise StepError(f"unknown step type {type(step).__name__}")


@dataclasses.dataclass(frozen=True)
class CobordismCertificate:
    start: FormalLink
    steps: tuple[Step, ...]
    end: FormalLink
    metadata: str = ""

    def total_cost(self) -> int:
        return sum(step_cost(s) for s in self.steps)

    def to_json(self) -> dict:
        return {
            "start": self.start.to_json(),
            "steps": [_step_to_json(s) for s in self.steps],
            "end": self.end.to_json(),
            "meta": self.metadata,
        }

    @staticmethod
    def from_json(data: dict) -> "CobordismCertificate":
        steps = data["steps"]
        if not isinstance(steps, list):
            raise TypeError(f'"steps" must be a list, got {steps!r}')
        return CobordismCertificate(
            start=FormalLink.from_json(data["start"]),
            steps=tuple(_step_from_json(s) for s in steps),
            end=FormalLink.from_json(data["end"]),
            metadata=str(data.get("meta", "")),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))

    @staticmethod
    def loads(text: str) -> "CobordismCertificate":
        return CobordismCertificate.from_json(json.loads(text))


def _step_to_json(step: Step) -> dict:
    if isinstance(step, Equivalence):
        return {"op": "equiv", "closure": step.closure,
                "target": step.target.to_json()}
    if isinstance(step, Conjugation):
        return {"op": "conj", "closure": step.closure,
                "g": step.by.to_json()}
    if isinstance(step, MarkovStab):
        return {"op": "stab", "closure": step.closure, "sign": step.sign}
    if isinstance(step, MarkovDestab):
        return {"op": "destab", "closure": step.closure}
    if isinstance(step, SaddleDelete):
        return {"op": "saddle_del", "closure": step.closure,
                "pos": step.position}
    if isinstance(step, SaddleInsert):
        return {"op": "saddle_ins", "closure": step.closure,
                "pos": step.position, "letter": step.letter}
    if isinstance(step, TCube):
        return {"op": "tcube", "closure": step.closure, "pos": step.position,
                "gen": step.generator, "sign": step.sign}
    if isinstance(step, CrossingChange):
        return {"op": "crossing", "closure": step.closure,
                "pos": step.position}
    if isinstance(step, ConcordanceAssertion):
        out = {"op": "assert_conc", "closure": step.closure,
               "justification": step.justification}
        if step.to_word is not None:
            out["to"] = step.to_word.to_json()
        else:
            out["to"] = step.to_summand.to_json()
        return out
    if isinstance(step, SumSplit):
        return {"op": "sum_split", "closure": step.closure, "at": step.at}
    if isinstance(step, SumMerge):
        return {"op": "sum_merge", "closure": step.closure,
                "other": step.other, "mode": step.mode}
    raise StepError(f"unknown step type {type(step).__name__}")


def _step_from_json(data: dict) -> Step:
    if not isinstance(data, dict):
        raise TypeError(f"a step must be an object, got {data!r}")
    op = data.get("op")
    if op == "equiv":
        return Equivalence(int(data["closure"]),
                           BraidWord.from_json(data["target"]))
    if op == "conj":
        return Conjugation(int(data["closure"]),
                           BraidWord.from_json(data["g"]))
    if op == "stab":
        return MarkovStab(int(data["closure"]), int(data.get("sign", 1)))
    if op == "destab":
        return MarkovDestab(int(data["closure"]))
    if op == "saddle_del":
        return SaddleDelete(int(data["closure"]), int(data["pos"]))
    if op == "saddle_ins":
        return SaddleInsert(int(data["closure"]), int(data["pos"]),
                            int(data["letter"]))
    if op == "tcube":
        return TCube(int(data["closure"]), int(data["pos"]),
                     int(data["gen"]), int(data["sign"]))
    if op == "crossing":
        return CrossingChange(int(data["closure"]), int(data["pos"]))
    if op == "assert_conc":
        to = data["to"]
        if "w" in to:
            return ConcordanceAssertion(
                int(data["closure"]), to_word=BraidWord.from_json(to),
                justification=str(data.get("justification", "")))
        return ConcordanceAssertion(
            int(data["closure"]),
            to_summand=AssertedSummand.from_json(to),
            justification=str(data.get("justification", "")))
    if op == "sum_split":
        return SumSplit(int(data["closure"]), int(data["at"]))
    if op == "sum_merge":
        return SumMerge(int(data["closure"]), int(data["other"]),
                        str(data.get("mode", "disjoint")))
    raise StepError(f"unknown step op {op!r}")


@dataclasses.dataclass(frozen=True)
class StepRecord:
    index: int
    op: str
    cost: int
    note: str = ""


@dataclasses.dataclass(frozen=True)
class CertificateReport:
    total_cost: int
    sigma6_start: int | None
    sigma6_end: int | None
    lower_bound: int | None
    bound_ok: bool | None
    step_log: tuple[StepRecord, ...]

    def to_json(self) -> dict:
        ne = "not evaluated"
        return {
            "total_cost": self.total_cost,
            "sigma6_start": ne if self.sigma6_start is None
            else self.sigma6_start,
            "sigma6_end": ne if self.sigma6_end is None else self.sigma6_end,
            "lower_bound": ne if self.lower_bound is None
            else self.lower_bound,
            "bound_ok": ne if self.bound_ok is None else self.bound_ok,
            "steps": [dataclasses.asdict(r) for r in self.step_log],
        }


def _try_sigma6(link: FormalLink, precision_bits):
    try:
        return sigma6(link, precision_bits)
    except (Sigma6Error, PrecisionError):
        return None


def verify(
    cert: CobordismCertificate, precision_bits: int | None = None
) -> CertificateReport:
    """
    Replay all steps from the start state, add up costs, check the end state
    matches, and compare the signature lower bound with the realized cost.
    Step failures raise StepError with the failing index; sigma6 failures
    only degrade the bound fields to None ("not evaluated").
    """
    state = cert.start
    log: list[StepRecord] = []
    total = 0
    for idx, step in enumerate(cert.steps):
        note = ""
        if isinstance(step, ConcordanceAssertion):
            note = _assertion_note(state, step, precision_bits)
            if note.startswith("sigma6 mismatch"):
                raise StepError(note, idx)
        try:
            state = apply_step(state, step)
        except StepError as exc:
            raise StepError(exc.reason, idx) from exc
        total += step_cost(step)
        log.append(StepRecord(idx, step.OP, step_cost(step), note))

    if not same_link(state, cert.end):
        raise CertificateError(
            "replayed end state does not match the declared end: "
            f"got {state.to_json()}, declared {cert.end.to_json()}"
        )

    s_start = _try_sigma6(cert.start, precision_bits)
    s_end = _try_sigma6(cert.end, precision_bits)
    if s_start is None or s_end is None:
        lower, ok = None, None
    else:
        lower = abs(s_start - s_end)
        ok = lower <= total
    return CertificateReport(
        total_cost=total,
        sigma6_start=s_start,
        sigma6_end=s_end,
        lower_bound=lower,
        bound_ok=ok,
        step_log=tuple(log),
    )


def _assertion_note(
    state: FormalLink, step: ConcordanceAssertion, precision_bits
) -> str:
    """sigma6 consistency of an assertion: equal when both sides evaluate."""
    try:
        src = _closure(state, step.closure)
    except StepError:
        return ""  # apply_step will report the real failure
    source = _try_sigma6(FormalLink(closures=(src,)), precision_bits)
    if step.to_word is not None:
        target = _try_sigma6(
            FormalLink(closures=(step.to_word,)), precision_bits
        )
    else:
        target = step.to_summand.sigma6
    if source is None or target is None:
        return "sigma6 not evaluated"
    if source != target:
        return (
            f"sigma6 mismatch across assertion: source {source}, "
            f"target {target}"
        )
    return f"sigma6 agrees across assertion ({source})"


def compose_certificates(
    c1: CobordismCertificate, c2: CobordismCertificate
) -> CobordismCertificate:
    """Chain two certificates; c1.end must equal c2.start as formal links."""
    if not same_link(c1.end, c2.start):
        raise CertificateError(
            "certificate endpoints do not match: first ends at "
            f"{c1.end.to_json()}, second starts at {c2.start.to_json()}"
        )
    # Bridge literal spelling differences with free equivalence steps so the
    # replay of c2's position-addressed steps starts from its exact words.
    bridge: list[Step] = []
    if c1.end.closures != c2.start.closures:
        for i, (got, want) in enumerate(
            zip(c1.end.closures, c2.start.closures)
        ):
            if got.letters != want.letters or got.strands != want.strands:
                bridge.append(Equivalence(i, want))
    meta = "; ".join(x for x in (c1.metadata, c2.metadata) if x)
    return CobordismCertificate(
        start=c1.start,
        steps=c1.steps + tuple(bridge) + c2.steps,
        end=c2.end,
        metadata=meta,
    )
