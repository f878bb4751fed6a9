"""
Cobordism certificates: typed steps, deterministic replay, and the
signature lower-bound check.

A certificate claims that its start link can be turned into its end link by
the listed steps. Replaying is literal: equivalences are decided by the word
problem, cube deletions require the exact substring at the cited position,
and every step carries a fixed saddle cost. The verified total cost is an
upper-bound witness for the cobordism distance; the report compares it with
the lower bound |sigma6(start) - sigma6(end)|.

Each step class owns its rule: OP (wire name), COST (saddles), WIRE (its
(field, JSON key) pairs in wire order, one for every field; a key whose field
has a default may be left out) and apply(state), which edits a ReplayState
in place. verify replays every step on one ReplayState; apply_step wraps
the same rules as a pure function of a FormalLink. Both, and the JSON
codec, dispatch through one registry built from the union Step, which lists
each class once.
"""

from __future__ import annotations

import dataclasses
import json
import typing

from .garside import equal
from .links import AssertedSummand, FormalLink, same_link
from .signature import Sigma6Error, sigma6
from .words import (
    BraidWord,
    WordError,
    _check_letter,
    _wire_int,
    components,
    compose,
    conjugate,
    markov_destabilize,
    markov_stabilize,
    shift,
)


# the most steps a certificate file may list; the largest shipped one,
# sixstrand_certificate(8), has 376
MAX_WIRE_STEPS = 1 << 14


class StepError(ValueError):
    """A step failed to apply; carries the step index when replayed."""

    def __init__(self, reason: str, index: int | None = None):
        self.reason = reason
        self.index = index
        at = f"step {index}: " if index is not None else ""
        super().__init__(f"{at}{reason}")


class CertificateError(ValueError):
    """The replayed end state does not match the declared one."""


class ReplayState:
    """
    The mutable state a replay edits: one (strands, letters) pair per
    closure, with the letters in a list that steps edit in place, plus the
    trefoil counters and the asserted summands. Every rule checks its step
    before it changes anything, so a failing step leaves the state as it
    was. verify replays all steps on one state and freezes it once.
    """

    __slots__ = ("closures", "trefoils_pos", "trefoils_neg", "assertions")

    def __init__(self, link: FormalLink):
        self.closures = [(w.strands, list(w.letters)) for w in link.closures]
        self.trefoils_pos = link.trefoils_pos
        self.trefoils_neg = link.trefoils_neg
        self.assertions = list(link.assertions)

    def closure(self, index: int) -> tuple[int, list[int]]:
        """The strand count and the (mutable) letters of a closure."""
        if not 0 <= index < len(self.closures):
            raise StepError(
                f"closure index {index} out of range "
                f"(state has {len(self.closures)})"
            )
        return self.closures[index]

    def word(self, index: int) -> BraidWord:
        n, letters = self.closure(index)
        return BraidWord(n, tuple(letters))

    def put(self, index: int, word: BraidWord) -> None:
        self.closures[index] = (word.strands, list(word.letters))

    def freeze(self) -> FormalLink:
        closures = tuple(BraidWord(n, tuple(letters))
                         for n, letters in self.closures)
        return FormalLink(closures, self.trefoils_pos, self.trefoils_neg,
                          tuple(self.assertions))


@dataclasses.dataclass(frozen=True)
class Equivalence:
    closure: int
    target: BraidWord
    COST = 0
    OP = "equiv"
    WIRE = (("closure", "closure"), ("target", "target"))

    def apply(self, state: ReplayState) -> None:
        w = state.word(self.closure)
        if not equal(w, self.target):
            raise StepError(
                f"equivalence fails: {w} is not the same braid as "
                f"{self.target}"
            )
        state.put(self.closure, self.target)


@dataclasses.dataclass(frozen=True)
class Conjugation:
    closure: int
    by: BraidWord
    COST = 0
    OP = "conj"
    WIRE = (("closure", "closure"), ("by", "g"))

    def apply(self, state: ReplayState) -> None:
        w = state.word(self.closure)
        state.put(self.closure, conjugate(w, self.by))


@dataclasses.dataclass(frozen=True)
class MarkovStab:
    closure: int
    sign: int = 1
    COST = 0
    OP = "stab"
    WIRE = (("closure", "closure"), ("sign", "sign"))

    def apply(self, state: ReplayState) -> None:
        w = state.word(self.closure)
        state.put(self.closure, markov_stabilize(w, self.sign))


@dataclasses.dataclass(frozen=True)
class MarkovDestab:
    closure: int
    COST = 0
    OP = "destab"
    WIRE = (("closure", "closure"),)

    def apply(self, state: ReplayState) -> None:
        w = state.word(self.closure)
        state.put(self.closure, markov_destabilize(w))


@dataclasses.dataclass(frozen=True)
class SaddleDelete:
    closure: int
    position: int
    COST = 1
    OP = "saddle_del"
    WIRE = (("closure", "closure"), ("position", "pos"))

    def apply(self, state: ReplayState) -> None:
        _, letters = state.closure(self.closure)
        if not 0 <= self.position < len(letters):
            raise StepError(
                f"saddle delete position {self.position} out of range "
                f"(word has {len(letters)} letters)"
            )
        del letters[self.position]


@dataclasses.dataclass(frozen=True)
class SaddleInsert:
    closure: int
    position: int
    letter: int
    COST = 1
    OP = "saddle_ins"
    WIRE = (("closure", "closure"), ("position", "pos"),
            ("letter", "letter"))

    def apply(self, state: ReplayState) -> None:
        n, letters = state.closure(self.closure)
        if not 0 <= self.position <= len(letters):
            raise StepError(
                f"saddle insert position {self.position} out of range"
            )
        _check_letter(n, self.letter, self.position)
        letters.insert(self.position, self.letter)


@dataclasses.dataclass(frozen=True)
class TCube:
    """Delete sigma_gen^{+-3} at the cited position; one saddle, one trefoil."""

    closure: int
    position: int
    generator: int
    sign: int
    COST = 1
    OP = "tcube"
    WIRE = (("closure", "closure"), ("position", "pos"),
            ("generator", "gen"), ("sign", "sign"))

    def apply(self, state: ReplayState) -> None:
        _, letters = state.closure(self.closure)
        if self.sign not in (1, -1) or self.generator < 1:
            raise StepError(
                f"malformed t3-cube: gen={self.generator} sign={self.sign}"
            )
        p = self.position
        cube = [self.sign * self.generator] * 3
        if not 0 <= p <= len(letters) - 3 or letters[p: p + 3] != cube:
            raise StepError(
                f"t3-cube substring {cube} absent at position {p} of "
                f"{letters}"
            )
        del letters[p: p + 3]
        if self.sign > 0:
            state.trefoils_pos += 1
        else:
            state.trefoils_neg += 1


@dataclasses.dataclass(frozen=True)
class CrossingChange:
    closure: int
    position: int
    COST = 2
    OP = "crossing"
    WIRE = (("closure", "closure"), ("position", "pos"))

    def apply(self, state: ReplayState) -> None:
        _, letters = state.closure(self.closure)
        if not 0 <= self.position < len(letters):
            raise StepError(
                f"crossing change position {self.position} out of range"
            )
        letters[self.position] = -letters[self.position]


@dataclasses.dataclass(frozen=True)
class ConcordanceAssertion:
    """
    Replace a closure by a concordant link taken on trust: a word, which
    stays a closure, or an asserted summand, which leaves the closures. The
    verifier checks component counts always and declared sigma6 agreement
    when both sides are evaluable; the justification must cite the source.
    """

    closure: int
    to: BraidWord | AssertedSummand
    justification: str = ""
    COST = 0
    OP = "assert_conc"
    WIRE = (("closure", "closure"), ("justification", "justification"),
            ("to", "to"))

    def apply(self, state: ReplayState) -> None:
        w = state.word(self.closure)
        is_word = isinstance(self.to, BraidWord)
        have = components(w)
        want = components(self.to) if is_word else self.to.components
        if have != want:
            raise StepError(
                f"assertion changes component count {have} -> {want}; "
                f"concordance preserves it"
            )
        if is_word:
            state.put(self.closure, self.to)
        else:
            del state.closures[self.closure]
            state.assertions.append(self.to)


@dataclasses.dataclass(frozen=True)
class SumSplit:
    """Split one closure whose word never uses column `at` into two."""

    closure: int
    at: int
    COST = 0
    OP = "sum_split"
    WIRE = (("closure", "closure"), ("at", "at"))

    def apply(self, state: ReplayState) -> None:
        w = state.word(self.closure)
        if not 1 <= self.at < w.strands:
            raise StepError(f"split strand {self.at} out of range")
        lo, hi = [], []
        for k in w.letters:
            if abs(k) < self.at:
                lo.append(k)
            elif abs(k) > self.at:
                hi.append(k - self.at if k > 0 else k + self.at)
            else:
                raise StepError(
                    f"cannot split at strand {self.at}: column in use"
                )
        state.closures[self.closure: self.closure + 1] = [
            (self.at, lo), (w.strands - self.at, hi)
        ]


@dataclasses.dataclass(frozen=True)
class SumMerge:
    """Merge two closures: disjoint union or declared connected sum."""

    closure: int
    other: int
    mode: str = "disjoint"
    COST = 0
    OP = "sum_merge"
    WIRE = (("closure", "closure"), ("other", "other"), ("mode", "mode"))

    def apply(self, state: ReplayState) -> None:
        if self.mode not in ("disjoint", "connected"):
            raise StepError(f"unknown merge mode {self.mode!r}")
        if self.closure == self.other:
            raise StepError("cannot merge a closure with itself")
        w1 = state.word(self.closure)
        w2 = state.word(self.other)
        offset = w1.strands if self.mode == "disjoint" else w1.strands - 1
        n = w1.strands + w2.strands - (0 if self.mode == "disjoint" else 1)
        merged = compose(BraidWord(n, w1.letters), shift(w2, offset, n))
        state.closures = [
            c for i, c in enumerate(state.closures)
            if i not in (self.closure, self.other)
        ]
        state.closures.insert(min(self.closure, self.other),
                              (n, list(merged.letters)))


# every step type, listed once: the registry below is built from this union
Step = (Equivalence | Conjugation | MarkovStab | MarkovDestab | SaddleDelete
        | SaddleInsert | TCube | CrossingChange | ConcordanceAssertion
        | SumSplit | SumMerge)

# field annotation (a string: evaluation is postponed) -> its JSON reader
_READERS = {
    "int": _wire_int,
    "str": lambda value, key: str(value),
    "BraidWord": lambda value, key: BraidWord.from_json(value),
    # a word object if it has a "w" key, otherwise an asserted summand
    "BraidWord | AssertedSummand": lambda value, key: (
        BraidWord if isinstance(value, dict) and "w" in value
        else AssertedSummand
    ).from_json(value),
}


def _decoding_plan(cls) -> tuple:
    """
    (key, reader, default) for each field of cls, in field order, so a
    step is built positionally; default is MISSING for a required key.
    """
    keys = dict(cls.WIRE)
    return tuple((keys[f.name], _READERS[f.type], f.default)
                 for f in dataclasses.fields(cls))


_STEP_TYPES = typing.get_args(Step)
# the registry: op -> (step class, its decoding plan), built once
_STEPS = {cls.OP: (cls, _decoding_plan(cls)) for cls in _STEP_TYPES}


def _apply(state: ReplayState, step: Step) -> None:
    """
    Apply one step to the replay state in place, checking its validity
    condition. A WordError from the step's rule is reported as a StepError
    that names the step's op.
    """
    if type(step) not in _STEP_TYPES:
        raise StepError(f"unknown step type {type(step).__name__}")
    try:
        step.apply(state)
    except WordError as exc:
        raise StepError(f"{step.OP}: {exc}") from exc


def apply_step(state: FormalLink, step: Step) -> FormalLink:
    """
    Apply one step to a formal link, checking its validity condition; pure
    function: the link is copied into a ReplayState, the step applied to
    the copy, and the copy frozen into a new link.
    """
    replay = ReplayState(state)
    _apply(replay, step)
    return replay.freeze()


@dataclasses.dataclass(frozen=True)
class CobordismCertificate:
    start: FormalLink
    steps: tuple[Step, ...]
    end: FormalLink
    metadata: str = ""

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
        if len(steps) > MAX_WIRE_STEPS:
            raise ValueError(f"steps: {len(steps)} exceeds {MAX_WIRE_STEPS}")
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
    out = {"op": step.OP}
    for name, key in step.WIRE:
        value = getattr(step, name)
        out[key] = (value.to_json()
                    if isinstance(value, (BraidWord, AssertedSummand))
                    else value)
    return out


def _step_from_json(data: dict) -> Step:
    if not isinstance(data, dict):
        raise TypeError(f"a step must be an object, got {data!r}")
    op = data.get("op")
    entry = _STEPS.get(op) if isinstance(op, str) else None
    if entry is None:
        raise StepError(f"unknown step op {op!r}")
    cls, plan = entry
    args = []
    for key, read, default in plan:
        if key in data:
            args.append(read(data[key], key))
        elif default is dataclasses.MISSING:
            raise KeyError(key)
        else:
            args.append(default)
    return cls(*args)


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
            "steps": [{"index": r.index, "op": r.op, "cost": r.cost,
                       "note": r.note} for r in self.step_log],
        }


def _try_sigma6(link: FormalLink | BraidWord):
    try:
        return sigma6(link)
    except Sigma6Error:
        return None


def verify(cert: CobordismCertificate) -> CertificateReport:
    """
    Replay all steps on one ReplayState copied from the start, add up
    costs, check that the frozen end state matches the declared end, and
    compare the signature lower bound with the realized cost.
    Step failures, and an assertion whose two sides have different sigma6,
    raise StepError with the failing index; a sigma6 that cannot be
    evaluated only degrades the bound fields to None ("not evaluated").
    """
    replay = ReplayState(cert.start)
    log: list[StepRecord] = []
    total = 0
    for idx, step in enumerate(cert.steps):
        try:
            note = (_assertion_note(replay, step)
                    if isinstance(step, ConcordanceAssertion) else "")
            _apply(replay, step)
        except StepError as exc:
            raise StepError(exc.reason, idx) from exc
        total += step.COST
        log.append(StepRecord(idx, step.OP, step.COST, note))

    state = replay.freeze()
    if not same_link(state, cert.end):
        raise CertificateError(
            "replayed end state does not match the declared end: "
            f"got {state.to_json()}, declared {cert.end.to_json()}"
        )

    s_start = _try_sigma6(cert.start)
    s_end = _try_sigma6(cert.end)
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


def _assertion_note(state: ReplayState, step: ConcordanceAssertion) -> str:
    """
    sigma6 consistency of an assertion: equal when both sides evaluate;
    StepError when they differ.
    """
    try:
        src = state.word(step.closure)
    except StepError:
        return ""  # the step's rule will report the real failure
    source = _try_sigma6(src)
    to = step.to
    target = _try_sigma6(to) if isinstance(to, BraidWord) else to.sigma6
    if source is None or target is None:
        return "sigma6 not evaluated"
    if source != target:
        raise StepError(
            f"sigma6 mismatch across assertion: source {source}, "
            f"target {target}"
        )
    return f"sigma6 agrees across assertion ({source})"
