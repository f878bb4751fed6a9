"""
Formal links: the states a cobordism certificate transforms.

A formal link is a multiset of braid closures, two counters of trefoil
connect-summands (positive and negative), and a list of asserted summands
standing in for links whose identification is trusted rather than computed.
Trefoil summands attach to an existing component, so they add no component.
"""

from __future__ import annotations

import collections
import dataclasses

from .words import BraidWord, _wire_int

# the most closures and asserted summands one link on the wire may list,
# since same_link and sigma6 work per closure and per summand; the shipped
# certificates have one closure and no summands
MAX_WIRE_CLOSURES = 1 << 10
MAX_WIRE_ASSERTIONS = 1 << 10


@dataclasses.dataclass(frozen=True)
class AssertedSummand:
    """A summand taken on trust, with its declared invariants."""

    label: str
    components: int
    sigma6: int | None  # None means "unknown"
    justification: str = ""

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "components": self.components,
            "sigma6": "unknown" if self.sigma6 is None else self.sigma6,
            "justification": self.justification,
        }

    @staticmethod
    def from_json(data: dict) -> "AssertedSummand":
        if not isinstance(data, dict):
            raise TypeError(f"an asserted summand must be an object, got "
                            f"{data!r}")
        raw = data.get("sigma6", "unknown")
        return AssertedSummand(
            label=str(data["label"]),
            components=_wire_int(data["components"], "components"),
            sigma6=None if raw == "unknown" else _wire_int(raw, "sigma6"),
            justification=str(data.get("justification", "")),
        )


@dataclasses.dataclass(frozen=True)
class FormalLink:
    """Multiset of closures plus trefoil counters plus asserted summands."""

    closures: tuple[BraidWord, ...] = ()
    trefoils_pos: int = 0
    trefoils_neg: int = 0
    assertions: tuple[AssertedSummand, ...] = ()

    def __post_init__(self):
        if self.trefoils_pos < 0 or self.trefoils_neg < 0:
            raise ValueError("trefoil counters must be nonnegative")

    def to_json(self) -> dict:
        return {
            "closures": [w.to_json() for w in self.closures],
            "tpos": self.trefoils_pos,
            "tneg": self.trefoils_neg,
            "asserted": [a.to_json() for a in self.assertions],
        }

    @staticmethod
    def from_json(data: dict) -> "FormalLink":
        if not isinstance(data, dict):
            raise TypeError(f"a formal link must be an object, got {data!r}")
        closures = data.get("closures", [])
        assertions = data.get("asserted", [])
        for key, value in (("closures", closures), ("asserted", assertions)):
            if not isinstance(value, list):
                raise TypeError(f"{key}: expected a list, got {value!r}")
        check_wire_counts(len(closures), len(assertions))
        return FormalLink(
            closures=tuple(BraidWord.from_json(c) for c in closures),
            trefoils_pos=_wire_int(data.get("tpos", 0), "tpos"),
            trefoils_neg=_wire_int(data.get("tneg", 0), "tneg"),
            assertions=tuple(AssertedSummand.from_json(a) for a in assertions),
        )


def check_wire_counts(closures: int, assertions: int) -> None:
    """
    Raise ValueError when a link has more closures or asserted summands
    than a file may list.
    """
    if closures > MAX_WIRE_CLOSURES:
        raise ValueError(f"closures: {closures} exceeds {MAX_WIRE_CLOSURES}")
    if assertions > MAX_WIRE_ASSERTIONS:
        raise ValueError(
            f"asserted: {assertions} exceeds {MAX_WIRE_ASSERTIONS}"
        )


def same_link(a: FormalLink, b: FormalLink) -> bool:
    """
    Formal-link equality: equal counters, equal assertion multisets, and
    closures that match up to the word problem (group equality per summand).
    Each closure is keyed by its strand count and its Dynnikov coordinates,
    a complete invariant of the group element.
    """
    from .garside import _dynnikov

    if a.trefoils_pos != b.trefoils_pos or a.trefoils_neg != b.trefoils_neg:
        return False
    if collections.Counter(a.assertions) != collections.Counter(b.assertions):
        return False
    if len(a.closures) != len(b.closures):
        return False

    def key(w):
        return (w.strands, _dynnikov(w))

    return sorted(map(key, a.closures)) == sorted(map(key, b.closures))
