"""
Formal links: the states a cobordism certificate transforms.

A formal link is a multiset of braid closures, two counters of trefoil
connect-summands (positive and negative), and a list of asserted summands
standing in for links whose identification is trusted rather than computed.
Trefoil summands attach to an existing component, so they do not contribute
to the component count.
"""

from __future__ import annotations

import dataclasses

from .words import BraidWord, components


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
            components=int(data["components"]),
            sigma6=None if raw == "unknown" else int(raw),
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

    def component_count(self) -> int:
        return sum(components(w) for w in self.closures) + sum(
            a.components for a in self.assertions
        )

    def replace_closure(self, index: int, word: BraidWord) -> "FormalLink":
        closures = list(self.closures)
        closures[index] = word
        return dataclasses.replace(self, closures=tuple(closures))

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
        return FormalLink(
            closures=tuple(
                BraidWord.from_json(c) for c in data.get("closures", [])
            ),
            trefoils_pos=int(data.get("tpos", 0)),
            trefoils_neg=int(data.get("tneg", 0)),
            assertions=tuple(
                AssertedSummand.from_json(a) for a in data.get("asserted", [])
            ),
        )


def same_link(a: FormalLink, b: FormalLink) -> bool:
    """
    Formal-link equality: equal counters, equal assertion multisets, and
    closures that match up to the word problem (group equality per summand).
    """
    from .garside import normal_form

    if a.trefoils_pos != b.trefoils_pos or a.trefoils_neg != b.trefoils_neg:
        return False
    key = lambda s: (s.label, s.components, -2 if s.sigma6 is None else s.sigma6)
    if sorted(a.assertions, key=key) != sorted(b.assertions, key=key):
        return False
    if len(a.closures) != len(b.closures):
        return False

    def nf_key(w):
        c = normal_form(w)
        return (w.strands, c.infimum, c.factors)

    return sorted(map(nf_key, a.closures)) == sorted(
        map(nf_key, b.closures)
    )
