"""
Hostile JSON on the wire: a mutated certificate or word file must end in
exit code 0, 1 or 2 from the CLI, with no exception escaping cli.main.

Mutants start from the fourstrand, coxeter and trefoil_stack_certificate(1, 3)
JSON, from a small hand-built certificate whose assert_conc steps have a
word target and a summand target, and from small word files. Each mutation
replaces a random leaf with a random JSON value (small integers, 1e999, NaN,
booleans, strings, null, lists, objects), deletes a key, or truncates a
list.

Integers stay small on purpose, so mutants stay cheap to replay. Sizes are
bounded on the wire: a word has at most MAX_WIRE_STRANDS strands and
MAX_WIRE_LETTERS letters, a certificate at most MAX_WIRE_STEPS steps, and a
link at most MAX_WIRE_CLOSURES closures and MAX_WIRE_ASSERTIONS asserted
summands. Files padded to each cap are read, and one past it exits 2 unread.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcob.certificates import (
    MAX_WIRE_STEPS,
    CobordismCertificate,
    ConcordanceAssertion,
    SaddleInsert,
    TCube,
)
from braidcob.cli import main
from braidcob.links import (
    MAX_WIRE_ASSERTIONS,
    MAX_WIRE_CLOSURES,
    AssertedSummand,
    FormalLink,
)
from braidcob.replication import (
    coxeter_certificate,
    fourstrand_certificate,
    trefoil_stack_certificate,
)
from braidcob.words import MAX_WIRE_LETTERS, make_word


def _assertion_certificate():
    """
    A trefoil and a 4-strand unknot. The 4-strand unknot is asserted
    concordant to another spelling of itself (a word target); the trefoil
    loses its cube, one saddle closes it to an unknot, and that is asserted
    concordant to a cited unknot (a summand target).
    """
    unknot = AssertedSummand("unknot", 1, 0, "cited")
    return CobordismCertificate(
        start=FormalLink(closures=(make_word(2, [1, 1, 1]),
                                   make_word(4, [1, 2, 3]))),
        steps=(
            TCube(0, 0, 1, 1),
            SaddleInsert(0, 0, 1),
            ConcordanceAssertion(1, make_word(4, [3, 2, 1]), "same knot"),
            ConcordanceAssertion(0, unknot),
        ),
        end=FormalLink(closures=(make_word(4, [3, 2, 1]),), trefoils_pos=1,
                       assertions=(unknot,)),
    )


CERTIFICATES = [
    fourstrand_certificate().to_json(),
    coxeter_certificate().to_json(),
    trefoil_stack_certificate(1, 3).to_json(),
    _assertion_certificate().to_json(),
]
WORDS = [
    {"n": 2, "w": [1, 1, 1]},
    {"n": 3, "w": [1, -2, 1, -2]},
    {"n": 4, "w": [1, 2, 3, 1, 2, 3]},
    {"n": 1, "w": []},
]
WORD_COMMANDS = [
    ("link", "sigma", "--sigma6", "--file"),
    ("link", "alexander", "--file"),
    ("braid", "nf", "--file"),
]

SMALL_INTS = st.integers(-3, 8)
VALUES = st.one_of(
    SMALL_INTS,
    st.sampled_from([math.inf, math.nan, True, False, None]),
    st.sampled_from(["", "0", "1", "w", "tcube", "unknown", "connected"]),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(["n", "w", "op", "closure", "label"]),
                    st.integers(-2, 4), max_size=2),
)


def _slots(node):
    """(container, key) for every value inside node, depth first."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def _mutate(data, doc):
    """Apply one to three random mutations to doc in place."""
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            return
        node, key = slots[data.draw(st.integers(0, len(slots) - 1))]
        kind = data.draw(st.sampled_from(
            ["renumber", "replace", "delete", "truncate"]))
        if kind == "delete" and isinstance(node, dict):
            del node[key]
        elif kind == "truncate" and isinstance(node[key], list):
            del node[key][data.draw(st.integers(0, len(node[key]))):]
        elif kind == "renumber":  # keeps the file readable: reaches replay
            node[key] = data.draw(SMALL_INTS)
        else:
            node[key] = data.draw(VALUES)


def _exit_code(tmp_dir, doc, argv):
    path = tmp_dir / "mutant.json"
    # json writes inf as Infinity; spell it 1e999, as a hostile file would
    path.write_text(json.dumps(doc).replace("Infinity", "1e999"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main([*argv, str(path)])


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_mutated_certificate_never_escapes(tmp_dir, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(CERTIFICATES))))
    _mutate(data, doc)
    assert _exit_code(tmp_dir, doc, ["cert", "verify"]) in (0, 1, 2)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_mutated_word_file_never_escapes(tmp_dir, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(WORDS))))
    if data.draw(st.booleans()):
        _mutate(data, doc)
    else:  # or replace the whole file
        doc = data.draw(VALUES)
    argv = data.draw(st.sampled_from(WORD_COMMANDS))
    assert _exit_code(tmp_dir, doc, argv) in (0, 1, 2)


def test_assertion_seed_verifies(tmp_dir):
    # unmutated, the seed replays to its declared end
    assert _exit_code(tmp_dir, CERTIFICATES[-1], ["cert", "verify"]) == 0


def _cycled(items, count):
    return (items * (count // len(items) + 1))[:count]


@pytest.mark.parametrize("extra", [0, 1], ids=["cap", "past"])
@pytest.mark.parametrize("cert", CERTIFICATES,
                         ids=["four", "coxeter", "stack", "assert"])
def test_certificate_padded_to_the_step_cap(tmp_dir, cert, extra):
    # the steps repeated: read at the cap (replay then fails), unread past it
    doc = json.loads(json.dumps(cert))
    doc["steps"] = _cycled(doc["steps"], MAX_WIRE_STEPS + extra)
    code = _exit_code(tmp_dir, doc, ["cert", "verify"])
    assert code == (2 if extra else 1)


@pytest.mark.parametrize("extra", [0, 1], ids=["cap", "past"])
@pytest.mark.parametrize("side", ["start", "end"])
@pytest.mark.parametrize("key, cap", [("closures", MAX_WIRE_CLOSURES),
                                      ("asserted", MAX_WIRE_ASSERTIONS)],
                         ids=["closures", "asserted"])
def test_link_padded_to_its_caps(tmp_dir, key, cap, side, extra):
    # one link's closures or summands repeated: read at the cap (the end
    # then differs from the replayed state), unread past it
    doc = json.loads(json.dumps(CERTIFICATES[-1]))
    items = doc["start"][key] + doc["end"][key]
    doc[side][key] = _cycled(items, cap + extra)
    code = _exit_code(tmp_dir, doc, ["cert", "verify"])
    assert code == (2 if extra else 1)


@pytest.mark.parametrize("word", [w for w in WORDS if w["w"]],
                         ids=lambda w: f"n{w['n']}")
def test_word_file_padded_to_the_letter_cap(tmp_dir, word):
    doc = {"n": word["n"], "w": _cycled(word["w"], MAX_WIRE_LETTERS)}
    assert _exit_code(tmp_dir, doc, ["braid", "nf", "--file"]) == 0
    doc["w"].append(1)
    for argv in WORD_COMMANDS:
        assert _exit_code(tmp_dir, doc, argv) == 2
