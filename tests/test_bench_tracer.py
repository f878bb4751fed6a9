"""
The benchmark tracer (benchmarks/tracer.py) against the library: it rebinds
public functions by name and reads some names after each call
(signature.precision_default and SignatureProfile.precision_bits after a
signature_at, SeifertMatrix.size, CertificateReport.bound_ok), so a rename
in src/ makes every traced operation raise while untraced runs still pass.
These tests run the traced functions under the tracer and check that no
call raised and that uninstall() puts back every binding it replaced.
"""

import importlib
import importlib.util
import inspect
import random
from fractions import Fraction
from pathlib import Path

import pytest

from braidcob.replication import cabled_torus_word, fourstrand_certificate
from braidcob.words import make_word

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("words", "garside", "seifert", "alexander", "signature", "links",
          "certificates", "replication", "cli")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "benchmarks" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(modules):
    """Every name bound in the modules and in their classes, by identity."""
    out = {}
    for m in modules:
        for key, value in vars(m).items():
            out[m.__name__, key] = value
            if inspect.isclass(value) and value.__module__ == m.__name__:
                for attr, raw in vars(value).items():
                    out[m.__name__, f"{key}.{attr}"] = raw
    return out


@pytest.fixture
def traced():
    modules = [importlib.import_module(f"braidcob.{layer}")
               for layer in LAYERS]
    modules.append(importlib.import_module("braidcob"))
    before = _bindings(modules)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    after = _bindings(modules)
    assert after.keys() == before.keys()
    moved = [key for key in before if after[key] is not before[key]]
    assert not moved, moved


def test_traced_calls_raise_nothing(traced, tmp_path, capsys):
    tracer = traced
    signature = importlib.import_module("braidcob.signature")
    alexander = importlib.import_module("braidcob.alexander")
    cli = importlib.import_module("braidcob.cli")
    trefoil, cable = make_word(2, (1, 1, 1)), cabled_torus_word(1)
    for theta in (Fraction(1, 3), Fraction(1, 6), Fraction(389, 1009)):
        signature.signature_at(cable, theta)
    signature.signature_at(trefoil, Fraction(1, 6))  # a root: the LDL^T
    assert signature.sigma6(cable) == signature.sigma6(cable)
    alexander.alexander(cable)
    path = tmp_path / "fourstrand.json"
    path.write_text(fourstrand_certificate().dumps())
    assert cli.main(["--json", "cert", "verify", str(path)]) == 0
    capsys.readouterr()

    names = {span[0] for span in tracer.spans}
    for name in ("signature.signature_at", "signature.sigma6",
                 "alexander.alexander", "seifert.seifert_matrix",
                 "certificates.verify", "cli.main"):
        assert name in names, name
    notes = [span[-1] for span in tracer.spans if span[-1]]
    assert not [n for n in notes if "raised" in n], notes
    escalations = [span[-1] for span in tracer.spans
                   if span[0] == "signature.signature_at"]
    assert escalations and all(n == {"escalated": False}
                               for n in escalations), escalations


def test_one_traced_call_per_normal_form(traced):
    # normal_form splits long words into pieces; the pieces must not go
    # back through the public name, or garside.normal_form.calls and
    # .letters would count pieces instead of normal forms
    garside = importlib.import_module("braidcob.garside")
    rng = random.Random(300)
    w = make_word(36, [rng.choice((1, -1)) * rng.randrange(1, 36)
                       for _ in range(300)])
    garside.normal_form(w)
    spans = [s for s in traced.spans if s[0] == "garside.normal_form"]
    assert len(spans) == 1
    assert spans[0][-1] == {"letters": 300}
