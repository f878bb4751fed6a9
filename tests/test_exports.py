"""
The names `import braidcob` exports. __all__ is built from the package
namespace, so this pins it: a name added to or dropped from __init__.py
must be added to or dropped from this list too.
"""

import braidcob

EXPORTED = {
    # modules, bound as attributes by the package's own imports
    "alexander", "certificates", "garside", "inertia", "links",
    "replication", "seifert", "signature", "words",
    # certificates
    "CertificateError", "CertificateReport", "CobordismCertificate",
    "ConcordanceAssertion", "Conjugation", "CrossingChange", "Equivalence",
    "MarkovDestab", "MarkovStab", "SaddleDelete", "SaddleInsert", "Step",
    "StepError", "SumMerge", "SumSplit", "TCube", "apply_step", "verify",
    # garside, links, seifert
    "CanonicalBraid", "equal", "normal_form",
    "AssertedSummand", "FormalLink", "same_link",
    "SeifertMatrix", "seifert_matrix",
    # alexander, signature
    "AlexanderPolynomial", "PrecisionError", "Sigma6Error",
    "SignatureProfile", "sigma6", "signature_at", "torus_signature_oracle",
    # replication
    "BoundReport", "bbl_word", "cabled_torus_word", "clover_bound",
    "coxeter_certificate", "fourstrand_certificate", "gg_estimate",
    "sixstrand_certificate", "theorem_bound", "theorem_table", "torus_word",
    "trefoil_stack_certificate", "trefoil_sum_word",
    # words
    "BraidWord", "Permutation", "WordError", "components", "compose",
    "conjugate", "exponent_sum", "invert", "make_word", "markov_destabilize",
    "markov_stabilize", "permutation", "power", "shift",
}


def test_all_is_the_pinned_set():
    assert set(braidcob.__all__) == EXPORTED
