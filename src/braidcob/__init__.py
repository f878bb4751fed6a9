"""
braidcob: braid words, link signatures, and cobordism-distance certificates.

The function alexander is not re-exported: braidcob.alexander is its module,
so call braidcob.alexander.alexander.
"""

from .alexander import AlexanderPolynomial
from .certificates import (
    CertificateError,
    CertificateReport,
    CobordismCertificate,
    ConcordanceAssertion,
    Conjugation,
    CrossingChange,
    Equivalence,
    MarkovDestab,
    MarkovStab,
    SaddleDelete,
    SaddleInsert,
    Step,
    StepError,
    SumMerge,
    SumSplit,
    TCube,
    apply_step,
    verify,
)
from .garside import CanonicalBraid, equal, normal_form
from .links import AssertedSummand, FormalLink, same_link
from .replication import (
    BoundReport,
    bbl_word,
    cabled_torus_word,
    clover_bound,
    coxeter_certificate,
    fourstrand_certificate,
    gg_estimate,
    sixstrand_certificate,
    theorem_bound,
    theorem_table,
    torus_word,
    trefoil_stack_certificate,
    trefoil_sum_word,
)
from .seifert import SeifertMatrix, seifert_matrix
from .signature import (
    PrecisionError,
    Sigma6Error,
    SignatureProfile,
    sigma6,
    signature_at,
    torus_signature_oracle,
)
from .words import (
    BraidWord,
    Permutation,
    WordError,
    components,
    compose,
    conjugate,
    exponent_sum,
    invert,
    make_word,
    markov_destabilize,
    markov_stabilize,
    permutation,
    power,
    shift,
)

__all__ = [name for name in dir() if not name.startswith("_")]
