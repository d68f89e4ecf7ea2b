"""Exact computation in the Temperley-Lieb monoid TL_n and its twisted algebra.

Diagram arithmetic on non-crossing perfect matchings, two monoid
presentations with machine-checkable rewriting certificates, the twisted
semigroup algebra over exact rationals, and an exhaustive small-degree
verification harness.
"""

from .errors import (
    AlphabetError,
    BadStep,
    BoundViolation,
    CrossingError,
    DegreeError,
    DegreeMismatch,
    DegreeOutOfRange,
    DegreeTooLarge,
    DegreeTooSmall,
    EndMismatch,
    FamilyViolation,
    LengthMismatch,
    LengthOutOfRange,
    NoMatch,
    NotAMatching,
    NotDecreasing,
    TLError,
)
from .tuples import (
    TnTuple,
    check_tuple,
    enumerate_tuples,
    tuple_from_text,
    tuple_to_text,
)
from .tangles import (
    Tangle,
    boundary_tuples,
    compose,
    dagger,
    factorize,
    identity,
    make_tangle,
    profile,
    simplicity,
    tangle_from_doc,
    tangle_from_text,
    tangle_to_doc,
    tangle_to_text,
)
from .words import (
    E,
    L,
    Letter,
    R,
    Word,
    build_tangle,
    evaluate,
    generator,
    hat,
    hooks_to_pairs,
    letter,
    tuple_words,
    word_from_text,
    word_to_text,
)
from .relations import (
    Relation,
    Step,
    apply_step,
    mirror_steps,
    relation_by_id,
    relation_index,
    relation_set,
    step_from_text,
    step_to_text,
)
from .rewrite import (
    Derivation,
    EqualityResult,
    NormalForm,
    check_derivation,
    derivation_from_text,
    derivation_to_text,
    equal_words,
    normal_form,
    normal_form_E,
    push_lambda,
    reduce_one_sided,
    separate,
)
from .etranslate import xi_template
from .algebra import (
    AlgebraElement,
    TwistedRelation,
    add,
    alg_eval_word,
    alg_mul,
    element_from_text,
    element_to_text,
    one,
    scale,
    twist_relations,
    verify_xi_prime,
    zero,
)
from .verify import (
    FuzzReport,
    PresentationReport,
    catalan,
    enumerate_TL,
    fuzz_words,
    verify_presentation,
)

__version__ = "0.1.0"
