"""Exact arithmetic for non-associative twisted polynomial and series rings.

The coefficient layer (:mod:`skewring.rings`) provides structure-constant
algebras over the rationals -- the Cayley-Dickson chain through the
octonions, matrix rings, Jordan plus-algebras -- with exact inversion.
Twist maps live in :mod:`skewring.maps`; the twisted rings themselves
(Ore and Laurent shapes, iterated extensions, the quantum torus) in
:mod:`skewring.poly`; truncated skew power and Laurent series in
:mod:`skewring.series`. :mod:`skewring.structure` holds the
degree-bounded nucleus/associativity certificates and the replayable
reduction algorithms, and :mod:`skewring.suites` the named verification
suites behind the ``skewring verify`` command.
"""

from .errors import (
    ConstructionError,
    NotInvertibleError,
    ParseError,
    ReductionError,
    RingMismatchError,
    SkewringError,
    UnsupportedRingError,
    ZeroElementError,
)
from .maps import (
    PiFamily,
    classify_multiplicativity,
    detect_finite_order,
    infinite_order_reason,
    make_twist,
    pi_apply,
    pi_word_sum,
    pi_words,
    standard_derivation,
    validate_twist_axioms,
)
from .poly import (
    DStructure,
    RingConfig,
    SkewPoly,
    corrupted_d_structure,
    degree_order_leading,
    from_right_form,
    iterated_extend,
    laurent_d_structure,
    ore_d_structure,
    poly_mul,
    quantum_torus,
    to_right_form,
    validate_d_structure,
)
from .rings import (
    AlgebraSpec,
    algebra_from_json,
    associator,
    cayley_dickson_double,
    commutator,
    gaussian,
    jordan_algebra,
    matrix_algebra,
    octonions,
    quaternions,
    rationals,
    sedenions,
)
from .series import (
    TruncatedSeries,
    equal_to_precision,
    from_poly,
    series_invert,
    series_mul,
    series_order_leading,
)
from .structure import (
    GeneratorSet,
    NucleusQuery,
    ReductionResult,
    associativity_certificate,
    associativity_prediction,
    central_reduction,
    monic_left_reduce,
    nuclear_inverse_check,
    nucleus_membership,
    replay_reduction,
    right_reduce,
    shrink,
    simplicity_probe,
)

__version__ = "0.1.0"
