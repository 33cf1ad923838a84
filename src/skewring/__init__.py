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

The exception types of :mod:`skewring.errors` load with the package.
Every other name below loads its submodule on first use (PEP 562), so
``import skewring`` stays cheap and ``from skewring import gaussian``
imports only what ``gaussian`` needs.
"""

import importlib

from .errors import *  # noqa: F403 -- the error types are bound eagerly

_MODULE_OF = {
    name: module
    for module, names in {
        "errors": "ConstructionError NotInvertibleError ParseError ReductionError "
                  "RingMismatchError SkewringError UnsupportedRingError ZeroElementError",
        "maps": "PiFamily classify_multiplicativity detect_finite_order make_twist "
                "pi_apply pi_word_sum pi_words standard_derivation validate_twist_axioms",
        "poly": "DStructure RingConfig SkewPoly corrupted_d_structure from_right_form "
                "laurent_d_structure ore_d_structure poly_mul quantum_torus "
                "to_right_form validate_d_structure",
        "rings": "AlgebraSpec associator cayley_dickson_double commutator gaussian "
                 "jordan_algebra matrix_algebra octonions quaternions rationals "
                 "sedenions",
        "series": "TruncatedSeries equal_to_precision series_invert series_mul",
        "structure": "Certificate GeneratorSet NucleusQuery ReductionResult "
                     "associativity_certificate "
                     "associativity_prediction central_reduction monic_left_reduce "
                     "nuclear_inverse_check nucleus_membership reduce replay_reduction "
                     "right_reduce shrink simplicity_probe",
    }.items()
    for name in names.split()
}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
