"""JSON descriptors for rings, twists, and CLI configurations.

A config document looks like::

    {
      "ring": {"kind": "gaussian"},
      "twist": {"kind": "q_twist", "q": "2"},
      "shape": "laurent",
      "variable": "X"
    }

Ring kinds: rationals, gaussian, quaternions, octonions, sedenions,
jordan (base), matrix (base, n), polynomial (base, variable, shape,
twist, delta), algebra (an explicit structure-constant document as in
:mod:`skewring.rings`). Twist kinds are those of
:func:`skewring.maps.make_twist`; rational parameters are "p/q"
strings or integers (a JSON float is rejected, as it is binary, not an
exact rational, and so is a JSON boolean, though bool is a subclass of
int in Python), elements are flat coordinate vectors.

Documents are checked at this boundary: a file that is not JSON, a
missing field, a value of the wrong JSON type, a malformed rational, a
``variable`` that is not one identifier token of the expression grammar,
that is a basis name of the coefficient ring (``"i"`` over Q(i),
``"e1"`` over O) or that joins one basis name to another (``"b"`` over
the names ``a`` and ``ab``), a ``precision`` that is not a non-negative
integer, a matrix ``n`` that is not a JSON integer, an algebra spec
whose ``name`` is not a string, ``basis`` not a list of strings, or
``unit``/``table``/``involution`` not lists of rationals nested 1/3/2
deep, an algebra ``division`` that is not a JSON boolean, or a
``matrix`` twist that is not d rows of d rationals over a ring of
dimension d raises ``ConstructionError`` (exit status 2 in the CLI),
never a bare ``KeyError``, ``TypeError`` or ``ValueError`` from deeper down.
The sigma/delta axioms (sigma fixes 1 and is bijective, delta kills 1,
no delta on a laurent shape) are checked in one place,
``poly.RingConfig``, which every config document and ``polynomial``
ring descriptor is built through.

A series document's ring is the polynomial ring its series truncate:
``power_series`` builds the ore shape R[X; sigma] and ``laurent_series``
the laurent shape R[X^±; sigma], so one exponent rule, the ring's own,
holds for polynomials and series alike. A series document with a
``delta`` is refused.

``load_config`` is the one way from a document to a ring: a CLI
``--config`` file and every built-in ring of the verification suites
(the documents of ``suites.ROSTER``) are built through it alike.

A series expression under the config may carry a precision ``O(X^N)``
up to the config's ``precision``; the CLI refuses a larger N with exit
status 2 and names both precisions.
"""

from __future__ import annotations

import json

from . import maps, parsing, poly, rings
from .errors import ConstructionError

SERIES_SHAPES = ("power_series", "laurent_series")
SHAPES = ("ore", "laurent", *SERIES_SHAPES)

_BUILTIN_RINGS = {
    "rationals": rings.rationals,
    "gaussian": rings.gaussian,
    "quaternions": rings.quaternions,
    "octonions": rings.octonions,
    "sedenions": rings.sedenions,
}


def _descriptor(doc, what):
    """A descriptor as a JSON object; a bare string names its kind."""
    if isinstance(doc, str):
        return {"kind": doc}
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise ConstructionError(f'{what} must be a kind name or an object with a "kind"')
    return doc


def _field(doc, key, what):
    if key not in doc:
        raise ConstructionError(f"{what} needs a {key!r} field")
    return doc[key]


def _rationals(values, what, depth=1):
    """``values`` as exact rationals in lists nested ``depth`` deep."""
    def read(value, level):
        if level == 0:
            return rings._frac(value)
        if not isinstance(value, list):
            raise ConstructionError(
                f"{what} must be a list of {'lists of ' * (depth - 1)}rationals"
            )
        return [read(v, level - 1) for v in value]
    return read(values, depth)


def ring_from_descriptor(doc):
    doc = _descriptor(doc, "ring descriptor")
    kind = doc.get("kind")
    if kind in _BUILTIN_RINGS:
        return _BUILTIN_RINGS[kind]()
    if kind == "jordan":
        return rings.jordan_algebra(ring_from_descriptor(_field(doc, "base", "jordan ring")))
    if kind == "matrix":
        n = _field(doc, "n", "matrix ring")
        if type(n) is not int:
            # bool is a subclass of int, so `true` needs the exact type test
            raise ConstructionError(f"matrix size must be an integer, got {n!r}")
        return rings.matrix_algebra(ring_from_descriptor(_field(doc, "base", "matrix ring")), n)
    if kind == "algebra":
        spec = _field(doc, "spec", "algebra ring")
        if not isinstance(spec, dict):
            raise ConstructionError("algebra spec must be a JSON object")
        what = "algebra spec"
        name, basis = _field(spec, "name", what), _field(spec, "basis", what)
        if not isinstance(name, str) or not (
            isinstance(basis, list) and all(isinstance(label, str) for label in basis)
        ):
            raise ConstructionError(f"{what} needs a string name and a list of string basis names")
        table = _rationals(_field(spec, "table", what), f"{what} field 'table'", 3)
        unit = _rationals(_field(spec, "unit", what), f"{what} field 'unit'")
        involution = spec.get("involution")
        if involution is not None:
            involution = _rationals(involution, f"{what} field 'involution'", 2)
        division = doc.get("division", False)
        if not isinstance(division, bool):
            raise ConstructionError(f"algebra division must be true or false, got {division!r}")
        return rings.AlgebraSpec(name, basis, table, unit, involution, division)
    if kind == "polynomial":
        base = ring_from_descriptor(_field(doc, "base", "polynomial ring"))
        return _twisted_ring(base, doc, doc.get("shape", poly.LAURENT), "Y")
    raise ConstructionError(f"unknown ring kind: {kind}")


def _twisted_ring(ring, doc, shape, default_variable):
    """ring[V; sigma, delta] from doc's twist, delta and variable; both twists act on ring."""
    sigma = twist_from_descriptor(ring, doc.get("twist", {"kind": "identity"}))
    delta = doc.get("delta")
    if delta is not None:
        delta = twist_from_descriptor(ring, delta)
    variable = doc.get("variable", default_variable)
    parsing._check_variable(variable, ring)
    return poly.RingConfig(
        coefficients=ring,
        sigma=sigma,
        delta=delta,
        variable=variable,
        shape=shape,
    )


def twist_from_descriptor(ring, doc):
    doc = _descriptor(doc, "twist descriptor")
    kind = doc.get("kind")
    # before the parameters: a coefficientwise twist reads ring.coefficients
    maps.check_twist_kind(ring, kind)
    what = f"twist {kind!r}"
    params = {}
    if kind in ("q_twist", "y_scale", "y_coeff_scale"):
        params["q"] = rings._frac(_field(doc, "q", what))
    elif kind == "inner":
        u = _rationals(_field(doc, "u", what), f"{what} field 'u'")
        if len(u) != ring.qdim:
            raise ConstructionError(f"{what} field 'u' needs {ring.qdim} coordinates")
        params["u"] = ring.unflatten(tuple(u))
    elif kind == "matrix":
        params["matrix"] = _rationals(_field(doc, "matrix", what), f"{what} field 'matrix'", 2)
    elif kind == "coefficientwise":
        params["base"] = twist_from_descriptor(ring.coefficients, _field(doc, "base", what))
    return maps.make_twist(ring, kind, **params)


class CliConfig:
    """A fully built configuration plus its source document."""

    def __init__(self, ring_config, shape, precision, source):
        self.ring_config, self.shape, self.precision, self.source = (
            ring_config, shape, precision, source)

    @property
    def is_series(self):
        return self.shape in SERIES_SHAPES


def load_config(doc):
    """Build a CliConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConstructionError("config must be a JSON object")
    shape = doc.get("shape", "laurent")
    if shape not in SHAPES:
        raise ConstructionError(f"unknown shape: {shape}")
    precision = doc.get("precision")
    if precision is None:
        if shape in SERIES_SHAPES:
            raise ConstructionError("series shapes require a precision")
    elif type(precision) is not int or precision < 0:
        # bool is a subclass of int, so `true` needs the exact type test
        raise ConstructionError(f"precision must be a non-negative integer, got {precision!r}")
    if shape in SERIES_SHAPES and doc.get("delta") is not None:
        raise ConstructionError("series shapes admit no delta")
    ring = ring_from_descriptor(_field(doc, "ring", "config"))
    base_shape = poly.LAURENT if shape in ("laurent", "laurent_series") else poly.ORE
    config = _twisted_ring(ring, doc, base_shape, "X")
    return CliConfig(
        ring_config=config,
        shape=shape,
        precision=precision,
        source=doc,
    )


def load_json_file(path, what):
    """The JSON document in a file; ``ConstructionError`` if it cannot be read or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConstructionError(f"cannot read {what} {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConstructionError(f"{what} is not valid JSON: {exc}") from None


def load_config_file(path):
    return load_config(load_json_file(path, "config file"))
