"""Text format for polynomials and truncated series.

Grammar (whitespace insignificant):

    poly   := "-"? term (("+" | "-") term)*
    term   := coeff? var?
    var    := IDENT ("^" INT)?
    coeff  := rational
            | "[" rational ("," rational)* "]"    coordinate vector
            | "(" poly ")"                        iterated coefficient
            | IDENT                               basis label / inner variable
    series := poly "+" "O" "(" var "^" INT ")"

Coordinate vectors live in the coefficient ring's flat basis; named
aliases (i, j, k, e0..e7, an inner variable like Y) are accepted for
the built-in rings. Negative exponents parse only in the laurent shape,
which ``laurent`` and ``laurent_series`` configs build; the config's
``from_terms`` refuses them in the ore shape, polynomial or power series.

An identifier that ends in the variable, such as ``iX`` or ``YX``, is
read as two tokens, the coefficient name and the variable, each taking
its own exponent: ``YX^2`` is Y·X^2. An identifier that is itself a
coefficient name (a basis label ``ab`` over the variable ``b``) stays
whole. A sum ends before an ``O(`` marker where a term could begin; the
trailing O(V^N) marker is mandatory for series and fixes the precision
at N (coefficients with exponents up to N are stored).

``parse(format(p)) == p`` holds exactly on canonical forms.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ConstructionError, ParseError
from .poly import RingConfig, SkewPoly

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+\[\](),^/])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", column=pos)
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        kind = match.lastgroup
        tokens.append((kind, match.group(), match.start()))
    return tokens


def _check_variable(variable, ring):
    """Raise ``ConstructionError`` unless ``variable`` can name the variable over ``ring``.

    It must be one identifier, and not a basis label of ``ring``: the
    printer writes that basis element by its label, which would then
    parse back as the variable. Nor may a label followed by the variable
    be another label: with labels ``a`` and ``ab`` over ``b``, a·b and
    the label ``ab`` would print alike.
    """
    match = _TOKEN.fullmatch(variable) if isinstance(variable, str) else None
    if match is None or match.lastgroup != "ident":
        raise ConstructionError(f"variable must be one identifier, got {variable!r}")
    labels = getattr(ring, "basis_labels", ())
    if variable in labels:
        raise ConstructionError(f"variable {variable!r} is a basis name of {ring.describe()}")
    for label in labels:
        if label + variable in labels:
            raise ConstructionError(
                f"basis name {label + variable!r} of {ring.describe()} would read as "
                f"{label!r} times the variable {variable!r}"
            )


def _names_coefficient(ring, name):
    """Whether an identifier names an element of ``ring``: a basis label or its variable."""
    if isinstance(ring, RingConfig):
        return name == ring.variable
    return name in getattr(ring, "basis_labels", ())


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing ---------------------------------------------------

    def peek(self, offset=0):
        idx = self.pos + offset
        if idx < len(self.tokens):
            return self.tokens[idx]
        return ("eof", "", self.tokens[-1][2] + 1 if self.tokens else 0)

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value):
        kind, text, col = self.advance()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text!r}", column=col)

    def expect_end(self):
        if self.pos < len(self.tokens):
            _, text, col = self.peek()
            raise ParseError(f"trailing input {text!r}", column=col)

    def at_order_marker(self):
        """At an ``O(`` where a term could begin: first, or right after a sign."""
        return (
            self.peek()[1] == "O"
            and self.peek(1)[1] == "("
            and (self.pos == 0 or self.tokens[self.pos - 1][1] in ("+", "-"))
        )

    # -- literals -----------------------------------------------------------

    def parse_int(self):
        """A signed integer: an exponent, a precision or a numerator."""
        kind, text, col = self.advance()
        sign = 1
        if text in ("-", "+"):
            sign = -1 if text == "-" else 1
            kind, text, col = self.advance()
        if kind != "num":
            raise ParseError(f"expected a number, found {text!r}", column=col)
        return sign * int(text)

    def parse_rational(self):
        numerator = self.parse_int()
        if self.peek()[1] != "/":
            return Fraction(numerator)
        self.advance()
        kind, text, col = self.advance()
        if kind != "num":
            raise ParseError("expected a denominator", column=col)
        if int(text) == 0:
            raise ParseError("zero denominator", column=col)
        return Fraction(numerator, int(text))

    def parse_exponent(self):
        """The exponent after a variable: "^" INT, or 1 when there is no "^"."""
        if self.peek()[1] != "^":
            return 1
        self.advance()
        return self.parse_int()

    # -- coefficients ---------------------------------------------------------

    def parse_vector(self, config):
        ring = config.coefficients
        if not getattr(ring, "is_finite_dimensional", False):
            _, _, col = self.peek()
            raise ParseError(
                "coordinate vectors need a finite-dimensional coefficient ring",
                column=col,
            )
        self.expect("[")
        coords = [self.parse_rational()]
        while self.peek()[1] == ",":
            self.advance()
            coords.append(self.parse_rational())
        self.expect("]")
        if len(coords) != ring.qdim:
            raise ParseError(
                f"expected {ring.qdim} coordinates, got {len(coords)}",
                column=self.peek()[2],
            )
        return ring.unflatten(tuple(coords))

    # -- terms ------------------------------------------------------------------

    def parse_term(self, config):
        var = config.variable
        ring = config.coefficients
        kind, text, col = self.peek()
        # iX, YX: split off the variable, so that each name reads its own exponent
        if (kind == "ident" and text != var and text.endswith(var)
                and not _names_coefficient(ring, text)):
            cut = len(text) - len(var)
            text = text[:cut]
            self.tokens[self.pos:self.pos + 1] = [(kind, text, col), (kind, var, col + cut)]

        coeff = ring.one
        if kind == "num":
            coeff = ring.scalar(self.parse_rational())
        elif text == "[":
            coeff = self.parse_vector(config)
        elif text == "(":
            if not isinstance(ring, RingConfig):
                raise ParseError(
                    "parenthesized coefficients need an iterated ring", column=col
                )
            self.advance()
            coeff = self.parse_sum(ring)
            self.expect(")")
        elif kind == "ident" and text != var:
            if not _names_coefficient(ring, text):
                raise ParseError(f"unknown identifier {text!r}", column=col)
            if isinstance(ring, RingConfig):
                coeff = self.parse_term(ring)
            else:
                self.advance()
                coeff = ring.basis_element(ring.basis_labels.index(text))
        elif kind != "ident":
            raise ParseError(f"expected a term, found {text!r}", column=col)

        exp = 0
        if self.peek()[:2] == ("ident", var):
            self.advance()
            exp = self.parse_exponent()
        try:
            return config.monomial(coeff, exp)
        except ConstructionError as exc:
            raise ParseError(str(exc), column=col) from None

    def parse_sum(self, config):
        """Signed terms, up to a token that is not a sign or up to an O( marker."""
        total = config.zero
        sign = self.advance()[1] if self.peek()[1] == "-" else "+"
        while not self.at_order_marker():
            term = self.parse_term(config)
            total = total - term if sign == "-" else total + term
            sign = self.peek()[1]
            if sign not in ("+", "-"):
                break
            self.advance()
        return total


def parse_poly(text, config):
    """Parse polynomial text in the given ring configuration."""
    parser = _Parser(text)
    result = parser.parse_sum(config)
    parser.expect_end()
    return result


def parse_series(text, config, max_precision=None):
    """Parse series text; the trailing O(V^N) marker fixes the precision.

    With ``max_precision`` given, an N above it is a ``ParseError``.
    """
    from .series import TruncatedSeries

    parser = _Parser(text)
    body = parser.parse_sum(config)
    if not parser.at_order_marker():
        raise ParseError("missing O(X^N)", column=parser.peek()[2])
    parser.expect("O")
    parser.expect("(")
    kind, name, col = parser.advance()
    if (kind, name) != ("ident", config.variable):
        raise ParseError(f"expected variable {config.variable!r}", column=col)
    parser.expect("^")
    col = parser.peek()[2]
    precision = parser.parse_int()
    if max_precision is not None and precision > max_precision:
        raise ParseError(
            f"expression precision {precision} exceeds the config precision {max_precision}",
            column=col,
        )
    parser.expect(")")
    parser.expect_end()
    return TruncatedSeries(config, body.terms, precision)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def format_coefficient(coeff):
    """(sign, text) for one coefficient; text None means an implicit 1."""
    if isinstance(coeff, SkewPoly):
        if coeff == coeff.config.one:
            return 1, None
        return 1, f"({format_poly(coeff)})"
    ring = coeff.ring
    flat = ring.flatten(coeff)
    if len(flat) == 1:
        value = flat[0]
        sign = -1 if value < 0 else 1
        value = abs(value)
        return sign, (None if value == 1 else str(value))
    labels = getattr(ring, "basis_labels", None)
    nonzero = [(idx, v) for idx, v in enumerate(flat) if v]
    if labels is not None and len(nonzero) == 1:
        idx, v = nonzero[0]
        if labels[idx] == "1":
            sign = -1 if v < 0 else 1
            v = abs(v)
            return sign, (None if v == 1 else str(v))
        if v == 1 or v == -1:
            return (1 if v == 1 else -1), labels[idx]
    return 1, "[" + ",".join(str(v) for v in flat) + "]"


def _format_terms(terms, variable):
    parts = []
    for exp, coeff in sorted(terms.items()):
        sign, text = format_coefficient(coeff)
        if exp == 0:
            body = text if text is not None else "1"
        else:
            var = variable if exp == 1 else f"{variable}^{exp}"
            body = var if text is None else f"{text}{var}"
        parts.append((sign, body))
    out = []
    for idx, (sign, body) in enumerate(parts):
        if idx == 0:
            out.append(f"-{body}" if sign < 0 else body)
        else:
            out.append(f" - {body}" if sign < 0 else f" + {body}")
    return "".join(out)


def format_poly(p):
    """Canonical text of a polynomial (ascending exponents)."""
    if not p.terms:
        return "0"
    return _format_terms(p.terms, p.config.variable)


def format_series(s):
    """Canonical text of a truncated series, with its precision marker."""
    return f"{format_poly(s)} + O({s.config.variable}^{s.precision})"


def format_monomial(config, coeff, exp):
    """Text of a single cofactor monomial (used in reduction records)."""
    return format_poly(config.monomial(coeff, exp))


def format_element(value):
    """Text of a bare coefficient element."""
    sign, text = format_coefficient(value)
    body = text if text is not None else "1"
    return f"-{body}" if sign < 0 else body
