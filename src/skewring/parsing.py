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
the built-in rings. Negative exponents parse only in the laurent shape.
The trailing O(V^N) marker is mandatory for series and fixes the
precision at N (coefficients with exponents up to N are stored).

``parse(format(p)) == p`` holds exactly on canonical forms.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ConstructionError, ParseError
from .poly import RingConfig, SkewPoly
from .series import TruncatedSeries

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

    def at_end(self):
        return self.pos >= len(self.tokens)

    # -- literals -----------------------------------------------------------

    def parse_rational(self):
        sign = 1
        kind, text, col = self.peek()
        if text in ("-", "+"):
            self.advance()
            sign = -1 if text == "-" else 1
            kind, text, col = self.peek()
        if kind != "num":
            raise ParseError(f"expected a rational, found {text!r}", column=col)
        self.advance()
        numerator = int(text)
        if self.peek()[1] == "/":
            self.advance()
            kind, dtext, col = self.advance()
            if kind != "num":
                raise ParseError("expected a denominator", column=col)
            denominator = int(dtext)
            if denominator == 0:
                raise ParseError("zero denominator", column=col)
            return Fraction(sign * numerator, denominator)
        return Fraction(sign * numerator)

    def parse_int(self):
        sign = 1
        kind, text, col = self.peek()
        if text in ("-", "+"):
            self.advance()
            sign = -1 if text == "-" else 1
            kind, text, col = self.peek()
        if kind != "num":
            raise ParseError(f"expected an integer, found {text!r}", column=col)
        self.advance()
        return sign * int(text)

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

    def _alias(self, config, name):
        """Resolve an identifier as a coefficient: basis label or inner variable."""
        ring = config.coefficients
        labels = getattr(ring, "basis_labels", ())
        if name in labels:
            return ring.basis_element(labels.index(name))
        if isinstance(ring, RingConfig) and name == ring.variable:
            exp = 1
            if self.peek()[1] == "^":
                self.advance()
                exp = self.parse_int()
            try:
                return ring.variable_power(exp)
            except ConstructionError as exc:
                raise ParseError(str(exc), column=self.peek()[2]) from None
        return None

    # -- terms ------------------------------------------------------------------

    def parse_term(self, config):
        coeff = None
        pending_var = False
        kind, text, col = self.peek()

        if kind == "num":
            value = self.parse_rational()
            coeff = config.coefficients.scalar(value)
        elif text == "[":
            coeff = self.parse_vector(config)
        elif text == "(":
            inner = config.coefficients
            if not isinstance(inner, RingConfig):
                raise ParseError(
                    "parenthesized coefficients need an iterated ring", column=col
                )
            self.advance()
            coeff = self.parse_sum(inner)
            self.expect(")")
        elif kind == "ident" and text != config.variable:
            resolved = None
            if text.endswith(config.variable) and text != config.variable:
                prefix = text[: -len(config.variable)]
                self.advance()
                resolved = self._alias(config, prefix)
                if resolved is None:
                    raise ParseError(f"unknown identifier {text!r}", column=col)
                coeff = resolved
                pending_var = True
            else:
                self.advance()
                resolved = self._alias(config, text)
                if resolved is None:
                    raise ParseError(f"unknown identifier {text!r}", column=col)
                coeff = resolved

        exp = None
        if pending_var:
            exp = 1
            if self.peek()[1] == "^":
                self.advance()
                exp = self.parse_int()
        elif self.peek()[0] == "ident" and self.peek()[1] == config.variable:
            self.advance()
            exp = 1
            if self.peek()[1] == "^":
                self.advance()
                exp = self.parse_int()

        if coeff is None and exp is None:
            raise ParseError(f"expected a term, found {text!r}", column=col)
        if coeff is None:
            coeff = config.coefficients.one
        try:
            return config.monomial(coeff, exp or 0)
        except ConstructionError as exc:
            raise ParseError(str(exc), column=col) from None

    def parse_sum(self, config, stop_at_order_marker=False):
        total = config.zero
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        while True:
            if stop_at_order_marker and self.peek()[1] == "O" and self.peek(1)[1] == "(":
                return total, True
            term = self.parse_term(config)
            total = total + (term if sign == 1 else -term)
            nxt = self.peek()[1]
            if nxt == "+":
                self.advance()
                sign = 1
            elif nxt == "-":
                self.advance()
                sign = -1
            else:
                break
        if stop_at_order_marker:
            return total, False
        return total


def parse_poly(text, config):
    """Parse polynomial text in the given ring configuration."""
    parser = _Parser(text)
    result = parser.parse_sum(config)
    if not parser.at_end():
        _, tok, col = parser.peek()
        raise ParseError(f"trailing input {tok!r}", column=col)
    return result


def parse_series(text, config, power=False, max_precision=None):
    """Parse series text; the trailing O(V^N) marker fixes the precision.

    With ``max_precision`` given, an N above it is a ``ParseError``.
    """
    parser = _Parser(text)
    body, found = parser.parse_sum(config, stop_at_order_marker=True)
    if not found:
        raise ParseError("missing O(X^N)", column=parser.peek()[2])
    parser.expect("O")
    parser.expect("(")
    kind, name, col = parser.advance()
    if kind != "ident" or name != config.variable:
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
    if not parser.at_end():
        _, tok, col = parser.peek()
        raise ParseError(f"trailing input {tok!r}", column=col)
    if power and body.terms and min(body.terms) < 0:
        raise ParseError("negative exponent")
    window = 0 if power else min([0, *body.terms]) if body.terms else 0
    return TruncatedSeries(config, dict(body.terms), precision, window)


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
    var = s.config.variable
    body = _format_terms(s.coeffs, var) if s.coeffs else "0"
    return f"{body} + O({var}^{s.precision})"


def format_monomial(config, coeff, exp):
    """Text of a single cofactor monomial (used in reduction records)."""
    return format_poly(config.monomial(coeff, exp))


def format_element(value):
    """Text of a bare coefficient element."""
    sign, text = format_coefficient(value)
    body = text if text is not None else "1"
    return f"-{body}" if sign < 0 else body
