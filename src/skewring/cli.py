"""Command-line interface, on the standard library's ``argparse``.

Commands:

* ``verify --suite NAME [--config FILE] [--format json|markdown] [--out FILE]``
* ``mul --config FILE EXPR EXPR``
* ``reduce --config FILE --gens FILE EXPR [--side left|right] [--steps N]``
* ``pi --i I --m M [--emit-words]``
* ``classify --config FILE``

Exit status: 0 when everything passes, 1 when a verification check
fails, 2 on usage errors (``argparse`` prints them) and on every library
error a command raises: a configuration or parse error, a missing or
unreadable ``--config`` or ``--gens``, a negative ``--steps``,
``--steps`` with ``--side left`` and an unwritable ``--out``.

Each command imports only the modules it runs, when it starts. ``pi``
runs on :mod:`skewring.maps` alone; the other commands add
:mod:`skewring.config`, and with it :mod:`skewring.parsing` and
:mod:`skewring.poly`. ``verify`` loads :mod:`skewring.suites` and
``reduce`` loads :mod:`skewring.structure`, so ``mul``, ``pi`` and
``classify`` load neither.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import maps
from .errors import SkewringError

# the names of suites.SUITE_NAMES, spelled out so that --help needs no suites import
SUITE_NAMES = ("nuclei", "laurent-axioms", "associativity", "simplicity",
               "finite-order-ideals", "hilbert-reduction", "series", "jordan",
               "quantum-torus", "d-structure")


def parse_expr(text, cli_config):
    """Parse an expression under a CLI configuration.

    A series needs its O(X^N) marker, with N at most the config's precision.
    """
    from . import parsing

    if cli_config.is_series:
        return parsing.parse_series(
            text, cli_config.ring_config, power=cli_config.is_power_series,
            max_precision=cli_config.precision,
        )
    return parsing.parse_poly(text, cli_config.ring_config)


def verify(suite_name, config_path, fmt, out_path):
    """Run a named verification suite and emit its report."""
    from . import suites
    from .config import load_config_file

    cli_config = load_config_file(config_path) if config_path else None
    report = suites.run_suite(suite_name, cli_config)
    rendered = suites.emit_report(report, fmt)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            raise SkewringError(exc) from None
    else:
        print(rendered)
    return 0 if report.ok else 1


def mul(config_path, left, right):
    """Multiply two expressions in the configured ring."""
    from .config import load_config_file

    cli_config = load_config_file(config_path)
    product = parse_expr(left, cli_config) * parse_expr(right, cli_config)
    print(repr(product))


def reduce(config_path, gens_path, side, max_steps, expr):
    """Reduce an expression against generators; prints a replayable record."""
    from . import parsing, structure
    from .config import load_config_file, load_json_file

    if max_steps is not None and max_steps < 0:
        raise SkewringError("--steps must be non-negative")
    cli_config = load_config_file(config_path)
    gen_texts = load_json_file(gens_path, "generators file")
    if not isinstance(gen_texts, list) or not all(isinstance(t, str) for t in gen_texts):
        raise SkewringError("generators file must be a JSON list of expression strings")
    generators = [parse_expr(text, cli_config) for text in gen_texts]
    target = parse_expr(expr, cli_config)
    if side == "left":
        if max_steps is not None:
            raise SkewringError("--steps caps right reduction; left reduction always ends")
        if len(generators) != 1:
            raise SkewringError("left reduction takes exactly one generator")
        result = structure.monic_left_reduce(target, generators[0])
    else:
        gset = structure.GeneratorSet(cli_config.ring_config, generators, "right")
        result = structure.right_reduce(target, gset, max_steps=max_steps)
    doc = {
        "remainder": repr(result.remainder),
        "irreducible": result.irreducible,
        "steps": [
            {
                "generator": step.generator,
                "cofactor": parsing.format_monomial(
                    cli_config.ring_config, step.coeff, step.exponent
                ),
                "side": step.side,
            }
            for step in result.steps
        ],
    }
    print(json.dumps(doc, indent=2))


def pi(i_value, m_value, emit_words):
    """Describe the operator pi_i^m as its composition-word sum."""
    if i_value < 0 or m_value < 0:
        raise SkewringError("i and m must be non-negative")
    if i_value > m_value:
        print(f"pi(i={i_value}, m={m_value}) = 0 (i exceeds m)")
        return
    count = math.comb(m_value, i_value)
    print(f"pi(i={i_value}, m={m_value}) = sum of {count} composition words")
    if emit_words:
        for word in maps.pi_words(i_value, m_value):
            print("∘".join(word))


def _axioms(report):
    return [{"axiom": c.axiom, "passed": c.passed, "detail": c.detail} for c in report.checks]


def classify(config_path):
    """Report the twist's axioms, multiplicativity, and order."""
    from .config import load_config_file

    config = load_config_file(config_path).ring_config
    tags = sorted(maps.classify_multiplicativity(config.sigma))
    order = maps.detect_finite_order(config.sigma, 12)
    reason = maps.infinite_order_reason(config.sigma)
    doc = {
        "ring": config.describe(),
        "sigma": {
            "kind": config.sigma.kind,
            "axioms": _axioms(config.sigma_report),
            "multiplicativity": tags,
            "finite_order": order,
            "infinite_order_reason": reason,
        },
    }
    if config.delta is not None:
        doc["delta"] = {
            "kind": config.delta.kind,
            "axioms": _axioms(config.delta_report),
        }
    print(json.dumps(doc, indent=2))


def _parser():
    parser = argparse.ArgumentParser(prog="skewring", allow_abbrev=False, description=(
        "Exact non-associative skew polynomial and series arithmetic."))
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run):
        sub = commands.add_parser(run.__name__, allow_abbrev=False, help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    sub = command(verify)
    sub.add_argument("--suite", dest="suite_name", required=True,
                     help="one of: " + ", ".join(SUITE_NAMES) + ", all")
    sub.add_argument("--config", dest="config_path", metavar="FILE",
                     help="run the configurable checks against this ring instead")
    sub.add_argument("--format", dest="fmt", choices=["json", "markdown"], default="json",
                     help="default: json")
    sub.add_argument("--out", dest="out_path", metavar="FILE")
    sub = command(mul)
    sub.add_argument("--config", dest="config_path", metavar="FILE", required=True)
    sub.add_argument("left", metavar="EXPR")
    sub.add_argument("right", metavar="EXPR")
    sub = command(reduce)
    sub.add_argument("--config", dest="config_path", metavar="FILE", required=True)
    sub.add_argument("--gens", dest="gens_path", metavar="FILE", required=True,
                     help="JSON list of generator expressions")
    sub.add_argument("--side", choices=["left", "right"], default="right",
                     help="default: right")
    sub.add_argument("--steps", dest="max_steps", metavar="N", type=int,
                     help="step cap of a right reduction (polynomial or series); "
                          "left reduction always ends and takes no cap")
    sub.add_argument("expr", metavar="EXPR")
    sub = command(pi)
    sub.add_argument("--i", dest="i_value", metavar="I", type=int, required=True,
                     help="number of sigma letters")
    sub.add_argument("--m", dest="m_value", metavar="M", type=int, required=True,
                     help="word length")
    sub.add_argument("--emit-words", action="store_true")
    sub = command(classify)
    sub.add_argument("--config", dest="config_path", metavar="FILE", required=True)
    return parser


def main(argv=None):
    """Run the command in argv (``sys.argv[1:]`` when None) and exit with its status:
    2, after ``error: ...`` on stderr, when the command raises a library error."""
    args = vars(_parser().parse_args(argv))
    run = args.pop("run")
    try:
        code = run(**args)
    except SkewringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code or 0)


if __name__ == "__main__":
    main()
