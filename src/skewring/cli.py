"""Command-line interface.

Commands:

* ``verify --suite NAME [--config FILE] [--format json|markdown] [--out FILE]``
* ``mul --config FILE EXPR EXPR``
* ``reduce --config FILE --gens FILE EXPR [--side left|right] [--steps N]``
* ``pi --i I --m M [--emit-words]``
* ``classify --config FILE``

Exit status: 0 when everything passes, 1 when a verification check
fails, 2 on configuration or parse errors, on a negative ``--steps``, on
``--steps`` with ``--side left`` and on an unwritable ``--out``.

Each command imports only the modules it runs: ``verify`` loads
:mod:`skewring.suites` and ``reduce`` loads :mod:`skewring.structure` when
they start, so ``mul``, ``pi`` and ``classify`` load neither.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict

import click

from . import maps, parsing
from .config import load_config_file, load_json_file
from .errors import SkewringError

# the names of suites.SUITE_NAMES, spelled out so that --help needs no suites import
SUITE_NAMES = ("nuclei", "laurent-axioms", "associativity", "simplicity",
               "finite-order-ideals", "hilbert-reduction", "series", "jordan",
               "quantum-torus", "d-structure")


def parse_expr(text, cli_config):
    """Parse an expression under a CLI configuration.

    A series needs its O(X^N) marker, with N at most the config's precision.
    """
    if cli_config.is_series:
        return parsing.parse_series(
            text, cli_config.ring_config, power=cli_config.is_power_series,
            max_precision=cli_config.precision,
        )
    return parsing.parse_poly(text, cli_config.ring_config)


def _fail_config(exc):
    click.echo(f"error: {exc}", err=True)
    sys.exit(2)


@click.group()
def main():
    """Exact non-associative skew polynomial and series arithmetic."""


@main.command()
@click.option("--suite", "suite_name", required=True,
              help="one of: " + ", ".join(SUITE_NAMES) + ", all")
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="run the configurable checks against this ring instead")
@click.option("--format", "fmt", type=click.Choice(["json", "markdown"]),
              default="json", show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
def verify(suite_name, config_path, fmt, out_path):
    """Run a named verification suite and emit its report."""
    from . import suites

    try:
        cli_config = load_config_file(config_path) if config_path else None
        report = suites.run_suite(suite_name, cli_config)
        rendered = suites.emit_report(report, fmt)
    except SkewringError as exc:
        _fail_config(exc)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            _fail_config(exc)
    else:
        click.echo(rendered)
    sys.exit(0 if report.ok else 1)


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.argument("left")
@click.argument("right")
def mul(config_path, left, right):
    """Multiply two expressions in the configured ring."""
    try:
        cli_config = load_config_file(config_path)
        a = parse_expr(left, cli_config)
        b = parse_expr(right, cli_config)
        product = a * b
    except SkewringError as exc:
        _fail_config(exc)
    click.echo(repr(product))


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--gens", "gens_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON list of generator expressions")
@click.option("--side", type=click.Choice(["left", "right"]), default="right",
              show_default=True)
@click.option("--steps", "max_steps", type=click.IntRange(min=0), default=None,
              help="step cap of a right reduction (polynomial or series); "
                   "left reduction always ends and takes no cap")
@click.argument("expr")
def reduce(config_path, gens_path, side, max_steps, expr):
    """Reduce an expression against generators; prints a replayable record."""
    from . import structure

    try:
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
            gset = structure.GeneratorSet(
                cli_config.ring_config, generators, "right"
            )
            result = structure.right_reduce(target, gset, max_steps=max_steps)
    except SkewringError as exc:
        _fail_config(exc)
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
    click.echo(json.dumps(doc, indent=2))


@main.command()
@click.option("--i", "i_value", type=int, required=True,
              help="number of sigma letters")
@click.option("--m", "m_value", type=int, required=True, help="word length")
@click.option("--emit-words", is_flag=True, default=False)
def pi(i_value, m_value, emit_words):
    """Describe the operator pi_i^m as its composition-word sum."""
    if i_value < 0 or m_value < 0:
        _fail_config("i and m must be non-negative")
    if i_value > m_value:
        click.echo(f"pi(i={i_value}, m={m_value}) = 0 (i exceeds m)")
        return
    count = math.comb(m_value, i_value)
    click.echo(f"pi(i={i_value}, m={m_value}) = sum of {count} composition words")
    if emit_words:
        for word in maps.pi_words(i_value, m_value):
            click.echo("∘".join(word))


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
def classify(config_path):
    """Report the twist's axioms, multiplicativity, and order."""
    try:
        cli_config = load_config_file(config_path)
        config = cli_config.ring_config
        tags = sorted(maps.classify_multiplicativity(config.sigma))
        order = maps.detect_finite_order(config.sigma, 12)
        reason = maps.infinite_order_reason(config.sigma)
        doc = {
            "ring": config.describe(),
            "sigma": {
                "kind": config.sigma.kind,
                "axioms": [asdict(c) for c in config.sigma_report.checks],
                "multiplicativity": tags,
                "finite_order": order,
                "infinite_order_reason": reason,
            },
        }
        if config.delta is not None:
            doc["delta"] = {
                "kind": config.delta.kind,
                "axioms": [asdict(c) for c in config.delta_report.checks],
            }
    except SkewringError as exc:
        _fail_config(exc)
    click.echo(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
