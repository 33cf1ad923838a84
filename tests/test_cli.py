import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from skewring import cli, config, maps, rings, suites
from skewring.errors import ConstructionError


GAUSS_Q2 = {
    "ring": {"kind": "gaussian"},
    "twist": {"kind": "q_twist", "q": "2"},
    "shape": "laurent",
    "variable": "X",
}

WEYL = {
    "ring": {
        "kind": "polynomial",
        "base": {"kind": "rationals"},
        "variable": "Y",
        "shape": "ore",
    },
    "twist": {"kind": "identity"},
    "delta": {"kind": "derivative"},
    "shape": "ore",
    "variable": "X",
}

SERIES_Q2 = {
    "ring": {"kind": "gaussian"},
    "twist": {"kind": "q_twist", "q": "2"},
    "shape": "power_series",
    "precision": 4,
    "variable": "X",
}


def invoke(main, args):
    """Run main(args) in this process and catch its SystemExit.

    ``output`` is stdout followed by stderr; ``exception`` is the SystemExit.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr), pytest.raises(SystemExit) as exit_:
        main(list(args))
    out, err = stdout.getvalue(), stderr.getvalue()
    return SimpleNamespace(exit_code=exit_.value.code or 0, stdout=out, stderr=err,
                           output=out + err, exception=exit_.value)


@pytest.fixture
def runner():
    return SimpleNamespace(invoke=invoke)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_config_builds_rings():
    cfg = config.load_config(GAUSS_Q2)
    assert cfg.ring_config.shape == "laurent"
    assert cfg.digest() == config.load_config(GAUSS_Q2).digest()
    weyl = config.load_config(WEYL)
    x = weyl.ring_config.gen
    y = weyl.ring_config.constant(weyl.ring_config.coefficients.gen)
    assert x * y - y * x == weyl.ring_config.one


def test_equal_configs_are_equal_values():
    a, b = config.load_config(WEYL).ring_config, config.load_config(WEYL).ring_config
    assert a.delta.kind == "derivative" and a is not b
    assert a == b and hash(a) == hash(b)


def test_load_config_validates():
    bad = dict(GAUSS_Q2, twist={"kind": "q_twist", "q": "0"})
    with pytest.raises(Exception):
        config.load_config(bad)
    with pytest.raises(Exception):
        config.load_config(dict(GAUSS_Q2, shape="power_series"))  # no precision
    with pytest.raises(Exception):
        config.load_config(dict(GAUSS_Q2, shape="spiral"))
    # a JSON text is not a parsed document
    with pytest.raises(ConstructionError, match="config must be a JSON object"):
        config.load_config('{"ring": ')


def test_load_config_file_unreadable_path(tmp_path):
    # a missing file or a directory is a config error, not a bare OSError
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(ConstructionError, match="cannot read config file") as info:
            config.load_config_file(str(path))
        assert str(path) in str(info.value)


def test_load_config_matrix_and_jordan():
    doc = {
        "ring": {"kind": "matrix", "base": {"kind": "rationals"}, "n": 2},
        "twist": {"kind": "diag_swap"},
        "shape": "laurent",
    }
    cfg = config.load_config(doc)
    assert cfg.ring_config.coefficients.n == 2
    jordan_doc = {
        "ring": {"kind": "jordan", "base": {"kind": "quaternions"}},
        "twist": {"kind": "identity"},
        "shape": "laurent",
    }
    cfg2 = config.load_config(jordan_doc)
    assert cfg2.ring_config.coefficients.name == "HH+"


def test_algebra_descriptor_round_trip():
    from skewring import rings
    doc = {
        "ring": {"kind": "algebra", "spec": rings.gaussian().to_json(), "division": True},
        "twist": {"kind": "conjugation"},
        "shape": "laurent",
    }
    cfg = config.load_config(doc)
    assert cfg.ring_config.coefficients == rings.gaussian()


def test_mul_command(runner, tmp_path):
    path = write(tmp_path, "cfg.json", GAUSS_Q2)
    result = runner.invoke(cli.main, ["mul", "--config", path, "iX", "iX^-1"])
    assert result.exit_code == 0
    assert result.output.strip() == "-2"


M2M2 = {"kind": "matrix", "n": 2, "base": {"kind": "matrix", "base": "rationals", "n": 2}}
# M2(M2(Q)) is M4(Q) in 2x2 blocks: outer entry (I, J), inner entry
# (i, j) has flat index (2I + J)·4 + 2i + j and is M4 entry (2I + i, 2J + j)
M2M2_INDEX = {(2 * big_i + i, 2 * big_j + j): (2 * big_i + big_j) * 4 + 2 * i + j
              for big_i in range(2) for big_j in range(2) for i in range(2) for j in range(2)}


def vector_text(v):
    return "[" + ",".join(str(q) for q in v) + "]"


def test_mul_matrix_over_matrix(runner, tmp_path):
    path = write(tmp_path, "m2m2.json", dict(GAUSS_Q2, ring=M2M2, twist="identity"))
    x = [Fraction(k + 1, 1 + k % 3) for k in range(16)]
    y = [Fraction(7 - k) for k in range(16)]
    expected = [None] * 16
    for (r, c), k in M2M2_INDEX.items():
        expected[k] = sum(x[M2M2_INDEX[r, m]] * y[M2M2_INDEX[m, c]] for m in range(4))
    result = runner.invoke(cli.main, ["mul", "--config", path, vector_text(x), vector_text(y)])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == vector_text(expected)


def test_mul_conj_transpose_over_matrix_of_matrix(runner, tmp_path):
    path = write(tmp_path, "m2m2.json", dict(GAUSS_Q2, ring=M2M2, twist="conj_transpose"))
    # X·a = a*·X, and a* on M2(M2(Q)) is the M4(Q) transpose
    a = list(range(1, 17))
    star = [None] * 16
    for (r, c), k in M2M2_INDEX.items():
        star[k] = a[M2M2_INDEX[c, r]]
    result = runner.invoke(cli.main, ["mul", "--config", path, "X", vector_text(a)])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == vector_text(star) + "X"


TORUS_Q2 = {
    "ring": {"kind": "polynomial", "base": "rationals", "variable": "Y", "shape": "laurent"},
    "twist": {"kind": "y_scale", "q": "2"},
    "shape": "laurent",
}

# Q(i) with i relabelled "ab", over the variable b
LABELLED_GAUSS = {
    "ring": {"kind": "algebra", "division": True, "spec": {
        "name": "Qab", "basis": ["1", "ab"], "unit": ["1", "0"],
        "table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["-1", "0"]]]}},
    "twist": "identity",
    "shape": "laurent",
    "variable": "b",
}


@pytest.mark.parametrize("doc, expr, expected", [
    (TORUS_Q2, "YX^2", "(Y)X^2"),
    (TORUS_Q2, "YX^-1", "(Y)X^-1"),
    (LABELLED_GAUSS, "ab", "ab"),
], ids=["torus-square", "torus-inverse", "label-ending-in-variable"])
def test_mul_identifier_ending_in_variable(runner, tmp_path, doc, expr, expected):
    path = write(tmp_path, "cfg.json", doc)
    result = runner.invoke(cli.main, ["mul", "--config", path, expr, "1"])
    assert result.exit_code == 0
    assert result.output.strip() == expected


INNER_H = {
    "ring": "quaternions", "twist": {"kind": "inner", "u": ["1", "1", "0", "0"]},
    "shape": "laurent",
}

# Q(i)[Y±; conjugation], twisted again by conjugating each coefficient
CONJ_OVER_CONJ = {
    "ring": {"kind": "polynomial", "base": "gaussian", "twist": "conjugation",
             "variable": "Y", "shape": "laurent"},
    "twist": {"kind": "coefficientwise", "base": "conjugation"},
    "shape": "laurent",
}


@pytest.mark.parametrize("doc, left, right, expected", [
    # u = 1 + i: u·j·u^-1 = k
    (INNER_H, "X", "j", "kX"),
    (CONJ_OVER_CONJ, "X", "(iY)", "(-iY)X"),
], ids=["inner", "coefficientwise"])
def test_mul_twist_descriptor(runner, tmp_path, doc, left, right, expected):
    path = write(tmp_path, "cfg.json", doc)
    result = runner.invoke(cli.main, ["mul", "--config", path, left, right])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == expected


def test_inner_descriptor_is_make_twist():
    h = rings.quaternions()
    sigma = config.load_config(INNER_H).ring_config.sigma
    assert sigma == maps.make_twist(h, "inner", u=h.one + h.basis_element(1))


def test_mul_weyl(runner, tmp_path):
    path = write(tmp_path, "weyl.json", WEYL)
    result = runner.invoke(cli.main, ["mul", "--config", path, "X", "(Y)"])
    assert result.exit_code == 0
    assert result.output.strip() == "1 + (Y)X"


def test_mul_series(runner, tmp_path):
    path = write(tmp_path, "series.json", SERIES_Q2)
    result = runner.invoke(
        cli.main,
        ["mul", "--config", path, "1 + iX + O(X^4)", "1 - iX + O(X^4)"],
    )
    assert result.exit_code == 0
    assert result.output.strip().endswith("+ O(X^4)")


def test_mul_series_precision_bound(runner, tmp_path):
    path = write(tmp_path, "series.json", SERIES_Q2)
    result = runner.invoke(cli.main, ["mul", "--config", path, "1 + X + O(X^9)", "1 + O(X^9)"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "expression precision 9 exceeds the config precision 4" in result.stderr
    assert "Traceback" not in result.stderr
    result = runner.invoke(cli.main, ["mul", "--config", path, "1 + X + O(X^4)", "1 + O(X^3)"])
    assert result.exit_code == 0
    assert result.stdout.strip() == "1 + X + O(X^3)"


def test_mul_parse_error_exit_2(runner, tmp_path):
    ore = dict(GAUSS_Q2, shape="ore")
    path = write(tmp_path, "ore.json", ore)
    result = runner.invoke(cli.main, ["mul", "--config", path, "X^-1", "X"])
    assert result.exit_code == 2
    assert "negative exponent" in result.output


def test_mul_zero_denominator_exit_2(runner, tmp_path):
    path = write(tmp_path, "laurent.json", GAUSS_Q2)
    result = runner.invoke(cli.main, ["mul", "--config", path, "1/0", "i"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "zero denominator" in result.stderr
    assert "Traceback" not in result.stderr


def test_reduce_command(runner, tmp_path):
    ore = dict(GAUSS_Q2, shape="ore")
    cfg_path = write(tmp_path, "cfg.json", ore)
    gens_path = write(tmp_path, "gens.json", ["X - i"])
    result = runner.invoke(
        cli.main,
        ["reduce", "--config", cfg_path, "--gens", gens_path, "X^2"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["remainder"] == "-1/2"
    assert doc["irreducible"] is False
    assert all(step["side"] == "right" for step in doc["steps"])
    assert doc["steps"][0]["generator"] == 0


def test_reduce_left(runner, tmp_path):
    ore = dict(GAUSS_Q2, shape="ore")
    cfg_path = write(tmp_path, "cfg.json", ore)
    gens_path = write(tmp_path, "gens.json", ["X^2 + iX"])
    result = runner.invoke(
        cli.main,
        ["reduce", "--config", cfg_path, "--gens", gens_path, "--side", "left", "iX^3"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert all(step["side"] == "left" for step in doc["steps"])


def test_reduce_left_rejects_steps(runner, tmp_path):
    # left division always ends, so a step cap there would be ignored
    cfg_path = write(tmp_path, "cfg.json", dict(GAUSS_Q2, shape="ore"))
    gens_path = write(tmp_path, "gens.json", ["X^2 + iX"])
    result = runner.invoke(
        cli.main,
        ["reduce", "--config", cfg_path, "--gens", gens_path, "--side", "left",
         "--steps", "0", "iX^3"],
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: --steps")


def test_reduce_negative_steps_exit_2(runner, tmp_path):
    cfg_path = write(tmp_path, "cfg.json", dict(GAUSS_Q2, shape="ore"))
    gens_path = write(tmp_path, "gens.json", ["X - i"])
    args = ["reduce", "--config", cfg_path, "--gens", gens_path, "--steps"]
    result = runner.invoke(cli.main, [*args, "-1", "X^2"])
    assert result.exit_code == 2
    assert result.stdout == ""
    zero = runner.invoke(cli.main, [*args, "0", "X^2"])
    assert zero.exit_code == 0
    assert json.loads(zero.stdout) == {"remainder": "X^2", "irreducible": False, "steps": []}


def test_pi_command(runner):
    result = runner.invoke(cli.main, ["pi", "--i", "1", "--m", "3", "--emit-words"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "pi(i=1, m=3) = sum of 3 composition words"
    assert lines[1:] == [
        "sigma∘delta∘delta",
        "delta∘sigma∘delta",
        "delta∘delta∘sigma",
    ]
    zero = runner.invoke(cli.main, ["pi", "--i", "4", "--m", "2"])
    assert "= 0" in zero.output


def test_classify_command(runner, tmp_path):
    path = write(tmp_path, "cfg.json", GAUSS_Q2)
    result = runner.invoke(cli.main, ["classify", "--config", path])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["sigma"]["multiplicativity"] == []
    assert doc["sigma"]["finite_order"] is None
    assert doc["sigma"]["infinite_order_reason"]
    swap = write(tmp_path, "swap.json", {
        "ring": {"kind": "matrix", "base": {"kind": "rationals"}, "n": 2},
        "twist": {"kind": "diag_swap"},
    })
    result = runner.invoke(cli.main, ["classify", "--config", swap])
    assert result.exit_code == 0
    sigma_axioms = json.loads(result.output)["sigma"]["axioms"]
    # each axiom prints its keys in one order, so classify's stdout is stable
    assert all(list(a) == ["axiom", "passed", "detail"] for a in sigma_axioms)
    axioms = {a["axiom"]: a for a in sigma_axioms}
    assert axioms["respects_one"]["detail"] == "sigma(1) = [1,0,0,1]"
    weyl = write(tmp_path, "weyl.json", WEYL)
    result = runner.invoke(cli.main, ["classify", "--config", weyl])
    assert result.exit_code == 0
    delta = json.loads(result.output)["delta"]
    assert delta["kind"] == "derivative"
    assert delta["axioms"] == [
        {"axiom": "additive", "passed": True, "detail": "exact linear representation"},
        {"axiom": "kills_one", "passed": True, "detail": "delta(1) = 0"},
    ]
    assert all(list(a) == ["axiom", "passed", "detail"] for a in delta["axioms"])


def test_verify_suite_exit_codes(runner, tmp_path):
    result = runner.invoke(cli.main, ["verify", "--suite", "jordan"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["summary"]["failed"] == 0
    bad = runner.invoke(cli.main, ["verify", "--suite", "does-not-exist"])
    assert bad.exit_code == 2


def test_verify_markdown_and_out(runner, tmp_path):
    out = tmp_path / "report.md"
    result = runner.invoke(
        cli.main,
        ["verify", "--suite", "simplicity", "--format", "markdown", "--out", str(out)],
    )
    assert result.exit_code == 0
    text = out.read_text()
    assert text.startswith("# Suite `simplicity`")
    assert "Config digest:" in text


def test_verify_with_config(runner, tmp_path):
    path = write(tmp_path, "cfg.json", GAUSS_Q2)
    result = runner.invoke(
        cli.main, ["verify", "--suite", "associativity", "--config", path]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["summary"]["witnesses"] >= 1  # q = 2 is not associative


def test_verify_nuclei_with_ore_config(runner, tmp_path):
    # an ore config has no negative powers of X to check
    path = write(tmp_path, "ore.json", dict(GAUSS_Q2, shape="ore"))
    result = runner.invoke(cli.main, ["verify", "--suite", "nuclei", "--config", path])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["summary"]["failed"] == 0
    assert all(c["status"] != "fail" for c in doc["checks"])


@pytest.mark.parametrize("inner_shape", ["laurent", "ore"])
def test_verify_nuclei_with_polynomial_coefficients(runner, tmp_path, inner_shape):
    # the unit checks need a unit of the coefficient ring: Y in QQ[Y±],
    # a constant in QQ[Y], where Y has no inverse
    torus = {
        "ring": {"kind": "polynomial", "base": "rationals", "variable": "Y",
                 "shape": inner_shape},
        "twist": {"kind": "y_scale", "q": "2"},
        "shape": "laurent",
    }
    path = write(tmp_path, "torus.json", torus)
    result = runner.invoke(cli.main, ["verify", "--suite", "nuclei", "--config", path])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    inverse = [c for c in doc["checks"] if c["id"].startswith("nuclei/inverse/")]
    assert len(inverse) == 9
    assert all(c["status"] == "pass" for c in doc["checks"])


@pytest.mark.parametrize("doc", [
    {"ring": {"kind": "rationals"}, "twist": {"kind": "identity"}, "shape": "laurent"},
    {"ring": {"kind": "polynomial", "base": "rationals", "variable": "Y", "shape": "ore"},
     "twist": {"kind": "y_scale", "q": "2"}, "shape": "laurent"},
], ids=["rationals", "torus-ore"])
def test_nuclei_unit_over_rational_constants(runner, tmp_path, doc):
    # over Q and Q[Y] the unit checks need a unit other than ±1 to certify anything
    ring_config = config.load_config(doc).ring_config
    unit = ring_config.constant(suites._unit_for(ring_config))
    assert unit not in (ring_config.one, -ring_config.one)
    path = write(tmp_path, "cfg.json", doc)
    result = runner.invoke(cli.main, ["verify", "--suite", "nuclei", "--config", path])
    assert result.exit_code == 0, result.output
    units = [c for c in json.loads(result.output)["checks"] if "/unit/" in c["id"]]
    assert len(units) == 3 and all(c["status"] == "pass" for c in units)


def test_verify_unwritable_out_exit_2(runner, tmp_path):
    out = tmp_path / "missing" / "r.json"
    result = runner.invoke(
        cli.main, ["verify", "--suite", "simplicity", "--out", str(out)]
    )
    assert result.exit_code == 2
    assert "error:" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_report_determinism():
    def stripped(report):
        doc = json.loads(suites.emit_report(report))
        for check in doc["checks"]:
            check.pop("elapsed", None)
        return json.dumps(doc)

    first = stripped(suites.run_suite("finite-order-ideals"))
    second = stripped(suites.run_suite("finite-order-ideals"))
    assert first == second


# sha256 of the full `run_suite("all")` JSON report with each `elapsed`
# dropped: any drift in an id, anchor, status or witness changes it
ALL_REPORT_DIGEST = "9e7c5c94dc295f6f6084eb81a42e3f0ffdb8cd03bfd001c064cbd66b9b3f23fc"


def test_reports_have_unique_check_ids():
    report = suites.run_suite("all")
    ids = [c.id for c in report.checks]
    assert len(ids) == len(set(ids))
    assert all(c.anchor for c in report.checks)
    assert report.ok
    doc = json.loads(suites.emit_report(report))
    for check in doc["checks"]:
        check.pop("elapsed")
    canonical = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest() == ALL_REPORT_DIGEST


BAD_CONFIGS = {
    "json-list": [GAUSS_Q2],
    "no-ring": {k: v for k, v in GAUSS_Q2.items() if k != "ring"},
    "q-twist-without-q": dict(GAUSS_Q2, twist={"kind": "q_twist"}),
    "q-not-rational": dict(GAUSS_Q2, twist={"kind": "q_twist", "q": "abc"}),
    # a JSON float is binary, not an exact rational
    "q-float": dict(GAUSS_Q2, twist={"kind": "q_twist", "q": 0.5}),
    "matrix-without-n": dict(
        GAUSS_Q2,
        ring={"kind": "matrix", "base": {"kind": "rationals"}},
        twist={"kind": "identity"},
    ),
    "algebra-bad-rational": dict(
        GAUSS_Q2,
        ring={
            "kind": "algebra",
            "spec": {"name": "A", "basis": ["1"], "table": [[["x"]]], "unit": ["1"]},
        },
        twist={"kind": "identity"},
    ),
    "matrix-twist-moves-one": dict(
        GAUSS_Q2, twist={"kind": "matrix", "matrix": [[2, 0], [0, 1]]}
    ),
    "delta-keeps-one": dict(
        GAUSS_Q2,
        shape="ore",
        twist={"kind": "identity"},
        delta={"kind": "matrix", "matrix": [[1, 0], [0, 1]]},
    ),
    "precision-negative": dict(GAUSS_Q2, precision=-3),
    "precision-string": dict(GAUSS_Q2, precision="5"),
    "precision-bool": dict(GAUSS_Q2, precision=True),
    "variable-number": dict(GAUSS_Q2, variable=5),
    "variable-empty": dict(GAUSS_Q2, variable=""),
    # a basis name would print as the variable: [0,1] prints as i
    "variable-gaussian-basis-name": dict(GAUSS_Q2, variable="i"),
    "variable-octonion-basis-name": dict(
        GAUSS_Q2, ring={"kind": "octonions"}, twist={"kind": "identity"}, variable="e1"
    ),
    # a matrix size is a JSON integer: 2.5 is not truncated, true is not 1
    "matrix-n-float": dict(
        GAUSS_Q2, ring={"kind": "matrix", "base": "rationals", "n": 2.5}, twist="identity"
    ),
    "matrix-n-bool": dict(
        GAUSS_Q2, ring={"kind": "matrix", "base": "rationals", "n": True}, twist="identity"
    ),
    # any non-empty string would be truthy
    "division-string": dict(
        GAUSS_Q2,
        ring={"kind": "algebra", "spec": {"name": "Q", "basis": ["1"], "table": [[["1"]]],
                                          "unit": ["1"]}, "division": "no"},
        twist="identity",
    ),
    # a twist kind that does not fit the ring
    "transpose-not-matrix": dict(GAUSS_Q2, twist="transpose"),
    "diag-swap-not-matrix": dict(GAUSS_Q2, twist="diag_swap"),
    "conj-transpose-not-matrix": dict(GAUSS_Q2, twist="conj_transpose"),
    "conj-transpose-over-involution-free-base": dict(
        GAUSS_Q2,
        ring={"kind": "matrix", "n": 2, "base": {"kind": "algebra", "spec": {
            "name": "A", "basis": ["1"], "table": [[["1"]]], "unit": ["1"]}}},
        twist="conj_transpose",
    ),
    # a matrix ring is conjugated by conj_transpose, not by conjugation
    "conjugation-over-matrix": dict(
        GAUSS_Q2, ring={"kind": "matrix", "base": "gaussian", "n": 2}, twist="conjugation"
    ),
    "coefficientwise-not-polynomial": dict(
        GAUSS_Q2, twist={"kind": "coefficientwise", "base": "identity"}
    ),
    "y-scale-not-polynomial": dict(GAUSS_Q2, twist={"kind": "y_scale", "q": 2}),
    "y-coeff-scale-not-polynomial": dict(GAUSS_Q2, twist={"kind": "y_coeff_scale", "q": 2}),
    "derivative-not-polynomial": dict(GAUSS_Q2, twist="derivative"),
    "y-scale-over-matrix": dict(
        GAUSS_Q2, ring={"kind": "matrix", "base": "rationals", "n": 3},
        twist={"kind": "y_scale", "q": 2},
    ),
    "derivative-over-matrix": dict(
        GAUSS_Q2, ring={"kind": "matrix", "base": "rationals", "n": 3}, twist="derivative"
    ),
    "q-twist-over-polynomial": dict(
        GAUSS_Q2, ring={"kind": "polynomial", "base": "rationals"},
        twist={"kind": "q_twist", "q": 2},
    ),
    "inner-over-polynomial": dict(
        GAUSS_Q2, ring={"kind": "polynomial", "base": "rationals"},
        twist={"kind": "inner", "u": ["1"]},
    ),
    "matrix-twist-over-polynomial": dict(
        GAUSS_Q2, ring={"kind": "polynomial", "base": "rationals"},
        twist={"kind": "matrix", "matrix": [[1]]},
    ),
    # ring descriptors whose base has no structure constants
    "jordan-over-matrix": dict(
        GAUSS_Q2, ring={"kind": "jordan", "base": {"kind": "matrix", "base": "rationals",
                                                   "n": 2}},
        twist="identity",
    ),
    "jordan-over-polynomial": dict(
        GAUSS_Q2, ring={"kind": "jordan", "base": {"kind": "polynomial", "base": "rationals"}},
        twist="identity",
    ),
    "matrix-over-polynomial": dict(
        GAUSS_Q2,
        ring={"kind": "matrix", "base": {"kind": "polynomial", "base": "rationals"}, "n": 2},
        twist="identity",
    ),
    # a·b and the label ab would both print as ab
    "variable-joins-two-labels": dict(
        GAUSS_Q2, ring={"kind": "algebra", "spec": {
            "name": "T", "basis": ["1", "a", "ab"], "unit": ["1", "0", "0"],
            "table": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                      [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
                      [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]]}},
        twist="identity", variable="b",
    ),
    # a matrix twist on Q(i) has 2 rows of 2
    **{f"matrix-twist-{label}": dict(GAUSS_Q2, twist={"kind": "matrix", "matrix": rows})
       for label, rows in [
           ("ragged", [["1", "0"], ["0"]]),
           ("empty", []),
           ("1x1", [["1"]]),
           ("2x3", [["1", "0", "0"], ["0", "1", "0"]]),
           ("3x3", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
       ]},
    # each field of an algebra spec has its JSON type
    **{f"algebra-{label}": dict(
        GAUSS_Q2, twist="identity", ring={"kind": "algebra", "spec": dict(
            {"name": "A", "basis": ["1"], "table": [[["1"]]], "unit": ["1"]}, **field)})
       for label, field in [
           ("name-int", {"name": 5}),
           ("basis-int", {"basis": 5}),
           ("basis-label-int", {"basis": [5]}),
           ("table-int", {"table": 5}),
           ("table-cell-int", {"table": [[5]]}),
           ("unit-int", {"unit": 5}),
           ("involution-int", {"involution": 5}),
       ]},
    "inner-u-three-coordinates": dict(
        GAUSS_Q2, ring="quaternions", twist={"kind": "inner", "u": ["1", "1", "0"]}
    ),
    "inner-u-zero": dict(
        GAUSS_Q2, ring="quaternions", twist={"kind": "inner", "u": ["0", "0", "0", "0"]}
    ),
    "inner-u-not-list": dict(GAUSS_Q2, ring="quaternions", twist={"kind": "inner", "u": "1"}),
    "coefficientwise-without-base": dict(
        GAUSS_Q2, ring={"kind": "polynomial", "base": "gaussian"},
        twist={"kind": "coefficientwise"},
    ),
    # a JSON boolean is not a rational: true is not 1
    "q-bool": dict(GAUSS_Q2, twist={"kind": "q_twist", "q": True}),
    "matrix-twist-bool": dict(
        GAUSS_Q2, twist={"kind": "matrix", "matrix": [[True, False], [False, True]]}
    ),
    "inner-u-bool": dict(
        GAUSS_Q2, ring="quaternions", twist={"kind": "inner", "u": [True, False, False, False]}
    ),
    "y-scale-q-bool": dict(
        GAUSS_Q2, ring={"kind": "polynomial", "base": "rationals"},
        twist={"kind": "y_scale", "q": True},
    ),
    "algebra-bool": dict(
        GAUSS_Q2, twist="identity", ring={"kind": "algebra", "spec": {
            "name": "A", "basis": ["1"], "table": [[[True]]], "unit": [True]}},
    ),
}


@pytest.mark.parametrize("command", ["mul", "verify"])
@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_malformed_config_exit_2(runner, tmp_path, command, name):
    path = write(tmp_path, "bad.json", BAD_CONFIGS[name])
    if command == "mul":
        args = ["mul", "--config", path, "X", "1"]
    else:
        args = ["verify", "--suite", "associativity", "--config", path]
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("args", [
    ["mul", "--config", "{path}", "X", "1"],
    ["reduce", "--config", "{path}", "--gens", "{gens}", "X"],
    ["verify", "--suite", "associativity", "--config", "{path}"],
    ["classify", "--config", "{path}"],
])
def test_non_json_config_exit_2(runner, tmp_path, args):
    path = tmp_path / "bad.json"
    path.write_text('{"ring": "gaussian",')
    gens = write(tmp_path, "gens.json", ["X - i"])
    result = runner.invoke(cli.main, [a.format(path=path, gens=gens) for a in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: config file is not valid JSON")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("gens_text", ["[5]", '{"a": 1}', '["X - i"'])
def test_reduce_bad_gens_file_exit_2(runner, tmp_path, gens_text):
    cfg = write(tmp_path, "ore.json", dict(GAUSS_Q2, shape="ore"))
    gens = tmp_path / "gens.json"
    gens.write_text(gens_text)
    result = runner.invoke(cli.main, ["reduce", "--config", cfg, "--gens", str(gens), "X"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: generators file ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("args", [
    ["mul", "--config", "{missing}", "X", "1"],
    ["mul", "--config", "{folder}", "X", "1"],
    ["verify", "--suite", "associativity", "--config", "{missing}"],
    ["classify", "--config", "{folder}"],
    ["reduce", "--config", "{cfg}", "--gens", "{missing}", "X"],
    ["reduce", "--config", "{cfg}", "--gens", "{folder}", "X"],
], ids=["mul-missing", "mul-directory", "verify-missing", "classify-directory",
        "gens-missing", "gens-directory"])
def test_unreadable_config_or_gens_exit_2(runner, tmp_path, args):
    cfg = write(tmp_path, "ore.json", dict(GAUSS_Q2, shape="ore"))
    paths = {"missing": tmp_path / "missing.json", "folder": tmp_path, "cfg": cfg}
    result = runner.invoke(cli.main, [a.format(**paths) for a in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: cannot read ")
    assert "Traceback" not in result.stderr


# argument errors: argparse's usage errors and the commands' own range checks
ARGUMENT_ERRORS = {
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "mul-without-config": ["mul", "X", "1"],
    "format-xml": ["verify", "--suite", "jordan", "--format", "xml"],
    "side-up": ["reduce", "--config", "{cfg}", "--gens", "{gens}", "--side", "up", "X"],
    "steps-negative": ["reduce", "--config", "{cfg}", "--gens", "{gens}", "--steps", "-1", "X"],
    "steps-not-int": ["reduce", "--config", "{cfg}", "--gens", "{gens}", "--steps", "x", "X"],
    "pi-i-not-int": ["pi", "--i", "x", "--m", "2"],
    "pi-i-negative": ["pi", "--i", "-1", "--m", "2"],
}


@pytest.mark.parametrize("name", ARGUMENT_ERRORS)
def test_argument_errors_exit_2(runner, tmp_path, name):
    paths = {"cfg": write(tmp_path, "ore.json", dict(GAUSS_Q2, shape="ore")),
             "gens": write(tmp_path, "gens.json", ["X - i"])}
    result = runner.invoke(cli.main, [a.format(**paths) for a in ARGUMENT_ERRORS[name]])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("args", [["--help"], ["mul", "--help"]], ids=["top", "mul"])
def test_help_exit_0(runner, args):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 0
    assert result.stdout.startswith("usage: skewring")


def test_module_entry_point_usage_error_exit_2():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "skewring.cli", "mul", "X", "1"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--config" in proc.stderr and "Traceback" not in proc.stderr


def test_run_suite_records_unexpected_errors(monkeypatch):
    builder = suites._SUITE_BUILDERS["jordan"]

    def broken():
        checks = builder()
        check_id, anchor, _ = checks[0]

        def boom():
            raise ZeroDivisionError("division by zero")

        return [(check_id, anchor, boom), *checks[1:]]

    monkeypatch.setitem(suites._SUITE_BUILDERS, "jordan", broken)
    report = suites.run_suite("jordan")
    first, *rest = report.checks
    assert first.status == "fail"
    assert first.witness == {"error": "ZeroDivisionError: division by zero"}
    assert len(rest) == len(builder()) - 1 > 0
    assert all(c.status in ("pass", "witness") for c in rest)


def test_cli_suite_names_match_builders():
    assert cli.SUITE_NAMES == suites.SUITE_NAMES == tuple(suites._SUITE_BUILDERS)


# run in a fresh interpreter: which heavy modules each command has loaded
IMPORT_DIET = """
import json, sys
BEFORE = set(sys.modules)
from skewring import cli

laurent, series, ore, gens = sys.argv[1:]
WATCHED = ("skewring.suites", "skewring.structure", "hashlib", "dataclasses", "inspect",
           "skewring.config", "skewring.parsing", "skewring.poly")
loaded = {}
foreign = {}

def note(label, code):
    loaded[label] = [code, [name for name in WATCHED if name in sys.modules]]
    # modules loaded since start-up that are neither the standard library nor skewring
    foreign[label] = sorted(name for name in set(sys.modules) - BEFORE
                            if name.partition(".")[0] not in sys.stdlib_module_names
                            and name.partition(".")[0] != "skewring")

def run(label, *args):
    code = 0
    try:
        cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    note(label, code)

note("import", 0)
run("pi", "pi", "--i", "1", "--m", "3", "--emit-words")
run("mul", "mul", "--config", laurent, "iX^-1 + 2", "X^2")
run("mul-series", "mul", "--config", series, "1 + X + O(X^4)", "iX + O(X^4)")
run("mul-malformed", "mul", "--config", laurent, "X^^2", "i")
run("classify", "classify", "--config", laurent)
run("reduce", "reduce", "--config", ore, "--gens", gens, "X^3")
run("verify", "verify", "--suite", "simplicity")
print(json.dumps({"loaded": loaded, "foreign": foreign}))
"""


def test_cli_commands_import_only_what_they_run(tmp_path):
    paths = [write(tmp_path, "laurent.json", GAUSS_Q2),
             write(tmp_path, "series.json", SERIES_Q2),
             write(tmp_path, "ore.json", dict(GAUSS_Q2, shape="ore")),
             write(tmp_path, "gens.json", ["X - i"])]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", IMPORT_DIET, *paths], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    loaded = result["loaded"]
    # each entry is [exit code, watched modules loaded so far]; pi runs first
    # and needs no config or parser, and no command loads dataclasses or inspect
    config = ["skewring.config", "skewring.parsing", "skewring.poly"]
    assert loaded == {
        "import": [0, []], "pi": [0, []], "mul": [0, config], "mul-series": [0, config],
        "mul-malformed": [2, config], "classify": [0, config],
        "reduce": [0, ["skewring.structure", *config]],
        "verify": [0, ["skewring.suites", "skewring.structure", "hashlib", *config]],
    }
    # the CLI runs on the standard library alone
    assert result["foreign"] == {label: [] for label in loaded}
