"""sympy is loaded only for integers of 2^32 and above, which trial
division cannot factor.  Importing the CLI, and running it on documents
over Z and F_p[t], centers that split over Q included, must not load it.
A command loads maxord.serre or maxord.decompose only when it runs them,
and maxord.orders and maxord.finitealg only when it takes a p-step.  No
command loads argparse, or the gettext and locale it brings.  Each check
runs in a fresh interpreter."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from test_cli import GAUSSIAN_ORDER, SERRE_LATTICE_DOC

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

HURWITZ = {
    "algebra": {"quaternion": {"a": "-1", "b": "-1"}},
    "basis": [["1/2", "1/2", "1/2", "1/2"], ["0", "1", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
}

LIPSCHITZ = {
    "algebra": {"quaternion": {"a": "-1", "b": "-1"}},
    "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
}

# x^4 = t (t^3+t+1)^4 over F_2[t]: purely inseparable
F2T_INSEPARABLE = {
    "algebra": {"ground": {"poly": {"p": 2, "var": "t"}},
                "poly_quotient": {"modulus": "x^4+t^13+t^5+t"},
                "trusted_semisimple": True},
    "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
}


# End_Z[i](Z[i]^2), which takes no p-step
ENDO_DOC = {"delta": GAUSSIAN_ORDER,
            "lattice": [["1" if a == b else "0" for b in range(4)]
                        for a in range(4)]}

P_STEP_MODULES = ["maxord.orders", "maxord.finitealg"]


def loaded(tmp_path, module, argv=None, doc=None):
    """Whether module is in sys.modules after importing maxord.cli and, if
    argv is given, running main(argv) on doc."""
    script = ["import sys", "import maxord.cli"]
    if argv is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [argv[0], str(path), *argv[1:]]
        script.append("code = maxord.cli.main(%r)" % (argv,))
        script.append("assert code in (0, 2), code")
    script.append("print(%r in sys.modules)" % module)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", "\n".join(script)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1] == "True"


def test_import_does_not_load_sympy(tmp_path):
    assert not loaded(tmp_path, "sympy")


@pytest.mark.parametrize("argv, doc", [
    (["disc"], HURWITZ),
    (["certify"], HURWITZ),
    (["certify"], LIPSCHITZ),
    (["maximal-order"], LIPSCHITZ),
    (["maximal-order", "--primes", "t,t^3+t+1"], F2T_INSEPARABLE),
])
def test_commands_over_z_and_fpt_do_not_load_sympy(tmp_path, argv, doc):
    assert not loaded(tmp_path, "sympy", argv, doc)


@pytest.mark.parametrize("argv, modulus", [
    (["maximal-order"], "x^2-1"),
    (["decompose"], "x^3-x^2-2x+2"),  # (x - 1)(x^2 - 2)
])
def test_splitting_center_does_not_load_sympy(tmp_path, argv, modulus):
    # only decompose splits a center that is not a field, by factoring
    # over Q; maximal-order splits no center and factors nothing over Q
    algebra = {"poly_quotient": {"modulus": modulus}}
    doc = algebra
    if argv == ["maximal-order"]:
        doc = {"algebra": algebra, "basis": [["1", "0"], ["0", "1"]]}
    assert not loaded(tmp_path, "sympy", argv, doc)


@pytest.mark.parametrize("argv, doc", [
    (["disc"], HURWITZ),
    (["certify"], HURWITZ),
    (["maximal-order"], LIPSCHITZ),
])
@pytest.mark.parametrize("module", ["maxord.serre", "maxord.decompose",
                                    "maxord.selftest"])
def test_order_commands_load_only_what_they_run(tmp_path, argv, doc, module):
    assert not loaded(tmp_path, module, argv, doc)


def test_decompose_loads_decompose_but_not_serre(tmp_path):
    doc = {"poly_quotient": {"modulus": "x^3-x^2-2x+2"}}
    assert loaded(tmp_path, "maxord.decompose", ["decompose"], doc)
    assert not loaded(tmp_path, "maxord.serre", ["decompose"], doc)


def test_serre_lattice_loads_serre(tmp_path):
    # the control of the checks above
    assert loaded(tmp_path, "maxord.serre", ["serre-lattice"],
                  SERRE_LATTICE_DOC)


@pytest.mark.parametrize("argv, doc", [
    (None, None),  # import maxord.cli alone
    (["disc"], HURWITZ),
    (["center"], HURWITZ["algebra"]),
    (["serre-lattice"], SERRE_LATTICE_DOC),
    (["endo-order"], ENDO_DOC),
], ids=["import", "disc", "center", "serre-lattice", "endo-order"])
@pytest.mark.parametrize("module", P_STEP_MODULES)
def test_commands_without_p_steps_load_no_p_step_module(tmp_path, argv, doc,
                                                        module):
    assert not loaded(tmp_path, module, argv, doc)


@pytest.mark.parametrize("argv, doc", [
    (["maximal-order"], LIPSCHITZ),
    (["certify"], HURWITZ),
    (["radical", "--primes", "2"], LIPSCHITZ),
], ids=["maximal-order", "certify", "radical"])
@pytest.mark.parametrize("module", P_STEP_MODULES)
def test_p_step_commands_load_the_p_step_modules(tmp_path, argv, doc,
                                                 module):
    # the control of the check above
    assert loaded(tmp_path, module, argv, doc)


@pytest.mark.parametrize("argv", [None, ["disc"], ["maximal-order"]],
                         ids=["import", "disc", "maximal-order"])
@pytest.mark.parametrize("module", ["argparse", "gettext", "locale"])
def test_cold_path_loads_no_argparse(tmp_path, argv, module):
    assert not loaded(tmp_path, module, argv, GAUSSIAN_ORDER)


def test_large_prime_discriminant_loads_sympy(tmp_path):
    # the control: the discriminant 4*8589934609 has a prime factor above
    # 2^32, which trial division cannot settle
    doc = {"algebra": {"poly_quotient": {"modulus": "x^2-8589934609"}},
           "basis": [["1", "0"], ["0", "1"]]}
    assert loaded(tmp_path, "sympy", ["maximal-order"], doc)


def test_sympy_imported_only_for_large_integers():
    found = []

    def visit(node, module, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, module, child.name)
                continue
            names = ([a.name for a in child.names]
                     if isinstance(child, ast.Import) else
                     [child.module or ""]
                     if isinstance(child, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "sympy" for name in names):
                found.append((module, func))
            visit(child, module, func)

    for path in sorted(pathlib.Path(SRC, "maxord").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert found == [("rings", "int_factorization"), ("rings", "int_is_prime")]


def test_quadratic_field_does_not_load_sympy(tmp_path):
    # Q(sqrt 5) is a field: x^2 - 5 is irreducible mod 3, so the center
    # needs no factorization over Q
    doc = {"algebra": {"poly_quotient": {"modulus": "x^2-5"}},
           "basis": [["1", "0"], ["0", "1"]]}
    assert not loaded(tmp_path, "sympy", ["maximal-order"], doc)
