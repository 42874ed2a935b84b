"""sympy is loaded only to factor polynomials over Q.  Importing the CLI,
and running it on documents over Z and F_p[t] whose centers are Q or
F_p(t), must not load it; each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys

import pytest

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


def sympy_loaded(tmp_path, argv=None, doc=None):
    """Whether sympy is in sys.modules after importing maxord.cli and, if
    argv is given, running main(argv) on doc."""
    script = ["import sys", "import maxord.cli"]
    if argv is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [argv[0], str(path), *argv[1:]]
        script.append("code = maxord.cli.main(%r)" % (argv,))
        script.append("assert code in (0, 2), code")
    script.append("print('sympy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", "\n".join(script)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1] == "True"


def test_import_does_not_load_sympy(tmp_path):
    assert not sympy_loaded(tmp_path)


@pytest.mark.parametrize("argv, doc", [
    (["disc"], HURWITZ),
    (["certify"], HURWITZ),
    (["certify"], LIPSCHITZ),
    (["maximal-order"], LIPSCHITZ),
    (["maximal-order", "--primes", "t,t^3+t+1"], F2T_INSEPARABLE),
])
def test_commands_over_z_and_fpt_do_not_load_sympy(tmp_path, argv, doc):
    assert not sympy_loaded(tmp_path, argv, doc)


def test_splitting_center_loads_sympy(tmp_path):
    # the control: Q[x]/(x^2-1) = Q x Q needs a factorization over Q
    doc = {"algebra": {"poly_quotient": {"modulus": "x^2-1"}},
           "basis": [["1", "0"], ["0", "1"]]}
    assert sympy_loaded(tmp_path, ["maximal-order"], doc)


def test_quadratic_field_does_not_load_sympy(tmp_path):
    # Q(sqrt 5) is a field: x^2 - 5 is irreducible mod 3, so the center
    # needs no factorization over Q
    doc = {"algebra": {"poly_quotient": {"modulus": "x^2-5"}},
           "basis": [["1", "0"], ["0", "1"]]}
    assert not sympy_loaded(tmp_path, ["maximal-order"], doc)
