import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from maxord import cli
from maxord.cli import main

GAUSSIAN_ORDER = {
    "algebra": {"poly_quotient": {"modulus": "x^2+1"}},
    "basis": [["1", "0"], ["0", "1"]],
}

EISENSTEIN_EQUATION_ORDER = {
    "algebra": {"poly_quotient": {"modulus": "x^2+3"}},
    "basis": [["1", "0"], ["0", "1"]],
}

MATRIX_ORDER = {
    "algebra": {"matrix": {"n": 2}},
    "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
}

CONDUCTOR_MATRIX_ORDER = {
    "algebra": {"matrix": {"n": 2}},
    "basis": [["1", "0", "0", "1"], ["5", "0", "0", "0"],
              ["0", "5", "0", "0"], ["0", "0", "5", "0"]],
}

F2T_ORDER = {
    "algebra": {"ground": {"poly": {"p": 2, "var": "t"}},
                "poly_quotient": {"modulus": "x^2+t"},
                "trusted_semisimple": True},
    "basis": [["1", "0"], ["0", "t"]],
}


SERRE_CLASS_DOC = {
    "order": {
        "algebra": {"ground": "Z", "dim": 3,
                    "basis": ["e11", "e12", "e22"],
                    "mul": [
                        [["1", "0", "0"], ["0", "1", "0"],
                         ["0", "0", "0"]],
                        [["0", "0", "0"], ["0", "0", "0"],
                         ["0", "1", "0"]],
                        [["0", "0", "0"], ["0", "0", "0"],
                         ["0", "0", "1"]],
                    ],
                    "one": ["1", "0", "1"]},
        "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    },
    "alpha": [[["1", "0", "0"]]],  # cokernel of e11
    "type": {"factors": [
        {"label": "E", "dim": 1, "endo": "Q", "mult": 2}]},
    "embedding": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                  ["0", "0", "0", "1"]],
}

SERRE_LATTICE_DOC = {
    "order": EISENSTEIN_EQUATION_ORDER,
    "alpha": [[["-1", "-1"], ["2", "0"]]],
    "lattice": {
        "basis": [["1", "0"], ["0", "1"]],
        "action": [[["1", "0"], ["0", "1"]],
                   [["0", "1"], ["-3", "0"]]],
        "prime": "2",
    },
}


MINIMAL_ISOGENY_DOC = {
    "order": EISENSTEIN_EQUATION_ORDER,
    "orderPrime": {"basis": [["1", "0"], ["1/2", "1/2"]]},
    "type": {"factors": [
        {"label": "E", "dim": 1, "endo": "Q", "mult": 1}]},
    "lattices": [{
        "basis": [["1", "0"], ["0", "1"]],
        "action": [[["1", "0"], ["0", "1"]],
                   [["0", "1"], ["-3", "0"]]],
        "prime": "2",
    }],
}

# F_3[t][t·x] inside F_3[t][x], x² = -t, acting on itself
F3T_MINIMAL_ISOGENY_DOC = {
    "order": {"algebra": {"ground": {"poly": {"p": 3, "var": "t"}},
                          "poly_quotient": {"modulus": "x^2+t"},
                          "trusted_semisimple": True},
              "basis": [["1", "0"], ["0", "t"]]},
    "orderPrime": {"basis": [["1", "0"], ["0", "1"]]},
    "lattices": [{
        "basis": [["1", "0"], ["0", "t"]],
        "action": [[["1", "0"], ["0", "1"]],
                   [["0", "t"], ["-t^2", "0"]]],
        "prime": "t",
    }],
}


def with_prime(doc, prime):
    return dict(doc, lattices=[dict(doc["lattices"][0], prime=prime)])


def run_cli(tmp_path, doc, *argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return main([argv[0], str(path), *argv[1:]])


def run_cli_capture(tmp_path, capsys, doc, *argv):
    code = run_cli(tmp_path, doc, *argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_certify_maximal_is_zero(self, tmp_path, capsys):
        code, out, _ = run_cli_capture(tmp_path, capsys, MATRIX_ORDER,
                                       "certify", "--primes", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True

    def test_certify_non_maximal_is_two(self, tmp_path, capsys):
        code, out, _ = run_cli_capture(
            tmp_path, capsys, EISENSTEIN_EQUATION_ORDER, "certify")
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] is False
        assert doc["failing_prime"] == "2"

    def test_conductor_matrix_order_is_two(self, tmp_path, capsys):
        code, out, _ = run_cli_capture(
            tmp_path, capsys, CONDUCTOR_MATRIX_ORDER, "certify",
            "--primes", "5")
        assert code == 2
        assert json.loads(out)["failing_prime"] == "5"

    def test_parse_error_is_one(self, tmp_path, capsys):
        code, _, err = run_cli_capture(tmp_path, capsys, {"bogus": 1},
                                       "certify")
        assert code == 1
        rec = json.loads(err)
        assert set(rec) == {"code", "message", "location"}
        assert rec["code"] == "ParseError"

    def test_missing_input_is_one(self, capsys):
        assert main(["certify"]) == 1
        rec = json.loads(capsys.readouterr().err)
        assert rec["code"] == "ParseError"

    def test_missing_file_is_one(self, capsys):
        assert main(["certify", "/nonexistent/input.json"]) == 1

    def test_error_records_share_one_key_order(self, capsys):
        """A usage error and an error raised by a command print the keys
        of their records in the same, sorted, order."""
        keys = []
        for argv in (["disc"], ["disc", "/nonexistent.json"]):
            assert main(argv) == 1
            keys.append(list(json.loads(capsys.readouterr().err)))
        assert keys == [["code", "location", "message"]] * 2

    def test_unexpected_exception_is_internal_error(self, tmp_path, capsys,
                                                    monkeypatch):
        def fail(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.COMMANDS, "disc", fail)
        code, out, err = run_cli_capture(tmp_path, capsys, GAUSSIAN_ORDER,
                                         "disc")
        assert (code, out) == (1, "")
        assert err == ('{"code": "InternalError", "location": "disc", '
                       '"message": "boom"}\n')


USAGE_ERRORS = {
    "unknown command": ["certfy", "IN"],
    "unknown option": ["disc", "IN", "--prim", "2"],
    "bad seed": ["disc", "IN", "--seed", "x"],
    "bad format": ["disc", "IN", "--format", "xml"],
    "missing value": ["certify", "IN", "--primes"],
    "three positionals": ["disc", "IN", "IN"],
    "no command": [],
}

# words an argv is drawn from; IN is the Gaussian order, maximal at
# every prime, so no command may certify a negative result on it
ARGV_WORDS = sorted(cli.COMMANDS) + [
    "IN", "IN", "OUT", "--primes", "--primes=2", "2", "3", "--seed",
    "--seed=1", "x", "--format", "--format=text", "text", "xml", "--output",
    "--idempotents-file", "--prim", "--bogus", "-h", "-", "--", ""]


class TestUsage:
    def argv(self, tmp_path, words):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(GAUSSIAN_ORDER))
        names = {"IN": str(path), "OUT": str(tmp_path / "out.json")}
        return [names.get(w, w) for w in words]

    @pytest.mark.parametrize("words", list(USAGE_ERRORS.values()),
                             ids=list(USAGE_ERRORS))
    def test_usage_error_is_one_parse_error(self, tmp_path, capsys, words):
        assert main(self.argv(tmp_path, words)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        rec = json.loads(line)
        assert (rec["code"], rec["location"]) == ("ParseError", "cli")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(words=st.lists(st.sampled_from(ARGV_WORDS), max_size=5))
    def test_no_argv_exits_two(self, tmp_path, capsys, monkeypatch, words):
        # a drawn --output value other than OUT names a file in the cwd
        monkeypatch.chdir(tmp_path)
        assert main(self.argv(tmp_path, words)) in (0, 1)
        capsys.readouterr()

    def test_equals_form(self, tmp_path, capsys):
        outs = []
        for flags in (["--primes", "2"], ["--primes=2"]):
            assert main(self.argv(tmp_path, ["certify", "IN", *flags])) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]
        assert json.loads(outs[0].out)["certificates"][0]["prime"] == "2"

    def test_options_before_command(self, tmp_path, capsys):
        argv = self.argv(tmp_path, ["--format", "text", "disc", "IN"])
        assert main(argv) == 0
        assert capsys.readouterr().out == "discriminant: -4\n"

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, capsys, flag):
        assert main(["disc", flag]) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in cli.COMMANDS)
        assert all(name in out for name in cli.OPTIONS)


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("command, doc, location", [
    ("serre-lattice", without(SERRE_LATTICE_DOC, "alpha"), "/alpha"),
    ("serre-lattice", without(SERRE_LATTICE_DOC, "order"), "/order"),
    ("serre-lattice", without(SERRE_LATTICE_DOC, "lattice"), "/lattice"),
    ("serre-class", without(SERRE_CLASS_DOC, "type"), "/type"),
    ("serre-class", without(SERRE_CLASS_DOC, "embedding"), "/embedding"),
    ("center", {"matrix": {"n": "x"}}, "/matrix/n"),
    ("center", {"dim": "2.5", "mul": [], "one": []}, "/dim"),
    ("disc", {"algebra": {"matrix": {"n": 2}}}, "/basis"),
    ("disc", {"algebra": {"matrix": {"n": 2}},
              "basis": [["1", "0"], ["0"]]}, "/basis"),
    ("serre-class", dict(SERRE_CLASS_DOC, type={"factors": [
        {"label": "E", "dim": "one", "endo": "Q", "mult": 2}]}),
     "/type/factors/0/dim"),
    # rows of width 2 for a dimension-4 algebra
    ("disc", {"algebra": {"matrix": {"n": 2}},
              "basis": [["1", "0"], ["0", "1"]]}, "/basis"),
    # shorthands whose dimension is out of range, rejected before any
    # table is built
    ("center", {"matrix": {"n": -2}}, "/matrix/n"),
    ("center", {"matrix": {"n": 0}}, "/matrix/n"),
    ("center", {"matrix": {"n": "999999999999999999999"}}, "/matrix/n"),
    ("center", {"matrix": {"n": 9}}, "/matrix/n"),
    ("center", {"poly_quotient": {"modulus": "x^1000+1"}},
     "/poly_quotient/modulus"),
    ("disc", {"algebra": {"poly_quotient": {"modulus": "x^65-2"}},
              "basis": [["1"]]}, "/algebra/poly_quotient/modulus"),
    # a type of dimension 0 has no model algebra to embed the order in
    ("serre-class", dict(SERRE_CLASS_DOC, type={"factors": []}),
     "/type/factors"),
    ("serre-class", dict(SERRE_CLASS_DOC, type={"factors": [
        {"label": "E", "dim": 1, "endo": "Q", "mult": -1}]}),
     "/type/factors"),
    # a model algebra Mat_9(Q) of dimension 81 > 64
    ("serre-class", dict(SERRE_CLASS_DOC, type={"factors": [
        {"label": "E", "dim": 1, "endo": "Q", "mult": 9}]}),
     "/type/factors"),
    # a prime label is a string, or absent for "generic"
    ("minimal-isogeny", with_prime(F3T_MINIMAL_ISOGENY_DOC, 5),
     "/lattices/0/prime"),
    ("minimal-isogeny", with_prime(MINIMAL_ISOGENY_DOC, ["x"]),
     "/lattices/0/prime"),
    ("serre-lattice", dict(SERRE_LATTICE_DOC, lattice=dict(
        SERRE_LATTICE_DOC["lattice"], prime=None)), "/lattice/prime"),
    # an action matrix of one row on a lattice of rank 2
    ("serre-lattice", dict(SERRE_LATTICE_DOC, lattice=dict(
        SERRE_LATTICE_DOC["lattice"], action=[
            [["1", "0"]], [["0", "1"], ["-3", "0"]]])), "/lattice/action/0"),
    # an r with r·dim D other than the lattice width: D = Q on width 2,
    # and D = Z[i] on width 4
    ("endo-order", {"delta": {"algebra": "Q", "basis": [["1"]]},
                    "lattice": [["0", "-5"]], "r": 1}, "/r"),
    ("endo-order", {"delta": GAUSSIAN_ORDER,
                    "lattice": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
                    "r": 1}, "/r"),
    # full-form tables of the wrong size, rejected before any table is
    # built: a dimension below 1, a third row of a 2-dimensional table, a
    # row of three cells, a cell of three constants, a unit of two
    ("center", {"dim": 0, "mul": [], "one": []}, "/dim"),
    ("center", {"dim": 2, "mul": [[["1", "0"], ["0", "1"]],
                                  [["0", "1"], ["0", "0"]],
                                  [["0", "0"], ["0", "0"]]],
                "one": ["1", "0"]}, "/mul"),
    ("center", {"dim": 2, "mul": [[["1", "0"], ["0", "1"]],
                                  [["0", "1"], ["0", "0"], ["0", "0"]]],
                "one": ["1", "0"]}, "/mul/1"),
    ("center", {"dim": 1, "mul": [[["1", "0", "9"]]], "one": ["1"]},
     "/mul/0/0"),
    ("center", {"dim": 1, "mul": [[["1"]]], "one": ["1", "7"]}, "/one"),
])
def test_malformed_document_is_parse_error(tmp_path, capsys, command, doc,
                                           location):
    code, _, err = run_cli_capture(tmp_path, capsys, doc, command)
    assert code == 1
    rec = json.loads(err)
    assert rec["code"] == "ParseError"
    assert rec["location"] == location


def with_lattice(**fields):
    return dict(SERRE_LATTICE_DOC,
                lattice=dict(SERRE_LATTICE_DOC["lattice"], **fields))


# one document per check of a period lattice's action, on Z[x]/(x^2 + 3)
# with basis 1, x
@pytest.mark.parametrize("doc, message", [
    (with_lattice(action=[[["1", "0"], ["0", "1"]]]),
     "need one action matrix per order basis element"),
    # x acting with square 3 in place of -3
    (with_lattice(action=[[["1", "0"], ["0", "1"]], [["0", "1"], ["3", "0"]]]),
     "action matrices violate b_1·b_1"),
    # the zero action satisfies every product relation, but not the unit's
    (with_lattice(action=[[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]),
     "unit does not act as the identity"),
    # (0, 1)·x = (-3, 0) is outside 2Z + Z
    (with_lattice(basis=[["2", "0"], ["0", "1"]]),
     "lattice is not stable under b_1"),
])
def test_bad_period_lattice_action_is_action_mismatch(tmp_path, capsys, doc,
                                                      message):
    code, out, err = run_cli_capture(tmp_path, capsys, doc, "serre-lattice")
    assert code == 1
    assert out == ""
    rec = json.loads(err)
    assert rec["code"] == "ActionMismatch"
    assert rec["message"] == message


@pytest.mark.parametrize("flags", [[], ["--primes", "2,3"], ["--primes", ","]])
def test_radical_needs_exactly_one_prime(tmp_path, capsys, flags):
    code, out, err = run_cli_capture(tmp_path, capsys, GAUSSIAN_ORDER,
                                     "radical", *flags)
    assert code == 1 and not out
    rec = json.loads(err)
    assert rec["code"] == "ParseError"
    assert "exactly one prime" in rec["message"]


class TestCertify:
    def test_cubic_ring_of_integers_is_maximal(self, tmp_path, capsys):
        # Z[x]/(x^3+x+1) has squarefree discriminant -31
        doc = {"algebra": {"poly_quotient": {"modulus": "x^3+x+1"}},
               "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
        code, out, _ = run_cli_capture(tmp_path, capsys, doc, "certify")
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_vanishing_discriminant_needs_primes(self, tmp_path, capsys):
        # x^2 + t is inseparable over F_2(t): the discriminant vanishes and
        # names no prime, yet F_2[t] + F_2[t]·tx is not maximal at t
        code, out, err = run_cli_capture(tmp_path, capsys, F2T_ORDER,
                                         "certify")
        assert code == 1 and not out
        assert json.loads(err)["code"] == "NeedsSuppliedPrimes"
        code, out, _ = run_cli_capture(tmp_path, capsys, F2T_ORDER,
                                       "certify", "--primes", "t")
        assert code == 2
        assert json.loads(out)["failing_prime"] == "t"


def test_trusted_algebra_that_is_not_semisimple(tmp_path, capsys):
    # F_2(t)[x]/(x^2) declared trusted_semisimple: its discriminant
    # vanishes, so p-maximalization at t has a budget, not a proved bound,
    # and the order x/t^k grows past it
    doc = {"algebra": {"ground": {"poly": {"p": 2}},
                       "poly_quotient": {"modulus": "x^2"},
                       "trusted_semisimple": True},
           "basis": [["1", "0"], ["0", "t"]]}
    code, out, err = run_cli_capture(tmp_path, capsys, doc,
                                     "maximal-order", "--primes", "t")
    assert code == 1 and not out
    rec = json.loads(err)
    assert rec["code"] == "BoundExceeded"
    assert "at t" in rec["message"] and "128 steps" in rec["message"]
    assert "trusted_semisimple" in rec["message"]


def nil_quaternion_order(trusted):
    """Z⟨i, j⟩ in (0, 1 | Q), which is not semisimple: i² = 0, and Q·i +
    Q·k is a nil ideal."""
    algebra = {"quaternion": {"a": "0", "b": "1"}}
    if trusted:
        algebra["trusted_semisimple"] = True
    return {"algebra": algebra,
            "basis": [["1" if a == b else "0" for b in range(4)]
                      for a in range(4)]}


@pytest.mark.parametrize("trusted", [False, True], ids=["plain", "trusted"])
@pytest.mark.parametrize("flags", [(), ("--primes", "2")],
                         ids=["no-primes", "primes-2"])
def test_vanishing_discriminant_in_characteristic_0(tmp_path, capsys, flags,
                                                    trusted):
    # In characteristic 0 the vanishing discriminant proves it, whatever the
    # document declares, with or without candidate primes
    code, out, err = run_cli_capture(tmp_path, capsys,
                                     nil_quaternion_order(trusted),
                                     "maximal-order", *flags)
    assert code == 1 and not out
    rec = json.loads(err)
    assert rec["code"] == "NotSemisimple"
    assert "trusted" not in rec["message"]


@pytest.mark.parametrize("trusted", [False, True], ids=["plain", "trusted"])
@pytest.mark.parametrize("flags", [(), ("--primes", "2")],
                         ids=["no-primes", "primes-2"])
def test_certify_applies_the_characteristic_0_rule(tmp_path, capsys, flags,
                                                   trusted):
    # certify takes its primes where maximal-order does, so it gives the
    # same error, and neither NeedsSuppliedPrimes nor a certificate
    code, out, err = run_cli_capture(tmp_path, capsys,
                                     nil_quaternion_order(trusted),
                                     "certify", *flags)
    assert code == 1 and not out
    assert json.loads(err)["code"] == "NotSemisimple"


class TestCommands:
    def test_center(self, tmp_path, capsys):
        code, out, _ = run_cli_capture(
            tmp_path, capsys, {"matrix": {"n": 2}}, "center")
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_decompose(self, tmp_path, capsys):
        doc = {"poly_quotient": {"modulus": "x^2-1"}}
        code, out, _ = run_cli_capture(tmp_path, capsys, doc, "decompose")
        assert code == 0
        assert sorted(json.loads(out)["factor_dims"]) == [1, 1]

    @pytest.mark.parametrize("n", [6, 8])
    def test_decompose_many_idempotents(self, tmp_path, capsys, n):
        # Q^n in full form, e_i e_j = delta_ij e_i: a random central
        # element needs n distinct coefficients to generate the center
        def unit(i):
            return ["1" if k == i else "0" for k in range(n)]

        doc = {"dim": n, "basis": ["e%d" % i for i in range(n)],
               "mul": [[unit(i) if i == j else ["0"] * n for j in range(n)]
                       for i in range(n)],
               "one": ["1"] * n}
        code, out, _ = run_cli_capture(tmp_path, capsys, doc, "decompose")
        assert code == 0
        out = json.loads(out)
        assert out["factor_dims"] == [1] * n
        assert sorted(out["idempotents"]) == sorted(unit(i) for i in range(n))

    def test_maximal_order(self, tmp_path, capsys):
        code, out, _ = run_cli_capture(
            tmp_path, capsys, EISENSTEIN_EQUATION_ORDER, "maximal-order")
        assert code == 0
        doc = json.loads(out)
        assert doc["index"] == "2"
        assert doc["basis"] == [["1/2", "1/2"], ["0", "1"]]
        assert all(c["verdict"] for c in doc["certificates"])

    def test_maximal_order_poly_ground(self, tmp_path, capsys):
        code, out, _ = run_cli_capture(
            tmp_path, capsys, F2T_ORDER, "maximal-order", "--primes", "t")
        assert code == 0
        doc = json.loads(out)
        assert doc["basis"] == [["1", "0"], ["0", "1"]]
        assert doc["index"] == "t"
        assert any(c["prime"] == "t" and c["verdict"]
                   for c in doc["certificates"])

    def test_radical(self, tmp_path, capsys):
        code, out, _ = run_cli_capture(
            tmp_path, capsys, GAUSSIAN_ORDER, "radical", "--primes", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["prime"] == "2"
        assert doc["basis"] == [["1", "1"], ["0", "2"]]

    def test_disc(self, tmp_path, capsys):
        code, out, _ = run_cli_capture(tmp_path, capsys, GAUSSIAN_ORDER,
                                       "disc")
        assert code == 0
        assert json.loads(out)["discriminant"] == "-4"

    def test_endo_order(self, tmp_path, capsys):
        doc = {
            "delta": {"algebra": "Q", "basis": [["1"]]},
            "lattice": [["1", "0"], ["0", "2"]],
            "r": 2,
        }
        code, out, _ = run_cli_capture(tmp_path, capsys, doc, "endo-order")
        assert code == 0
        basis = json.loads(out)["basis"]
        assert basis == [["1", "0", "0", "0"], ["0", "1/2", "0", "0"],
                         ["0", "0", "2", "0"], ["0", "0", "0", "1"]]

    def test_serre_class(self, tmp_path, capsys):
        code, out, _ = run_cli_capture(tmp_path, capsys, SERRE_CLASS_DOC,
                                       "serre-class")
        assert code == 0
        result = json.loads(out)
        assert result["factors"] == [{"label": "E", "mult": 1}]
        assert result["dimension"] == 1

    def test_serre_lattice(self, tmp_path, capsys):
        code, out, _ = run_cli_capture(tmp_path, capsys, SERRE_LATTICE_DOC,
                                       "serre-lattice")
        assert code == 0
        result = json.loads(out)
        assert result["rank"] == 2
        assert result["kernel_divisors"] == ["2"]

    def test_minimal_isogeny(self, tmp_path, capsys):
        code, out, _ = run_cli_capture(tmp_path, capsys,
                                       MINIMAL_ISOGENY_DOC,
                                       "minimal-isogeny")
        assert code == 0
        result = json.loads(out)
        assert result["degree"] == "2"
        assert result["kernels"] == [
            {"prime": "2", "elementary_divisors": ["2"]}]

    def test_minimal_isogeny_without_type(self, tmp_path, capsys):
        # the command does not read the isogeny type, so a document
        # without one gives the same output
        code, out, _ = run_cli_capture(tmp_path, capsys,
                                       MINIMAL_ISOGENY_DOC,
                                       "minimal-isogeny")
        code2, out2, _ = run_cli_capture(
            tmp_path, capsys, without(MINIMAL_ISOGENY_DOC, "type"),
            "minimal-isogeny")
        assert code == code2 == 0
        assert out2 == out

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out == (
            '{"checks": ['
            '{"detail": "[(1, 1), (1, 1), (0, 0)]", '
            '"name": "tensor multiplicities", "ok": true}, '
            '{"detail": "", "name": "quaternion index-2 saturation", '
            '"ok": true}, '
            '{"detail": "", "name": "inseparable closure over F2[t]", '
            '"ok": true}, '
            '{"detail": "", "name": "power law Mat2(Z) at 2", "ok": true}, '
            '{"detail": "", "name": "power law Mat2(Z) at 3", "ok": true}, '
            '{"detail": "[]", "name": "quadratic sweep |d| <= 50", '
            '"ok": true}], "ok": true}\n')


class TestOutputHandling:
    def test_deterministic(self, tmp_path, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli_capture(
                tmp_path, capsys, EISENSTEIN_EQUATION_ORDER, "maximal-order")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        dest = tmp_path / "out.json"
        path.write_text(json.dumps(GAUSSIAN_ORDER))
        code = main(["disc", str(path), "--output", str(dest)])
        assert code == 0
        assert json.loads(dest.read_text())["discriminant"] == "-4"

    def test_text_format(self, tmp_path, capsys):
        code, out, _ = run_cli_capture(tmp_path, capsys, GAUSSIAN_ORDER,
                                       "disc", "--format", "text")
        assert code == 0
        assert "discriminant" in out and "-4" in out

    def test_main_builds_one_parser(self, tmp_path, capsys, monkeypatch):
        # argv is parsed without argparse, and afresh on each call: the
        # second call, without --format, prints JSON again
        monkeypatch.setitem(sys.modules, "argparse", None)  # import fails
        outs = [run_cli_capture(tmp_path, capsys, GAUSSIAN_ORDER, "disc",
                                *flags)[1]
                for flags in (("--format", "text"), ())]
        assert "argparse" not in vars(cli)
        assert outs == ["discriminant: -4\n", '{"discriminant": "-4"}\n']
