"""The benchmark's tracer (perfbench/tracer.py) wraps maxord functions by
name, so renaming one of them must fail here and not only in the
benchmark."""

import importlib.util
import json
import os

import maxord
import maxord.cli
# the CLI imports orders and finitealg only inside the commands that take
# a p-step, and serre only inside the serre commands; the tracer wraps
# functions of all three
import maxord.finitealg  # noqa: F401
import maxord.orders  # noqa: F401
import maxord.serre  # noqa: F401
from test_cli import SERRE_CLASS_DOC, SERRE_LATTICE_DOC

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "perfbench", "tracer.py")


def make_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer(maxord)


def test_tracer_finds_every_target():
    tracer = make_tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()


def test_tracer_hooks_read_a_maximal_order_run(tmp_path, capsys):
    # the idealizer hook reads arguments and results of the wrapped
    # function; a changed signature shows up in hook_errors.  Orders and
    # their lattices take Hermite forms on rows of ring elements, which
    # the hnf hook does not see; the serre-lattice test below reads it
    path = tmp_path / "quadratic.json"
    path.write_text(json.dumps({
        "algebra": {"poly_quotient": {"modulus": "x^2-5"}},
        "basis": [["1", "0"], ["0", "1"]]}))
    tracer = make_tracer()
    try:
        assert tracer.install() == []
        assert maxord.cli.main(["maximal-order", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert '"index": "2"' in capsys.readouterr().out
    assert not tracer.hook_errors
    assert tracer.counts["orders.idealizer.calls"] > 0
    # coordinates in an order come from back-substitution, not an inverse
    assert tracer.counts["exactlin.inverse.calls"] == 0


def test_tracer_hooks_read_a_serre_lattice_run(tmp_path, capsys):
    # the CLI run takes one Smith form without transforms and no Hermite
    # form of a Matrix.  Reading the section of a tensor_lattice result
    # inverts the Smith transform by hnf, and the hnf hook reads the
    # matrix it is given and the first matrix it returns
    from maxord.serialize import (parse_order, parse_period_lattice,
                                  parse_presentation)

    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(SERRE_LATTICE_DOC))
    order = parse_order(SERRE_LATTICE_DOC["order"])
    pres = parse_presentation(SERRE_LATTICE_DOC, order=order)
    t = parse_period_lattice(SERRE_LATTICE_DOC["lattice"], order)
    tracer = make_tracer()
    try:
        assert tracer.install() == []
        assert maxord.cli.main(["serre-lattice", str(path)]) == 0
        assert tracer.counts["exactlin.hnf.calls"] == 0
        out, _ = maxord.serre.tensor_lattice(pres, t)
        assert out.section is not None
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert not tracer.hook_errors
    assert tracer.counts["exactlin.snf.calls"] > 0
    assert tracer.counts["exactlin.hnf.calls"] == 1
    assert tracer.max_bits > 0
    assert tracer.incl["exactlin.snf"] > 0
    # and so do coordinates in a period lattice and the Smith section
    assert tracer.counts["exactlin.inverse.calls"] == 0


def test_tracer_hooks_read_a_serre_class_run(tmp_path, capsys):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(SERRE_CLASS_DOC))
    tracer = make_tracer()
    try:
        assert tracer.install() == []
        assert maxord.cli.main(["serre-class", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert not tracer.hook_errors
    assert tracer.counts["serre.tensor_isogeny_class.calls"] == 1
    # one rank per factor block of positive multiplicity, and no quotient
    # spaces
    assert tracer.counts["exactlin.rref.calls"] == 1


def test_tracer_counts_one_residue_algebra_per_order_and_prime(tmp_path,
                                                                capsys):
    # Z[x]/(x² − 135), discriminant 2²·3³·5: Z[x] is maximal at 2, grows
    # to Z[x/3] at 3, which is maximal at 3 and 5.  The certificate at 2 of
    # Z[x/3] is Z[x]'s, inherited, so the residue algebras are those of
    # (Z[x], 2), (Z[x], 3), (Z[x/3], 3) and (Z[x/3], 5), and so are the
    # idealizers of their radicals
    path = tmp_path / "x2-135.json"
    path.write_text(json.dumps({
        "algebra": {"poly_quotient": {"modulus": "x^2-135"}},
        "basis": [["1", "0"], ["0", "1"]]}))
    tracer = make_tracer()
    try:
        assert tracer.install() == []
        assert maxord.cli.main(["maximal-order", str(path)]) == 0
    finally:
        tracer.uninstall()
    out = json.loads(capsys.readouterr().out)
    assert out["index"] == "3"
    assert [c["prime"] for c in out["certificates"]] == ["2", "3", "5"]
    assert all(c["verdict"] for c in out["certificates"])
    assert not tracer.hook_errors
    assert tracer.counts["orders.residue_algebra.calls"] == 4
    assert tracer.counts["orders.idealizer.calls"] == 4
