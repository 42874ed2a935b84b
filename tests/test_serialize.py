import pytest

from maxord.algebras import Order, matrix_algebra, quaternion_algebra
from maxord.errors import ParseError
from maxord.exactlin import Lattice, Matrix
from maxord.rings import ZZ, Frac, frac0, poly_ring
from maxord.serialize import (
    format_certificate,
    format_matrix,
    format_order,
    parse_algebra,
    parse_ground,
    parse_isogeny_type,
    parse_matrix,
    parse_order,
    parse_poly_string,
    parse_presentation,
    parse_primes,
)
from tables import dense

F2T = poly_ring(2)


def full_form(alg):
    """The full-form {"ground", "dim", "mul", "one"} document of an
    algebra."""
    return {
        "ground": "Z" if alg.ring == ZZ else {"poly": {"p": alg.ring.p,
                                                       "var": alg.ring.var}},
        "dim": alg.dim,
        "mul": [[[str(c) for c in cell] for cell in row]
                for row in dense(alg.table, frac0(alg.ring))],
        "one": [str(c) for c in alg.one_coords],
    }


class TestGround:
    def test_round_trip(self):
        assert parse_ground("Z") is ZZ
        ring = parse_ground({"poly": {"p": 2, "var": "t"}})
        assert ring.p == 2 and ring.var == "t"
        assert ring is poly_ring(2, "t")

    def test_bad_ground(self):
        with pytest.raises(ParseError):
            parse_ground("R")
        with pytest.raises(ParseError):
            parse_ground({"poly": {"p": "x"}})


class TestMatrix:
    def test_round_trip(self):
        m = Matrix(ZZ, [[Frac(ZZ, 1, 2), 3], [0, -1]], 2)
        again = parse_matrix(ZZ, format_matrix(m))
        assert again == m

    def test_poly_entries(self):
        doc = [["t^2+1", "1/t"]]
        m = parse_matrix(F2T, doc)
        assert format_matrix(m) == doc

    def test_rejects_non_list(self):
        with pytest.raises(ParseError):
            parse_matrix(ZZ, {"rows": []})
        with pytest.raises(ParseError):
            parse_matrix(ZZ, [["1.5"]])


class TestPolyString:
    def test_integer_coefficients(self):
        coeffs = parse_poly_string(ZZ, "x^2-5")
        assert [str(c) for c in coeffs] == ["-5", "0", "1"]

    def test_fraction_and_spacing(self):
        coeffs = parse_poly_string(ZZ, "x^2 - 1/2*x + 3")
        assert [str(c) for c in coeffs] == ["3", "-1/2", "1"]

    def test_ground_monomial_coefficient(self):
        coeffs = parse_poly_string(F2T, "x^2+t")
        assert [str(c) for c in coeffs] == ["t", "0", "1"]

    def test_bad(self):
        with pytest.raises(ParseError):
            parse_poly_string(ZZ, "")


class TestAlgebra:
    def test_shorthands(self):
        assert parse_algebra({"matrix": {"n": 2}}).dim == 4
        spec = {"quaternion": {"a": "-1", "b": "-1"}}
        q = parse_algebra(spec)
        assert q.dim == 4 and not q.trusted_semisimple
        assert parse_algebra(dict(spec, trusted_semisimple=True)) \
            .trusted_semisimple
        i = q.basis_element(1)
        assert (i * i).coords == (-q.one()).coords
        pq = parse_algebra({"poly_quotient": {"modulus": "x^2+3"}})
        assert pq.dim == 2
        assert parse_algebra("Q").dim == 1

    def test_full_form_round_trip(self):
        alg = quaternion_algebra(ZZ, -1, -3)
        again = parse_algebra(full_form(alg))
        assert again.table == alg.table
        assert again.one_coords == alg.one_coords

    @pytest.mark.parametrize("basis", [["1", "i", "j", "k"], ["e"], 7])
    def test_basis_key_is_ignored(self, basis):
        """A full-form document parses to the same algebra with or without
        a "basis" entry, whatever that entry holds."""
        doc = full_form(quaternion_algebra(F2T, (0, 1), (1, 1)))
        plain, named = parse_algebra(doc), parse_algebra(dict(doc,
                                                              basis=basis))
        assert named.table == plain.table
        assert named.one_coords == plain.one_coords
        assert repr(named.one()) == repr(plain.one()) == "[1, 0, 0, 0]"

    def test_poly_ground(self):
        doc = {"ground": {"poly": {"p": 2}},
               "poly_quotient": {"modulus": "x^2+t"},
               "trusted_semisimple": True}
        alg = parse_algebra(doc)
        assert alg.ring.p == 2 and alg.trusted_semisimple

    def test_bad(self):
        with pytest.raises(ParseError):
            parse_algebra({"nonsense": 1})


class TestOrderAndCertificate:
    def test_round_trip(self):
        alg = matrix_algebra(ZZ, 2)
        order = Order(alg, Lattice.standard(ZZ, 4))
        doc = dict(format_order(order), algebra=full_form(alg))
        again = parse_order(doc)
        assert again.lattice == order.lattice

    def test_missing_pieces(self):
        with pytest.raises(ParseError):
            parse_order({"basis": [["1"]]})
        with pytest.raises(ParseError):
            parse_order({"algebra": "Q"})

    def test_certificate_formatting(self):
        cert = {"prime": 2, "idealizerFixed": True,
                "residueSimple": True, "verdict": True}
        doc = format_certificate(ZZ, cert)
        assert doc == {"prime": "2", "idealizer_fixed": True,
                       "residue_simple": True, "verdict": True}


class TestPrimesFlag:
    def test_integers(self):
        assert parse_primes(ZZ, "2, 3") == [2, 3]
        assert parse_primes(ZZ, "") == []

    def test_polys(self):
        assert parse_primes(F2T, "t,t^2+t+1") == [(0, 1), (1, 1, 1)]

    def test_bad(self):
        with pytest.raises(ParseError):
            parse_primes(ZZ, "two")


class TestTensorData:
    def test_isogeny_type_round_trip(self):
        doc = {"factors": [
            {"label": "E", "dim": 1, "endo": "Q", "mult": 2},
            {"label": "S", "dim": 2,
             "endo": {"poly_quotient": {"modulus": "x^2+1"}}, "mult": 0},
        ]}
        itype = parse_isogeny_type(doc)
        assert [f.mult for f in itype.factors] == [2, 0]
        assert itype.total_dimension() == 2
        out = {"factors": [{"label": f.label, "dim": f.dimB,
                            "endo": full_form(f.endo), "mult": f.mult}
                           for f in itype.factors]}
        assert [f["label"] for f in out["factors"]] == ["E", "S"]
        again = parse_isogeny_type(out)
        assert [f.dimB for f in again.factors] == [1, 2]

    def test_presentation(self):
        doc = {
            "order": {"algebra": {"poly_quotient": {"modulus": "x^2+1"}},
                      "basis": [["1", "0"], ["0", "1"]]},
            "alpha": [[["2", "0"]]],
        }
        pres = parse_presentation(doc, parse_order(doc["order"]))
        assert pres.r == 1 and pres.s == 1
        assert str(pres.alpha[0][0].coords[0]) == "2"
