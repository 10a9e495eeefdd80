"""Tests for the structure-equation builders and the text format.

Hand-derived facts used as oracles:

* Exterior-algebra dimensions are products of binomials.
* For the Iwasawa-type equations (d w3 = -w1^w2): the horizontal block at
  (1,0) sends w3 to -w1^w2 and kills w1, w2; the conjugated equation gives
  the vertical block at (0,1) sending cw3 to -cw1^cw2.
* For the Kodaira-surface equations (d w2 = w1^cw1): the vertical block at
  (1,0) sends w2 to w1^cw1; conjugation gives the horizontal block at (0,1)
  sending cw2 to -(w1^cw1).
* Negating the whole horizontal block at (1,1) of the Iwasawa model breaks
  anticommutation exactly at (1,1): on the basis vector w3^cw3 the two
  composites no longer cancel (each equals -w1^w2^cw1^cw2 up to the flip).
* d w1 = w1^w2, d w2 = w1^w3 fails d^2 = 0 on w2: d(w1^w3) = w1^w2^w3.
"""

import math

import pytest

from bicomplex_lab.bicomplex import (
    Bicomplex,
    check_real_structure,
    to_json_dict,
    totalize,
    validate,
)
from bicomplex_lab.exactla import Matrix, SC_MINUS_ONE, SC_ONE, scalar
from bicomplex_lab.models import (
    StructureEquationError,
    StructureEquationSpec,
    from_structure_equations,
    iwasawa,
    kodaira_surface,
    parse_structure_text,
    random_bicomplex,
    torus,
)


class TestTorus:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_dimensions_are_binomial_products(self, n):
        k = torus(n)
        assert validate(k) == []
        for p in range(n + 1):
            for q in range(n + 1):
                assert k.dimension(p, q) == math.comb(n, p) * math.comb(n, q)
        assert k.total_dim == 4 ** n

    def test_zero_differentials(self):
        k = torus(2)
        assert k.del_blocks() == {} and k.delbar_blocks() == {}

    def test_point_case(self):
        k = torus(0)
        assert k.support() == [(0, 0)] and k.dimension(0, 0) == 1
        assert k.product is not None and k.conj is not None

    def test_real_structure(self):
        assert check_real_structure(torus(2)) is True


class TestIwasawa:
    def test_validates(self):
        assert validate(iwasawa()) == []

    def test_generator_blocks(self):
        k = iwasawa()
        # (1,0) basis: w1, w2, w3 -> (2,0) basis: w1w2, w1w3, w2w3.
        del10 = k.del_map(1, 0)
        assert del10.column(0) == [scalar(0)] * 3
        assert del10.column(1) == [scalar(0)] * 3
        assert del10.column(2) == [scalar(-1), scalar(0), scalar(0)]
        assert k.delbar_map(1, 0).is_zero()
        # Conjugate equation: delbar at (0,1) sends cw3 to -cw1^cw2.
        delbar01 = k.delbar_map(0, 1)
        assert delbar01.column(2) == [scalar(-1), scalar(0), scalar(0)]
        assert k.del_map(0, 1).is_zero()

    def test_totalization_dimensions(self):
        t = totalize(iwasawa())
        assert [t.dims[k] for k in t.degrees()] == [1, 6, 15, 20, 15, 6, 1]

    def test_real_structure(self):
        assert check_real_structure(iwasawa()) is True

    def test_product_attached_and_normalized(self):
        k = iwasawa()
        assert k.product is not None
        top = [SC_ONE]
        assert k.product.fundamental_class_functional(top) == SC_ONE
        assert k.product.unit == [SC_ONE]

    def test_block_negation_breaks_anticommutation_at_1_1(self):
        k = iwasawa()
        del_blocks = k.del_blocks()
        del_blocks[(1, 1)] = del_blocks[(1, 1)].negate()
        broken = Bicomplex(
            {bid: k.dimension(*bid) for bid in k.support()},
            del_blocks, k.delbar_blocks(), n=3, label="broken")
        bad = validate(broken)
        assert [v.kind for v in bad] == ["anticommute"]
        assert bad[0].bidegree == (1, 1)

    def test_deterministic_rebuild(self):
        assert iwasawa() == iwasawa()
        assert to_json_dict(iwasawa()) == to_json_dict(iwasawa())


class TestKodairaSurface:
    def test_validates_and_blocks(self):
        k = kodaira_surface()
        assert validate(k) == []
        # (1,0) basis: w1, w2 -> (1,1) basis: w1cw1, w1cw2, w2cw1, w2cw2.
        delbar10 = k.delbar_map(1, 0)
        assert delbar10.column(0) == [scalar(0)] * 4
        assert delbar10.column(1) == [scalar(1), scalar(0),
                                      scalar(0), scalar(0)]
        assert k.del_map(1, 0).is_zero()
        # Conjugate: del at (0,1) sends cw2 to -(w1^cw1).
        del01 = k.del_map(0, 1)
        assert del01.column(1) == [scalar(-1), scalar(0),
                                   scalar(0), scalar(0)]

    def test_totalization_dimensions(self):
        t = totalize(kodaira_surface())
        assert [t.dims[k] for k in t.degrees()] == [1, 4, 6, 4, 1]

    def test_real_structure_and_product(self):
        k = kodaira_surface()
        assert check_real_structure(k) is True
        assert k.product is not None


class TestProductStructure:
    def test_graded_commutativity_and_leibniz(self):
        k = iwasawa()
        mult = k.product.multiply
        for (pa, qa), (pb, qb) in [((1, 0), (1, 0)), ((1, 0), (0, 1)),
                                   ((1, 1), (1, 0)), ((2, 0), (0, 1)),
                                   ((1, 0), (1, 2))]:
            for ia in range(k.dimension(pa, qa)):
                va = Matrix.identity(k.dimension(pa, qa)).column(ia)
                for ib in range(k.dimension(pb, qb)):
                    vb = Matrix.identity(k.dimension(pb, qb)).column(ib)
                    ab = mult((pa, qa), va, (pb, qb), vb)
                    ba = mult((pb, qb), vb, (pa, qa), va)
                    sign = (-1) ** ((pa + qa) * (pb + qb))
                    assert ab == [x * scalar(sign) for x in ba]
                    # Graded Leibniz rule for the horizontal differential.
                    lhs = k.del_map(pa + pb, qa + qb).apply(ab)
                    da = mult((pa + 1, qa), k.del_map(pa, qa).apply(va),
                              (pb, qb), vb)
                    db = mult((pa, qa), va,
                              (pb + 1, qb), k.del_map(pb, qb).apply(vb))
                    sgn = scalar((-1) ** (pa + qa))
                    rhs = [x + sgn * y for x, y in zip(da, db)]
                    assert lhs == rhs

    def test_unit_is_neutral(self):
        k = kodaira_surface()
        v = [scalar(3), scalar(0, 1), scalar(0), scalar("1/2")]
        assert k.product.multiply((0, 0), k.product.unit, (1, 1), v) == v

    def test_non_unimodular_spec_gets_no_product(self):
        spec = StructureEquationSpec(
            n=1, differentials={1: ((SC_ONE, ("w", 1), ("cw", 1)),)})
        k = from_structure_equations(spec, label="hopf-like")
        assert validate(k) == []
        assert k.product is None
        assert k.conj is not None and check_real_structure(k) is True


class TestSpecValidation:
    def test_integrability_violation(self):
        spec = StructureEquationSpec(
            n=2, differentials={1: ((SC_ONE, ("cw", 1), ("cw", 2)),)})
        with pytest.raises(StructureEquationError, match="integrability"):
            from_structure_equations(spec)

    def test_d_squared_failure_names_generator(self):
        spec = StructureEquationSpec(
            n=3, differentials={
                1: ((SC_ONE, ("w", 1), ("w", 2)),),
                2: ((SC_ONE, ("w", 1), ("w", 3)),),
            })
        with pytest.raises(StructureEquationError, match="w2"):
            from_structure_equations(spec)

    def test_unknown_generator_rejected(self):
        spec = StructureEquationSpec(
            n=2, differentials={5: ()})
        with pytest.raises(StructureEquationError, match="w5"):
            from_structure_equations(spec)

    def test_swapped_indices_normalize_with_sign(self):
        direct = StructureEquationSpec(
            n=3, differentials={3: ((SC_MINUS_ONE, ("w", 1), ("w", 2)),)})
        swapped = StructureEquationSpec(
            n=3, differentials={3: ((SC_ONE, ("w", 2), ("w", 1)),)})
        assert (from_structure_equations(direct)
                == from_structure_equations(swapped))


class TestRandomBicomplex:
    @pytest.mark.parametrize("kinds", [(), ("dot", "triangle")])
    def test_bad_kinds_raise_value_error(self, kinds):
        with pytest.raises(ValueError, match="kinds"):
            random_bicomplex(0, kinds=kinds)


class TestTextFormat:
    IWASAWA_TEXT = """
    # three complex dimensions, one non-closed generator
    n = 3
    d w1 = 0
    d w2 = 0
    d w3 = -1* w1^w2
    """

    def test_parses_iwasawa(self):
        spec = parse_structure_text(self.IWASAWA_TEXT)
        assert from_structure_equations(spec, label="iwasawa") == iwasawa()

    def test_parses_kodaira(self):
        text = "n = 2\nd w1 = 0\nd w2 = w1^cw1\n"
        spec = parse_structure_text(text)
        built = from_structure_equations(spec, label="kodaira-surface")
        assert built == kodaira_surface()

    def test_multi_term_with_complex_scalars(self):
        text = "n = 3\nd w3 = 1/2+1/2 i* w1^w2 - 2* w1^cw2 + w2^cw1\n"
        spec = parse_structure_text(text)
        terms = spec.differentials[3]
        assert terms[0][0] == scalar("1/2", "1/2")
        assert terms[1][0] == scalar(-2)
        assert terms[2][0] == SC_ONE
        assert terms[2][1:] == (("w", 2), ("cw", 1))
        k = from_structure_equations(spec)
        assert validate(k) == []

    def test_errors(self):
        with pytest.raises(StructureEquationError, match="missing n"):
            parse_structure_text("# only a comment\n\n")
        with pytest.raises(StructureEquationError, match="line 2"):
            parse_structure_text("n = 2\nd w1 = w2")
        with pytest.raises(StructureEquationError, match="duplicate"):
            parse_structure_text("n = 2\nd w1 = 0\nd w1 = 0")
        with pytest.raises(StructureEquationError, match="declared before"):
            parse_structure_text("d w1 = 0\nn = 2")
        with pytest.raises(StructureEquationError, match="missing \\+/-"):
            parse_structure_text("n = 2\nd w1 = w1^w2 w1^cw1")
