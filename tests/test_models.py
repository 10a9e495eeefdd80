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

import hashlib
import math

import pytest

from bicomplex_lab import models
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
        assert del10.columns()[0] == [scalar(0)] * 3
        assert del10.columns()[1] == [scalar(0)] * 3
        assert del10.columns()[2] == [scalar(-1), scalar(0), scalar(0)]
        assert k.delbar_map(1, 0).is_zero()
        # Conjugate equation: delbar at (0,1) sends cw3 to -cw1^cw2.
        delbar01 = k.delbar_map(0, 1)
        assert delbar01.columns()[2] == [scalar(-1), scalar(0), scalar(0)]
        assert k.del_map(0, 1).is_zero()

    def test_totalization_dimensions(self):
        t = totalize(iwasawa())
        assert [t.dims[k] for k in t.degrees()] == [1, 6, 15, 20, 15, 6, 1]

    def test_real_structure(self):
        assert check_real_structure(iwasawa()) is True

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
        assert delbar10.columns()[0] == [scalar(0)] * 4
        assert delbar10.columns()[1] == [scalar(1), scalar(0),
                                      scalar(0), scalar(0)]
        assert k.del_map(1, 0).is_zero()
        # Conjugate: del at (0,1) sends cw2 to -(w1^cw1).
        del01 = k.del_map(0, 1)
        assert del01.columns()[1] == [scalar(-1), scalar(0),
                                   scalar(0), scalar(0)]

    def test_totalization_dimensions(self):
        t = totalize(kodaira_surface())
        assert [t.dims[k] for k in t.degrees()] == [1, 4, 6, 4, 1]

    def test_real_structure_and_product(self):
        k = kodaira_surface()
        assert check_real_structure(k) is True
        assert k.product is not None


NIL4_TEXT = "n = 4\nd w3 = -1* w1^w2\nd w4 = w1^cw1\n"

PAIRED_MODELS = {
    "iwasawa": iwasawa,
    "kodaira": kodaira_surface,
    "torus2": lambda: torus(2),
    "torus3": lambda: torus(3),
    "nil4": lambda: from_structure_equations(parse_structure_text(NIL4_TEXT)),
}


def _signed(m, sign):
    return m if sign > 0 else m.negate()


over_models = pytest.mark.parametrize("name", sorted(PAIRED_MODELS))


class TestProductStructure:
    """The pairing matrices of the wedge product followed by the top
    functional.  Graded commutativity of the wedge gives the symmetry
    rule; d of a product landing in (n, n) is killed by the functional
    (both differentials into (n, n) vanish), so the graded Leibniz rule
    moves a differential across the pairing with sign -(-1)^(p+q)."""

    @over_models
    def test_pairings_cover_the_square(self, name):
        k = PAIRED_MODELS[name]()
        n = k.n
        assert set(k.product.pairings) == {
            (p, q) for p in range(n + 1) for q in range(n + 1)}

    @over_models
    def test_graded_symmetry(self, name):
        k = PAIRED_MODELS[name]()
        n, pair = k.n, k.product.pairings
        for (p, q), m in pair.items():
            assert pair[(n - p, n - q)] == _signed(m.transpose(),
                                                   (-1) ** (p + q))

    @over_models
    def test_stokes_for_both_differentials(self, name):
        k = PAIRED_MODELS[name]()
        n, pair = k.n, k.product.pairings
        for (p, q), m in pair.items():
            sign = -((-1) ** (p + q))
            if p < n:
                assert pair[(p + 1, q)] @ k.del_map(p, q) == _signed(
                    k.del_map(n - p - 1, n - q).transpose() @ m, sign)
            if q < n:
                assert pair[(p, q + 1)] @ k.delbar_map(p, q) == _signed(
                    k.delbar_map(n - p, n - q - 1).transpose() @ m, sign)

    @over_models
    def test_signed_permutation(self, name):
        k = PAIRED_MODELS[name]()
        for m in k.product.pairings.values():
            for col in m.columns():
                assert [x for x in col if x] in ([SC_ONE], [SC_MINUS_ONE])

    @over_models
    def test_top_corners_pair_to_one(self, name):
        k = PAIRED_MODELS[name]()
        one = Matrix.from_rows([[SC_ONE]])
        assert k.product.pairings[(0, 0)] == one
        assert k.product.pairings[(k.n, k.n)] == one

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

    def test_n_is_capped(self):
        assert parse_structure_text("n = 7\n").n == 7
        with pytest.raises(StructureEquationError, match="line 2: n = 8"):
            parse_structure_text("# too many generators\nn = 8\n")

    @pytest.mark.parametrize("text", [
        "n = " + "9" * 5000,
        "n = 3\nd w" + "9" * 5000 + " = 0",
        "n = 3\nd w3 = w1^w" + "9" * 5000,
    ], ids=["n", "equation", "term"])
    def test_overlong_integers_are_parse_errors(self, text):
        line = text.count("\n") + 1
        with pytest.raises(StructureEquationError, match=f"line {line}"):
            parse_structure_text(text)


# Structure-equation texts with i and 1/2 coefficients: valid ones, a zero
# conjugate-conjugate term (accepted), a self-wedge (dropped), a
# non-unimodular model (no product), and one of each rejection.
PINNED_TEXTS = [
    "n = 3\nd w3 = 1/2+1/2 i* w1^w2 - 2* w1^cw2 + w2^cw1\n",
    "n = 2\nd w2 = i* w1^cw1\n",
    "n = 3\nd w3 = 1/2* w1^w2 + i* w1^cw1 - 1/2+i* w2^cw2\n",
    "n = 3\nd w3 = 1/2-i* cw1^w2 + i* cw2^w1 + 1/2* w2^w1\n",
    "n = 3\nd w2 = 1/2* w1^w3\nd w3 = i* w1^w2\n",
    "n = 2\nd w1 = 0* cw1^cw2\nd w2 = i* w1^w1 + 1/2* w1^cw1\n",
    "n = 1\nd w1 = i* w1^cw1\n",
    "n = 4\nd w3 = i* w1^w2\nd w4 = 1/2* w1^cw1 - 1/2 i* cw2^w2\n",
    "n = 3\nd w1 = i* w1^w2\nd w2 = 1/2* w1^w3\n",
    "n = 2\nd w1 = 1/2* cw1^cw2\n",
    "n = 2\nd w1 = i* w1^w3\n",
    "n = 2\nd w5 = 0\n",
]

MODELS_DIGEST = ("151b7c5d33eed6e585cc5e279ea37a73"
                 "b976865def0d90f8c4aea04a0ce08af6")


def _hash_matrices(h, name, blocks):
    if blocks is None:
        h.update(f"{name} none\n".encode())
        return
    for bid in sorted(blocks):
        m = blocks[bid]
        h.update(f"{name} {bid} {m.rows}x{m.cols}\n".encode())
        for row in m.to_rows():
            h.update((" ".join(map(str, row)) + "\n").encode())


def test_model_matrices_are_pinned():
    """SHA-256 over the ``str`` of every del, delbar, conjugation and
    pairing entry of torus0-4, iwasawa, kodaira and nil4, plus the
    matrices or the error message of each text in ``PINNED_TEXTS``;
    recorded when the builder still kept one generator table per
    differential."""
    built = [torus(n) for n in range(5)]
    built += [iwasawa(), kodaira_surface(), PAIRED_MODELS["nil4"]()]
    built += PINNED_TEXTS
    h = hashlib.sha256()
    for item in built:
        if isinstance(item, str):
            h.update(item.encode())
            try:
                item = from_structure_equations(parse_structure_text(item))
            except StructureEquationError as exc:
                h.update(f"error {exc}\n".encode())
                continue
        h.update(f"{item.label} {sorted(item.support())}\n".encode())
        _hash_matrices(h, "del", item.del_blocks())
        _hash_matrices(h, "delbar", item.delbar_blocks())
        _hash_matrices(h, "conj", item.conj.maps)
        _hash_matrices(h, "pairing",
                       item.product and item.product.pairings)
    assert h.hexdigest() == MODELS_DIGEST


def test_one_derivation_per_monomial_builds_iwasawa(monkeypatch):
    """d is applied once per generator for the d^2 check (2n = 6 calls)
    and once per monomial for the del, delbar and conjugation columns
    (4^3 = 64 calls), not once per differential."""
    calls = []
    derive = models._element_diff

    def counted(diff_gen, element):
        calls.append(element)
        return derive(diff_gen, element)

    monkeypatch.setattr(models, "_element_diff", counted)
    iwasawa()
    assert len(calls) == 2 * 3 + 4 ** 3
