"""Tests for the double-complex data model.

Hand-computed facts used below:

* The elementary square complex (one-dimensional spaces at (0,0), (1,0),
  (0,1), (1,1); horizontal maps 1 and -1, vertical maps 1 and 1) satisfies
  all axioms: the only sign constraint is anticommutation at (0,0), namely
  del(0,1)*delbar(0,0) + delbar(1,0)*del(0,0) = -1 + 1 = 0.  Its total
  complex has dims (1, 2, 1) and is exact: d0 = (1, 1)^T, d1 = (-1  1).
* Flipping the sign of one square arrow breaks anticommutation only.
"""

import json
import math

import pytest

import bicomplex_lab
from bicomplex_lab.bicomplex import (
    MAX_TOTAL_DIM,
    Bicomplex,
    BicomplexFormatError,
    TotalComplex,
    check_real_structure,
    ensure_valid,
    from_json_dict,
    to_json_dict,
    totalize,
    validate,
)
from bicomplex_lab.clio import PRESETS
from bicomplex_lab.cohomology import bott_chern
from bicomplex_lab.exactla import Matrix, rank, scalar
from bicomplex_lab.models import (from_structure_equations,
                                  parse_structure_text, random_bicomplex)
from bicomplex_lab.zigzag import apply_basis_change


def one_by_one(value):
    return Matrix.from_rows([[scalar(value)]])


def square_complex(flip_sign=False):
    spaces = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    top = -1 if not flip_sign else 1
    del_maps = {(0, 0): one_by_one(1), (0, 1): one_by_one(top)}
    delbar_maps = {(0, 0): one_by_one(1), (1, 0): one_by_one(1)}
    return Bicomplex(spaces, del_maps, delbar_maps, label="square")


class TestValidate:
    def test_square_is_valid(self):
        assert validate(square_complex()) == []

    def test_sign_flip_breaks_anticommutation(self):
        bad = validate(square_complex(flip_sign=True))
        assert len(bad) == 1
        assert bad[0].kind == "anticommute"
        assert bad[0].bidegree == (0, 0)

    def test_anticommute_violation_with_one_path_stored(self):
        """Without the del block at (0,1), delbar del is the only stored
        path out of (0,0), and it is not zero."""
        square = square_complex()
        k = Bicomplex({b: square.dimension(*b) for b in square.support()},
                      {(0, 0): square.del_map(0, 0)},
                      square.delbar_blocks())
        bad = validate(k)
        assert [(v.kind, v.bidegree) for v in bad] \
            == [("anticommute", (0, 0))]

    def test_shape_violation_names_bidegree(self):
        k = Bicomplex({(0, 0): 2, (1, 0): 1},
                      {(0, 0): one_by_one(1)}, {})
        bad = validate(k)
        assert [v.kind for v in bad] == ["shape"]
        assert bad[0].bidegree == (0, 0)
        assert "1x2" in bad[0].message

    def test_del_squared_violation(self):
        k = Bicomplex({(0, 0): 1, (1, 0): 1, (2, 0): 1},
                      {(0, 0): one_by_one(1), (1, 0): one_by_one(1)}, {})
        bad = validate(k)
        assert [v.kind for v in bad] == ["del-squared"]

    def test_delbar_squared_violation(self):
        k = Bicomplex({(0, 0): 1, (0, 1): 1, (0, 2): 1}, {},
                      {(0, 0): one_by_one(1), (0, 1): one_by_one(1)})
        bad = validate(k)
        assert [v.kind for v in bad] == ["delbar-squared"]

    def test_declared_n_confines_support(self):
        k = Bicomplex({(2, 0): 1}, {}, {}, n=1)
        bad = validate(k)
        assert [v.kind for v in bad] == ["support"]
        assert validate(Bicomplex({(1, 1): 1}, {}, {}, n=1)) == []

    def test_boolean_n_rejected(self):
        with pytest.raises(ValueError, match="n must be a non-negative"):
            Bicomplex({(0, 0): 1}, {}, {}, n=True)

    def test_negative_bidegrees_allowed_without_n(self):
        k = Bicomplex({(-1, 2): 3}, {}, {})
        assert validate(k) == []

    def test_ensure_valid_raises(self):
        with pytest.raises(ValueError, match="anticommute"):
            ensure_valid(square_complex(flip_sign=True))

    def test_zero_blocks_normalized_away(self):
        k = Bicomplex({(0, 0): 2}, {(0, 0): Matrix.zero(0, 2)}, {})
        assert k.del_blocks() == {}
        assert validate(k) == []

    def test_each_complex_is_validated_once(self, monkeypatch):
        k = square_complex()
        ensure_valid(k)

        def no_products(self, other):
            raise AssertionError("the complex was validated again")

        monkeypatch.setattr(Matrix, "__matmul__", no_products)
        ensure_valid(k)
        totalize(k)
        with pytest.raises(AssertionError):
            ensure_valid(square_complex())

    def test_recorded_violations_still_gate_the_store(self):
        """A verdict that ``validate`` already recorded keeps every derived
        value out of reach; no table totalizes, so only the store's own
        gate can refuse ``bott_chern``."""
        k = square_complex(flip_sign=True)
        assert validate(k) != []
        with pytest.raises(ValueError, match="anticommute"):
            bott_chern(k)


class TestEquality:
    def test_conjugations_that_differ_compare_unequal(self):
        spaces = {(0, 0): 1}
        a = Bicomplex(spaces, conj={(0, 0): one_by_one(1)})
        b = Bicomplex(spaces, conj={(0, 0): one_by_one(-1)})
        assert a != b
        assert a == Bicomplex(spaces, conj={(0, 0): one_by_one(1)})

    def test_pairings_that_differ_compare_unequal(self):
        spaces = {(0, 0): 1}
        a = Bicomplex(spaces, n=0, pairings={(0, 0): one_by_one(1)})
        b = Bicomplex(spaces, n=0, pairings={(0, 0): one_by_one(2)})
        assert a != b

    def test_a_structure_one_side_lacks_is_not_compared(self):
        k = Bicomplex({(0, 0): 1}, conj={(0, 0): one_by_one(1)})
        assert k == Bicomplex({(0, 0): 1})


def test_package_exports_resolve_once():
    names = bicomplex_lab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(bicomplex_lab, name), name


class TestTotalize:
    def test_single_dot(self):
        t = totalize(Bicomplex({(3, 1): 1}, {}, {}))
        assert t.dims == {4: 1}
        assert t.differential(4).rows == 0

    def test_square_totalizes_to_exact_complex(self):
        t = totalize(square_complex())
        assert [t.dims[k] for k in sorted(t.dims)] == [1, 2, 1]
        d0, d1 = t.differential(0), t.differential(1)
        assert (d1 @ d0).is_zero()
        assert rank(d0) == 1 and rank(d1) == 1

    def test_block_layout_orders_by_p(self):
        """Degree 1 holds (0,1) before (1,0), so d(1) reads del out of
        (0,1), then delbar out of (1,0)."""
        t = totalize(square_complex())
        assert t.differentials[1] == Matrix.from_rows(
            [[scalar(-1), scalar(1)]])

    def test_gap_degrees_filled_with_zero(self):
        t = totalize(Bicomplex({(0, 0): 1, (2, 0): 1}, {}, {}))
        assert t.dims == {0: 1, 1: 0, 2: 1}

    def test_invalid_complex_rejected(self):
        with pytest.raises(ValueError):
            totalize(square_complex(flip_sign=True))

    def test_empty_complex(self):
        t = totalize(Bicomplex({}, {}, {}))
        assert t == TotalComplex({}, {})


class TestGrading:
    """The complex keeps its spaces in (p, q) order, whatever order the
    caller gave them in."""

    def test_reverse_insertion_order_is_sorted(self):
        square = square_complex()
        forward = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
        k = Bicomplex(dict(reversed(list(forward.items()))),
                      square.del_blocks(), square.delbar_blocks(),
                      label="square")
        assert k.support() == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert isinstance(k.support(), list)
        assert k.spaces() == forward
        assert list(k.spaces()) == list(forward)
        assert json.dumps(to_json_dict(k)) == json.dumps(to_json_dict(square))

    def test_gap_and_negative_bidegrees_sort_by_p_then_q(self):
        k = Bicomplex({(2, 0): 1, (0, 3): 2, (-1, 5): 1, (0, 0): 1}, {}, {})
        assert k.support() == [(-1, 5), (0, 0), (0, 3), (2, 0)]
        assert list(k.spaces().values()) == [1, 1, 2, 1]

    def test_spaces_returns_a_copy(self):
        k = square_complex()
        spaces = k.spaces()
        spaces[(0, 0)] = 7
        spaces[(5, 5)] = 1
        del spaces[(1, 1)]
        assert k.spaces() == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
        assert k.dimension(0, 0) == 1 and k.dimension(5, 5) == 0
        assert k == square_complex()


class TestRealStructure:
    def table_complex(self):
        # Spaces at (0,0), (1,0), (0,1); one horizontal arrow out of (0,0)
        # and the mirrored vertical arrow, as a conjugation-symmetric pair.
        spaces = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
        del_maps = {(0, 0): one_by_one(1)}
        delbar_maps = {(0, 0): one_by_one(1)}
        return spaces, del_maps, delbar_maps

    def identity_conj(self):
        return {
            (0, 0): Matrix.identity(1),
            (1, 0): Matrix.identity(1),
            (0, 1): Matrix.identity(1),
        }

    def test_symmetric_pair_passes(self):
        spaces, d, db = self.table_complex()
        k = Bicomplex(spaces, d, db, conj=self.identity_conj())
        assert validate(k) == []
        assert check_real_structure(k) is True

    def test_scaled_block_breaks_involution(self):
        spaces, d, db = self.table_complex()
        conj = self.identity_conj()
        conj[(1, 0)] = one_by_one(2)
        k = Bicomplex(spaces, d, db, conj=conj)
        assert check_real_structure(k) is False

    def test_scaled_mirror_block_breaks_involution(self):
        # The scaled block sits at (0,1), the mirror of the one above.
        spaces, d, db = self.table_complex()
        conj = self.identity_conj()
        conj[(0, 1)] = one_by_one(2)
        k = Bicomplex(spaces, d, db, conj=conj)
        assert check_real_structure(k) is False

    def test_mismatched_differentials_fail_intertwining(self):
        spaces, d, db = self.table_complex()
        db = {(0, 0): one_by_one(-1)}  # still a valid complex, not symmetric
        k = Bicomplex(spaces, d, db, conj=self.identity_conj())
        assert validate(k) == []
        assert check_real_structure(k) is False

    def test_antilinear_unit_is_involutive(self):
        k = Bicomplex({(0, 0): 1}, {}, {},
                      conj={(0, 0): one_by_one(scalar(0, 1))})
        # C sends v to i * conj(v); applying twice gives i * conj(i) * v = v.
        assert check_real_structure(k) is True

    @pytest.mark.parametrize("bid, block", [
        ((0, 1), None),                  # a map is missing
        ((0, 0), Matrix.zero(2, 1)),     # a map has the wrong shape
        ((1, 0), None),                  # the lift at (0, 0) is missing
        ((1, 0), Matrix.zero(2, 1)),     # the lift has the wrong shape
    ], ids=["missing-map", "map-shape", "missing-lift", "lift-shape"])
    def test_missing_or_misshapen_block_fails(self, bid, block):
        spaces, d, db = self.table_complex()
        conj = self.identity_conj()
        if block is None:
            del conj[bid]
        else:
            conj[bid] = block
        k = Bicomplex(spaces, d, db, conj=conj)
        assert check_real_structure(k) is False

    def test_misshapen_mirror_block_fails_without_raising(self):
        # The (0,1) block is fine; its mirror at (1,0) is 1x2, not 1x1.
        k = Bicomplex({(1, 0): 1, (0, 1): 1}, {}, {},
                      conj={(1, 0): Matrix.zero(1, 2),
                            (0, 1): Matrix.identity(1)})
        assert check_real_structure(k) is False

    def test_asymmetric_dimensions_fail(self):
        k = Bicomplex({(1, 0): 1}, {}, {}, conj={})
        assert check_real_structure(k) is False

    def test_missing_structure_raises(self):
        with pytest.raises(ValueError):
            check_real_structure(square_complex())


def reference_to_json_dict(k):
    """The per-cell writer that ``to_json_dict`` replaced: every cell of
    every stored block is read with ``Matrix.entry`` and printed."""
    obj = {"label": k.label}
    if k.n is not None:
        obj["n"] = k.n
    obj["spaces"] = {f"{p},{q}": dim for (p, q), dim in k.spaces().items()}
    for name, blocks in (("del", k.del_blocks()),
                         ("delbar", k.delbar_blocks())):
        section = {}
        for (p, q) in sorted(blocks):
            m = blocks[(p, q)]
            section[f"{p},{q}"] = [
                [str(m.entry(i, j)) for j in range(m.cols)]
                for i in range(m.rows)]
        obj[name] = section
    return obj


NIL_TEXTS = {4: "n = 4\nd w3 = -1* w1^w2\nd w4 = w1^cw1\n",
             5: "n = 5\nd w3 = -1* w1^w2\nd w4 = w1^cw1\nd w5 = w1^w3\n"}


def nil_model(n):
    return from_structure_equations(parse_structure_text(NIL_TEXTS[n]))


def gaussian_rational_iwasawa():
    """The Iwasawa preset in bases with entries 1/2, 1+i and -1/3+2 i, so
    its blocks hold Gaussian rationals such as 1/2-1/2 i."""
    k = PRESETS["iwasawa"]()
    diagonal = (scalar("1/2"), scalar(1, 1))
    mats = {}
    for bid in k.support():
        dim = k.dimension(*bid)
        rows = [[scalar(0)] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = diagonal[i % 2]
            if i + 1 < dim:
                rows[i][i + 1] = scalar("-1/3", 2)
        mats[bid] = Matrix.from_rows(rows)
    return apply_basis_change(k, mats)


def writer_inputs():
    inputs = [(name, make) for name, make in sorted(PRESETS.items())]
    return inputs + [("nil4", lambda: nil_model(4)),
                     ("nil5", lambda: nil_model(5))]


class TestJson:
    def test_round_trip(self):
        k = square_complex()
        assert from_json_dict(to_json_dict(k)) == k

    def test_negative_bidegree_round_trip(self):
        k = Bicomplex({(-2, 3): 2, (-1, 3): 1},
                      {(-2, 3): Matrix.from_rows([[scalar(1), scalar(0, 1)]])},
                      {}, label="negative")
        assert validate(k) == []
        assert from_json_dict(to_json_dict(k)) == k

    def test_n_and_label_preserved(self):
        k = Bicomplex({(0, 0): 1}, {}, {}, n=2, label="point")
        obj = to_json_dict(k)
        assert obj["n"] == 2 and obj["label"] == "point"
        assert from_json_dict(obj) == k

    def test_scalar_strings_are_canonical(self):
        k = Bicomplex({(0, 0): 1, (1, 0): 1},
                      {(0, 0): one_by_one(scalar("1/2", "-3/4"))}, {})
        obj = to_json_dict(k)
        assert obj["del"]["0,0"] == [["1/2-3/4 i"]]

    def test_rejects_unknown_keys(self):
        with pytest.raises(BicomplexFormatError, match="unknown"):
            from_json_dict({"spaces": {}, "extra": 1})

    def test_rejects_bad_bidegree_key(self):
        with pytest.raises(BicomplexFormatError, match="bidegree"):
            from_json_dict({"spaces": {"0;0": 1}})

    def test_rejects_ragged_matrix(self):
        with pytest.raises(BicomplexFormatError, match="ragged"):
            from_json_dict({"spaces": {"0,0": 2, "1,0": 1},
                            "del": {"0,0": [["1", "0"], ["1"]]}})

    def test_rejects_bad_scalar_with_location(self):
        with pytest.raises(BicomplexFormatError, match="row 0, column 1"):
            from_json_dict({"spaces": {"0,0": 2, "1,0": 1},
                            "del": {"0,0": [["1", "oops"]]}})

    def test_bad_scalar_after_repeated_literals_keeps_location(self):
        """Literals are parsed once per call; a bad cell after repeats of
        good ones still reports where it is."""
        with pytest.raises(BicomplexFormatError,
                           match=r"delbar block at \(0,0\), row 1, column 2"):
            from_json_dict({"spaces": {"0,0": 3, "0,1": 2},
                            "delbar": {"0,0": [["1", "0", "0"],
                                               ["0", "1", "1/0"]]}})
        k = from_json_dict({"spaces": {"0,0": 2, "1,0": 2},
                            "del": {"0,0": [["1/2", "0"], ["0", "1/2"]]}})
        half = scalar(1) / scalar(2)
        assert k.del_map(0, 0) == Matrix.from_rows(
            [[half, scalar(0)], [scalar(0), half]])

    @pytest.mark.parametrize("cell", [0, 1, None])
    def test_rejects_non_string_cell_with_location(self, cell):
        """An int 0 is not the string "0": a row of zeros and one such cell
        is not skipped as all-zero, and the cell reaches the type check."""
        with pytest.raises(BicomplexFormatError,
                           match=r"del block at \(0,0\), row 1, column 0: "
                                 r"entries must be scalar strings"):
            from_json_dict({"spaces": {"0,0": 2, "1,0": 2},
                            "del": {"0,0": [["1", "0"], [cell, "0"]]}})

    @pytest.mark.parametrize("obj, key", [
        ({"n": True, "spaces": {}}, "n must be"),
        ({"spaces": {"0,0": True}}, "spaces['0,0']"),
    ])
    def test_rejects_json_booleans_as_integers(self, obj, key):
        with pytest.raises(BicomplexFormatError, match=r"got true") as info:
            from_json_dict(obj)
        assert key in str(info.value)

    @pytest.mark.parametrize("obj, says", [
        ({"spaces": {"0,0": 10 ** 5000}}, "spaces: integer too long"),
        ({"spaces": {"0,0": 1, "1,0": -10 ** 5000}},
         "spaces['1,0']: integer too long"),
        ({"n": 10 ** 5000, "spaces": {}}, "n: integer too long"),
        ({"n": -10 ** 5000, "spaces": {}}, "n: integer too long"),
        ({"spaces": {f"{'9' * 5000},0": 1}}, "spaces: bidegree key '99"),
        ({"spaces": {"0,0": 1, f"{'9' * 3000},{'9' * 3000}": 1}},
         "spaces: integer too long"),
    ], ids=["dimension", "negative-dimension", "n", "negative-n", "key",
            "bounding-box"])
    def test_integers_too_long_to_print_are_format_errors(self, obj, says):
        with pytest.raises(BicomplexFormatError) as info:
            from_json_dict(obj)
        assert str(info.value).startswith(says)

    def test_blocks_are_read_as_sparse_columns(self):
        k = from_json_dict({"spaces": {"0,0": 3, "1,0": 2},
                            "del": {"0,0": [["0", "1", "0/2"],
                                            ["0 i", "-1/2 i", "i"]]}})
        m = k.del_map(0, 0)
        assert m == Matrix.from_rows(
            [[scalar(0), scalar(1), scalar(0)],
             [scalar(0), scalar(0, "-1/2"), scalar(0, 1)]])
        assert [sorted(col) for col in m._data] == [[], [0, 1], [1]]

    def test_total_dimension_is_capped(self):
        at_cap = {"spaces": {"0,0": MAX_TOTAL_DIM - 1, "1,0": 1}}
        assert from_json_dict(at_cap).dimension(0, 0) == MAX_TOTAL_DIM - 1
        with pytest.raises(BicomplexFormatError,
                           match=rf"spaces: total dimension "
                                 rf"{MAX_TOTAL_DIM + 1} exceeds"):
            from_json_dict({"spaces": {"0,0": MAX_TOTAL_DIM, "1,0": 1}})

    def test_support_bounding_box_is_capped(self):
        side = math.isqrt(MAX_TOTAL_DIM)
        corner = f"{side - 1},{side - 1}"
        at_cap = {"spaces": {"0,0": 1, corner: 1, "3,0": 0}}
        assert from_json_dict(at_cap).support() == [(0, 0),
                                                    (side - 1, side - 1)]
        with pytest.raises(BicomplexFormatError,
                           match=r"from '0,0' to '0,1000000'.* of 1000001 "
                                 r"bidegrees"):
            from_json_dict({"spaces": {"0,0": 1, "0,1000000": 1}})
        # A zero dimension lies outside the support and is not counted.
        far = {"spaces": {"0,0": 1, "-5,0": 1, "9999,9999": 0}}
        assert from_json_dict(far).total_dim == 2
        with pytest.raises(BicomplexFormatError,
                           match="p from '-5,0' to '1,2730'"):
            from_json_dict({"spaces": {"-5,0": 1, "1,2730": 1}})

    def test_writer_reads_no_dense_cell(self, monkeypatch):
        """Only the stored entries are visited: no block is read through
        ``Matrix.entry``."""

        def no_entry(m, i, j):
            raise AssertionError(f"to_json_dict read cell ({i}, {j})")

        k = nil_model(4)
        monkeypatch.setattr(Matrix, "entry", no_entry)
        obj = to_json_dict(k)
        monkeypatch.undo()
        assert json.dumps(obj, indent=2) == json.dumps(
            reference_to_json_dict(k), indent=2)

    @pytest.mark.parametrize("name, make", writer_inputs())
    def test_writer_matches_the_per_cell_reference(self, name, make):
        k = make()
        assert json.dumps(to_json_dict(k), indent=2) == json.dumps(
            reference_to_json_dict(k), indent=2), name

    def test_writer_matches_on_random_complexes(self):
        for seed, symmetric in ([(s, False) for s in range(200)]
                                + [(s, True) for s in range(50)]):
            k = random_bicomplex(seed, symmetric=symmetric).bicomplex
            assert json.dumps(to_json_dict(k), indent=2) == json.dumps(
                reference_to_json_dict(k), indent=2), (seed, symmetric)

    def test_writer_matches_on_gaussian_rational_entries(self):
        k = gaussian_rational_iwasawa()
        cells = {cell for name in ("del", "delbar")
                 for rows in to_json_dict(k)[name].values()
                 for row in rows for cell in row}
        assert any("/" in c and "i" in c for c in cells)
        assert json.dumps(to_json_dict(k), indent=2) == json.dumps(
            reference_to_json_dict(k), indent=2)
        assert from_json_dict(to_json_dict(k)) == k

    def test_shape_problems_surface_via_validate(self):
        k = from_json_dict({"spaces": {"0,0": 2, "1,0": 3},
                            "del": {"0,0": [["1", "0", "0"],
                                            ["0", "1", "0"]]}})
        bad = validate(k)
        assert bad and bad[0].kind == "shape"
