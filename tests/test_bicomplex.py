"""Tests for the double-complex data model.

Hand-computed facts used below:

* The elementary square complex (one-dimensional spaces at (0,0), (1,0),
  (0,1), (1,1); horizontal maps 1 and -1, vertical maps 1 and 1) satisfies
  all axioms: the only sign constraint is anticommutation at (0,0), namely
  del(0,1)*delbar(0,0) + delbar(1,0)*del(0,0) = -1 + 1 = 0.  Its total
  complex has dims (1, 2, 1) and is exact: d0 = (1, 1)^T, d1 = (-1  1).
* Flipping the sign of one square arrow breaks anticommutation only.
"""

import pytest

from bicomplex_lab.bicomplex import (
    Bicomplex,
    BicomplexFormatError,
    ConjugationStructure,
    TotalComplex,
    check_real_structure,
    ensure_valid,
    from_json_dict,
    to_json_dict,
    totalize,
    validate,
)
from bicomplex_lab.exactla import Matrix, rank, scalar


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


class TestTotalize:
    def test_single_dot(self):
        t = totalize(Bicomplex({(3, 1): 1}, {}, {}))
        assert t.dims == {4: 1}
        assert t.differential(4).rows == 0

    def test_square_totalizes_to_exact_complex(self):
        t = totalize(square_complex())
        assert [t.dims[k] for k in t.degrees()] == [1, 2, 1]
        d0, d1 = t.differential(0), t.differential(1)
        assert (d1 @ d0).is_zero()
        assert rank(d0) == 1 and rank(d1) == 1

    def test_block_layout_orders_by_p(self):
        t = totalize(square_complex())
        assert t.offsets[1] == {(0, 1): 0, (1, 0): 1}

    def test_gap_degrees_filled_with_zero(self):
        t = totalize(Bicomplex({(0, 0): 1, (2, 0): 1}, {}, {}))
        assert t.dims == {0: 1, 1: 0, 2: 1}

    def test_invalid_complex_rejected(self):
        with pytest.raises(ValueError):
            totalize(square_complex(flip_sign=True))

    def test_empty_complex(self):
        t = totalize(Bicomplex({}, {}, {}))
        assert t == TotalComplex({}, {}, {})


class TestRealStructure:
    def table_complex(self):
        # Spaces at (0,0), (1,0), (0,1); one horizontal arrow out of (0,0)
        # and the mirrored vertical arrow, as a conjugation-symmetric pair.
        spaces = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
        del_maps = {(0, 0): one_by_one(1)}
        delbar_maps = {(0, 0): one_by_one(1)}
        return spaces, del_maps, delbar_maps

    def identity_conj(self):
        return ConjugationStructure(maps={
            (0, 0): Matrix.identity(1),
            (1, 0): Matrix.identity(1),
            (0, 1): Matrix.identity(1),
        })

    def test_symmetric_pair_passes(self):
        spaces, d, db = self.table_complex()
        k = Bicomplex(spaces, d, db, conj=self.identity_conj())
        assert validate(k) == []
        assert check_real_structure(k) is True

    def test_scaled_block_breaks_involution(self):
        spaces, d, db = self.table_complex()
        conj = self.identity_conj()
        conj.maps[(1, 0)] = one_by_one(2)
        k = Bicomplex(spaces, d, db, conj=conj)
        assert check_real_structure(k) is False

    def test_mismatched_differentials_fail_intertwining(self):
        spaces, d, db = self.table_complex()
        db = {(0, 0): one_by_one(-1)}  # still a valid complex, not symmetric
        k = Bicomplex(spaces, d, db, conj=self.identity_conj())
        assert validate(k) == []
        assert check_real_structure(k) is False

    def test_antilinear_unit_is_involutive(self):
        k = Bicomplex({(0, 0): 1}, {}, {}, conj=ConjugationStructure(
            maps={(0, 0): one_by_one(scalar(0, 1))}))
        # C sends v to i * conj(v); applying twice gives i * conj(i) * v = v.
        assert check_real_structure(k) is True

    def test_asymmetric_dimensions_fail(self):
        k = Bicomplex({(1, 0): 1}, {}, {}, conj=ConjugationStructure(maps={}))
        assert check_real_structure(k) is False

    def test_missing_structure_raises(self):
        with pytest.raises(ValueError):
            check_real_structure(square_complex())


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

    @pytest.mark.parametrize("obj, key", [
        ({"n": True, "spaces": {}}, "n must be"),
        ({"spaces": {"0,0": True}}, "spaces['0,0']"),
    ])
    def test_rejects_json_booleans_as_integers(self, obj, key):
        with pytest.raises(BicomplexFormatError, match=r"got true") as info:
            from_json_dict(obj)
        assert key in str(info.value)

    def test_shape_problems_surface_via_validate(self):
        k = from_json_dict({"spaces": {"0,0": 2, "1,0": 3},
                            "del": {"0,0": [["1", "0", "0"],
                                            ["0", "1", "0"]]}})
        bad = validate(k)
        assert bad and bad[0].kind == "shape"
