"""Tests for the exact linear algebra layer.

Expected values in the "oracle" tests below were computed by hand:

* ``[[1, i], [i, -1]]`` has second column ``i * first``, so rank 1 and a
  one-dimensional kernel spanned by ``(i, -1)`` (equivalently ``(1, -i)``
  after scaling, canonical echelon column ``(1, i)``... the subspace
  equality below is representation independent).
* ``[1, i]`` as a 1x2 matrix: ``x + i y = 0`` iff ``(x, y) = t (-i, 1)``.
* span{e1 + e2} inside span{e1, e2}: the canonical completion is the echelon
  column of the outer space whose pivot row is not row 0, i.e. ``e2``.
* span{(1,0,0), (0,1,0)} meets span{(0,1,0), (0,0,1)} in span{(0,1,0)}.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bicomplex_lab.exactla import (
    ExactScalar,
    LinAlgError,
    Matrix,
    SC_I,
    SC_MINUS_I,
    SC_MINUS_ONE,
    SC_ONE,
    SC_ZERO,
    Subspace,
    complete_basis,
    image_basis,
    inverse,
    kernel_basis,
    preimage,
    quotient_dim,
    rank,
    rce,
    scalar,
    solve,
    subspace_intersect,
    subspace_sum,
)


def mat(rows):
    return Matrix.from_rows([[s if isinstance(s, ExactScalar) else scalar(s)
                              for s in row] for row in rows])


class TestScalar:
    def test_parse_and_format_roundtrip(self):
        for text in ["0", "1", "-1", "1/2", "-3/4", "1 i", "-1 i", "2/3 i",
                     "1+1 i", "1/2-3/4 i", "-5+2/7 i"]:
            assert str(ExactScalar.parse(text)) == text

    def test_parse_lenient_spellings(self):
        assert ExactScalar.parse("i") == SC_I
        assert ExactScalar.parse("-i") == SC_MINUS_I
        assert ExactScalar.parse("2i") == scalar(0, 2)
        assert ExactScalar.parse(" 1/2 + 1/3 i ") == ExactScalar("1/2", "1/3")

    def test_parse_rejects_garbage(self):
        for text in ["", "1.5", "one", "1/0", "2e3", "i i", "1+", "--2"]:
            with pytest.raises(LinAlgError):
                ExactScalar.parse(text)

    def test_field_arithmetic(self):
        a = scalar(1, 2)
        b = scalar(3, -1)
        assert a + b == scalar(4, 1)
        assert a - b == scalar(-2, 3)
        assert a * b == scalar(5, 5)  # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
        assert (a / b) * b == a
        assert SC_I * SC_I == SC_MINUS_ONE
        assert a.conjugate() == scalar(1, -2)
        assert (a * a.conjugate()).im == 0

    def test_inverse_of_zero_raises(self):
        with pytest.raises(LinAlgError):
            SC_ZERO.inverse()

    def test_rational_fractions(self):
        assert scalar("1/2") + scalar("1/3") == scalar("5/6")
        assert str(scalar("2/4")) == "1/2"


class TestEchelonAndRank:
    def test_rank_oracle_complex_dependence(self):
        m = mat([[1, SC_I], [SC_I, -1]])
        assert rank(m) == 1

    def test_rank_zero_rows(self):
        assert rank(Matrix.zero(0, 5)) == 0
        assert rank(Matrix.zero(5, 0)) == 0
        assert rank(Matrix.zero(3, 4)) == 0

    def test_rce_is_canonical(self):
        # Two different bases of the same plane reduce to the same form.
        a = mat([[1, 1], [1, -1], [0, 2]])
        b = mat([[2, 1], [0, 1], [2, 0]])  # columns: (a1+a2, a1)
        assert rce(a) == rce(b)

    def test_rce_pivot_normalization(self):
        m = mat([[2], [SC_I]])
        r = rce(m)
        assert r.entry(0, 0) == SC_ONE
        assert r.entry(1, 0) == scalar(0, "1/2")


class TestKernelImageSolve:
    def test_kernel_oracle(self):
        m = mat([[1, SC_I]])
        k = kernel_basis(m)
        assert k.dim == 1
        assert k == Subspace.from_columns(2, [[SC_MINUS_I, SC_ONE]])

    def test_kernel_of_wide_zero_block(self):
        k = kernel_basis(Matrix.zero(0, 5))
        assert k.dim == 5

    def test_kernel_members_annihilate(self):
        rng = random.Random(7)
        for _ in range(25):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = mat([[rng.randint(-3, 3) for _ in range(cols)]
                     for _ in range(rows)])
            k = kernel_basis(m)
            assert k.dim == cols - rank(m)
            for col in k.basis.columns():
                assert all(x.is_zero() for x in m.apply(col))

    def test_solve_and_inverse(self):
        a = mat([[1, SC_I], [2, -1]])
        x = solve(a, Matrix.identity(2))
        assert a @ x == Matrix.identity(2)
        assert inverse(a) == x

    def test_solve_inconsistent_raises(self):
        a = mat([[1], [1]])
        b = mat([[1], [0]])
        with pytest.raises(LinAlgError):
            solve(a, b)

    def test_image_basis(self):
        m = mat([[1, 2], [1, 2], [0, 0]])
        im = image_basis(m)
        assert im.dim == 1
        assert im.contains_vector([scalar(3), scalar(3), scalar(0)])


class TestSubspaces:
    def test_intersection_oracle(self):
        e1 = [SC_ONE, SC_ZERO, SC_ZERO]
        e2 = [SC_ZERO, SC_ONE, SC_ZERO]
        e3 = [SC_ZERO, SC_ZERO, SC_ONE]
        u = Subspace.from_columns(3, [e1, e2])
        v = Subspace.from_columns(3, [e2, e3])
        w = subspace_intersect(u, v)
        assert w == Subspace.from_columns(3, [e2])

    def test_sum_and_dimension_formula_randomized(self):
        rng = random.Random(20260825)
        for _ in range(200):
            n = rng.randint(1, 8)
            du, dv = rng.randint(0, n), rng.randint(0, n)
            u = Subspace.from_columns(n, Matrix.from_columns(
                n, [[scalar(rng.randint(-2, 2), rng.randint(-2, 2))
                     for _ in range(n)] for _ in range(du)]))
            v = Subspace.from_columns(n, Matrix.from_columns(
                n, [[scalar(rng.randint(-2, 2), rng.randint(-2, 2))
                     for _ in range(n)] for _ in range(dv)]))
            s = subspace_sum(u, v)
            w = subspace_intersect(u, v)
            assert s.dim + w.dim == u.dim + v.dim
            assert s.contains(u) and s.contains(v)
            assert u.contains(w) and v.contains(w)

    def test_quotient_dim(self):
        u = Subspace.full(3)
        w = Subspace.from_columns(3, [[SC_ONE, SC_ONE, SC_ZERO]])
        assert quotient_dim(u, w) == 2
        with pytest.raises(LinAlgError):
            quotient_dim(w, u)

    def test_complete_basis_oracle(self):
        outer = Subspace.full(2)
        inner = Subspace.from_columns(2, [[SC_ONE, SC_ONE]])
        ext = complete_basis(inner, outer)
        assert ext.cols == 1
        assert ext.column(0) == [SC_ZERO, SC_ONE]
        joined = subspace_sum(inner, Subspace.from_columns(2, ext))
        assert joined == outer

    def test_complete_basis_requires_containment(self):
        a = Subspace.from_columns(2, [[SC_ONE, SC_ZERO]])
        b = Subspace.from_columns(2, [[SC_ZERO, SC_ONE]])
        with pytest.raises(LinAlgError):
            complete_basis(a, b)

    def test_complete_basis_randomized_always_complements(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(1, 7)
            cols = [[scalar(rng.randint(-2, 2), rng.randint(-2, 2))
                     for _ in range(n)] for _ in range(rng.randint(0, n))]
            outer = Subspace.from_columns(n, Matrix.from_columns(n, cols))
            take = rng.randint(0, outer.dim)
            mix = []
            for _ in range(take):
                combo = [SC_ZERO] * n
                for col in outer.basis.columns():
                    f = scalar(rng.randint(-2, 2))
                    combo = [x + f * y for x, y in zip(combo, col)]
                mix.append(combo)
            inner = Subspace.from_columns(n, Matrix.from_columns(n, mix))
            ext = complete_basis(inner, outer)
            assert ext.cols == outer.dim - inner.dim
            rebuilt = subspace_sum(
                inner, Subspace.from_columns(n, ext)) if ext.cols else inner
            assert rebuilt == outer

    def test_preimage(self):
        m = mat([[1, 0], [0, 1]])
        w = Subspace.from_columns(2, [[SC_ONE, SC_ZERO]])
        pre = preimage(m, w)
        assert pre == Subspace.from_columns(2, [[SC_ONE, SC_ZERO]])
        everything = preimage(Matrix.zero(3, 2), Subspace.zero(3))
        assert everything.dim == 2


small_scalars = st.builds(
    scalar,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)


@st.composite
def small_matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(st.lists(
        st.lists(small_scalars, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return Matrix.from_rows(data)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_rank_of_transpose(self, m):
        assert rank(m) == rank(m.transpose())

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_rank_nullity(self, m):
        assert rank(m) + kernel_basis(m).dim == m.cols

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_image_dimension_matches_rank(self, m):
        assert image_basis(m).dim == rank(m)

    @settings(max_examples=40, deadline=None)
    @given(small_matrices(max_dim=4), st.randoms(use_true_random=False))
    def test_canonical_form_invariant_under_column_ops(self, m, rnd):
        cols = m.columns()
        for _ in range(6):
            j = rnd.randrange(len(cols))
            k = rnd.randrange(len(cols))
            if j != k:
                f = scalar(rnd.randint(-2, 2), rnd.randint(-2, 2))
                cols[k] = [x + f * y for x, y in zip(cols[k], cols[j])]
        shuffled = Matrix.from_columns(m.rows, cols)
        assert rce(shuffled) == rce(m)


def stored_entries(m):
    return [x for col in m._data for x in col.values()]


class TestSparseColumns:
    def test_cancellation_stores_no_zeros(self):
        a = mat([[1, SC_I, 0], [scalar("1/2", "-1/3"), 0, SC_MINUS_ONE]])
        total = a + a.negate()
        assert total == Matrix.zero(2, 3)
        assert total.is_zero()
        assert stored_entries(total) == []

    def test_explicit_zeros_are_not_stored(self):
        m = Matrix(3, 2, [[SC_ZERO] * 3, [SC_ZERO, scalar(0, 0), SC_ZERO]])
        assert m == Matrix.zero(3, 2)
        assert m.is_zero()
        assert Matrix.from_rows([[SC_ZERO, SC_ZERO]]) == Matrix.zero(1, 2)

    def test_elimination_stores_no_zeros(self):
        m = mat([[1, 1, 2], [SC_I, SC_I, 0], [0, 1, 1]])
        for result in (rce(m), kernel_basis(m).basis, m @ m,
                       solve(m, m @ m), m.transpose()):
            assert all(not x.is_zero() for x in stored_entries(result))

    def test_public_accessors_are_dense(self):
        m = Matrix.from_rows([[SC_ZERO, SC_I, SC_ZERO],
                              [SC_ZERO, SC_ZERO, SC_MINUS_ONE]])
        assert m.column(0) == [SC_ZERO, SC_ZERO]
        assert m.columns() == [[SC_ZERO, SC_ZERO], [SC_I, SC_ZERO],
                               [SC_ZERO, SC_MINUS_ONE]]
        assert m.to_rows() == [[SC_ZERO, SC_I, SC_ZERO],
                               [SC_ZERO, SC_ZERO, SC_MINUS_ONE]]
        assert m.entry(0, 0) is SC_ZERO
        assert m.entry(1, 2) == SC_MINUS_ONE
        assert Matrix.zero(2, 1).columns() == [[SC_ZERO, SC_ZERO]]
        assert m.apply([SC_ONE, SC_ONE, SC_ONE]) == [SC_I, SC_MINUS_ONE]

    def test_constructor_still_validates_dense_columns(self):
        with pytest.raises(LinAlgError):
            Matrix(2, 1, [[SC_ONE]])
        with pytest.raises(LinAlgError):
            Matrix(1, 2, [[SC_ONE]])


# Zero, units, a general scalar and a purely imaginary non-unit: every
# zero-part branch of the sparse product is reached.
sparse_scalars = st.sampled_from([
    SC_ZERO, SC_ONE, SC_MINUS_ONE, SC_I, SC_MINUS_I,
    scalar("1/2", "1/3"), scalar(0, "-2/5")])


@st.composite
def sparse_products(draw, max_dim=4):
    n, k, m = (draw(st.integers(min_value=1, max_value=max_dim))
               for _ in range(3))

    def block(rows, cols):
        return Matrix.from_rows(draw(st.lists(
            st.lists(sparse_scalars, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

    return block(n, k), block(k, m)


class TestSparseProperties:
    @settings(max_examples=80, deadline=None)
    @given(sparse_products())
    def test_product_matches_textbook_sum(self, ab):
        a, b = ab
        prod = a @ b
        for i in range(a.rows):
            for j in range(b.cols):
                want = SC_ZERO
                for t in range(a.cols):
                    want = want + a.entry(i, t) * b.entry(t, j)
                assert prod.entry(i, j) == want
        assert all(not x.is_zero() for x in stored_entries(prod))

    @settings(max_examples=80, deadline=None)
    @given(sparse_products())
    def test_solve_reproduces_consistent_right_hand_side(self, ax):
        a, x = ax
        rhs = a @ x
        assert a @ solve(a, rhs) == rhs
