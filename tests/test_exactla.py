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
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bicomplex_lab import exactla
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
    place_blocks,
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

    @pytest.mark.parametrize("rows", [0, 1, 3])
    @pytest.mark.parametrize("cols", [0, 1, 3])
    def test_zero_matrix_needs_no_elimination(self, monkeypatch, rows, cols):
        """A matrix that stores no entry gets the canonical kernel, image
        and rank without a call to either pass of the elimination."""
        def no_elimination(work):
            raise AssertionError("elimination called on a zero matrix")

        monkeypatch.setattr(exactla, "_echelon", no_elimination)
        monkeypatch.setattr(exactla, "_forward", no_elimination)
        zero = Matrix.zero(rows, cols)
        assert kernel_basis(zero) == Subspace.full(cols)
        assert image_basis(zero) == Subspace.zero(rows)
        assert rank(zero) == 0
        cancelled = mat([[1], [SC_I]]) + mat([[-1], [SC_MINUS_I]])
        assert kernel_basis(cancelled) == Subspace.full(1)
        assert image_basis(cancelled) == Subspace.zero(2)

    def test_kernel_members_annihilate(self):
        rng = random.Random(7)
        for _ in range(25):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = mat([[rng.randint(-3, 3) for _ in range(cols)]
                     for _ in range(rows)])
            k = kernel_basis(m)
            assert k.dim == cols - rank(m)
            for col in k.basis.columns():
                assert (m @ Matrix.from_columns(cols, [col])).is_zero()

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
        assert im.contains(Subspace.from_columns(
            3, [[scalar(3), scalar(3), scalar(0)]]))


class TestSubspaces:
    def test_intersection_oracle(self):
        e1 = [SC_ONE, SC_ZERO, SC_ZERO]
        e2 = [SC_ZERO, SC_ONE, SC_ZERO]
        e3 = [SC_ZERO, SC_ZERO, SC_ONE]
        u = Subspace.from_columns(3, [e1, e2])
        v = Subspace.from_columns(3, [e2, e3])
        w = subspace_intersect(u, v)
        assert w == Subspace.from_columns(3, [e2])

    def test_intersection_with_the_whole_space_needs_no_elimination(
            self, monkeypatch):
        """Against the whole space the intersection is the other space as
        it stands, in either order; otherwise it is the general product
        of U with the preimage of V."""
        def general(u, v):
            return Subspace(u.ambient_dim,
                            u.basis @ preimage(u.basis, v).basis)

        v = Subspace.from_columns(3, [[SC_ONE, SC_I, SC_ZERO],
                                      [SC_ZERO, SC_ONE, SC_MINUS_ONE]])
        u = Subspace.from_columns(3, [[SC_ONE, SC_ZERO, SC_ONE],
                                      [SC_ZERO, SC_ONE, SC_ZERO]])
        whole = Subspace.full(3)
        expected = general(whole, v)
        assert subspace_intersect(u, v) == general(u, v)
        assert subspace_intersect(u, v).dim == 1

        def no_echelon(work):
            raise AssertionError("_echelon called against the whole space")

        monkeypatch.setattr(exactla, "_echelon", no_echelon)
        assert subspace_intersect(whole, v) == expected == v
        assert subspace_intersect(v, whole) == expected
        assert subspace_intersect(whole, whole) == whole

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
        assert ext.columns()[0] == [SC_ZERO, SC_ONE]
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

    def test_each_subspace_costs_one_elimination(self, monkeypatch):
        calls = []
        echelon = exactla._echelon

        def counted(*args):
            calls.append(args)
            return echelon(*args)

        monkeypatch.setattr(exactla, "_echelon", counted)
        counts = {}
        m = mat([[1, 1, 0, 2], [0, SC_I, 1, 0], [1, 1, 0, 2]])
        w = Subspace.from_columns(3, [[SC_ONE, SC_ZERO, SC_ZERO]])
        u = Subspace.from_columns(
            3, [[SC_ONE, SC_ONE, SC_ZERO], [SC_ZERO, SC_ONE, SC_ONE]])
        v = Subspace.from_columns(
            3, [[SC_ZERO, SC_ONE, SC_ZERO], [SC_ZERO, SC_ZERO, SC_ONE]])
        for name, run in (("kernel_basis", lambda: kernel_basis(m)),
                          ("preimage", lambda: preimage(m, w)),
                          ("subspace_intersect",
                           lambda: subspace_intersect(u, v)),
                          ("solve", lambda: solve(m, m @ mat(
                              [[1], [0], [2], [SC_I]])))):
            calls.clear()
            run()
            counts[name] = len(calls)
        assert counts == dict.fromkeys(counts, 1)

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
def small_matrices(draw, max_dim=5, rows=None):
    if rows is None:
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

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_kernel_is_canonical_and_annihilated(self, m):
        ker = kernel_basis(m).basis
        assert rce(ker) == ker
        assert (m @ ker).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_preimage_is_canonical_and_maps_into_w(self, data):
        m = data.draw(small_matrices())
        w = image_basis(data.draw(small_matrices(rows=m.rows)))
        pre = preimage(m, w).basis
        assert rce(pre) == pre
        assert w.contains(image_basis(m @ pre))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_intersection_is_canonical_and_in_both(self, data):
        u = image_basis(data.draw(small_matrices()))
        v = image_basis(data.draw(small_matrices(rows=u.ambient_dim)))
        meet = subspace_intersect(u, v)
        assert rce(meet.basis) == meet.basis
        assert u.contains(meet) and v.contains(meet)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_solve_vanishes_on_dependent_columns(self, data):
        b = data.draw(small_matrices(max_dim=3))
        a = b @ data.draw(small_matrices(rows=b.cols))
        assume(rank(a) < a.cols)
        rhs = a @ data.draw(small_matrices(max_dim=3, rows=a.cols))
        x = solve(a, rhs)
        assert a @ x == rhs
        for j in range(a.cols):
            if rank(a.column_slice(range(j + 1))) == \
                    rank(a.column_slice(range(j))):
                assert all(x.entry(j, t).is_zero() for t in range(x.cols))


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

    def test_place_blocks_matches_dense_layout(self):
        a = mat([[1, SC_I], [0, -1]])
        b = mat([[scalar("1/2", "-1/3")]])
        placed = place_blocks(4, 3, [(0, 0, a), (2, 1, b), (3, 2, b)])
        assert placed == mat([[1, SC_I, 0], [0, -1, 0],
                              [0, scalar("1/2", "-1/3"), 0],
                              [0, 0, scalar("1/2", "-1/3")]])
        assert place_blocks(2, 0, []) == Matrix.zero(2, 0)
        with pytest.raises(LinAlgError):
            place_blocks(2, 2, [(1, 0, a)])

    def test_public_accessors_are_dense(self):
        m = Matrix.from_rows([[SC_ZERO, SC_I, SC_ZERO],
                              [SC_ZERO, SC_ZERO, SC_MINUS_ONE]])
        assert m.columns()[0] == [SC_ZERO, SC_ZERO]
        assert m.columns() == [[SC_ZERO, SC_ZERO], [SC_I, SC_ZERO],
                               [SC_ZERO, SC_MINUS_ONE]]
        assert m.to_rows() == [[SC_ZERO, SC_I, SC_ZERO],
                               [SC_ZERO, SC_ZERO, SC_MINUS_ONE]]
        assert m.entry(0, 0) is SC_ZERO
        assert m.entry(1, 2) == SC_MINUS_ONE
        assert Matrix.zero(2, 1).columns() == [[SC_ZERO, SC_ZERO]]
        assert (m @ Matrix.from_columns(3, [[SC_ONE] * 3])).columns() \
            == [[SC_I, SC_MINUS_ONE]]

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


def stored_parts(m):
    return [p for x in stored_entries(m) for p in (x.re, x.im)]


def is_exact_part(p):
    return type(p) is int or type(p) is exactla._rat


# Integral literals, "4/2" among them, must come out as ``int``; the rest
# as ``_rat``.  "3/5+4/5 i" is a unit that is no Gaussian integer.
literal_scalars = st.sampled_from([
    "0", "0", "1", "-1", "i", "-i", "2", "4/2", "-6/3 i", "1/2", "-3/4 i",
    "1+1 i", "2-2 i", "1/2+1/3 i", "3/5+4/5 i"]).map(ExactScalar.parse)


@st.composite
def literal_matrices(draw, max_dim=4, rows=None, cols=None):
    rows = rows or draw(st.integers(min_value=1, max_value=max_dim))
    cols = cols or draw(st.integers(min_value=1, max_value=max_dim))
    return Matrix.from_rows(draw(st.lists(
        st.lists(literal_scalars, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)))


class TestIntegerParts:
    @settings(max_examples=100, deadline=None)
    @given(literal_scalars)
    def test_parse_and_inverse_make_int_parts(self, x):
        made = [x] if x.is_zero() else [x, x.inverse()]
        for part in (p for y in made for p in (y.re, y.im)):
            assert is_exact_part(part)
            if part.denominator == 1:
                assert type(part) is int

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_no_float_is_ever_stored(self, data):
        m = data.draw(literal_matrices())
        w = image_basis(data.draw(literal_matrices(rows=m.rows)))
        sq = data.draw(literal_matrices(rows=m.rows, cols=m.rows))
        results = [rce(m), kernel_basis(m).basis, preimage(m, w).basis,
                   solve(m, m @ m.transpose()), m @ m.transpose()]
        if rank(sq) == sq.rows:
            results.append(inverse(sq))
        for r in results:
            assert all(is_exact_part(p) for p in stored_parts(r))

    def test_integral_rational_parts_equal_int_parts(self):
        one = ExactScalar._raw(Fraction(1), Fraction(0))
        assert one == SC_ONE
        assert hash(one) == hash(SC_ONE)
        assert str(one) == "1"
        half = ExactScalar.parse("1/2")
        assert half + half == SC_ONE and str(half + half) == "1"


def textbook_rce(m):
    """Gauss-Jordan on dense columns: for each row, the first remaining
    column nonzero there is the pivot; it clears that row everywhere."""
    cols = m.columns()
    out = []
    for r in range(m.rows):
        j = next((j for j, c in enumerate(cols) if not c[r].is_zero()), None)
        if j is None:
            continue
        inv = cols[j][r].inverse()
        piv = [x * inv for x in cols.pop(j)]
        for c in cols + out:
            f = c[r]
            c[:] = [x - f * y for x, y in zip(c, piv)]
        out.append(piv)
    return Matrix(m.rows, len(out), out)


def textbook_rref(rows, ncols):
    """Reduced row echelon form by row swaps; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        k = len(pivots)
        p = next((i for i in range(k, len(rows))
                  if not rows[i][c].is_zero()), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        inv = rows[k][c].inverse()
        rows[k] = [x * inv for x in rows[k]]
        for i in range(len(rows)):
            if i != k:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def textbook_kernel(m):
    red, pivots = textbook_rref(m.to_rows(), m.cols)
    vecs = []
    for f in (f for f in range(m.cols) if f not in pivots):
        v = [SC_ZERO] * m.cols
        v[f] = SC_ONE
        for row, pc in zip(red, pivots):
            v[pc] = -row[f]
        vecs.append(v)
    return textbook_rce(Matrix(m.cols, len(vecs), vecs))


def textbook_solve(a, b):
    """The solution that is zero at every non-pivot column of ``A``."""
    red, pivots = textbook_rref(a.hstack(b).to_rows(), a.cols + b.cols)
    if pivots and pivots[-1] >= a.cols:
        raise LinAlgError("inconsistent")
    x = [[SC_ZERO] * b.cols for _ in range(a.cols)]
    for row, pc in zip(red, pivots):
        x[pc] = row[a.cols:]
    return Matrix.from_rows(x, a.cols, b.cols)


@st.composite
def bucketed_matrices(draw, max_dim=5):
    """Columns whose leads are all row 0 or row 1, so that the elimination
    finds several columns in one lead bucket."""
    rows = draw(st.integers(min_value=2, max_value=max_dim))
    cols = draw(st.integers(min_value=2, max_value=max_dim + 1))
    nonzero = sparse_scalars.filter(lambda x: not x.is_zero())
    columns = []
    for _ in range(cols):
        lead = draw(st.integers(min_value=0, max_value=1))
        tail = draw(st.lists(sparse_scalars, min_size=rows - lead - 1,
                             max_size=rows - lead - 1))
        columns.append([SC_ZERO] * lead + [draw(nonzero)] + tail)
    return Matrix(rows, cols, columns)


class TestAgainstTextbookElimination:
    @settings(max_examples=80, deadline=None)
    @given(bucketed_matrices())
    def test_rce(self, m):
        assert rce(m) == textbook_rce(m)

    @settings(max_examples=80, deadline=None)
    @given(bucketed_matrices())
    def test_rank(self, m):
        # The pivots are not scaled in the forward pass, so non-unit
        # pivots such as 1/2 + 1/3 i reach the elimination factor.
        assert rank(m) == textbook_rce(m).cols

    @settings(max_examples=40, deadline=None)
    @given(bucketed_matrices())
    def test_rank_never_back_substitutes(self, m):
        def no_echelon(work):
            raise AssertionError("rank called _echelon")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exactla, "_echelon", no_echelon)
            rank(m)

    @settings(max_examples=80, deadline=None)
    @given(bucketed_matrices())
    def test_kernel_basis(self, m):
        # kernel_basis echelons the rows with the columns reversed: these
        # rows are the columns of m, with their shared leads.
        k = m.transpose().column_slice(range(m.rows - 1, -1, -1))
        assert kernel_basis(k).basis == textbook_kernel(k)
        assert kernel_basis(m).basis == textbook_kernel(m)

    @settings(max_examples=80, deadline=None)
    @given(bucketed_matrices(), st.data())
    def test_solve(self, m, data):
        a = m.transpose()  # solve echelons the rows of [A | B]
        x = data.draw(literal_matrices(rows=a.cols))
        b = data.draw(st.one_of(st.just(a @ x), literal_matrices(rows=a.rows)))
        try:
            want = textbook_solve(a, b)
        except LinAlgError:
            with pytest.raises(LinAlgError):
                solve(a, b)
        else:
            assert solve(a, b) == want
