"""Exact linear algebra over the Gaussian rationals.

Scalars are numbers ``a + b*i`` with arbitrary-precision rational parts, so
every rank, kernel and intersection below is exact; no floating point is
involved anywhere.  Matrices are stored column-major as sparse columns,
each a dict ``{row: scalar}`` that holds only the nonzero entries, because
the differentials are sparse blocks of +-1 and +-i and all the canonical
forms here are column based.  Elimination, products and reductions visit
only stored entries, while the public constructor and accessors keep
speaking dense lists of scalars.  A subspace is represented by its reduced
column echelon basis (leading entry of each column is 1, pivot rows
strictly increasing, pivot rows cleared in all other columns), which is
unique per subspace and therefore usable for equality tests.
"""

import re as _re_module

try:
    from gmpy2 import mpq as _rat
except ImportError:  # pragma: no cover - gmpy2 is optional, Fraction works too
    from fractions import Fraction as _rat

_R0 = _rat(0)
_R1 = _rat(1)


class LinAlgError(ValueError):
    """Raised for dimension mismatches, singular solves and bad scalars."""


_RAT_TOKEN = _re_module.compile(r"^[+-]?\d+(?:/\d+)?$")


def _parse_rational(token):
    token = "".join(token.split())
    if token in ("", "+"):
        return _R1
    if token == "-":
        return -_R1
    if not _RAT_TOKEN.match(token):
        raise LinAlgError(f"invalid rational literal {token!r}")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise LinAlgError(f"zero denominator in {token!r}")
        return _rat(int(num), int(den))
    return _rat(int(token))


class ExactScalar:
    """A Gaussian rational ``re + im*i``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is type(_R0) else _rat(re)
        self.im = im if type(im) is type(_R0) else _rat(im)

    @classmethod
    def _raw(cls, re, im):
        # Internal fast path: both arguments must already be rationals.
        s = object.__new__(cls)
        s.re = re
        s.im = im
        return s

    @classmethod
    def parse(cls, text):
        """Parse ``"p/q"``, ``"p/q+r/s i"``, ``"r/s i"``, ``"i"`` and friends."""
        s = text.strip()
        if not s:
            raise LinAlgError("empty scalar literal")
        if s.endswith("i"):
            body = s[:-1].rstrip()
            split_at = None
            for idx in range(len(body) - 1, 0, -1):
                if body[idx] in "+-" and body[idx - 1] not in "+-/":
                    split_at = idx
                    break
            if split_at is None:
                return cls._raw(_R0, _parse_rational(body))
            re_part = _parse_rational(body[:split_at])
            im_part = _parse_rational(body[split_at:])
            return cls._raw(re_part, im_part)
        return cls._raw(_parse_rational(s), _R0)

    def is_zero(self):
        return not (self.re or self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __add__(self, other):
        return ExactScalar._raw(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ExactScalar._raw(self.re - other.re, self.im - other.im)

    def __neg__(self):
        re, im = self.re, self.im
        return ExactScalar._raw(-re if re else re, -im if im else im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return ExactScalar._raw(a * c - b * d, a * d + b * c)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise LinAlgError("division by zero scalar")
        return ExactScalar._raw(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def conjugate(self):
        return ExactScalar._raw(self.re, -self.im)

    def __eq__(self, other):
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im} i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)} i"

    def __repr__(self):
        return f"ExactScalar({self})"


SC_ZERO = ExactScalar._raw(_R0, _R0)
SC_ONE = ExactScalar._raw(_R1, _R0)
SC_I = ExactScalar._raw(_R0, _R1)
SC_MINUS_ONE = ExactScalar._raw(-_R1, _R0)
SC_MINUS_I = ExactScalar._raw(_R0, -_R1)


def scalar(re=0, im=0):
    if isinstance(re, ExactScalar):
        if im:
            raise LinAlgError("cannot combine a scalar with an extra "
                              "imaginary part")
        return re
    return ExactScalar(re, im)


def _add_scaled(acc, g, col):
    """In place ``acc += g*col`` on sparse columns; ``g`` is nonzero.

    Only the stored entries of ``col`` are visited.  Zero real or imaginary
    parts are skipped, so a purely real or purely imaginary factor costs two
    rational multiplies per entry instead of four.  Entries of ``acc`` that
    cancel are removed, so no zero is ever stored.
    """
    gre, gim = g.re, g.im
    real, imag = not gim, not gre
    ngim = None if real else -gim
    raw = ExactScalar._raw
    get = acc.get
    for i, y in col.items():
        yre, yim = y.re, y.im
        if real:
            pre = gre * yre if yre else None
            pim = gre * yim if yim else None
        elif imag:
            pre = ngim * yim if yim else None
            pim = gim * yre if yre else None
        elif not yim:
            pre, pim = gre * yre, gim * yre
        elif not yre:
            pre, pim = ngim * yim, gre * yim
        else:
            pre, pim = gre * yre - gim * yim, gre * yim + gim * yre
        x = get(i)
        if x is None:
            acc[i] = raw(_R0 if pre is None else pre,
                         _R0 if pim is None else pim)
            continue
        re = x.re if pre is None else x.re + pre
        im = x.im if pim is None else x.im + pim
        if re or im:
            acc[i] = raw(re, im)
        else:
            del acc[i]


def _scale(col, f):
    out = {}
    _add_scaled(out, f, col)
    return out


def _sparse(vec):
    """The nonzero entries of a dense vector, keyed by index."""
    return {i: x for i, x in enumerate(vec)
            if x is not SC_ZERO and (x.re or x.im)}


def _dense(col, n):
    out = [SC_ZERO] * n
    for i, x in col.items():
        out[i] = x
    return out


class Matrix:
    """Exact matrix stored as a list of sparse columns.

    Column ``j`` is a dict ``{row: scalar}`` holding only the nonzero
    entries.  The constructor takes dense columns (lists of scalars) and
    every public accessor returns dense lists filled with ``SC_ZERO``.
    Column dicts are never modified once they belong to a matrix, so
    matrices may share them.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, columns):
        if len(columns) != cols:
            raise LinAlgError("column count mismatch")
        for c in columns:
            if len(c) != rows:
                raise LinAlgError("column length mismatch")
        self.rows = rows
        self.cols = cols
        self._data = [_sparse(c) for c in columns]

    @classmethod
    def _from_sparse(cls, rows, cols, data):
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._data = data
        return m

    @classmethod
    def from_rows(cls, rowdata, rows=None, cols=None):
        if rows is None:
            rows = len(rowdata)
        if cols is None:
            cols = len(rowdata[0]) if rowdata else 0
        columns = [[rowdata[i][j] for i in range(rows)] for j in range(cols)]
        return cls(rows, cols, columns)

    @classmethod
    def from_columns(cls, rows, coldata):
        return cls(rows, len(coldata), coldata)

    @classmethod
    def zero(cls, rows, cols):
        return cls._from_sparse(rows, cols, [{} for _ in range(cols)])

    @classmethod
    def identity(cls, n):
        return cls._from_sparse(n, n, [{j: SC_ONE} for j in range(n)])

    def entry(self, i, j):
        return self._data[j].get(i, SC_ZERO)

    def column(self, j):
        return _dense(self._data[j], self.rows)

    def columns(self):
        return [_dense(c, self.rows) for c in self._data]

    def to_rows(self):
        out = [[SC_ZERO] * self.cols for _ in range(self.rows)]
        for j, c in enumerate(self._data):
            for i, x in c.items():
                out[i][j] = x
        return out

    def column_slice(self, indices):
        return Matrix._from_sparse(self.rows, len(indices),
                                   [self._data[j] for j in indices])

    def hstack(self, other):
        if other.rows != self.rows:
            raise LinAlgError("hstack row mismatch")
        return Matrix._from_sparse(self.rows, self.cols + other.cols,
                                   self._data + other._data)

    def transpose(self):
        out = [{} for _ in range(self.rows)]
        for j, c in enumerate(self._data):
            for i, x in c.items():
                out[i][j] = x
        return Matrix._from_sparse(self.cols, self.rows, out)

    def conjugate_entries(self):
        return Matrix._from_sparse(
            self.rows, self.cols,
            [{i: x.conjugate() for i, x in c.items()} for c in self._data])

    def negate(self):
        return Matrix._from_sparse(
            self.rows, self.cols,
            [{i: -x for i, x in c.items()} for c in self._data])

    def _apply(self, vec):
        """Matrix times a sparse column vector, as a sparse column."""
        out = {}
        for j, f in vec.items():
            _add_scaled(out, f, self._data[j])
        return out

    def apply(self, vec):
        """Matrix times a column vector given as a list of scalars."""
        if len(vec) != self.cols:
            raise LinAlgError("vector length mismatch")
        return _dense(self._apply(_sparse(vec)), self.rows)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise LinAlgError("matmul dimension mismatch")
        return Matrix._from_sparse(self.rows, other.cols,
                                   [self._apply(c) for c in other._data])

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise LinAlgError("matrix addition shape mismatch")
        data = []
        for a, b in zip(self._data, other._data):
            c = dict(a)
            _add_scaled(c, SC_ONE, b)
            data.append(c)
        return Matrix._from_sparse(self.rows, self.cols, data)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._data == other._data)

    def is_zero(self):
        return not any(self._data)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _echelon(work, top_rows):
    """Reduced column echelon on stacked sparse columns.

    Only the first ``top_rows`` rows take part in pivoting; rows further
    down just come along for the ride (used for kernel and solve
    bookkeeping).
    ``work`` is a list of column dicts owned by this call, which reduces
    them in place.  Returns ``(pivots, leftover)`` where ``pivots`` is a
    list of ``(pivot_row, column)`` sorted by pivot row and ``leftover``
    contains the columns whose leading block was eliminated to zero.

    Every remaining column is zero in all rows above ``r`` when row ``r`` is
    reached, so a column's lead (its least stored row) tells at once whether
    it is nonzero in row ``r``: the pivot for row ``r`` is the first column
    whose lead is ``r``, and rows that no lead reaches have no pivot.
    """
    leads = [min(c, default=top_rows) for c in work]
    out = []
    while work:
        r = min(leads)
        if r >= top_rows:
            break
        j = leads.index(r)
        col = work.pop(j)
        del leads[j]
        piv = col[r]
        if not (piv.re == _R1 and not piv.im):
            col = _scale(col, piv.inverse())
        for k in [k for k, lead in enumerate(leads) if lead == r]:
            c = work[k]
            _add_scaled(c, -c[r], col)
            leads[k] = min(c, default=top_rows)
        for _, c in out:
            f = c.get(r)
            if f is not None:
                _add_scaled(c, -f, col)
        out.append((r, col))
    return out, work


def _reduce(v, pivots):
    """Reduce the sparse column ``v`` in place by reduced echelon columns.

    ``pivots`` holds ``(pivot_row, column)`` pairs as :func:`_echelon`
    returns them; the result, also returned, is zero in every pivot row.
    """
    for prow, col in pivots:
        f = v.get(prow)
        if f is not None:
            _add_scaled(v, -f, col)
    return v


def rce(m):
    """Canonical reduced column echelon form (zero columns dropped)."""
    pivots, _ = _echelon([dict(c) for c in m._data], m.rows)
    return Matrix._from_sparse(m.rows, len(pivots), [c for _, c in pivots])


def rank(m):
    pivots, _ = _echelon([dict(c) for c in m._data], m.rows)
    return len(pivots)


class Subspace:
    """A subspace of the standard space of a given ambient dimension.

    The basis matrix is always in reduced column echelon form, so two equal
    subspaces compare equal as objects.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_columns(cls, ambient_dim, columns):
        m = columns if isinstance(columns, Matrix) else \
            Matrix.from_columns(ambient_dim, columns)
        if m.rows != ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        return cls(ambient_dim, rce(m))

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, Matrix.zero(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self):
        return self.basis.cols

    def pivot_rows(self):
        return [min(c) for c in self.basis._data]

    def _pivots(self):
        return list(zip(self.pivot_rows(), self.basis._data))

    def reduce_vector(self, vec):
        """Residual of ``vec`` after subtracting its component in this space."""
        return _dense(_reduce(_sparse(vec), self._pivots()), len(vec))

    def contains_vector(self, vec):
        return not _reduce(_sparse(vec), self._pivots())

    def contains(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        pivots = self._pivots()
        return not any(_reduce(dict(c), pivots) for c in other.basis._data)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def _with_identity_below(m):
    """Fresh copies of the columns of ``m`` with the identity stacked below."""
    out = []
    for j, c in enumerate(m._data):
        col = dict(c)
        col[m.rows + j] = SC_ONE
        out.append(col)
    return out


def _leading(cols, n):
    """The entries of each sparse column in its first ``n`` rows."""
    return [{i: x for i, x in c.items() if i < n} for c in cols]


def kernel_basis(m):
    """Kernel of a matrix, as a canonical subspace of the source."""
    _, leftover = _echelon(_with_identity_below(m), m.rows)
    cols = [{i - m.rows: x for i, x in c.items()} for c in leftover]
    return Subspace.from_columns(
        m.cols, Matrix._from_sparse(m.cols, len(cols), cols))


def image_basis(m):
    """Column span of a matrix, as a canonical subspace of the target."""
    return Subspace(m.rows, rce(m))


def solve(a, b):
    """Any exact solution ``X`` of ``A @ X = B``; raises if none exists."""
    if a.rows != b.rows:
        raise LinAlgError("solve: row mismatch")
    pivots, _ = _echelon(_with_identity_below(a), a.rows)
    xcols = []
    for c in b._data:
        v = _reduce(dict(c), pivots)
        if any(i < a.rows for i in v):
            raise LinAlgError("solve: inconsistent system")
        xcols.append({i - a.rows: -x for i, x in v.items()})
    return Matrix._from_sparse(a.cols, b.cols, xcols)


def inverse(a):
    if a.rows != a.cols:
        raise LinAlgError("inverse of a non-square matrix")
    return solve(a, Matrix.identity(a.rows))


def subspace_sum(u, v):
    if u.ambient_dim != v.ambient_dim:
        raise LinAlgError("subspace_sum: ambient dimension mismatch")
    return Subspace.from_columns(u.ambient_dim, u.basis.hstack(v.basis))


def subspace_intersect(u, v):
    """Zassenhaus-style intersection via the kernel of ``[U | -V]``."""
    if u.ambient_dim != v.ambient_dim:
        raise LinAlgError("subspace_intersect: ambient dimension mismatch")
    joint = u.basis.hstack(v.basis.negate())
    ker = kernel_basis(joint)
    cols = [u.basis._apply(coeffs)
            for coeffs in _leading(ker.basis._data, u.basis.cols)]
    return Subspace.from_columns(
        u.ambient_dim, Matrix._from_sparse(u.ambient_dim, len(cols), cols))


def quotient_dim(u, w):
    """Dimension of ``U/W``; requires ``W`` to be a subspace of ``U``."""
    if not u.contains(w):
        raise LinAlgError("quotient_dim: denominator not contained in numerator")
    return u.dim - w.dim


def complete_basis(inner, outer):
    """Columns extending a basis of ``inner`` to one of ``outer``.

    Both arguments are subspaces with ``inner`` contained in ``outer``.  The
    result is canonical: it consists of the echelon basis columns of
    ``outer`` whose pivot rows are not pivot rows of ``inner``.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise LinAlgError("complete_basis: ambient dimension mismatch")
    if not outer.contains(inner):
        raise LinAlgError("complete_basis: inner space not contained in outer")
    inner_pivots = set(inner.pivot_rows())
    keep = [j for j, prow in enumerate(outer.pivot_rows())
            if prow not in inner_pivots]
    return outer.basis.column_slice(keep)


def preimage(m, w):
    """The subspace ``{x : m @ x in W}`` of the source of ``m``."""
    if w.ambient_dim != m.rows:
        raise LinAlgError("preimage: ambient dimension mismatch")
    joint = m.hstack(w.basis.negate())
    ker = kernel_basis(joint)
    cols = _leading(ker.basis._data, m.cols)
    return Subspace.from_columns(
        m.cols, Matrix._from_sparse(m.cols, len(cols), cols))
