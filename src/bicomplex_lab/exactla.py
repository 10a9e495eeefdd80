"""Exact linear algebra over the Gaussian rationals.

Scalars are numbers ``a + b*i`` with arbitrary-precision rational parts, so
every rank, kernel and intersection below is exact; no floating point is
involved anywhere.  A part is a plain ``int`` when integral and a ``_rat``
(``Fraction``, or gmpy2's ``mpq``) otherwise: the entries are almost all
+-1 and +-i, and Python mixes the two exactly.  Matrices are stored
column-major as sparse columns, each a dict ``{row: scalar}`` that holds
only the nonzero entries, because the differentials are sparse blocks of
+-1 and +-i.  Elimination, products and reductions visit only stored
entries, while the public constructor and accessors keep speaking dense
lists of scalars.  A subspace is represented by its reduced column echelon
basis (leading entry of each column is 1, pivot rows strictly increasing,
pivot rows cleared in all other columns), which is unique per subspace and
therefore usable for equality tests.  There is one elimination, in two
passes.  The forward pass, ``_forward``, finds the pivots; a rank is
their number, so ``rank`` runs nothing else.  ``_echelon`` follows it with
one back-substitution from the last pivot up, and every basis comes out
of it: run on the columns of a matrix for images, and on its rows for
kernels, preimages, intersections and solves.  Both passes scale with
stored entries: a heap of lead rows picks each pivot, and a reduction
visits only the pivot rows a vector actually has.  A matrix that stores no
entry skips both: ``rce``, ``rank`` and ``kernel_basis`` return their
canonical answer at once.  A matrix with one row or one column that stores
an entry has rank 1, so ``rank`` answers it without the forward pass too.
"""

import re as _re_module
from heapq import heapify, heappop, heappush

try:
    from gmpy2 import mpq as _rat
except ImportError:  # pragma: no cover - gmpy2 is optional, Fraction works too
    from fractions import Fraction as _rat


class LinAlgError(ValueError):
    """Raised for dimension mismatches, singular solves and bad scalars."""


_RAT_TOKEN = _re_module.compile(r"^[+-]?\d+(?:/\d+)?$", _re_module.ASCII)


def _q(num, den=None):
    """The exact rational ``num`` or ``num/den``: an ``int`` when integral,
    else a ``_rat``.  Dividing two ``int`` parts with ``/`` would give a
    float, so every rational that may not be integral is made here."""
    q = _rat(num) if den is None else _rat(num) / den
    return int(q) if q.denominator == 1 else q


def _parse_rational(token):
    token = "".join(token.split())
    if token in ("", "+"):
        return 1
    if token == "-":
        return -1
    if not _RAT_TOKEN.match(token):
        raise LinAlgError(f"invalid rational literal {token!r}")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise LinAlgError(f"zero denominator in {token!r}")
        return _q(int(num), int(den))
    return int(token)


class ExactScalar:
    """A Gaussian rational ``re + im*i``.

    Each part is an ``int`` when integral and a ``_rat`` otherwise.  Sums
    may leave an integral ``_rat`` (1/2 + 1/2); it is equal, hash-equal and
    prints the same as the ``int``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _q(re)
        self.im = im if type(im) is int else _q(im)

    @classmethod
    def _raw(cls, re, im):
        # Internal fast path: both parts must already be ints or rationals.
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
                return cls._raw(0, _parse_rational(body))
            re_part = _parse_rational(body[:split_at])
            im_part = _parse_rational(body[split_at:])
            return cls._raw(re_part, im_part)
        return cls._raw(_parse_rational(s), 0)

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
        re, im = self.re, self.im
        n = re * re + im * im
        if not n:
            raise LinAlgError("division by zero scalar")
        if n == 1:  # a Gaussian unit: the inverse is the conjugate
            return ExactScalar._raw(re, -im)
        return ExactScalar._raw(_q(re, n), _q(-im, n))

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


SC_ZERO = ExactScalar._raw(0, 0)
SC_ONE = ExactScalar._raw(1, 0)
SC_I = ExactScalar._raw(0, 1)
SC_MINUS_ONE = ExactScalar._raw(-1, 0)
SC_MINUS_I = ExactScalar._raw(0, -1)


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
            acc[i] = raw(0 if pre is None else pre,
                         0 if pim is None else pim)
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
    ``from_rows`` dense rows; the dense accessors ``entry``, ``columns``
    and ``to_rows`` fill the absent entries with ``SC_ZERO``.
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

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise LinAlgError("matmul dimension mismatch")
        out = [{} for _ in other._data]
        for col, vec in zip(out, other._data):
            for j, f in vec.items():
                _add_scaled(col, f, self._data[j])
        return Matrix._from_sparse(self.rows, other.cols, out)

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


def place_blocks(rows, cols, blocks):
    """The ``rows x cols`` matrix holding each block at its offsets.

    ``blocks`` yields ``(row_offset, col_offset, matrix)`` triples whose
    footprints must not overlap; all other entries are zero.  Only the
    stored entries of each block are copied.
    """
    data = [{} for _ in range(cols)]
    for r0, c0, m in blocks:
        if r0 + m.rows > rows or c0 + m.cols > cols:
            raise LinAlgError("place_blocks: block outside the matrix")
        for j, c in enumerate(m._data, start=c0):
            col = data[j]
            for i, x in c.items():
                col[r0 + i] = x
    return Matrix._from_sparse(rows, cols, data)


def _forward(columns):
    """Forward elimination of the sparse columns ``columns``.

    The module's one elimination loop.  Returns ``(pivot_row, index,
    column)`` triples by increasing pivot row, ``index`` being the pivot
    column's position in ``columns`` and ``column`` its reduced copy,
    which leads at the pivot row, so their number is the rank.  A column
    is reduced only by the columns before it, so for columns in
    filtration order the pivots are the persistence pairs
    (``cohomology._d_pairs``).  Pivots are not scaled, and a column
    is not cleared in the pivot rows below its own.  ``columns`` is left
    as it is: the pass copies a column before it eliminates it, so a
    column that is only ever a pivot comes back as given.

    Every remaining column is zero in all rows above ``r`` when row ``r`` is
    reached, so a column's lead (its least stored row) tells at once whether
    it is nonzero in row ``r``.  The columns are kept in buckets by lead, and
    a heap holds the leads: the pivot for row ``r`` is the lowest index in
    its bucket, rows that no lead reaches have no pivot, and only the
    columns eliminated at ``r`` move to a new bucket.  A bucket of one
    column is its own pivot and needs no work.
    """
    work = list(columns)
    buckets = {}
    for j, c in enumerate(work):
        if c:
            buckets.setdefault(min(c), []).append(j)
    heap = list(buckets)
    heapify(heap)
    out = []
    while heap:
        r = heappop(heap)
        bucket = buckets.pop(r)
        j = min(bucket)
        col = work[j]
        out.append((r, j, col))
        if len(bucket) == 1:
            continue
        ninv = -col[r].inverse()
        for k in bucket:
            if k == j:
                continue
            c = work[k] = dict(work[k])
            _add_scaled(c, c[r] * ninv, col)
            if c:
                lead = min(c)
                moved = buckets.get(lead)
                if moved is None:
                    buckets[lead] = [k]
                    heappush(heap, lead)
                else:
                    moved.append(k)
    return out


def _echelon(columns):
    """Reduced column echelon of the sparse columns ``columns``.

    ``rce`` runs it on the columns of a matrix, ``kernel_basis`` and
    ``solve`` on its rows.  Returns ``(pivot_row, column)`` pairs sorted by
    pivot row, each column 1 in its own pivot row and 0 in the others.
    The columns are new dicts; ``columns`` is left as it is.

    :func:`_forward` finds the pivots; one back-substitution then walks
    them from the last up, scaling each column to 1 and reducing it by the
    columns already finished (``_reduce``), which visits only the pivot
    rows the column stores.
    """
    done = {}
    for r, _, col in reversed(_forward(columns)):
        piv = col[r]
        col = (dict(col) if piv.re == 1 and not piv.im
               else _scale(col, piv.inverse()))
        done[r] = _reduce(col, done)
    return sorted(done.items())


def _reduce(v, pivots):
    """Reduce the sparse column ``v`` in place by reduced echelon columns.

    ``pivots`` maps each pivot row to its column: a subspace's basis, as
    :meth:`Subspace._pivots` returns it, or the columns ``_echelon`` has
    finished, which all lead below ``v``'s own pivot.  The result, also
    returned, is zero in every pivot row.  Only the pivot rows ``v``
    stores are visited: an echelon column is zero in every other pivot
    row, so subtracting it never touches them.
    """
    for prow in [r for r in v if r in pivots]:
        _add_scaled(v, -v[prow], pivots[prow])
    return v


def rce(m):
    """Canonical reduced column echelon form (zero columns dropped)."""
    if m.is_zero():
        return Matrix.zero(m.rows, 0)
    pivots = _echelon(m._data)
    return Matrix._from_sparse(m.rows, len(pivots), [c for _, c in pivots])


def rank(m):
    """The rank of ``m``: the number of pivots of the forward pass alone.

    Neither of two cases runs the pass: a zero matrix has rank 0, and a
    nonzero one with one row or one column has rank 1, since that one
    row, or column, spans a line."""
    if m.is_zero():
        return 0
    if m.rows == 1 or m.cols == 1:
        return 1
    return len(_forward(m._data))


class Subspace:
    """A subspace of the standard space of a given ambient dimension.

    The basis matrix is always in reduced column echelon form, so two equal
    subspaces compare equal as objects.
    """

    __slots__ = ("ambient_dim", "basis", "_pivot_cols")

    def __init__(self, ambient_dim, basis):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivot_cols = None

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

    def _pivots(self):
        """``{pivot_row: column}`` of the basis, in column order, built once."""
        if self._pivot_cols is None:
            self._pivot_cols = {min(c): c for c in self.basis._data}
        return self._pivot_cols

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


def kernel_basis(m):
    """Kernel of a matrix, as a canonical subspace of the source.

    The rows of ``m``, columns reversed, echelon to ``R``.  Each free column
    ``f`` yields the vector that is 1 at ``f`` and ``-R[row, f]`` at each
    row's pivot column.  It leads at ``f``, where the others are zero, so
    these vectors already form the reduced column echelon basis.  A
    matrix that stores no entry has the whole source as its kernel.
    """
    if m.is_zero():
        return Subspace.full(m.cols)
    last = m.cols - 1
    rows = m.column_slice(range(last, -1, -1)).transpose()._data
    free = {j: {j: SC_ONE} for j in range(m.cols)}
    for p, row in _echelon(rows):
        del free[last - p], row[p]
        for f, x in row.items():
            free[last - f][last - p] = -x
    cols = list(free.values())
    return Subspace(m.cols, Matrix._from_sparse(m.cols, len(cols), cols))


def image_basis(m):
    """Column span of a matrix, as a canonical subspace of the target."""
    return Subspace(m.rows, rce(m))


def solve(a, b):
    """An exact solution ``X`` of ``A @ X = B``; raises if none exists.

    The rows of ``[A | B]`` echelon once; a pivot in ``B``'s part means no
    solution.  ``X`` is zero outside the leftmost independent columns of
    ``A``: its row ``p`` is the ``B`` part of the row with pivot ``p``.
    """
    if a.rows != b.rows:
        raise LinAlgError("solve: row mismatch")
    n = a.cols
    xcols = [{} for _ in range(b.cols)]
    for p, row in _echelon(a.hstack(b).transpose()._data):
        if p >= n:
            raise LinAlgError("solve: inconsistent system")
        for j, x in row.items():
            if j >= n:
                xcols[j - n][p] = x
    return Matrix._from_sparse(n, b.cols, xcols)


def inverse(a):
    if a.rows != a.cols:
        raise LinAlgError("inverse of a non-square matrix")
    return solve(a, Matrix.identity(a.rows))


def subspace_sum(u, v):
    if u.ambient_dim != v.ambient_dim:
        raise LinAlgError("subspace_sum: ambient dimension mismatch")
    return Subspace.from_columns(u.ambient_dim, u.basis.hstack(v.basis))


def subspace_intersect(u, v):
    """The intersection ``U @ preimage(U, V)``, canonical as it stands.

    A product of two reduced column echelon bases is itself one.  When
    one space is the whole space the intersection is the other, already
    canonical, so no elimination runs.
    """
    if u.ambient_dim != v.ambient_dim:
        raise LinAlgError("subspace_intersect: ambient dimension mismatch")
    if u.dim == u.ambient_dim:
        return v
    if v.dim == v.ambient_dim:
        return u
    return Subspace(u.ambient_dim, u.basis @ preimage(u.basis, v).basis)


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
    inner_pivots = inner._pivots()
    keep = [j for j, prow in enumerate(outer._pivots())
            if prow not in inner_pivots]
    return outer.basis.column_slice(keep)


def preimage(m, w):
    """The subspace ``{x : m @ x in W}`` of the source of ``m``.

    It is the kernel of ``m`` with each column reduced by W's basis.
    """
    if w.ambient_dim != m.rows:
        raise LinAlgError("preimage: ambient dimension mismatch")
    pivots = w._pivots()
    return kernel_basis(Matrix._from_sparse(
        m.rows, m.cols, [_reduce(dict(c), pivots) for c in m._data]))
