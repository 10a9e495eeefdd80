"""Bounded double complexes of finite-dimensional spaces over ℚ(i).

A double complex is a finitely supported family of spaces indexed by integer
pairs (p, q), together with a horizontal differential of bidegree (1, 0) and
a vertical differential of bidegree (0, 1).  Both differentials square to
zero and they anticommute, so their sum is a differential on the totalized
singly-graded complex.

A complex may optionally carry the top-form pairing of a graded product
(one matrix per complementary pair of bidegrees, valued in the line at
(n, n)), an antilinear conjugation symmetry swapping the two gradings, and
a declared dimension ``n`` confining the support to the square grid
[0, n] x [0, n].  The two structures are plain dicts of matrices, keyed
by bidegree; :class:`Bicomplex` states their conventions.
"""

import json
import re
from dataclasses import dataclass
from itertools import accumulate

from .exactla import SC_ONE, ExactScalar, Matrix, place_blocks


@dataclass(frozen=True)
class Violation:
    """One structural defect found by :func:`validate`."""

    kind: str
    bidegree: tuple
    message: str


def _is_count(value):
    """True for a non-negative ``int``; ``bool`` is an ``int`` but no count."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 0)


class BicomplexFormatError(ValueError):
    """Raised for malformed serialized complexes."""


# Largest n of a structure-equation model, whose total dimension is 4^n.
# Each step in n multiplies every later cost by at least 4.  The n = 7
# model with d w3 = -w1^w2, d w4 = w1^cw1 and d wk = w1^w(k-2) for k = 5..7
# (total dimension 16384) builds and validates in 0.13-0.26 s (the best of
# two builds in each of six processes; CPython 3.11, Fraction rationals, a
# shared 2-core host).
# Every input format rejects a larger size before it builds any block.
MAX_N = 7
MAX_TOTAL_DIM = 4 ** MAX_N


class Bicomplex:
    """Immutable bounded double complex.

    ``spaces`` maps (p, q) to the dimension of that space (absent or zero
    entries are dropped).  ``del_maps[(p, q)]`` is the matrix of the
    horizontal differential out of (p, q) (target (p+1, q));
    ``delbar_maps[(p, q)]`` the vertical one (target (p, q+1)).  Matrices
    act on column vectors; omitted or all-zero blocks are normalized away.

    Two optional dicts carry extra structure; ``None`` means absent.

    * ``conj[(p, q)]`` is the matrix of the antilinear map from the
      (p, q) space to the (q, p) space: a vector v is sent to
      ``conj[(p, q)] @ conj(v)`` where ``conj`` is entrywise scalar
      conjugation.  The composite of the map with its mirror is the
      identity, and conjugating the horizontal differential yields the
      vertical one; :func:`check_real_structure` verifies both.
    * ``pairings[(p, q)]``, for every (p, q) in [0, n]^2, is the
      ``dim(n-p, n-q) x dim(p, q)`` matrix whose entry (j, i) is a fixed
      linear functional on the (n, n) space applied to the product
      e_i f_j of basis vector i at (p, q) and basis vector j at
      (n-p, n-q).  For the pairing on cohomology classes to be well
      defined the functional must vanish on boundaries at (n, n), which
      builders guarantee and the pairing checker re-verifies.

    Complexes are equal when their spaces, blocks, ``n`` and ``label``
    agree and so does each structure that both of them carry; the JSON
    form carries neither, so a round trip through it compares equal.

    The complex owns its grading: the positive dimensions are kept in
    (p, q) order, so :meth:`support` and :meth:`spaces` list them without
    sorting.

    The private ``_store`` dict is the one cache of a complex: it holds
    the :func:`validate` verdict, the zero matrices of absent blocks, the
    dimension of each total degree and whatever the cohomology module
    derives from the complex.
    """

    __slots__ = ("label", "n", "conj", "pairings",
                 "_spaces", "_del", "_delbar", "_store")

    def __init__(self, spaces, del_maps=None, delbar_maps=None, *,
                 n=None, label="", pairings=None, conj=None):
        clean = {}
        for key, dim in spaces.items():
            p, q = key
            dim = int(dim)
            if dim < 0:
                raise ValueError(f"negative dimension at ({p},{q})")
            if dim:
                clean[(int(p), int(q))] = dim
        self._spaces = dict(sorted(clean.items()))
        self._del = _clean_blocks(del_maps)
        self._delbar = _clean_blocks(delbar_maps)
        if n is not None and not _is_count(n):
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        self.n = n
        self.label = label
        self.conj = conj
        self.pairings = pairings
        self._store = {}

    def support(self):
        """Bidegrees with positive dimension, as a list in (p, q) order."""
        return list(self._spaces)

    def spaces(self):
        """A copy of the positive dimensions, keyed by bidegree in (p, q)
        order."""
        return dict(self._spaces)

    def dimension(self, p, q):
        return self._spaces.get((p, q), 0)

    @property
    def total_dim(self):
        return sum(self._spaces.values())

    def del_map(self, p, q):
        """Matrix of the horizontal differential out of (p, q)."""
        return self._block(self._del, "del", p, q, p + 1, q)

    def delbar_map(self, p, q):
        """Matrix of the vertical differential out of (p, q)."""
        return self._block(self._delbar, "delbar", p, q, p, q + 1)

    def _block(self, blocks, name, p, q, tp, tq):
        """The stored block, else the zero map kept in the store."""
        m = blocks.get((p, q))
        if m is None:
            key = (name, (p, q))
            m = self._store.get(key)
            if m is None:
                m = self._store[key] = Matrix.zero(self.dimension(tp, tq),
                                                   self.dimension(p, q))
        return m

    def del_blocks(self):
        """The stored (nonzero) horizontal blocks, keyed by source bidegree."""
        return dict(self._del)

    def delbar_blocks(self):
        return dict(self._delbar)

    def __eq__(self, other):
        if not isinstance(other, Bicomplex):
            return NotImplemented
        return (self._spaces == other._spaces
                and self._del == other._del
                and self._delbar == other._delbar
                and self.n == other.n
                and self.label == other.label
                and _agree(self.conj, other.conj)
                and _agree(self.pairings, other.pairings))

    def __repr__(self):
        return (f"Bicomplex({self.label!r}, {len(self._spaces)} bidegrees, "
                f"total dim {self.total_dim})")


def _clean_blocks(blocks):
    out = {}
    for key, m in (blocks or {}).items():
        p, q = key
        if not m.is_zero():
            out[(int(p), int(q))] = m
    return out


def _agree(mine, theirs):
    """Whether two optional structures agree where both are carried."""
    return mine is None or theirs is None or mine == theirs


def validate(k):
    """Check the double-complex axioms; returns a list of violations.

    An empty list means the complex is valid.  Checks, in order: declared
    ``n`` confines the support, matrix blocks have the shapes dictated by
    the space dimensions, both differentials square to zero, and the two
    differentials anticommute.  Identity checks are skipped when shapes are
    broken (they would not be well posed).
    """
    if "violations" in k._store:
        return list(k._store["violations"])
    found = []
    if k.n is not None:
        for (p, q) in k.support():
            if not (0 <= p <= k.n and 0 <= q <= k.n):
                found.append(Violation(
                    "support", (p, q),
                    f"bidegree ({p},{q}) outside [0,{k.n}]^2 despite "
                    f"declared n={k.n}"))
    shape_ok = True
    for name, blocks, dp, dq in (("del", k._del, 1, 0),
                                 ("delbar", k._delbar, 0, 1)):
        for (p, q) in sorted(blocks):
            m = blocks[(p, q)]
            want = (k.dimension(p + dp, q + dq), k.dimension(p, q))
            if (m.rows, m.cols) != want:
                shape_ok = False
                found.append(Violation(
                    "shape", (p, q),
                    f"{name} block at ({p},{q}) is {m.rows}x{m.cols}, "
                    f"expected {want[0]}x{want[1]}"))
    if shape_ok:
        # An absent block is the zero map, so only composites of stored
        # blocks can be nonzero.
        hor, ver = k._del, k._delbar

        def nonzero(left, right):
            return (left is not None and right is not None
                    and not (left @ right).is_zero())

        for (p, q) in k.support():
            if nonzero(hor.get((p + 1, q)), hor.get((p, q))):
                found.append(Violation(
                    "del-squared", (p, q),
                    f"horizontal differential does not square to zero "
                    f"starting at ({p},{q})"))
            if nonzero(ver.get((p, q + 1)), ver.get((p, q))):
                found.append(Violation(
                    "delbar-squared", (p, q),
                    f"vertical differential does not square to zero "
                    f"starting at ({p},{q})"))
            right = (ver.get((p + 1, q)), hor.get((p, q)))
            up = (hor.get((p, q + 1)), ver.get((p, q)))
            if None in right or None in up:
                anti = nonzero(*right) or nonzero(*up)
            else:
                anti = not (right[0] @ right[1] + up[0] @ up[1]).is_zero()
            if anti:
                found.append(Violation(
                    "anticommute", (p, q),
                    f"differentials do not anticommute starting at "
                    f"({p},{q})"))
    k._store["violations"] = tuple(found)
    return found


def ensure_valid(k):
    """Raise ValueError with the violation list if the complex is invalid."""
    bad = validate(k)
    if bad:
        raise ValueError("invalid double complex: "
                         + "; ".join(v.message for v in bad))


@dataclass(frozen=True)
class TotalComplex:
    """Totalization: degree k is the direct sum of the (p, q) with p+q = k.

    ``dims`` covers the whole contiguous degree range of the support
    (zeros included).  ``differentials[k]`` maps degree k to degree k+1,
    with the blocks of each degree in ascending p, and equals the sum of
    the two differentials on each block; it is omitted where either side
    is zero.
    """

    dims: dict
    differentials: dict

    def differential(self, k):
        m = self.differentials.get(k)
        if m is None:
            m = Matrix.zero(self.dims.get(k + 1, 0), self.dims.get(k, 0))
        return m


def _total_dims(k):
    """The dimension of each total degree of ``k``, over the contiguous
    degree range of its support, zeros included.  Counted once per
    complex and kept in its store, so no caller may change it."""
    store = k._store
    if "degree_dims" not in store:
        degrees = [p + q for p, q in k._spaces]
        dims = store["degree_dims"] = dict.fromkeys(
            range(min(degrees, default=0), max(degrees, default=-1) + 1), 0)
        for (p, q), dim in k._spaces.items():
            dims[p + q] += dim
    return store["degree_dims"]


def _staircase(k, r, a, b, descending=False):
    """The staircase M_r(a, b): column blocks x_i in A^{a+i, b-i} and row
    blocks A^{a+j, b-j+1} for i, j < r, with delbar out of (a+j, b-j) on
    the diagonal block (j, j) and del out of (a+j-1, b-j+1) on the block
    (j, j-1) below it, placed from the stored blocks of ``k``.

    Its rows are delbar x_0, del x_0 + delbar x_1, ...,
    del x_{r-2} + delbar x_{r-1}: d out of degree a + b between the
    bidegrees with a <= p < a + r, which is the whole of d for the keys
    that :func:`_d_staircases` names.  The row blocks run in ascending p,
    and so do the column blocks unless ``descending`` reverses them: that
    is the order in which ``cohomology._d_pairs`` reads d as a filtered
    map.
    """
    col_at = [0, *accumulate(k.dimension(a + i, b - i) for i in range(r))]
    cols = col_at[-1]
    if descending:
        # Block i starts after blocks i+1 .. r-1.
        col_at = [cols - end for end in col_at[1:]]
    row_at = [0, *accumulate(k.dimension(a + j, b - j + 1)
                             for j in range(r))]
    dels, delbars = k._del, k._delbar
    blocks = []
    for j in range(r):
        m = delbars.get((a + j, b - j))
        if m is not None:
            blocks.append((row_at[j], col_at[j], m))
        m = dels.get((a + j - 1, b - j + 1)) if j else None
        if m is not None:
            blocks.append((row_at[j], col_at[j - 1], m))
    return place_blocks(row_at[-1], cols, blocks)


def _d_staircases(k):
    """Per total degree where both it and the next degree are nonzero, the
    (r, a, b) of the staircase M_r(a, b) that is d out of it; d is zero
    out of every other degree.  With p_min and p_max the least and the
    largest p of the support, M_{p_max-p_min+1}(p_min, deg - p_min) spans
    every bidegree of degrees deg and deg+1, in ascending p: del out of
    p_max would land at p_max+1, where there is nothing."""
    dims = _total_dims(k)
    if not dims:
        return {}
    support = k.support()
    p_min, p_max = support[0][0], support[-1][0]
    return {deg: (p_max - p_min + 1, p_min, deg - p_min)
            for deg in dims if dims[deg] and dims.get(deg + 1)}


def totalize(k):
    """Collapse a valid double complex to its total singly-graded complex.

    d out of each degree is one :func:`_staircase`."""
    ensure_valid(k)
    return TotalComplex(dict(_total_dims(k)), {
        deg: _staircase(k, *key) for deg, key in _d_staircases(k).items()})


def check_real_structure(k):
    """True iff the carried conjugation is a genuine antilinear symmetry.

    First the shapes: every stored block maps (p, q) to (q, p), mirror
    bidegrees of the support have equal dimensions, and each support
    bidegree carries a block (an absent block off the support is the zero
    map).  Then per support bidegree (p, q), with C its block and M the
    block at (q, p): composing with the mirror gives the identity,
    M conj(C) = I, and conjugating the horizontal differential yields the
    vertical one, delbar(p, q) = L conj(del(q, p) C) with L the block at
    (q+1, p).  A misshapen conjugation block makes the answer False,
    never an error.

    The involution is tested only where p <= q, which covers (q, p) too.
    For square A and B over a field, A conj(B) = I implies B conj(A) = I:
    conj(B) is a right inverse of the square matrix A, hence its two-sided
    inverse, so conj(B) A = I, and conjugating every entry gives
    B conj(A) = I.  With A = M and B = C this is the test at (q, p).
    """
    if k.conj is None:
        raise ValueError("complex carries no conjugation structure")
    conj = k.conj
    for (p, q), m in conj.items():
        if (m.rows, m.cols) != (k.dimension(q, p), k.dimension(p, q)):
            return False
    support = k.support()
    for (p, q) in support:
        if k.dimension(p, q) != k.dimension(q, p) or (p, q) not in conj:
            return False
    for (p, q) in support:
        c = conj[(p, q)]
        if p <= q:
            columns = (conj[(q, p)] @ c.conjugate_entries())._data
            if any(col != {j: SC_ONE} for j, col in enumerate(columns)):
                return False
        d = k._del.get((q, p))
        if d is None:
            if (p, q) in k._delbar:
                return False
            continue
        lift = conj.get((q + 1, p))
        if lift is None:
            return False
        # The blocks are invertible wherever the involutions hold, so a
        # stored del needs a stored delbar.
        if k._delbar.get((p, q)) != lift @ (d @ c).conjugate_entries():
            return False
    return True


_BIDEGREE_KEY = re.compile(r"^\s*(-?\d+)\s*,\s*(-?\d+)\s*$", re.ASCII)
_ALLOWED_KEYS = frozenset({"label", "n", "spaces", "del", "delbar"})


def _parse_bidegree_key(text, where, seen):
    """The bidegree a key names; ``seen`` maps those already read in this
    section to their spelling, so two spellings of one are an error."""
    m = _BIDEGREE_KEY.match(text)
    if not m:
        raise BicomplexFormatError(
            f"{where}: bad bidegree key {text!r}, expected \"p,q\"")
    bid = int(m.group(1)), int(m.group(2))
    if bid in seen:
        raise BicomplexFormatError(
            f"{where}: keys {seen[bid]!r} and {text!r} both name the "
            f"bidegree ({bid[0]},{bid[1]})")
    seen[bid] = text
    return bid


def to_json_dict(k):
    """Serializable plain-dict form of a complex (no conj or pairings).

    Each block is still written as dense rows of scalar strings, but only
    its stored entries are visited: the rows start as ``"0"`` and each
    stored entry overwrites its cell.  The dense rows stay until the JSON
    form becomes sparse (ROADMAP item 5)."""
    obj = {"label": k.label}
    if k.n is not None:
        obj["n"] = k.n
    obj["spaces"] = {f"{p},{q}": dim for (p, q), dim in k.spaces().items()}
    for name, blocks in (("del", k._del), ("delbar", k._delbar)):
        section = {}
        for (p, q) in sorted(blocks):
            m = blocks[(p, q)]
            rows = [["0"] * m.cols for _ in range(m.rows)]
            for j, col in enumerate(m._data):
                for i, x in col.items():
                    rows[i][j] = str(x)
            section[f"{p},{q}"] = rows
        obj[name] = section
    return obj


def from_json_dict(obj, *, default_label=""):
    """Inverse of :func:`to_json_dict`; raises BicomplexFormatError."""
    if not isinstance(obj, dict):
        raise BicomplexFormatError("top-level JSON value must be an object")
    unknown = set(obj) - _ALLOWED_KEYS
    if unknown:
        raise BicomplexFormatError(
            f"unknown top-level keys: "
            f"{', '.join(map(repr, sorted(unknown)))}")
    label = obj.get("label", default_label)
    if not isinstance(label, str):
        raise BicomplexFormatError("label must be a string")
    n = obj.get("n")
    if n is not None and not _is_count(n):
        raise BicomplexFormatError(
            f"n must be a non-negative integer, got {json.dumps(n)}")
    spaces_raw = obj.get("spaces", {})
    if not isinstance(spaces_raw, dict):
        raise BicomplexFormatError("spaces must be an object")
    spaces = {}
    spellings = {}
    for key, dim in spaces_raw.items():
        bid = _parse_bidegree_key(key, "spaces", spellings)
        if not _is_count(dim):
            raise BicomplexFormatError(
                f"spaces[{key!r}]: dimension must be a non-negative integer, "
                f"got {json.dumps(dim)}")
        spaces[bid] = dim
    total = sum(spaces.values())
    if total > MAX_TOTAL_DIM:
        raise BicomplexFormatError(
            f"spaces: total dimension {total} exceeds the maximum "
            f"{MAX_TOTAL_DIM}")
    # Totalization, de Rham and the grids visit every cell of the support's
    # bounding box, so its area is capped like the dimension.
    support = [bid for bid, dim in spaces.items() if dim]
    if support:
        p_lo, p_hi = min(support), max(support)
        q_lo = min(support, key=lambda bid: bid[1])
        q_hi = max(support, key=lambda bid: bid[1])
        area = (p_hi[0] - p_lo[0] + 1) * (q_hi[1] - q_lo[1] + 1)
        if area > MAX_TOTAL_DIM:
            raise BicomplexFormatError(
                f"spaces: the support spans p from {spellings[p_lo]!r} to "
                f"{spellings[p_hi]!r} and q from {spellings[q_lo]!r} to "
                f"{spellings[q_hi]!r}, a bounding box of {area} bidegrees, "
                f"more than the maximum {MAX_TOTAL_DIM}")
    sections = {}
    parsed_cells = {}  # literal -> ExactScalar, each parsed once per call
    for name in ("del", "delbar"):
        raw = obj.get(name, {})
        if not isinstance(raw, dict):
            raise BicomplexFormatError(f"{name} must be an object")
        blocks = {}
        spellings = {}
        for key, rows in raw.items():
            bid = _parse_bidegree_key(key, name, spellings)
            where = f"{name} block at ({bid[0]},{bid[1]})"
            if not isinstance(rows, list) or not all(
                    isinstance(r, list) for r in rows):
                raise BicomplexFormatError(f"{where}: expected a list of rows")
            width = len(rows[0]) if rows else 0
            for i, row in enumerate(rows):
                if len(row) != width:
                    raise BicomplexFormatError(
                        f"{where}: ragged rows (row {i} has {len(row)} "
                        f"entries, expected {width})")
            if not width:
                continue
            columns = [{} for _ in range(width)]
            for i, row in enumerate(rows):
                if row.count("0") == width:  # an all-zero row stores nothing
                    continue
                for j, cell in enumerate(row):
                    if cell == "0":  # most cells; sparse columns skip zeros
                        continue
                    if not isinstance(cell, str):
                        raise BicomplexFormatError(
                            f"{where}, row {i}, column {j}: entries must be "
                            f"scalar strings")
                    value = parsed_cells.get(cell)
                    if value is None:
                        try:
                            value = ExactScalar.parse(cell)
                        except ValueError as exc:
                            raise BicomplexFormatError(
                                f"{where}, row {i}, column {j}: {exc}"
                            ) from exc
                        parsed_cells[cell] = value
                    if value:
                        columns[j][i] = value
            blocks[bid] = Matrix._from_sparse(len(rows), width, columns)
        sections[name] = blocks
    return Bicomplex(spaces, sections["del"], sections["delbar"],
                     n=n, label=label)
