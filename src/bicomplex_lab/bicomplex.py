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
[0, n] x [0, n].
"""

import json
import re
from dataclasses import dataclass

from .exactla import ExactScalar, Matrix, place_blocks


@dataclass(frozen=True)
class Violation:
    """One structural defect found by :func:`validate`."""

    kind: str
    bidegree: tuple
    message: str


@dataclass(frozen=True)
class ConjugationStructure:
    """Antilinear symmetry swapping the two gradings.

    ``maps[(p, q)]`` is the matrix of the antilinear map from the (p, q)
    space to the (q, p) space: a vector v is sent to
    ``maps[(p, q)] @ conj(v)`` where ``conj`` is entrywise scalar
    conjugation.  The composite of the map with its mirror is the identity,
    and conjugating the horizontal differential yields the vertical one;
    :func:`check_real_structure` verifies both.
    """

    maps: dict


@dataclass(frozen=True)
class ProductStructure:
    """Top-form pairing of a graded product, one matrix per bidegree.

    For every (p, q) in [0, n]^2, ``pairings[(p, q)]`` is the
    ``dim(n-p, n-q) x dim(p, q)`` matrix whose entry (j, i) is a fixed
    linear functional on the (n, n) space applied to the product e_i f_j
    of basis vector i at (p, q) and basis vector j at (n-p, n-q).  For the
    pairing on cohomology classes to be well defined the functional must
    vanish on boundaries at (n, n), which builders guarantee and the
    pairing checker re-verifies.
    """

    pairings: dict


def _is_count(value):
    """True for a non-negative ``int``; ``bool`` is an ``int`` but no count."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 0)


class BicomplexFormatError(ValueError):
    """Raised for malformed serialized complexes."""


# Largest n of a structure-equation model, whose total dimension is 4^n.
# Each step in n multiplies every later cost by at least 4; n = 7 (total
# dimension 16384) builds in under a second.  Every input format rejects a
# larger size before it builds any block.
MAX_N = 7
MAX_TOTAL_DIM = 4 ** MAX_N


class Bicomplex:
    """Immutable bounded double complex.

    ``spaces`` maps (p, q) to the dimension of that space (absent or zero
    entries are dropped).  ``del_maps[(p, q)]`` is the matrix of the
    horizontal differential out of (p, q) (target (p+1, q));
    ``delbar_maps[(p, q)]`` the vertical one (target (p, q+1)).  Matrices
    act on column vectors; omitted or all-zero blocks are normalized away.
    The private ``_violations`` and ``_store`` slots cache what
    :func:`validate` and the cohomology module derive from the complex.
    """

    __slots__ = ("label", "n", "product", "conj",
                 "_spaces", "_del", "_delbar", "_violations", "_store",
                 "_dense_del", "_dense_delbar")

    def __init__(self, spaces, del_maps=None, delbar_maps=None, *,
                 n=None, label="", product=None, conj=None):
        clean = {}
        for key, dim in spaces.items():
            p, q = key
            dim = int(dim)
            if dim < 0:
                raise ValueError(f"negative dimension at ({p},{q})")
            if dim:
                clean[(int(p), int(q))] = dim
        self._spaces = clean
        self._del = _clean_blocks(del_maps)
        self._delbar = _clean_blocks(delbar_maps)
        if n is not None and not _is_count(n):
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        self.n = n
        self.label = label
        self.product = product
        self.conj = conj
        self._violations = None
        self._store = None
        self._dense_del = {}
        self._dense_delbar = {}

    def support(self):
        """Bidegrees with positive dimension, sorted by (p, q)."""
        return sorted(self._spaces)

    def dimension(self, p, q):
        return self._spaces.get((p, q), 0)

    @property
    def total_dim(self):
        return sum(self._spaces.values())

    def del_map(self, p, q):
        """Matrix of the horizontal differential out of (p, q)."""
        return self._dense(self._del, self._dense_del, p, q, p + 1, q)

    def delbar_map(self, p, q):
        """Matrix of the vertical differential out of (p, q)."""
        return self._dense(self._delbar, self._dense_delbar, p, q, p, q + 1)

    def _dense(self, blocks, cache, p, q, tp, tq):
        m = blocks.get((p, q))
        if m is not None:
            return m
        m = cache.get((p, q))
        if m is None:
            m = Matrix.zero(self.dimension(tp, tq), self.dimension(p, q))
            cache[(p, q)] = m
        return m

    def del_blocks(self):
        """The stored (nonzero) horizontal blocks, keyed by source bidegree."""
        return dict(self._del)

    def delbar_blocks(self):
        return dict(self._delbar)

    def degree_range(self):
        """(lowest, highest) total degree of the support; None if empty."""
        if not self._spaces:
            return None
        degs = [p + q for (p, q) in self._spaces]
        return min(degs), max(degs)

    def __eq__(self, other):
        if not isinstance(other, Bicomplex):
            return NotImplemented
        return (self._spaces == other._spaces
                and self._del == other._del
                and self._delbar == other._delbar
                and self.n == other.n
                and self.label == other.label)

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


def validate(k):
    """Check the double-complex axioms; returns a list of violations.

    An empty list means the complex is valid.  Checks, in order: declared
    ``n`` confines the support, matrix blocks have the shapes dictated by
    the space dimensions, both differentials square to zero, and the two
    differentials anticommute.  Identity checks are skipped when shapes are
    broken (they would not be well posed).
    """
    if k._violations is not None:
        return list(k._violations)
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
        for (p, q) in k.support():
            if not (k.del_map(p + 1, q) @ k.del_map(p, q)).is_zero():
                found.append(Violation(
                    "del-squared", (p, q),
                    f"horizontal differential does not square to zero "
                    f"starting at ({p},{q})"))
            if not (k.delbar_map(p, q + 1) @ k.delbar_map(p, q)).is_zero():
                found.append(Violation(
                    "delbar-squared", (p, q),
                    f"vertical differential does not square to zero "
                    f"starting at ({p},{q})"))
            anti = (k.delbar_map(p + 1, q) @ k.del_map(p, q)
                    + k.del_map(p, q + 1) @ k.delbar_map(p, q))
            if not anti.is_zero():
                found.append(Violation(
                    "anticommute", (p, q),
                    f"differentials do not anticommute starting at "
                    f"({p},{q})"))
    k._violations = tuple(found)
    return list(found)


def ensure_valid(k):
    """Raise ValueError with the violation list if the complex is invalid."""
    bad = validate(k)
    if bad:
        raise ValueError("invalid double complex: "
                         + "; ".join(v.message for v in bad))


@dataclass(frozen=True)
class TotalComplex:
    """Totalization: degree k is the direct sum of the (p, q) with p+q = k.

    Within one degree, blocks are ordered by ascending p; ``offsets[k]``
    records the starting coordinate of each bidegree block.  ``dims`` covers
    the whole contiguous degree range of the support (zeros included).
    ``differentials[k]`` maps degree k to degree k+1 and equals the sum of
    the two differentials on each block.
    """

    dims: dict
    differentials: dict
    offsets: dict

    def degrees(self):
        return sorted(self.dims)

    def differential(self, k):
        m = self.differentials.get(k)
        if m is None:
            m = Matrix.zero(self.dims.get(k + 1, 0), self.dims.get(k, 0))
        return m


def totalize(k):
    """Collapse a valid double complex to its total singly-graded complex."""
    ensure_valid(k)
    if not k.support():
        return TotalComplex({}, {}, {})
    by_degree = {}
    for (p, q) in k.support():
        by_degree.setdefault(p + q, []).append((p, q))
    lo, hi = k.degree_range()
    dims = {}
    offsets = {}
    for deg in range(lo, hi + 1):
        blocks = sorted(by_degree.get(deg, []))
        offs = {}
        at = 0
        for (p, q) in blocks:
            offs[(p, q)] = at
            at += k.dimension(p, q)
        dims[deg] = at
        offsets[deg] = offs
    differentials = {}
    for deg in range(lo, hi):
        rows = dims[deg + 1]
        cols = dims[deg]
        if rows == 0 or cols == 0:
            continue
        targets = offsets[deg + 1]
        blocks = [(targets[tgt], off, block)
                  for (p, q), off in offsets[deg].items()
                  for tgt, block in (((p + 1, q), k.del_map(p, q)),
                                     ((p, q + 1), k.delbar_map(p, q)))
                  if tgt in targets]
        differentials[deg] = place_blocks(rows, cols, blocks)
    return TotalComplex(dims, differentials, offsets)


def check_real_structure(k):
    """True iff the carried conjugation is a genuine antilinear symmetry.

    Verifies per support bidegree: the conjugation matrix has the mirrored
    shape, composing it with its mirror (with scalar conjugation in
    between) gives the identity, and conjugating the horizontal
    differential yields the vertical one.
    """
    if k.conj is None:
        raise ValueError("complex carries no conjugation structure")
    maps = k.conj.maps

    def cmat(p, q):
        m = maps.get((p, q))
        if m is None:
            if k.dimension(p, q) == 0 or k.dimension(q, p) == 0:
                return Matrix.zero(k.dimension(q, p), k.dimension(p, q))
            return None
        return m

    for (p, q) in k.support():
        if k.dimension(p, q) != k.dimension(q, p):
            return False
        c = cmat(p, q)
        mirror = cmat(q, p)
        if c is None or mirror is None:
            return False
        if (c.rows, c.cols) != (k.dimension(q, p), k.dimension(p, q)):
            return False
        if mirror @ c.conjugate_entries() != Matrix.identity(k.dimension(p, q)):
            return False
        lift = cmat(q + 1, p)
        if lift is None:
            return False
        if (lift.rows, lift.cols) != (k.dimension(p, q + 1),
                                      k.dimension(q + 1, p)):
            return False
        rhs = lift @ k.del_map(q, p).conjugate_entries() @ c.conjugate_entries()
        if k.delbar_map(p, q) != rhs:
            return False
    return True


_BIDEGREE_KEY = re.compile(r"^\s*(-?\d+)\s*,\s*(-?\d+)\s*$")
_ALLOWED_KEYS = frozenset({"label", "n", "spaces", "del", "delbar"})


def _parse_bidegree_key(text, where):
    m = _BIDEGREE_KEY.match(text)
    if not m:
        raise BicomplexFormatError(
            f"{where}: bad bidegree key {text!r}, expected \"p,q\"")
    return int(m.group(1)), int(m.group(2))


def to_json_dict(k):
    """Serializable plain-dict form of a complex (no product/conjugation)."""
    obj = {"label": k.label}
    if k.n is not None:
        obj["n"] = k.n
    obj["spaces"] = {f"{p},{q}": k.dimension(p, q) for (p, q) in k.support()}
    for name, blocks in (("del", k._del), ("delbar", k._delbar)):
        section = {}
        for (p, q) in sorted(blocks):
            m = blocks[(p, q)]
            section[f"{p},{q}"] = [
                [str(m.entry(i, j)) for j in range(m.cols)]
                for i in range(m.rows)]
        obj[name] = section
    return obj


def from_json_dict(obj, *, default_label=""):
    """Inverse of :func:`to_json_dict`; raises BicomplexFormatError."""
    if not isinstance(obj, dict):
        raise BicomplexFormatError("top-level JSON value must be an object")
    unknown = set(obj) - _ALLOWED_KEYS
    if unknown:
        raise BicomplexFormatError(
            f"unknown top-level keys: {', '.join(sorted(unknown))}")
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
    for key, dim in spaces_raw.items():
        bid = _parse_bidegree_key(key, "spaces")
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
    sections = {}
    parsed_cells = {}  # literal -> ExactScalar, each parsed once per call
    for name in ("del", "delbar"):
        raw = obj.get(name, {})
        if not isinstance(raw, dict):
            raise BicomplexFormatError(f"{name} must be an object")
        blocks = {}
        for key, rows in raw.items():
            bid = _parse_bidegree_key(key, name)
            where = f"{name} block at ({bid[0]},{bid[1]})"
            if not isinstance(rows, list) or not all(
                    isinstance(r, list) for r in rows):
                raise BicomplexFormatError(f"{where}: expected a list of rows")
            if not rows or not rows[0]:
                continue
            width = len(rows[0])
            columns = [{} for _ in range(width)]
            for i, row in enumerate(rows):
                if len(row) != width:
                    raise BicomplexFormatError(
                        f"{where}: ragged rows (row {i} has {len(row)} "
                        f"entries, expected {width})")
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
