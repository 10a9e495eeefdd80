"""Indecomposable summands of bounded double complexes.

Over a field, every bounded double complex splits into two kinds of
indecomposable summands: four-dimensional "squares" (both differentials
draw a commuting square of isomorphisms) and "zigzags" (staircases of
one-dimensional spaces connected by alternating horizontal/vertical
isomorphisms; a single disconnected dot is the length-one case).  This
module

* models the two summand kinds with a canonical orientation,
* synthesizes a complex with prescribed summands (optionally scrambled by
  seeded invertible basis changes, for round-trip testing),
* decomposes a complex into its summand multiset together with an adapted
  basis, verifying the result exactly before returning it, and
* recounts all five cohomology theories from the summand multiset alone,
  which serves as a combinatorial cross-check of the linear-algebra tables.

Decomposition strategy: squares are split off first (their count per
anchor is the rank of the composed differential; explicit complements are
cut out by functionals), leaving a residual complex on which both
two-step composites vanish.  On the residual, the multiplicity of every
candidate staircase is an inclusion-exclusion of limit-to-colimit ranks
over staircase windows.  The adapted basis realizing the multiset is
canonical: for each zigzag type it is the echelon complement, inside
the space of structure-compatible maps from the model zigzag, of the
maps that do not split (those that vanish in the window colimit once
the arrows entering its sink ends are killed).  No random draws are made.
"""

import functools
import random
from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple

from .bicomplex import Bicomplex, ensure_valid
from .cohomology import CohomologyTable
from .exactla import (
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
    rank,
    solve,
)


def _as_bidegree(value, what):
    try:
        p, q = value
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a (p, q) pair") from None
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError(f"{what} coordinates must be integers")
    return (p, q)


@dataclass(frozen=True)
class Square:
    """Four-dot summand occupying the unit square above ``anchor``.

    The adapted basis has one vector at each corner; both differentials
    are isomorphisms along the four edges, with coefficient +1 except for
    the horizontal arrow out of the top-left corner, which carries -1 so
    that the two differentials anticommute.
    """

    anchor: tuple
    kind: ClassVar[str] = "square"

    def __post_init__(self):
        object.__setattr__(self, "anchor",
                           _as_bidegree(self.anchor, "square anchor"))

    @property
    def dots(self):
        p, q = self.anchor
        return ((p, q), (p + 1, q), (p, q + 1), (p + 1, q + 1))


@dataclass(frozen=True)
class Zigzag:
    """Staircase summand: one dot per bidegree, alternating arrows.

    ``dots`` is stored in canonical "down-right" order: each step is
    either (+1, 0) - a horizontal arrow from the current dot to the next -
    or (0, -1) - a vertical arrow from the next dot back up to the current
    one.  Steps necessarily alternate (otherwise a two-step composite of
    one differential would be nonzero).  A single dot is a valid zigzag.
    """

    dots: tuple
    kind: ClassVar[str] = "zigzag"

    def __post_init__(self):
        dots = tuple(_as_bidegree(d, "zigzag dot") for d in self.dots)
        if not dots:
            raise ValueError("zigzag needs at least one dot")
        steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(dots, dots[1:])]
        for step in steps:
            if step not in ((1, 0), (0, -1)):
                raise ValueError(
                    "consecutive zigzag dots must step right (+1,0) or "
                    f"down (0,-1); got {step}")
        for a, b in zip(steps, steps[1:]):
            if a == b:
                raise ValueError("zigzag steps must alternate")
        object.__setattr__(self, "dots", dots)

    @classmethod
    def from_path(cls, dots):
        return cls(tuple(dots))

    @property
    def arrows(self):
        """Arrow labels between consecutive dots: "del" or "delbar"."""
        return tuple("del" if b[0] > a[0] else "delbar"
                     for a, b in zip(self.dots, self.dots[1:]))

    @property
    def is_dot(self):
        return len(self.dots) == 1

    def roles(self):
        """Per dot: "source" (arrows out), "sink" (arrows in), "lone"."""
        if self.is_dot:
            return ("lone",)
        first = "source" if self.arrows[0] == "del" else "sink"
        out = []
        current = first
        for _ in self.dots:
            out.append(current)
            current = "sink" if current == "source" else "source"
        return tuple(out)


def mirror_part(part):
    """The summand reflected across the diagonal (p and q swapped)."""
    if isinstance(part, Square):
        p, q = part.anchor
        return Square(anchor=(q, p))
    return Zigzag(tuple((q, p) for (p, q) in reversed(part.dots)))


def _part_key(part):
    if isinstance(part, Square):
        return (0, part.anchor, ())
    if isinstance(part, Zigzag):
        return (1, part.dots[0], part.dots)
    raise ValueError(f"not a summand: {part!r}")


def sort_parts(parts):
    """Canonically ordered tuple; makes multiset comparison plain ==."""
    return tuple(sorted(parts, key=_part_key))


def part_to_json_dict(part):
    if isinstance(part, Square):
        return {"kind": "square", "anchor": list(part.anchor)}
    return {"kind": "zigzag", "dots": [list(d) for d in part.dots],
            "arrows": list(part.arrows)}


def part_from_json_dict(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("summand JSON must be an object with a 'kind'")
    if obj["kind"] == "square":
        return Square(anchor=tuple(obj["anchor"]))
    if obj["kind"] == "zigzag":
        part = Zigzag(tuple(tuple(d) for d in obj["dots"]))
        if "arrows" in obj and tuple(obj["arrows"]) != part.arrows:
            raise ValueError("zigzag arrow labels do not match the dots")
        return part
    raise ValueError(f"unknown summand kind {obj['kind']!r}")


def decomposition_to_json_dict(d):
    return {"parts": [part_to_json_dict(p) for p in d.parts],
            "verified": d.verified}


# --------------------------------------------------------------------------
# Pattern synthesis.
# --------------------------------------------------------------------------

class _Pattern(NamedTuple):
    spaces: dict     # bidegree -> dimension
    del_entries: dict        # bidegree -> {(row, col): scalar}
    delbar_entries: dict
    index: dict      # (part position, bidegree) -> basis offset


def _pattern(parts):
    """Stacked block layout of a part sequence, entries still sparse."""
    spaces = {}
    index = {}
    for t, part in enumerate(parts):
        if not isinstance(part, (Square, Zigzag)):
            raise ValueError(f"not a summand: {part!r}")
        for d in part.dots:
            index[(t, d)] = spaces.get(d, 0)
            spaces[d] = index[(t, d)] + 1
    del_entries = {}
    delbar_entries = {}

    def put(table, src, tgt_row, src_col, value):
        table.setdefault(src, {})[(tgt_row, src_col)] = value

    for t, part in enumerate(parts):
        if isinstance(part, Square):
            p, q = part.anchor
            put(del_entries, (p, q),
                index[(t, (p + 1, q))], index[(t, (p, q))], SC_ONE)
            put(delbar_entries, (p, q),
                index[(t, (p, q + 1))], index[(t, (p, q))], SC_ONE)
            put(delbar_entries, (p + 1, q),
                index[(t, (p + 1, q + 1))], index[(t, (p + 1, q))], SC_ONE)
            put(del_entries, (p, q + 1),
                index[(t, (p + 1, q + 1))], index[(t, (p, q + 1))],
                SC_MINUS_ONE)
        else:
            for a, b in zip(part.dots, part.dots[1:]):
                if b[0] > a[0]:
                    put(del_entries, a, index[(t, b)], index[(t, a)], SC_ONE)
                else:
                    put(delbar_entries, b,
                        index[(t, a)], index[(t, b)], SC_ONE)
    return _Pattern(spaces, del_entries, delbar_entries, index)


def _entries_to_matrix(entries, rows, cols):
    data = [[SC_ZERO] * rows for _ in range(cols)]
    for (i, j), value in entries.items():
        data[j][i] = value
    return Matrix(rows, cols, data)


def _pattern_blocks(pattern):
    spaces = pattern.spaces
    del_blocks = {
        (p, q): _entries_to_matrix(entries, spaces.get((p + 1, q), 0),
                                   spaces[(p, q)])
        for (p, q), entries in pattern.del_entries.items()}
    delbar_blocks = {
        (p, q): _entries_to_matrix(entries, spaces.get((p, q + 1), 0),
                                   spaces[(p, q)])
        for (p, q), entries in pattern.delbar_entries.items()}
    return del_blocks, delbar_blocks


def synthesize(parts, scramble_seed=None):
    """A complex whose summands are exactly the given parts.

    Parts are stacked (one basis vector per dot, in canonical part
    order), never overlapped.  With ``scramble_seed`` the differentials
    are conjugated by seeded invertible matrices per bidegree, hiding the
    block structure without changing the summand multiset.
    """
    parts = sort_parts(parts)
    pattern = _pattern(parts)
    del_blocks, delbar_blocks = _pattern_blocks(pattern)
    k = Bicomplex(pattern.spaces, del_blocks, delbar_blocks,
                  label="synthesized")
    ensure_valid(k)
    if scramble_seed is not None:
        k = apply_basis_change(k, scramble_matrices(k, scramble_seed))
        ensure_valid(k)
    return k


_UNIT_ENTRIES = (SC_ONE, SC_MINUS_ONE, SC_I, SC_MINUS_I)


def _unitriangular(rng, n, upper):
    cols = []
    for j in range(n):
        col = [SC_ZERO] * n
        col[j] = SC_ONE
        span = range(j) if upper else range(j + 1, n)
        for i in span:
            if rng.random() < 0.4:
                col[i] = _UNIT_ENTRIES[rng.randrange(4)]
        cols.append(col)
    return Matrix(n, n, cols)


def scramble_matrices(k, seed):
    """Seeded invertible matrix per support bidegree (triangular product)."""
    rng = random.Random(seed)
    out = {}
    for bid in k.support():
        n = k.dimension(*bid)
        out[bid] = _unitriangular(rng, n, upper=False) \
            @ _unitriangular(rng, n, upper=True)
    return out


def apply_basis_change(k, mats):
    """The same complex written in new bases (columns of ``mats``)."""
    ensure_valid(k)
    inv = {bid: inverse(m) for bid, m in mats.items()}

    def transformed(m, src, tgt):
        if src in mats:
            m = m @ mats[src]
        if tgt in inv:
            m = inv[tgt] @ m
        return m

    spaces = {bid: k.dimension(*bid) for bid in k.support()}
    new_del = {bid: transformed(k.del_map(*bid), bid, (bid[0] + 1, bid[1]))
               for bid in spaces}
    new_delbar = {bid: transformed(k.delbar_map(*bid), bid,
                                   (bid[0], bid[1] + 1))
                  for bid in spaces}
    return Bicomplex(spaces, new_del, new_delbar, n=k.n, label=k.label)


def standard_conjugation(parts):
    """Antilinear diagonal-swap matrices for a mirror-closed multiset.

    On the unscrambled synthesized complex, each part's dot at (p, q) is
    sent to the matching dot of its mirror part at (q, p) with
    coefficient +1, except the top corner of a square which carries -1
    (forced by the sign in the square pattern).  The resulting family
    squares to the identity and intertwines the two differentials.
    """
    parts = sort_parts(parts)
    pattern = _pattern(parts)
    positions = {}
    for t, part in enumerate(parts):
        positions.setdefault(part, []).append(t)
    partner = {}
    for part, where in positions.items():
        mirrored = positions.get(mirror_part(part))
        if mirrored is None or len(mirrored) != len(where):
            raise ValueError("part multiset is not closed under mirroring")
        for slot, t in enumerate(where):
            partner[t] = mirrored[slot]
    entries = {}
    for t, part in enumerate(parts):
        u = partner[t]
        if isinstance(part, Square):
            p, q = part.anchor
            corners = (((p, q), (q, p), SC_ONE),
                       ((p + 1, q), (q, p + 1), SC_ONE),
                       ((p, q + 1), (q + 1, p), SC_ONE),
                       ((p + 1, q + 1), (q + 1, p + 1), SC_MINUS_ONE))
        else:
            corners = tuple(((p, q), (q, p), SC_ONE)
                            for (p, q) in part.dots)
        for src, dst, coeff in corners:
            entries.setdefault(src, {})[
                (pattern.index[(u, dst)], pattern.index[(t, src)])] = coeff
    return {bid: _entries_to_matrix(
                entries.get(bid, {}),
                pattern.spaces.get((bid[1], bid[0]), 0), dim)
            for bid, dim in pattern.spaces.items()}


# --------------------------------------------------------------------------
# Decomposition.
# --------------------------------------------------------------------------

class DecompositionError(RuntimeError):
    """Internal decomposition verification failed (an algorithm bug)."""


@dataclass(frozen=True)
class Decomposition:
    """Summand multiset plus the adapted basis per bidegree.

    ``basis_change`` columns are the adapted basis vectors in input
    coordinates, ordered to match the dots of ``parts``; re-expressing
    both differentials in these bases leaves exactly the arrow pattern of
    the parts (all coefficients +1, squares' top horizontal arrow -1).
    ``verified`` records that this has been checked bit-exactly.
    """

    parts: tuple
    basis_change: dict
    verified: bool


def verify_decomposition(d, k):
    """Exact check of both decomposition invariants; never raises."""
    try:
        pattern = _pattern(d.parts)
        support = k.support()
        if sorted(pattern.spaces) != support:
            return False
        for bid in support:
            dim = k.dimension(*bid)
            s = d.basis_change.get(bid)
            if (pattern.spaces[bid] != dim or s is None
                    or s.rows != dim or s.cols != dim or rank(s) != dim):
                return False
        del_blocks, delbar_blocks = _pattern_blocks(pattern)

        def base(bid):
            s = d.basis_change.get(bid)
            return s if s is not None else Matrix.zero(0, 0)

        for (p, q) in support:
            s = base((p, q))
            lhs = k.del_map(p, q) @ s
            pat = del_blocks.get((p, q))
            if pat is None:
                if not lhs.is_zero():
                    return False
            elif lhs != base((p + 1, q)) @ pat:
                return False
            lhs = k.delbar_map(p, q) @ s
            pat = delbar_blocks.get((p, q))
            if pat is None:
                if not lhs.is_zero():
                    return False
            elif lhs != base((p, q + 1)) @ pat:
                return False
        return True
    except (LinAlgError, ValueError, KeyError, TypeError):
        return False


def decompose(k):
    """Split a valid bounded complex into squares and zigzags.

    Deterministic: the adapted basis is a function of the input alone, with
    no random draws and no retries.  The result is verified
    exactly before being returned; a verification failure raises
    DecompositionError instead of returning silently wrong output.
    """
    ensure_valid(k)
    support = k.support()
    res_dim = {bid: k.dimension(*bid) for bid in support}
    embed = {bid: Matrix.identity(dim) for bid, dim in res_dim.items()}
    cur_del = {bid: k.del_map(*bid) for bid in support}
    cur_delbar = {bid: k.delbar_map(*bid) for bid in support}

    def rd(bid):
        return res_dim.get(bid, 0)

    def cdel(bid):
        m = cur_del.get(bid)
        if m is None:
            return Matrix.zero(rd((bid[0] + 1, bid[1])), rd(bid))
        return m

    def cdelbar(bid):
        m = cur_delbar.get(bid)
        if m is None:
            return Matrix.zero(rd((bid[0], bid[1] + 1)), rd(bid))
        return m

    # ---- Phase one: split off all squares, anchor by anchor. ----
    square_parts = []
    try:
        for (p, q) in sorted(support, key=lambda b: (b[0] + b[1], b[0])):
            composed = cdel((p, q + 1)) @ cdelbar((p, q))
            r = rank(composed)
            if r == 0:
                continue
            anchors = complete_basis(kernel_basis(composed),
                                     Subspace.full(rd((p, q))))
            img = composed @ anchors
            lam = solve(img.transpose(), Matrix.identity(r)).transpose()
            corners = {
                (p, q): kernel_basis(lam @ composed).basis,
                (p + 1, q): kernel_basis(lam @ cdelbar((p + 1, q))).basis,
                (p, q + 1): kernel_basis(lam @ cdel((p, q + 1))).basis,
                (p + 1, q + 1): kernel_basis(lam).basis,
            }
            e00 = embed[(p, q)] @ anchors
            e10 = k.del_map(p, q) @ e00
            e01 = k.delbar_map(p, q) @ e00
            e11 = k.delbar_map(p + 1, q) @ e10
            for j in range(r):
                square_parts.append((Square(anchor=(p, q)), {
                    (p, q): e00.column(j), (p + 1, q): e10.column(j),
                    (p, q + 1): e01.column(j),
                    (p + 1, q + 1): e11.column(j)}))

            def restricted(m, src_basis, tgt_basis):
                if src_basis is not None:
                    m = m @ src_basis
                if tgt_basis is not None:
                    m = solve(tgt_basis, m)
                return m

            up_del = {}
            up_delbar = {}
            for src in support:
                tgt = (src[0] + 1, src[1])
                if src in corners or tgt in corners:
                    up_del[src] = restricted(cdel(src), corners.get(src),
                                             corners.get(tgt))
                tgt = (src[0], src[1] + 1)
                if src in corners or tgt in corners:
                    up_delbar[src] = restricted(cdelbar(src),
                                                corners.get(src),
                                                corners.get(tgt))
            cur_del.update(up_del)
            cur_delbar.update(up_delbar)
            for bid, basis in corners.items():
                embed[bid] = embed[bid] @ basis
                res_dim[bid] = basis.cols
    except LinAlgError as exc:
        raise DecompositionError(
            f"square peeling failed at exact arithmetic: {exc}") from exc
    for (p, q) in support:
        if not (cdel((p, q + 1)) @ cdelbar((p, q))).is_zero():
            raise DecompositionError(
                "square peeling left a nonzero two-step composite")

    # ---- Phase two: zigzag multiplicities on the residual complex. ----
    def offsets(dots, roles, skip):
        """Stacked slot offsets of the dots whose role is not ``skip``."""
        off = {}
        total = 0
        for i, d in enumerate(dots):
            if roles[i] != skip:
                off[i] = total
                total += rd(d)
        return off, total

    def sink_relations(dots, roles, kill_ends=False):
        """Maps from the model zigzag on ``dots``, over its source slots.

        Such a map is fixed by one vector per source dot (a lone dot is its
        own source), stacked at ``offsets(dots, roles, "sink")``.  It
        respects both differentials when, at every interior sink, del of
        the left source equals delbar of the right one; with ``kill_ends``
        the arrows that leave the zigzag at a source end must vanish too.
        Returns a kernel basis of these relations.
        """
        n = len(dots)
        s_off, total = offsets(dots, roles, "sink")
        blocks = []
        at = 0
        for i in range(1, n - 1):
            if roles[i] == "sink":
                blocks += [(at, s_off[i - 1], cdel(dots[i - 1])),
                           (at, s_off[i + 1], cdelbar(dots[i + 1]).negate())]
                at += rd(dots[i])
        if kill_ends:
            for i, kill in ((0, cdelbar(dots[0])), (n - 1, cdel(dots[-1]))):
                if roles[i] != "sink":
                    blocks.append((at, s_off[i], kill))
                    at += kill.rows
        if not at:
            return Matrix.identity(total)
        return kernel_basis(place_blocks(at, total, blocks)).basis

    def colimit(dots, roles, sink_ends=False):
        """The window colimit, stacked over the sink slots.

        Returns the map from the source slots into the sink slots through
        the arrow that enters the first sink (the identity for a lone dot),
        and the relations the colimit takes modulo: at each interior source
        the difference of its two arrows, and with ``sink_ends`` also the
        arrows that enter a sink end from outside the window.
        """
        n = len(dots)
        s_off, s_total = offsets(dots, roles, "sink")
        t_off, t_total = offsets(dots, roles, "source")
        first = min(t_off)
        if roles[first] == "lone":
            source, arrow = first, Matrix.identity(rd(dots[first]))
        elif first == 0:
            source, arrow = 1, cdelbar(dots[1])
        else:
            source, arrow = first - 1, cdel(dots[first - 1])
        to_sinks = place_blocks(t_total, s_total, [
            (t_off[first], s_off[source], arrow)])
        blocks = []
        at = 0
        for i in range(1, n - 1):
            if roles[i] == "source":
                blocks += [(t_off[i - 1], at, cdelbar(dots[i])),
                           (t_off[i + 1], at, cdel(dots[i]).negate())]
                at += rd(dots[i])
        for i in sorted({0, n - 1}) if sink_ends else ():
            if roles[i] == "source":
                continue
            p, q = dots[i]
            near = dots[max(i - 1, 0): i + 2]
            for src, into in (((p - 1, q), cdel((p - 1, q))),
                              ((p, q - 1), cdelbar((p, q - 1)))):
                if src not in near:
                    blocks.append((t_off[i], at, into))
                    at += into.cols
        return to_sinks, place_blocks(t_total, at, blocks)

    @functools.cache
    def window_rank(dots):
        """Number of residual zigzag summands containing this window.

        Computed as the rank of the canonical map from the limit to the
        colimit of the window diagram; both functors are additive, each
        zigzag containing the whole window contributes exactly 1, and
        every other summand contributes 0.
        """
        if any(rd(d) == 0 for d in dots):
            return 0
        roles = Zigzag(dots).roles()
        to_sinks, rel = colimit(dots, roles)
        img = to_sinks @ sink_relations(dots, roles)
        return rank(img.hstack(rel)) - rank(rel)

    def extend_left(dots):
        first, second = dots[0], dots[1]
        if second == (first[0] + 1, first[1]):
            return ((first[0], first[1] + 1),) + dots
        return ((first[0] - 1, first[1]),) + dots

    def extend_right(dots):
        last, before = dots[-1], dots[-2]
        if last == (before[0] + 1, before[1]):
            return dots + ((last[0], last[1] - 1),)
        return dots + ((last[0] + 1, last[1]),)

    multiplicity = {}
    for first in support:
        if rd(first) == 0:
            continue
        for first_step in ((1, 0), (0, -1)):
            dots = [first]
            step = first_step
            while True:
                nxt = (dots[-1][0] + step[0], dots[-1][1] + step[1])
                if rd(nxt) == 0:
                    break
                dots.append(nxt)
                step = (0, -1) if step == (1, 0) else (1, 0)
                window = tuple(dots)
                r = window_rank(window)
                if r == 0:
                    break
                m = (r - window_rank(extend_left(window))
                     - window_rank(extend_right(window))
                     + window_rank(extend_left(extend_right(window))))
                if m < 0:
                    raise DecompositionError(
                        "negative zigzag multiplicity computed")
                if m:
                    multiplicity[Zigzag(window)] = m
    leftover = dict(res_dim)
    for z, m in multiplicity.items():
        for d in z.dots:
            leftover[d] -= m
    for bid, count in leftover.items():
        if count < 0:
            raise DecompositionError("zigzag multiplicities exceed the "
                                     f"residual dimension at {bid}")
    zig_types = sorted(multiplicity.items(), key=lambda kv: _part_key(kv[0]))
    zig_types += [(Zigzag((bid,)), count)
                  for bid, count in sorted(leftover.items()) if count]

    # ---- Phase three: adapted basis for the residual zigzags. ----
    # Hom from a zigzag type into the residual, modulo its radical (the
    # maps that split off no summand), has the type's multiplicity as
    # dimension, because a zigzag's endomorphisms are the field.  The
    # radical is the kernel of the map into the window colimit once the
    # arrows entering the sink ends from outside are divided out too.  A
    # family that is a basis of every quotient is an isomorphism modulo
    # the radicals, hence an isomorphism (Nakayama); the canonical
    # complement of each radical is one.
    def instance_columns(z, roles, vector):
        dots = z.dots
        s_off, _ = offsets(dots, roles, "sink")
        cols = {dots[i]: vector[o: o + rd(dots[i])] for i, o in s_off.items()}
        for i, d in enumerate(dots):
            if roles[i] == "sink":
                if i > 0:
                    cols[d] = cdel(dots[i - 1]).apply(cols[dots[i - 1]])
                else:
                    cols[d] = cdelbar(dots[1]).apply(cols[dots[1]])
        return cols

    zigzag_parts = []
    for z, m in zig_types:
        roles = z.roles()
        hom = sink_relations(z.dots, roles, kill_ends=True)
        to_sinks, rel = colimit(z.dots, roles, sink_ends=True)
        rad = preimage(to_sinks @ hom, image_basis(rel))
        top = complete_basis(rad, Subspace.full(hom.cols))
        if top.cols != m:
            raise DecompositionError(
                f"{z} has {top.cols} split embeddings, expected {m}")
        zigzag_parts += [(z, instance_columns(z, roles, vector))
                         for vector in (hom @ top).columns()]

    # ---- Assemble, verify, return. ----
    all_parts = square_parts + [
        (z, {bid: embed[bid].apply(vec) for bid, vec in cols.items()})
        for z, cols in zigzag_parts]
    all_parts.sort(key=lambda pc: _part_key(pc[0]))
    columns = {bid: [] for bid in support}
    for part, cols in all_parts:
        for bid, vec in cols.items():
            columns[bid].append(vec)
    basis_change = {bid: Matrix(k.dimension(*bid), len(vecs), vecs)
                    for bid, vecs in columns.items()}
    result = Decomposition(parts=tuple(p for p, _ in all_parts),
                           basis_change=basis_change, verified=False)
    if not verify_decomposition(result, k):
        raise DecompositionError("internal verification failure")
    return replace(result, verified=True)


# --------------------------------------------------------------------------
# Counting rules.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ZigzagCohomology:
    """The five tables recounted from a summand multiset alone."""

    de_rham: CohomologyTable
    dolbeault: CohomologyTable
    conj_dolbeault: CohomologyTable
    bott_chern: CohomologyTable
    aeppli: CohomologyTable


def count_cohomology_from_zigzags(d):
    """Recount all five cohomologies from a verified decomposition.

    Squares contribute nothing.  A zigzag contributes, per bidegree: to
    Dolbeault at dots not touching any vertical arrow; to the conjugate
    theory at dots not touching any horizontal arrow; to Bott-Chern at
    dots with no outgoing arrow; to Aeppli at dots with no ingoing arrow
    (a lone dot counts for every theory).  Its dots alternate between two
    adjacent total degrees, so a zigzag with an odd number of dots adds one
    de Rham class, in the degree of its end dots (which hold the majority),
    and one with an even number adds none; no elimination is involved.
    Representatives are not carried over; the returned tables have empty
    representative maps.
    """
    if not d.verified:
        raise ValueError("decomposition must be verified before counting")
    bidegrees = sorted({dot for part in d.parts for dot in part.dots})
    bigraded = {name: {bid: 0 for bid in bidegrees}
                for name in ("dolbeault", "conj_dolbeault",
                             "bott_chern", "aeppli")}
    if bidegrees:
        degrees = range(min(p + q for p, q in bidegrees),
                        max(p + q for p, q in bidegrees) + 1)
    else:
        degrees = range(0)
    betti = {deg: 0 for deg in degrees}
    for part in d.parts:
        if isinstance(part, Square):
            continue
        arrows = part.arrows
        dots = part.dots
        vertical_ends = set()
        horizontal_ends = set()
        for i, label in enumerate(arrows):
            ends = (dots[i], dots[i + 1])
            if label == "delbar":
                vertical_ends.update(ends)
            else:
                horizontal_ends.update(ends)
        roles = part.roles()
        for i, dot in enumerate(dots):
            if dot not in vertical_ends:
                bigraded["dolbeault"][dot] += 1
            if dot not in horizontal_ends:
                bigraded["conj_dolbeault"][dot] += 1
            if roles[i] in ("sink", "lone"):
                bigraded["bott_chern"][dot] += 1
            if roles[i] in ("source", "lone"):
                bigraded["aeppli"][dot] += 1
        if len(dots) % 2:
            betti[sum(dots[0])] += 1

    def table(name, dims):
        return CohomologyTable(theory=name, dims=dims, representatives={})

    return ZigzagCohomology(
        de_rham=table("de_rham", betti),
        dolbeault=table("dolbeault", bigraded["dolbeault"]),
        conj_dolbeault=table("conj_dolbeault", bigraded["conj_dolbeault"]),
        bott_chern=table("bott_chern", bigraded["bott_chern"]),
        aeppli=table("aeppli", bigraded["aeppli"]),
    )
