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

Decomposition strategy: all squares are split off at once, in input
coordinates.  At each anchor the square vectors complement the kernel of
the composed differential (read from the cohomology module's per-complex
store; their count is its rank), and one kernel per touched bidegree, of
the functionals that read the square corners back, cuts out the residual
complement.  The residual is a plain Bicomplex on which both two-step
composites vanish.  Its spaces in total degrees k and k + 1, joined by
both differentials, form one alternating type-A quiver representation
(strip k), whose bars of two or more nodes are exactly the zigzags that
live there.  One left-to-right zigzag-persistence sweep per strip counts
them (Carlsson and de Silva, *Zigzag persistence*, 2010): it keeps a
basis of the current node with one vector per live bar, and reduces a
bar's vector only by the vectors of bars of larger key, where a bar born
at node b outside an image has key (0, -b) and one born in a kernel has
key (1, b); in that order, adding one bar's vector to another's is an
automorphism of the part already swept.  Runs end at zero spaces and zero
arrows, so a complex with zero differentials needs no elimination.  The
lone dots are what the zigzags leave of each dimension.  The adapted
basis realizing the multiset is canonical: for each zigzag type it is
the echelon complement, inside the space of structure-compatible maps
from the model zigzag, of the maps that do not split (those that vanish
in the window colimit once the arrows entering its sink ends are
killed); their count checks the sweep's multiplicity again.  No random
draws are made.  Every step works on whole sparse blocks: each summand
type contributes one matrix per bidegree, holding the vectors of all its
copies, and the adapted basis at a bidegree is these blocks side by side
in canonical part order.
"""

import random
from dataclasses import dataclass, make_dataclass, replace
from typing import ClassVar, NamedTuple

from .bicomplex import Bicomplex, ensure_valid
from .cohomology import (BIGRADED_THEORIES, THEORIES, CohomologyTable,
                         _ddbar, _subspace)
from .exactla import (
    LinAlgError,
    Matrix,
    SC_I,
    SC_MINUS_I,
    SC_MINUS_ONE,
    SC_ONE,
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


def decomposition_to_json_dict(d):
    return {"parts": [part_to_json_dict(p) for p in d.parts],
            "verified": d.verified}


# --------------------------------------------------------------------------
# Pattern synthesis.
# --------------------------------------------------------------------------

class _Pattern(NamedTuple):
    spaces: dict     # bidegree -> dimension
    del_blocks: dict     # source bidegree -> Matrix, where arrows leave it
    delbar_blocks: dict
    index: dict      # (part position, bidegree) -> basis offset


def _arrows(part):
    """``(differential, source, target, coefficient)`` per arrow of a part;
    the differential is 0 for del and 1 for delbar."""
    if isinstance(part, Square):
        p, q = part.anchor
        return ((0, (p, q), (p + 1, q), SC_ONE),
                (1, (p, q), (p, q + 1), SC_ONE),
                (1, (p + 1, q), (p + 1, q + 1), SC_ONE),
                (0, (p, q + 1), (p + 1, q + 1), SC_MINUS_ONE))
    return tuple((0, a, b, SC_ONE) if b[0] > a[0] else (1, b, a, SC_ONE)
                 for a, b in zip(part.dots, part.dots[1:]))


def _pattern(parts):
    """Stacked block layout of a part sequence, as sparse matrices."""
    spaces = {}
    index = {}
    for t, part in enumerate(parts):
        if not isinstance(part, (Square, Zigzag)):
            raise ValueError(f"not a summand: {part!r}")
        for d in part.dots:
            index[(t, d)] = spaces.get(d, 0)
            spaces[d] = index[(t, d)] + 1
    columns = ({}, {})   # per differential: source bidegree -> columns
    for t, part in enumerate(parts):
        for which, src, tgt, value in _arrows(part):
            if src not in columns[which]:
                columns[which][src] = [{} for _ in range(spaces[src])]
            columns[which][src][index[(t, src)]][index[(t, tgt)]] = value
    del_blocks, delbar_blocks = (
        {(p, q): Matrix._from_sparse(spaces[(p + dp, q + dq)], len(cols),
                                     cols)
         for (p, q), cols in blocks.items()}
        for blocks, (dp, dq) in zip(columns, ((1, 0), (0, 1))))
    return _Pattern(spaces, del_blocks, delbar_blocks, index)


def synthesize(parts):
    """A complex whose summands are exactly the given parts.

    Parts are stacked (one basis vector per dot, in canonical part
    order), never overlapped; :func:`apply_basis_change` with
    :func:`scramble_matrices` hides the block structure without changing
    the summand multiset.
    """
    parts = sort_parts(parts)
    pattern = _pattern(parts)
    k = Bicomplex(pattern.spaces, pattern.del_blocks, pattern.delbar_blocks,
                  label="synthesized")
    ensure_valid(k)
    return k


_UNIT_ENTRIES = (SC_ONE, SC_MINUS_ONE, SC_I, SC_MINUS_I)


def _unitriangular(rng, n, upper):
    cols = []
    for j in range(n):
        col = {j: SC_ONE}
        for i in range(j) if upper else range(j + 1, n):
            if rng.random() < 0.4:
                col[i] = _UNIT_ENTRIES[rng.randrange(4)]
        cols.append(col)
    return Matrix._from_sparse(n, n, cols)


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
    columns = {bid: [{} for _ in range(dim)]
               for bid, dim in pattern.spaces.items()}
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
            columns[src][pattern.index[(t, src)]][
                pattern.index[(u, dst)]] = coeff
    return {bid: Matrix._from_sparse(pattern.spaces.get((bid[1], bid[0]), 0),
                                     len(cols), cols)
            for bid, cols in columns.items()}


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
        basis = d.basis_change
        for bid in support:
            dim = k.dimension(*bid)
            s = basis.get(bid)
            if (pattern.spaces[bid] != dim or s is None
                    or s.rows != dim or s.cols != dim or rank(s) != dim):
                return False
        for (p, q) in support:
            for diff, blocks, tgt in (
                    (k.del_map(p, q), pattern.del_blocks, (p + 1, q)),
                    (k.delbar_map(p, q), pattern.delbar_blocks, (p, q + 1))):
                lhs = diff @ basis[(p, q)]
                pat = blocks.get((p, q))
                if not (lhs.is_zero() if pat is None
                        else lhs == basis[tgt] @ pat):
                    return False
        return True
    except (LinAlgError, ValueError, KeyError, TypeError):
        return False


def _strip_zigzags(res):
    """Multiplicity of every zigzag of two or more dots in ``res``.

    ``res`` is a valid complex whose two-step composites all vanish.  Each
    strip is walked in canonical dot order (p, k+1-p), (p, k-p),
    (p+1, k-p), ... and cut into runs at zero spaces and zero arrows,
    which no bar crosses; a zigzag outside the strip meets it only in
    lone dots.  ``_sweep_run`` counts the bars of each run.
    """
    by_degree = {}
    for (p, q) in res.support():
        by_degree.setdefault(p + q, []).append((p, q))
    dels, delbars = res.del_blocks(), res.delbar_blocks()
    counts = {}
    for k in sorted(by_degree):
        if k + 1 not in by_degree:
            continue
        # The sink (p, k+1-p) sits at position 2p and is entered by del from
        # the source before it; the source (p, k-p) sits at 2p + 1 and
        # maps back to the sink before it by delbar.  A stored block is
        # never zero, so the node it joins is the one just walked.
        nodes = sorted([(2 * p, (p, q)) for p, q in by_degree[k + 1]]
                       + [(2 * p + 1, (p, q)) for p, q in by_degree[k]])
        run, arrows = [], []
        for pos, (p, q) in nodes:
            forward = not pos % 2
            arrow = dels.get((p - 1, q)) if forward else delbars.get((p, q))
            if arrow is not None:
                run.append((p, q))
                arrows.append((arrow, forward))
                continue
            if arrows:
                _sweep_run(res, run, arrows, counts)
            run, arrows = [(p, q)], []
        if arrows:
            _sweep_run(res, run, arrows, counts)
    return {Zigzag(dots): m for dots, m in counts.items()}


def _sweep_run(res, nodes, arrows, counts):
    """One left-to-right zigzag-persistence pass over a run of a strip.

    ``arrows[i]`` joins ``nodes[i]`` and ``nodes[i + 1]`` as ``(matrix,
    forward)``: forward maps node i to node i + 1, backward the reverse.
    The live bars at node i carry a birth node and one vector each,
    together a basis of the node.  They are kept in ascending key (the
    module docstring's (0, -b) and (1, b)): births after a forward arrow
    go first, births in a kernel last.  A canonical kernel basis vector
    is zero before its lead, so it changes only the lead bar's vector,
    by bars of larger key.  Each bar that dies after two or more nodes
    adds one to ``counts[dots]``.
    """
    bars = [(0, {j: SC_ONE}) for j in range(res.dimension(*nodes[0]))]
    last = len(arrows) - 1
    for i, (arrow, forward) in enumerate(arrows):
        here = Matrix._from_sparse(res.dimension(*nodes[i]), len(bars),
                                   [v for _, v in bars])
        if forward:
            # The lead of each kernel vector of f B dies here; the others
            # carry their images on, and a complement of the image is born
            # with the least key of all.
            image = arrow @ here
            ends = {min(c) for c in kernel_basis(image).basis._data}
            live = [(b, image._data[j]) for j, (b, _) in enumerate(bars)
                    if j not in ends]
            born = []
            if i < last and len(live) < image.rows:
                born = [(i + 1, c) for c in complete_basis(
                    image_basis(image), Subspace.full(image.rows))._data]
            survivors = born + live
        else:
            # A kernel vector (x, y) of [B | g] has B x = g(-y).  Leading in
            # B, it marks a bar that survives with the lift y (up to sign);
            # leading in g, it is a vector of ker g, born with the greatest
            # key of all.  The bars at the other columns of B die here.
            n = len(bars)
            ends = set(range(n))
            live, born = [], []
            for c in kernel_basis(here.hstack(arrow)).basis._data:
                lead = min(c)
                lift = {j - n: x for j, x in c.items() if j >= n}
                if lead < n:
                    ends.discard(lead)
                    live.append((bars[lead][0], lift))
                else:
                    born.append((i + 1, lift))
            survivors = live + born
        for j in ends:
            _count_bar(counts, nodes, bars[j][0], i)
        bars = survivors
    for b, _ in bars:
        _count_bar(counts, nodes, b, last + 1)


def _count_bar(counts, nodes, birth, death):
    if birth < death:
        dots = tuple(nodes[birth:death + 1])
        counts[dots] = counts.get(dots, 0) + 1


def decompose(k):
    """Split a valid bounded complex into squares and zigzags.

    Phase one splits off every square in one pass, in input coordinates:
    at each anchor the anchor vectors are the canonical complement of
    ker(del delbar), taken from the complex's cohomology store, and the
    residual is the common kernel of the functionals reading the square
    corners back, wrapped as a Bicomplex.  Phase two counts the zigzags
    of the residual with one zigzag-persistence sweep per anti-diagonal
    strip (``_strip_zigzags``), reducing a bar's vector only by bars of
    larger key, and phase three picks their adapted basis, checking each
    multiplicity again on its own as the dimension of a Hom space modulo
    its radical.  Each square anchor and each zigzag type yields one block
    per bidegree it touches (anchors, their del, delbar and delbar-del
    images; source rows of the split maps, their sink images), and
    ``basis_change`` stacks these blocks side by side in canonical part
    order.

    Deterministic: the adapted basis is a function of the input alone, with
    no random draws and no retries.  The result is verified
    exactly before being returned; a verification failure raises
    DecompositionError instead of returning silently wrong output.
    """
    ensure_valid(k)
    support = k.support()

    # ---- Phase one: split off every square at once. ----
    # lam, the left inverse of del delbar on the anchors at (p, q), reads
    # each corner of those squares back: the anchor through lam del delbar,
    # its del image through lam delbar, its delbar image through lam del,
    # the top corner directly.  At each bidegree, the common kernel of the
    # functionals defined there is closed under both differentials (del
    # delbar del = 0 = delbar del delbar) and meets the squares' span in 0,
    # so it is the residual complement; untouched bidegrees keep theirs.
    types = []   # (part, multiplicity, {bidegree: block of its vectors})
    reads = {}
    try:
        for (p, q) in support:
            ker = _subspace(k, "ker_ddbar", (p, q))
            if ker.dim == k.dimension(p, q):
                continue
            composed = _ddbar(k, (p, q))
            anchors = complete_basis(ker, Subspace.full(k.dimension(p, q)))
            lam = solve((composed @ anchors).transpose(),
                        Matrix.identity(anchors.cols)).transpose()
            for bid, functional in (
                    ((p, q), lam @ composed),
                    ((p + 1, q), lam @ k.delbar_map(p + 1, q)),
                    ((p, q + 1), lam @ k.del_map(p, q + 1)),
                    ((p + 1, q + 1), lam)):
                reads.setdefault(bid, []).append(functional)
            e10 = k.del_map(p, q) @ anchors
            types.append((Square(anchor=(p, q)), anchors.cols, {
                (p, q): anchors, (p + 1, q): e10,
                (p, q + 1): k.delbar_map(p, q) @ anchors,
                (p + 1, q + 1): k.delbar_map(p + 1, q) @ e10}))
        embed = {}
        for bid, functionals in reads.items():
            blocks = []
            at = 0
            for f in functionals:
                blocks.append((at, 0, f))
                at += f.rows
            embed[bid] = kernel_basis(
                place_blocks(at, k.dimension(*bid), blocks)).basis

        def rebased(m, src, tgt):
            if src in embed:
                m = m @ embed[src]
            return solve(embed[tgt], m) if tgt in embed else m

        res = Bicomplex(
            {bid: embed[bid].cols if bid in embed else k.dimension(*bid)
             for bid in support},
            {(p, q): rebased(k.del_map(p, q), (p, q), (p + 1, q))
             for (p, q) in support},
            {(p, q): rebased(k.delbar_map(p, q), (p, q), (p, q + 1))
             for (p, q) in support})
    except LinAlgError as exc:
        raise DecompositionError(
            f"square splitting failed at exact arithmetic: {exc}") from exc
    for (p, q) in res.support():
        if not (res.del_map(p, q + 1) @ res.delbar_map(p, q)).is_zero():
            raise DecompositionError(
                "square splitting left a nonzero two-step composite")

    # ---- Phase two: zigzag multiplicities, one sweep per strip. ----
    multiplicity = _strip_zigzags(res)
    leftover = {bid: res.dimension(*bid) for bid in res.support()}
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
    def offsets(dots, roles, skip):
        """Stacked slot offsets of the dots whose role is not ``skip``."""
        off = {}
        total = 0
        for i, d in enumerate(dots):
            if roles[i] != skip:
                off[i] = total
                total += res.dimension(*d)
        return off, total

    def sink_relations(dots, roles):
        """Maps from the model zigzag on ``dots``, over its source slots.

        Such a map is fixed by one vector per source dot (a lone dot is its
        own source), stacked at ``offsets(dots, roles, "sink")``.  It
        respects both differentials when, at every interior sink, del of
        the left source equals delbar of the right one, and the arrows that
        leave the zigzag at a source end vanish.  Returns a kernel basis of
        these relations.
        """
        n = len(dots)
        s_off, total = offsets(dots, roles, "sink")
        blocks = []
        at = 0
        for i in range(1, n - 1):
            if roles[i] == "sink":
                blocks += [(at, s_off[i - 1], res.del_map(*dots[i - 1])),
                           (at, s_off[i + 1],
                            res.delbar_map(*dots[i + 1]).negate())]
                at += res.dimension(*dots[i])
        for i, kill in ((0, res.delbar_map(*dots[0])),
                        (n - 1, res.del_map(*dots[-1]))):
            if roles[i] != "sink":
                blocks.append((at, s_off[i], kill))
                at += kill.rows
        if not at:
            return Matrix.identity(total)
        return kernel_basis(place_blocks(at, total, blocks)).basis

    def colimit(dots, roles):
        """The window colimit, stacked over the sink slots.

        Returns the map from the source slots into the sink slots through
        the arrow that enters the first sink (the identity for a lone dot),
        and the relations the colimit takes modulo: at each interior source
        the difference of its two arrows, and the arrows that enter a sink
        end from outside the window.
        """
        n = len(dots)
        s_off, s_total = offsets(dots, roles, "sink")
        t_off, t_total = offsets(dots, roles, "source")
        first = min(t_off)
        if roles[first] == "lone":
            source = first
            arrow = Matrix.identity(res.dimension(*dots[first]))
        elif first == 0:
            source, arrow = 1, res.delbar_map(*dots[1])
        else:
            source, arrow = first - 1, res.del_map(*dots[first - 1])
        to_sinks = place_blocks(t_total, s_total, [
            (t_off[first], s_off[source], arrow)])
        blocks = []
        at = 0
        for i in range(1, n - 1):
            if roles[i] == "source":
                blocks += [(t_off[i - 1], at, res.delbar_map(*dots[i])),
                           (t_off[i + 1], at, res.del_map(*dots[i]).negate())]
                at += res.dimension(*dots[i])
        for i in sorted({0, n - 1}):
            if roles[i] == "source":
                continue
            p, q = dots[i]
            near = dots[max(i - 1, 0): i + 2]
            for src, into in (((p - 1, q), res.del_map(p - 1, q)),
                              ((p, q - 1), res.delbar_map(p, q - 1))):
                if src not in near:
                    blocks.append((t_off[i], at, into))
                    at += into.cols
        return to_sinks, place_blocks(t_total, at, blocks)

    for z, m in zig_types:
        dots = z.dots
        roles = z.roles()
        hom = sink_relations(dots, roles)
        to_sinks, rel = colimit(dots, roles)
        rad = preimage(to_sinks @ hom, image_basis(rel))
        top = complete_basis(rad, Subspace.full(hom.cols))
        if top.cols != m:
            raise DecompositionError(
                f"{z} has {top.cols} split embeddings, expected {m}")
        # Rows of the split maps, cut per source dot; each sink block is
        # the image of its left neighbour under del (or, for a sink at the
        # start, of its right neighbour under delbar).
        maps = (hom @ top).transpose()
        s_off, _ = offsets(dots, roles, "sink")
        blocks = {dots[i]: maps.column_slice(
                      range(o, o + res.dimension(*dots[i]))).transpose()
                  for i, o in s_off.items()}
        for i, d in enumerate(dots):
            if roles[i] == "sink":
                blocks[d] = (res.del_map(*dots[i - 1]) @ blocks[dots[i - 1]]
                             if i > 0 else
                             res.delbar_map(*dots[1]) @ blocks[dots[1]])
        types.append((z, m, {bid: embed[bid] @ b if bid in embed else b
                             for bid, b in blocks.items()}))

    # ---- Assemble, verify, return. ----
    types.sort(key=lambda t: _part_key(t[0]))
    basis_change = {bid: Matrix.zero(k.dimension(*bid), 0) for bid in support}
    for _, _, blocks in types:
        for bid, b in blocks.items():
            basis_change[bid] = basis_change[bid].hstack(b)
    result = Decomposition(
        parts=tuple(part for part, m, _ in types for _ in range(m)),
        basis_change=basis_change, verified=False)
    if not verify_decomposition(result, k):
        raise DecompositionError("internal verification failure")
    return replace(result, verified=True)


# --------------------------------------------------------------------------
# Counting rules.
# --------------------------------------------------------------------------

ZigzagCohomology = make_dataclass(
    "ZigzagCohomology", THEORIES, frozen=True,
    namespace={"__module__": __name__,
               "__doc__": "The five tables recounted from a summand "
                          "multiset alone, one field per name in "
                          "cohomology.THEORIES."})


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
    """
    if not d.verified:
        raise ValueError("decomposition must be verified before counting")
    bidegrees = sorted({dot for part in d.parts for dot in part.dots})
    bigraded = {name: {bid: 0 for bid in bidegrees}
                for name in BIGRADED_THEORIES}
    if bidegrees:
        degrees = range(min(p + q for p, q in bidegrees),
                        max(p + q for p, q in bidegrees) + 1)
    else:
        degrees = range(0)
    betti = {deg: 0 for deg in degrees}
    for part in d.parts:
        if isinstance(part, Square):
            continue
        dots = part.dots
        touching = {"del": set(), "delbar": set()}  # dots per arrow kind
        for i, kind in enumerate(part.arrows):
            touching[kind].update(dots[i:i + 2])
        for dot, role in zip(dots, part.roles()):
            if dot not in touching["delbar"]:
                bigraded["dolbeault"][dot] += 1
            if dot not in touching["del"]:
                bigraded["conj_dolbeault"][dot] += 1
            if role in ("sink", "lone"):
                bigraded["bott_chern"][dot] += 1
            if role in ("source", "lone"):
                bigraded["aeppli"][dot] += 1
        if len(dots) % 2:
            betti[sum(dots[0])] += 1
    return ZigzagCohomology(**{
        name: CohomologyTable(theory=name, dims=dims)
        for name, dims in {"de_rham": betti, **bigraded}.items()})
