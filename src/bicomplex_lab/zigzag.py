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
live there.  One left-to-right zigzag-persistence sweep per strip finds
them (Carlsson and de Silva, *Zigzag persistence*, 2010): it keeps each
live bar's chain, one vector per node since its birth, the last vectors
of the live bars forming a basis of the current node, and reduces a bar
only by adding the whole chains of bars of larger key, where a bar born
at node b outside an image has key (0, -b) and one born in a kernel has
key (1, b).  A bar of larger key reaches back at least as far, or was
born in a kernel and is zero before its birth, so every chain stays a
morphism from its interval module and the chains at every node stay a
basis: the final chains of the bars of two or more nodes are the zigzag
blocks of the adapted basis.  Runs end at zero spaces and zero arrows,
so a complex with zero differentials needs no elimination.  The
one-node bars at a node swept as a source span ker del ∩ ker delbar
there, and the lone dots complete inside it the vectors that zigzags
have at that bidegree as a sink.  No random draws are made.  Every step
works on whole sparse blocks: each summand type contributes one matrix
per bidegree, holding the vectors of all its copies, and the adapted
basis at a bidegree is these blocks side by side in canonical part order.
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
    _add_scaled,
    complete_basis,
    image_basis,
    inverse,
    kernel_basis,
    place_blocks,
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


def _unitriangular_inverse(m, upper):
    """The inverse X of a unit triangular matrix M, by substitution.

    X M = I reads column by column as X e_j = e_j - sum over the stored
    M[k][j] with k != j of M[k][j] X e_k.  Those k lie above j when M is
    upper triangular and below it when M is lower, so walking j upwards
    (upper) or downwards (lower) finds every X e_k already built.  No
    pivot is searched and nothing is divided."""
    n = m.rows
    out = [None] * n
    for j in range(n) if upper else range(n - 1, -1, -1):
        col = {j: SC_ONE}
        for k, x in m._data[j].items():
            if k != j:
                _add_scaled(col, -x, out[k])
        out[j] = col
    return Matrix._from_sparse(n, n, out)


def _scramble_factors(spaces, seed):
    """Per bidegree of dimension two or more, in (p, q) order, the unit
    lower and unit upper triangular factors (L, U) of its scramble L U,
    drawn from one generator in that order."""
    rng = random.Random(seed)
    return {bid: (_unitriangular(rng, n, upper=False),
                  _unitriangular(rng, n, upper=True))
            for bid, n in sorted(spaces.items()) if n > 1}


def scramble_matrices(k, seed):
    """Seeded invertible matrix (triangular product) per support bidegree
    of dimension two or more.  A line keeps its basis: its product would
    be exactly 1 and would draw nothing from the generator, so leaving it
    out changes no scrambled complex."""
    return {bid: lower @ upper for bid, (lower, upper)
            in _scramble_factors(k.spaces(), seed).items()}


def _scrambles(spaces, seed):
    """:func:`scramble_matrices` from the dimensions alone, and the
    inverse of each scramble L U, U^-1 L^-1, from its inverted factors."""
    mats, inv = {}, {}
    for bid, (lower, upper) in _scramble_factors(spaces, seed).items():
        mats[bid] = lower @ upper
        inv[bid] = (_unitriangular_inverse(upper, upper=True)
                    @ _unitriangular_inverse(lower, upper=False))
    return mats, inv


def apply_basis_change(k, mats):
    """The same complex written in new bases (columns of ``mats``); a
    bidegree that ``mats`` leaves out keeps its basis."""
    ensure_valid(k)
    for bid, m in mats.items():
        if m.rows != k.dimension(*bid):
            raise LinAlgError(f"basis change at {bid} has {m.rows} rows")
    inv = {bid: inverse(m) for bid, m in mats.items()}
    return Bicomplex(k.spaces(),
                     _rebased(k.del_blocks(), (1, 0), mats, inv),
                     _rebased(k.delbar_blocks(), (0, 1), mats, inv),
                     n=k.n, label=k.label)


def _rebased(blocks, step, mats, inv):
    """Stored blocks (target ``step`` from the source key) in the bases
    ``mats`` with inverses ``inv``.  A basis change keeps zero blocks zero
    and nonzero ones nonzero, so absent blocks need no product."""
    out = {}
    for src in sorted(blocks):
        m, tgt = blocks[src], (src[0] + step[0], src[1] + step[1])
        if src in mats:
            m = m @ mats[src]
        out[src] = inv[tgt] @ m if tgt in inv else m
    return out


def standard_conjugation(parts):
    """Antilinear diagonal-swap matrices for a mirror-closed multiset.

    On the unscrambled synthesized complex, each part's dot at (p, q) is
    sent to the matching dot of its mirror part at (q, p) with
    coefficient +1, except the top corner of a square which carries -1
    (forced by the sign in the square pattern).  The resulting family
    squares to the identity and intertwines the two differentials.
    """
    parts = sort_parts(parts)
    return _conjugation(parts, _pattern(parts), {}, {})


def _conjugation(parts, pattern, mats, inv):
    """:func:`standard_conjugation` of sorted ``parts`` laid out as
    ``pattern``, written in the bases ``mats`` with inverses ``inv``."""
    positions = {}
    for t, part in enumerate(parts):
        positions.setdefault(part, []).append(t)
    partner = {}
    for part, where in positions.items():
        mirrored = positions.get(mirror_part(part), [])
        if len(mirrored) != len(where):
            raise ValueError("part multiset is not closed under mirroring")
        partner.update(zip(where, mirrored))
    columns = {bid: [{} for _ in range(dim)]
               for bid, dim in pattern.spaces.items()}
    for t, part in enumerate(parts):
        top = part.dots[-1] if isinstance(part, Square) else None
        for (p, q) in part.dots:
            columns[(p, q)][pattern.index[(t, (p, q))]][
                pattern.index[(partner[t], (q, p))]] = (
                    SC_MINUS_ONE if (p, q) == top else SC_ONE)
    out = {}
    for (p, q), cols in columns.items():
        c = Matrix._from_sparse(pattern.spaces.get((q, p), 0), len(cols), cols)
        # Mirror bidegrees have equal dimensions: a scramble has both or neither.
        out[(p, q)] = (inv[(q, p)] @ c @ mats[(p, q)].conjugate_entries()
                       if (p, q) in mats else c)
    return out


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
    """Exact check of both decomposition invariants; never raises.

    A block counts as invertible only when its product with
    ``inverse(s)`` is the identity, so the certificate rests on products:
    ``inverse`` only proposes, and a singular block, which it cannot
    invert, is rejected.
    """
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
                    or s.rows != dim or s.cols != dim
                    or s @ inverse(s) != Matrix.identity(dim)):
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
    """The zigzags of two or more dots in ``res``, with their chains.

    ``res`` is a valid complex whose two-step composites all vanish.  Each
    strip is walked in canonical dot order (p, k+1-p), (p, k-p),
    (p+1, k-p), ... and cut into runs at zero spaces and zero arrows,
    which no bar crosses; a zigzag outside the strip meets it only in
    one-node bars.  ``_sweep_run`` finds the bars of each run.  Returns
    ``(chains, cycles)``: ``chains`` maps each zigzag to the chains of its
    copies, one vector per dot, and ``cycles`` maps each node swept as a
    source (degree k in strip k) to the vectors of its one-node bars,
    which span ker del ∩ ker delbar there.
    """
    by_degree = {}
    for (p, q) in res.support():
        by_degree.setdefault(p + q, []).append((p, q))
    dels, delbars = res.del_blocks(), res.delbar_blocks()
    chains, cycles = {}, {}

    def sweep(run, arrows, k):
        cycles.update((d, []) for d in run if sum(d) == k)
        for birth, chain in _sweep_run(res, run, arrows):
            dots = tuple(run[birth:birth + len(chain)])
            if len(dots) > 1:
                chains.setdefault(dots, []).append(chain)
            elif sum(dots[0]) == k:
                cycles[dots[0]].append(chain[0])

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
                sweep(run, arrows, k)
            run, arrows = [(p, q)], []
        if arrows:
            sweep(run, arrows, k)
    return {Zigzag(dots): c for dots, c in chains.items()}, cycles


def _sweep_run(res, nodes, arrows):
    """One left-to-right zigzag-persistence pass over a run of a strip.

    ``arrows[i]`` joins ``nodes[i]`` and ``nodes[i + 1]`` as ``(matrix,
    forward)``: forward maps node i to node i + 1, backward the reverse.
    A bar is ``(birth, chain)``, its chain one vector per node from node
    ``birth`` on; the last vectors of the live bars form a basis of the
    current node.  The live bars are kept in ascending key (the module
    docstring's (0, -b) and (1, b)): births after a forward arrow go
    first, births in a kernel last.  A canonical kernel basis vector is
    zero before its lead, so it changes only the lead bar, by adding the
    chains of bars of larger key (``_combine``).  Every reduction is
    applied to the whole chain, so each chain stays a morphism from its
    interval module.  Returns every bar, its chain ending at its death.
    """
    bars = [(0, [{j: SC_ONE}]) for j in range(res.dimension(*nodes[0]))]
    done = []
    last = len(arrows) - 1
    for i, (arrow, forward) in enumerate(arrows):
        n = len(bars)
        here = Matrix._from_sparse(res.dimension(*nodes[i]), n,
                                   [chain[-1] for _, chain in bars])
        if forward:
            # The lead bar of each kernel vector of f B dies here as that
            # combination, which f sends to zero; the others carry their
            # images on, and a complement of the image is born with the
            # least key of all.
            image = arrow @ here
            kernel = kernel_basis(image).basis._data
            ends = {min(c) for c in kernel}
            done += [_combine(bars, c) for c in kernel]
            live = [(b, chain + [image._data[j]])
                    for j, (b, chain) in enumerate(bars) if j not in ends]
            born = []
            if i < last and len(live) < image.rows:
                born = [(i + 1, [c]) for c in complete_basis(
                    image_basis(image), Subspace.full(image.rows))._data]
            bars = born + live
        else:
            # A kernel vector (x, y) of [B | g] has B x = g(-y).  Leading in
            # B, it marks a bar that survives as the combination x, with
            # -y at the next node; leading in g, y spans ker g, born with
            # the greatest key of all.  The bars at the other columns of B
            # die here as they are.
            ends = set(range(n))
            live, born = [], []
            for c in kernel_basis(here.hstack(arrow)).basis._data:
                lift = {j - n: -x for j, x in c.items() if j >= n}
                if min(c) < n:
                    ends.discard(min(c))
                    birth, chain = _combine(bars, c)
                    live.append((birth, chain + [lift]))
                else:
                    born.append((i + 1, [lift]))
            done += [bars[j] for j in sorted(ends)]
            bars = live + born
    return done + bars


def _combine(bars, c):
    """Bar ``min(c)`` plus ``c[j]`` times bar ``j`` for every other bar
    index ``j`` of ``c``, node by node.  Each such bar has a larger key:
    it reaches back at least as far, or it was born in a kernel and adds
    zero before its birth, so the sum is again a morphism from the lead
    bar's interval module."""
    lead = min(c)
    birth, chain = bars[lead]
    terms = [(bars[j], x) for j, x in c.items() if lead < j < len(bars)]
    if not terms:
        return birth, chain
    out = []
    for t, v in enumerate(chain, start=birth):
        v = dict(v)
        for (b, other), x in terms:
            if b <= t:
                _add_scaled(v, x, other[t - b])
        out.append(v)
    return birth, out


def decompose(k):
    """Split a valid bounded complex into squares and zigzags.

    Phase one splits off every square in one pass, in input coordinates:
    at each anchor the anchor vectors are the canonical complement of
    ker(del delbar), taken from the complex's cohomology store, and the
    residual is the common kernel of the functionals reading the square
    corners back, wrapped as a Bicomplex.  Phase two finds the zigzags of
    the residual with one zigzag-persistence sweep per anti-diagonal
    strip (``_strip_zigzags``), whose final chains are their adapted
    basis; the lone dots at each residual bidegree complete its sink-role
    vectors inside ker del ∩ ker delbar.  Each square anchor and each
    zigzag type yields one block per bidegree it touches (anchors, their
    del, delbar and delbar-del images; the chain vectors at each dot), and
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

        def rebased(blocks, step):
            # The stored blocks restricted to the residual.  An absent
            # block stays zero, and a block that the restriction makes
            # zero is dropped before its solve.
            out = {}
            for src in sorted(blocks):
                m, tgt = blocks[src], (src[0] + step[0], src[1] + step[1])
                if src in embed:
                    m = m @ embed[src]
                if not m.is_zero():
                    out[src] = solve(embed[tgt], m) if tgt in embed else m
            return out

        res = Bicomplex(
            {bid: embed[bid].cols if bid in embed else k.dimension(*bid)
             for bid in support},
            rebased(k.del_blocks(), (1, 0)),
            rebased(k.delbar_blocks(), (0, 1)))
        for (p, q) in res.support():
            if not (res.del_map(p, q + 1) @ res.delbar_map(p, q)).is_zero():
                raise DecompositionError(
                    "square splitting left a nonzero two-step composite")

        # ---- Phase two: the zigzags, one sweep per strip. ----
        # A copy's chain is its vector at each dot.  A sink-role vector is
        # an image, so it lies in ker del ∩ ker delbar: the span of the
        # one-node bars at a node swept as a source, the whole space at any
        # other.  The lone dots complete the sink-role vectors there.
        def block(bid, cols):
            return Matrix._from_sparse(res.dimension(*bid), len(cols), cols)

        def in_input(blocks):
            return {bid: embed[bid] @ b if bid in embed else b
                    for bid, b in blocks.items()}

        chains, cycles = _strip_zigzags(res)
        sinks = {}
        for z, copies in chains.items():
            blocks = {}
            for i, (d, role) in enumerate(zip(z.dots, z.roles())):
                blocks[d] = block(d, [c[i] for c in copies])
                if role == "sink":
                    sinks.setdefault(d, []).extend(c[i] for c in copies)
            types.append((z, len(copies), in_input(blocks)))
        for bid in res.support():
            outer = (image_basis(block(bid, cycles[bid])) if bid in cycles
                     else Subspace.full(res.dimension(*bid)))
            lone = complete_basis(
                image_basis(block(bid, sinks.get(bid, []))), outer)
            if lone.cols:
                types.append((Zigzag((bid,)), lone.cols,
                              in_input({bid: lone})))
    except LinAlgError as exc:
        raise DecompositionError(
            f"decomposition failed at exact arithmetic: {exc}") from exc

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
