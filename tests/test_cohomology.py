"""Tests for the cohomology tables, spectral pages, and natural-map ranks.

Oracle strategy: the helpers at the top recompute every dimension through
classical rank formulas (dim ker = cols - rank, quotient dim = z - b,
intersections/sums via stacked and concatenated matrices), written before
the implementation, which now counts its tables from block ranks too.  The
cross-checks against a different derivation build their own subspaces
(``reference_subspaces``) and their own totalization
(``reference_total``, which never calls ``totalize``): each table must
equal dim cocycles - dim coboundaries over them, each natural map the
elimination rule dim((Z + B) / B) of ``reference_natural_maps``, and the
Frolicher pages, counted from the filtration gaps of the pivot pairs of
d, the preimage/intersection chase of ``reference_frolicher_pages``, and
the pairing check's Gram ranks, read off the Bott-Chern to Aeppli map,
the Gram matrices of the Bott-Chern representatives of
``reference_representatives`` (``reference_gram_ranks``).

Hand-derived frozen values used below:

* Vertical two-dot string (arrow (0,0)->(0,1)): the vertical map is an
  isomorphism, so Dolbeault and de Rham vanish; the horizontal theory sees
  both dots; Aeppli keeps the bottom dot, Bott-Chern the top one.
* Three-dot staircase (0,1) ->del (1,1) <-delbar (1,0): degree-1 space is
  2-dim, degree-2 is 1-dim, total differential has rank 1, so de Rham is
  1 in degree 1 and 0 in degree 2.
* Six-dim comparison pair: complex A = two lone dots at (1,2), (2,1);
  complex B = a V-shape with sink (2,2) stacked with a wedge with source
  (1,1).  Row reduction by hand gives identical Dolbeault/de Rham tables
  (1 at (1,2), 1 at (2,1); Betti 2 in degree 3) but different Bott-Chern
  tables: B has an extra class at (2,2) where A has none, and Aeppli
  mirrors this at (1,1).
* Iwasawa model: the only non-closed generator satisfies d w3 = -w1^w2,
  so at (1,0) the horizontal kernel is spanned by w1, w2 and nothing is
  divided out: Bott-Chern is 2 there, and by conjugation 2 at (0,1).
"""

import functools
import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import fields, is_dataclass

import pytest

from bicomplex_lab import checkers, clio, cohomology, exactla
from bicomplex_lab.bicomplex import (Bicomplex, _d_staircases, _staircase,
                                     totalize)
from bicomplex_lab.checkers import run_all_checks
from bicomplex_lab.clio import PRESETS
from bicomplex_lab.cohomology import (
    BIGRADED_THEORIES,
    THEORIES,
    CohomologyTable,
    FrolicherPages,
    NaturalMapRanks,
    aeppli,
    all_tables,
    bott_chern,
    conj_dolbeault,
    de_rham,
    dolbeault,
    frolicher_pages,
    natural_maps,
)
from bicomplex_lab.exactla import (
    LinAlgError,
    Matrix,
    Subspace,
    complete_basis,
    image_basis,
    kernel_basis,
    place_blocks,
    preimage,
    quotient_dim,
    rank,
    scalar,
    subspace_intersect,
    subspace_sum,
)
from bicomplex_lab.models import (
    from_structure_equations,
    iwasawa,
    kodaira_surface,
    parse_structure_text,
    random_bicomplex,
    torus,
)
from bicomplex_lab.zigzag import (Square, Zigzag, apply_basis_change,
                                  decompose, scramble_matrices, synthesize)
from test_checkers import zigzags_in_box


# --------------------------------------------------------------------------
# Rank-formula oracles (written before the implementation under test).
# --------------------------------------------------------------------------

def reference_total(k):
    """The totalization by the placement loop the library no longer runs:
    within each degree the bidegree blocks sit at ascending-p offsets.
    Returns the dimension per degree over the support's contiguous range,
    the offsets per degree (bidegree -> first coordinate) and d per
    degree, omitted where either side is zero."""
    if not k.support():
        return {}, {}, {}
    by_degree = {}
    for (p, q) in k.support():
        by_degree.setdefault(p + q, []).append((p, q))
    lo, hi = min(by_degree), max(by_degree)
    dims, offsets = {}, {}
    for deg in range(lo, hi + 1):
        offs, at = {}, 0
        for (p, q) in sorted(by_degree.get(deg, [])):
            offs[(p, q)] = at
            at += k.dimension(p, q)
        dims[deg], offsets[deg] = at, offs
    differentials = {}
    for deg in range(lo, hi):
        if not dims[deg] or not dims[deg + 1]:
            continue
        targets = offsets[deg + 1]
        blocks = [(targets[tgt], off, block)
                  for (p, q), off in offsets[deg].items()
                  for tgt, block in (((p + 1, q), k.del_map(p, q)),
                                     ((p, q + 1), k.delbar_map(p, q)))
                  if tgt in targets]
        differentials[deg] = place_blocks(dims[deg + 1], dims[deg], blocks)
    return dims, offsets, differentials


def reference_d(k):
    """d out of every degree, as :func:`reference_total` places it, and
    the dimension per degree."""
    dims, _, differentials = reference_total(k)

    def d(deg):
        m = differentials.get(deg)
        if m is None:
            m = Matrix.zero(dims.get(deg + 1, 0), dims.get(deg, 0))
        return m

    return d, dims


def oracle_betti(k):
    d, dims = reference_d(k)
    return {deg: dim - rank(d(deg)) - rank(d(deg - 1))
            for deg, dim in dims.items()}


def oracle_dolbeault(k):
    return {(p, q): k.dimension(p, q) - rank(k.delbar_map(p, q))
            - rank(k.delbar_map(p, q - 1))
            for (p, q) in k.support()}


def oracle_conj_dolbeault(k):
    return {(p, q): k.dimension(p, q) - rank(k.del_map(p, q))
            - rank(k.del_map(p - 1, q))
            for (p, q) in k.support()}


def _stacked(a, b):
    return Matrix.from_rows(a.to_rows() + b.to_rows(),
                            rows=a.rows + b.rows, cols=a.cols)


def oracle_bott_chern(k):
    out = {}
    for (p, q) in k.support():
        closed = k.dimension(p, q) - rank(_stacked(k.del_map(p, q),
                                                   k.delbar_map(p, q)))
        exact = rank(k.del_map(p - 1, q) @ k.delbar_map(p - 1, q - 1))
        out[(p, q)] = closed - exact
    return out


def oracle_aeppli(k):
    out = {}
    for (p, q) in k.support():
        closed = k.dimension(p, q) - rank(k.del_map(p, q + 1)
                                          @ k.delbar_map(p, q))
        exact = rank(k.del_map(p - 1, q).hstack(k.delbar_map(p, q - 1)))
        out[(p, q)] = closed - exact
    return out


ORACLES = {
    "dolbeault": oracle_dolbeault,
    "conj_dolbeault": oracle_conj_dolbeault,
    "bott_chern": oracle_bott_chern,
    "aeppli": oracle_aeppli,
}
TABLES = {
    "dolbeault": dolbeault,
    "conj_dolbeault": conj_dolbeault,
    "bott_chern": bott_chern,
    "aeppli": aeppli,
}


# --------------------------------------------------------------------------
# Hand-built complexes.
# --------------------------------------------------------------------------

def build(spaces, del_entries=None, delbar_entries=None, **kw):
    def blocks(entries, dp, dq):
        out = {}
        for (p, q), rows in (entries or {}).items():
            out[(p, q)] = Matrix.from_rows(
                [[scalar(x) for x in row] for row in rows],
                rows=spaces.get((p + dp, q + dq), 0), cols=spaces[(p, q)])
        return out
    return Bicomplex(spaces, blocks(del_entries, 1, 0),
                     blocks(delbar_entries, 0, 1), **kw)


def dot(p, q):
    return build({(p, q): 1})


def vertical_two_dots():
    return build({(0, 0): 1, (0, 1): 1}, delbar_entries={(0, 0): [[1]]})


def horizontal_two_dots():
    return build({(0, 0): 1, (1, 0): 1}, del_entries={(0, 0): [[1]]})


def staircase_three_dots():
    return build({(0, 1): 1, (1, 1): 1, (1, 0): 1},
                 del_entries={(0, 1): [[1]]},
                 delbar_entries={(1, 0): [[1]]})


def square_complex():
    return build({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                 del_entries={(0, 0): [[1]], (0, 1): [[-1]]},
                 delbar_entries={(0, 0): [[1]], (1, 0): [[1]]})


def diagram_a():
    return build({(1, 2): 1, (2, 1): 1})


def diagram_b():
    # Basis order per bidegree: V-shape copy first, wedge copy second.
    return build({(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1},
                 del_entries={(1, 2): [[1, 0]], (1, 1): [[0], [1]]},
                 delbar_entries={(2, 1): [[1, 0]], (1, 1): [[0], [1]]})


def nonzero(dims):
    return {key: d for key, d in dims.items() if d}


EXAMPLES = [dot(1, 2), vertical_two_dots(), horizontal_two_dots(),
            staircase_three_dots(), square_complex(), diagram_a(),
            diagram_b(), torus(2), iwasawa(), kodaira_surface()]


def nil4():
    return from_structure_equations(parse_structure_text(
        "n = 4\nd w3 = -1* w1^w2\nd w4 = w1^cw1\n"))


def nil5():
    return from_structure_equations(parse_structure_text(
        "n = 5\nd w3 = -1* w1^w2\nd w4 = w1^cw1\nd w5 = w1^w3\n"))


def nil6():
    return from_structure_equations(parse_structure_text(
        "n = 6\nd w3 = -1* w1^w2\nd w4 = w1^cw1\nd w5 = w1^w3\n"
        "d w6 = w1^w4\n"))


# --------------------------------------------------------------------------
# Reference page loop: the subspace chase the library no longer runs.
# --------------------------------------------------------------------------

def _map_image(m, sub):
    """Image of a subspace under a linear map (zero space for None)."""
    if sub is None:
        return Subspace.zero(m.rows)
    return image_basis(m @ sub.basis)


def reference_frolicher_pages(k):
    """The page chase, every chain and page entry recomputed on every page
    over Dolbeault pairs of its own: page r is the Dolbeault cocycles
    whose del extends along a length-r staircase, modulo the images of
    staircase boundaries.  It stops once neither chain moves."""
    support = k.support()
    if not support:
        return FrolicherPages(pages={1: {}})
    dol = {(p, q): (kernel_basis(k.delbar_map(p, q)),
                    image_basis(k.delbar_map(p, q - 1)))
           for (p, q) in support}
    p_values = [p for p, _ in support]
    hard_stop = max(p_values) - min(p_values) + 1
    extendable = {bid: Subspace.full(k.dimension(*bid)) for bid in support}
    absorbable = {bid: Subspace.zero(k.dimension(*bid)) for bid in support}
    dims_per_page = []
    for r in range(1, hard_stop + 1):
        dims = {}
        for (p, q) in support:
            z_dol, b = dol[(p, q)]
            z = subspace_intersect(z_dol, extendable[(p, q)])
            boundary_src = absorbable.get((p - 1, q))
            if boundary_src is not None and boundary_src.dim:
                b = subspace_sum(
                    b, _map_image(k.del_map(p - 1, q), boundary_src))
            dims[(p, q)] = quotient_dim(z, b)
        dims_per_page.append(dims)
        if r == hard_stop:
            break
        chains = (extendable, absorbable)
        extendable = {
            (p, q): preimage(
                k.del_map(p, q),
                _map_image(k.delbar_map(p + 1, q - 1),
                           extendable.get((p + 1, q - 1))))
            for (p, q) in support}
        absorbable = {
            (p, q): preimage(
                k.delbar_map(p, q),
                _map_image(k.del_map(p - 1, q + 1),
                           absorbable.get((p - 1, q + 1))))
            for (p, q) in support}
        if (extendable, absorbable) == chains:
            break
    e_infinity = dims_per_page[-1]
    r_stab = next(r for r, dims in enumerate(dims_per_page, start=1)
                  if dims == e_infinity)
    pages = {r: dims_per_page[r - 1] for r in range(1, r_stab + 1)}
    return FrolicherPages(pages=pages)


# --------------------------------------------------------------------------
# Reference subspaces: the kernels and images the tables no longer build.
# --------------------------------------------------------------------------

# Each theory's (cocycles, coboundaries), as names of reference subspaces.
REFERENCE_PAIRS = {
    "de_rham": ("ker_d", "im_d"),
    "dolbeault": ("ker_delbar", "im_delbar"),
    "conj_dolbeault": ("ker_del", "im_del"),
    "bott_chern": ("bc_cocycles", "im_ddbar"),
    "aeppli": ("ker_ddbar", "aeppli_coboundaries"),
}


def reference_subspaces(k):
    """A function (name, key) -> subspace of ``k``, each built once:
    "ker_*" are kernels out of the key, "im_*" images landing in it, per
    total degree for d (over :func:`reference_total`) and per bidegree
    otherwise.  The Bott-Chern cocycles are one kernel of [del; delbar]
    and the Aeppli coboundaries one echelon of [del | delbar]."""
    d, _ = reference_d(k)

    def ddbar(p, q):
        return k.del_map(p, q + 1) @ k.delbar_map(p, q)

    builders = {
        "ker_d": lambda deg: kernel_basis(d(deg)),
        "im_d": lambda deg: image_basis(d(deg - 1)),
        "ker_del": lambda bid: kernel_basis(k.del_map(*bid)),
        "ker_delbar": lambda bid: kernel_basis(k.delbar_map(*bid)),
        "ker_ddbar": lambda bid: kernel_basis(ddbar(*bid)),
        "bc_cocycles": lambda bid: kernel_basis(
            _stacked(k.del_map(*bid), k.delbar_map(*bid))),
        "im_del": lambda bid: image_basis(k.del_map(bid[0] - 1, bid[1])),
        "im_delbar": lambda bid: image_basis(
            k.delbar_map(bid[0], bid[1] - 1)),
        "im_ddbar": lambda bid: image_basis(ddbar(bid[0] - 1, bid[1] - 1)),
        "aeppli_coboundaries": lambda bid: image_basis(
            k.del_map(bid[0] - 1, bid[1]).hstack(
                k.delbar_map(bid[0], bid[1] - 1))),
    }

    @functools.cache
    def subspace(name, key):
        return builders[name](key)

    return subspace


def reference_pairs(k, theory, subspace):
    """Per key of the theory's table, its (cocycles, coboundaries) pair,
    from ``subspace`` of :func:`reference_subspaces`."""
    cocycles, coboundaries = REFERENCE_PAIRS[theory]
    keys = reference_total(k)[0] if theory == "de_rham" else k.support()
    return {key: (subspace(cocycles, key), subspace(coboundaries, key))
            for key in keys}


# --------------------------------------------------------------------------
# Reference Bott-Chern representatives and Gram ranks: the construction the
# pairing check ran before it read its Gram ranks off the Bott-Chern to
# Aeppli map.
# --------------------------------------------------------------------------

def reference_representatives(k, subspace=None):
    """Per support bidegree, the columns of the reference Bott-Chern
    cocycles' reduced echelon basis that complete the reference
    im del delbar: a canonical subspace of cocycles projecting to a basis
    of the Bott-Chern cohomology there."""
    subspace = subspace or reference_subspaces(k)
    reps = {}
    for bid in k.support():
        cocycles = subspace("bc_cocycles", bid)
        basis = complete_basis(subspace("im_ddbar", bid), cocycles)
        reps[bid] = Subspace(cocycles.ambient_dim, basis)
    return reps


def reference_gram_ranks(k):
    """Per (p, q) in [0, n]^2, keyed as the check keys it, the rank of the
    Gram matrix (P L)^T R, with L and R the reference representatives at
    (p, q) and (n-p, n-q) and P the pairing block at (p, q); and the
    bidegrees where (P L)^T does not kill im del delbar at (n-p, n-q),
    which a Stokes pairing leaves empty."""
    n = k.n
    subspace = reference_subspaces(k)
    reps = reference_representatives(k, subspace)

    def basis(bid):
        return reps[bid].basis if bid in reps else Matrix.zero(0, 0)

    ranks, ill_defined = {}, []
    for p in range(n + 1):
        for q in range(n + 1):
            bid, comp = (p, q), (n - p, n - q)
            left = (k.pairings[bid] @ basis(bid)).transpose()
            exact = (subspace("im_ddbar", comp).basis if comp in reps
                     else Matrix.zero(0, 0))
            if not (left @ exact).is_zero():
                ill_defined.append(bid)
            ranks[str(bid)] = rank(left @ basis(comp))
    return ranks, ill_defined


# --------------------------------------------------------------------------
# Reference natural maps: the elimination rule, on reference subspaces.
# --------------------------------------------------------------------------

def reference_natural_maps(k):
    """Every natural map's rank as dim((Z + B) / B), with Z the source
    cocycles and B the target coboundaries, echeloned as subspaces.  A
    map through de Rham first places the pieces of its bigraded end at
    their offsets in total-space coordinates."""
    dims, offsets, _ = reference_total(k)
    subspace = reference_subspaces(k)

    def side(name, deg):
        if name in ("ker_d", "im_d"):
            return subspace(name, deg)
        blocks = []
        cols = 0
        for bid, offset in sorted(offsets[deg].items()):
            basis = subspace(name, bid).basis
            blocks.append((offset, cols, basis))
            cols += basis.cols
        return Subspace(dims[deg], place_blocks(dims[deg], cols, blocks))

    ranks = {}
    for field in fields(NaturalMapRanks):
        source, target = field.name.split("_to_")
        cocycles = REFERENCE_PAIRS[source][0]
        coboundaries = REFERENCE_PAIRS[target][1]
        if "de_rham" in (source, target):
            pairs = {deg: (side(cocycles, deg), side(coboundaries, deg))
                     for deg in dims}
        else:
            pairs = {bid: (subspace(cocycles, bid),
                           subspace(coboundaries, bid))
                     for bid in k.support()}
        ranks[field.name] = {key: subspace_sum(z, b).dim - b.dim
                             for key, (z, b) in pairs.items()}
    return NaturalMapRanks(**ranks)


# --------------------------------------------------------------------------
# Implementation vs oracle, on everything.
# --------------------------------------------------------------------------

class TestAgainstOracles:
    @pytest.mark.parametrize("theory", sorted(ORACLES))
    def test_bigraded_dims_match_rank_formulas(self, theory):
        for k in EXAMPLES:
            assert TABLES[theory](k).dims == ORACLES[theory](k), k.label

    def test_de_rham_dims_match_rank_formulas(self):
        for k in EXAMPLES:
            assert de_rham(k).dims == oracle_betti(k), k.label

    def test_euler_characteristic(self):
        for k in EXAMPLES:
            total = sum((-1) ** (p + q) * k.dimension(p, q)
                        for (p, q) in k.support())
            betti = de_rham(k).dims
            assert sum((-1) ** deg * d for deg, d in betti.items()) == total


def _scrambled(part, seed):
    k = synthesize([part])
    return apply_basis_change(k, scramble_matrices(k, seed))


def scrambled_singles():
    """Scrambled as the ddbar-Lemma tests scramble them, a square, a dot
    and every zigzag of 2 to 5 dots in [0, 3]^2, with their labels."""
    singles = [Square((1, 1)), Zigzag(((2, 0),))] \
        + zigzags_in_box(3, range(2, 6))
    return [(repr(part), lambda part=part, seed=seed: _scrambled(part, seed))
            for seed, part in enumerate(singles)]


def rank_nullity_inputs():
    """Every preset, nil4, nil5, random complexes (seeds 0-99, plain and
    symmetric) and the scrambled singles."""
    inputs = [(name, make) for name, make in sorted(PRESETS.items())]
    inputs += [("nil4", nil4), ("nil5", nil5)]
    for symmetric in (False, True):
        inputs += [(f"random-{seed}-{symmetric}",
                    lambda seed=seed, symmetric=symmetric: random_bicomplex(
                        seed, symmetric=symmetric).bicomplex)
                   for seed in range(100)]
    return inputs + scrambled_singles()


class TestTablesFromKernelRanks:
    """Tables are counted from block and staircase ranks (see the
    cohomology module); they must agree with the reference subspaces,
    whose Aeppli coboundaries are one echelon of [del | delbar]."""

    def test_tables_equal_pair_dimensions(self):
        for label, make in rank_nullity_inputs():
            k = make()
            subspace = reference_subspaces(k)
            for theory in THEORIES:
                pairs = reference_pairs(k, theory, subspace)
                assert cohomology._table(k, theory).dims == {
                    key: z.dim - b.dim for key, (z, b) in pairs.items()}, \
                    (label, theory)

    def test_aeppli_coboundaries_are_the_sum_of_images(self):
        for label, make in rank_nullity_inputs():
            k = make()
            subspace = reference_subspaces(k)
            for bid in k.support():
                assert subspace("aeppli_coboundaries", bid) == subspace_sum(
                    subspace("im_del", bid), subspace("im_delbar", bid)), \
                    (label, bid)


class TestTotalDegrees:
    """``totalize`` and the ranks of d come from the staircase builder;
    the reference placement loop is the independent witness."""

    def test_differentials_equal_the_reference_placement(self):
        for label, make in rank_nullity_inputs():
            k = make()
            dims, _, differentials = reference_total(k)
            t = totalize(k)
            assert t.dims == dims, label
            assert t.differentials == differentials, label

    def test_totals_do_not_depend_on_key_order(self):
        """A table built by hand in reverse (p, q) order sums to the same
        totals as the table the package builds."""
        for k in (iwasawa(), kodaira_surface(), nil4(),
                  Bicomplex({(0, 3): 1, (1, 0): 2, (2, 0): 1}, {}, {})):
            for theory in BIGRADED_THEORIES:
                table = TABLES[theory](k)
                backwards = CohomologyTable(
                    theory, dict(reversed(list(table.dims.items()))))
                assert list(backwards.dims) != list(table.dims)
                assert backwards.totals() == table.totals(), theory

    def test_gap_degrees_keep_de_rham_keys(self):
        """A degree between two support degrees holds nothing, yet de Rham
        keys it with 0, as the totalization does."""
        k = Bicomplex({(0, 0): 1, (2, 0): 1}, {}, {})
        assert de_rham(k).dims == {0: 1, 1: 0, 2: 1}


class TestMapsFromBlockRanks:
    """Every natural map's rank is dim - rk S - rk A + rk(S A), counted from
    block ranks; the elimination rule of ``reference_natural_maps`` is the
    independent witness."""

    def test_maps_equal_the_elimination_rule(self):
        for label, make in rank_nullity_inputs():
            k = make()
            ranks = natural_maps(k)
            assert ranks == reference_natural_maps(k), label

    def test_maps_build_no_subspace(self):
        k = nil4()
        natural_maps(k)
        assert not any(isinstance(v, Subspace) for v in k._store.values())


def bounded_rank_inputs():
    """Random complexes (seeds 0-299 plain, 0-99 symmetric), every preset
    and nil4-nil6."""
    inputs = [(name, make) for name, make in sorted(PRESETS.items())]
    inputs += [("nil4", nil4), ("nil5", nil5), ("nil6", nil6)]
    for symmetric, seeds in ((False, 300), (True, 100)):
        inputs += [(f"random-{seed}-{symmetric}",
                    lambda seed=seed, symmetric=symmetric: random_bicomplex(
                        seed, symmetric=symmetric).bicomplex)
                   for seed in range(seeds)]
    return inputs


def eliminated(m):
    """The rank of ``m`` as the number of pivots of the forward pass, with
    no bound and no shortcut."""
    return len(exactla._forward(m._data))


class TestRanksFromBounds:
    """``_block_ranks`` and ``_d_ranks`` take a rank from exact bounds
    where the bounds meet, without building its matrix; the elimination of
    the matrix each entry stands for is the witness."""

    def test_every_rank_equals_the_elimination_of_its_matrix(self):
        for label, make in bounded_rank_inputs():
            k = make()
            ranks = cohomology._block_ranks(k)
            d_ranks = cohomology._d_ranks(k)
            support = k.support()
            assert set(ranks["stack"]) == set(ranks["join"]) == set(support)
            for bid in support:
                p, q = bid
                assert ranks["ddbar"].get(bid, 0) == eliminated(
                    k.del_map(p, q + 1) @ k.delbar_map(p, q)), (label, bid)
                assert ranks["stack"][bid] == eliminated(
                    cohomology._stack(k, bid)), (label, bid)
                assert ranks["join"][bid] == eliminated(
                    k.del_map(p - 1, q).hstack(k.delbar_map(p, q - 1))), \
                    (label, bid)
            staircases = _d_staircases(k)
            assert set(d_ranks) == set(staircases), label
            for deg, key in staircases.items():
                assert d_ranks[deg] == eliminated(_staircase(k, *key)), \
                    (label, deg)

    def test_check_path_eliminations_are_pinned(self, monkeypatch):
        """run_all_checks on random complexes 0-99 enters the forward pass
        110 times.  It entered it 1301 times when every stack, join,
        del delbar and d staircase was eliminated and a matrix with one
        row or one column was too."""
        complexes = [random_bicomplex(seed).bicomplex for seed in range(100)]
        calls = []
        forward = exactla._forward

        def counted(columns):
            calls.append(len(columns))
            return forward(columns)

        monkeypatch.setattr(exactla, "_forward", counted)
        for k in complexes:
            run_all_checks(k)
        assert len(calls) == 110


def nakamura():
    """The n = 3 model of Nakamura type; its pairing is certified."""
    return from_structure_equations(parse_structure_text(
        "n = 3\nd w2 = -1* w1^w2\nd w3 = w1^w3\n"))


class TestRepresentatives:
    """The reference Bott-Chern representatives, which the package no
    longer builds, against the reference subspaces they come from."""

    @pytest.mark.parametrize("theory", ["bott_chern"])
    def test_representatives_are_cocycles_spanning_the_quotient(self, theory):
        for k in EXAMPLES:
            table = TABLES[theory](k)
            subspace = reference_subspaces(k)
            table_reps = reference_representatives(k, subspace)
            assert table_reps.keys() == table.dims.keys()
            for bid, reps in table_reps.items():
                cocycles, coboundaries = (
                    subspace(name, bid) for name in REFERENCE_PAIRS[theory])
                assert reps.dim == table.dims[bid]
                assert subspace_intersect(reps, cocycles) == reps
                assert subspace_sum(reps, coboundaries) == cocycles

    @pytest.mark.parametrize("theory", ["bott_chern"])
    def test_representatives_are_canonical(self, theory):
        for k in EXAMPLES:
            subspace = reference_subspaces(k)
            for bid, rep in reference_representatives(k, subspace).items():
                cocycles = subspace(REFERENCE_PAIRS[theory][0], bid)
                assert rep == Subspace.from_columns(rep.ambient_dim, rep.basis)
                assert all(column in cocycles.basis.columns()
                           for column in rep.basis.columns())

    def test_representatives_meet_boundaries_trivially(self):
        k = iwasawa()
        table = bott_chern(k)
        table_reps = reference_representatives(k)
        assert table_reps.keys() == table.dims.keys()
        for (p, q), reps in table_reps.items():
            exact = image_basis(k.del_map(p - 1, q)
                                @ k.delbar_map(p - 1, q - 1))
            assert subspace_intersect(reps, exact).dim == 0


class TestGramRanks:
    """The pairing check reads each Gram rank off the Bott-Chern to Aeppli
    map at the complementary bidegree; the Gram matrix of the reference
    representatives is the independent witness."""

    @pytest.mark.parametrize("make", [
        lambda: torus(1), lambda: torus(2), lambda: torus(3),
        lambda: torus(4), iwasawa, kodaira_surface, nil4, nil5, nakamura],
        ids=["torus1", "torus2", "torus3", "torus4", "iwasawa", "kodaira",
             "nil4", "nil5", "nakamura"])
    def test_gram_ranks_equal_the_representatives_oracle(self, make):
        k = make()
        rep = checkers.schweitzer_pairing_check(k)
        assert rep.verdict == "holds"
        ranks, ill_defined = reference_gram_ranks(k)
        assert rep.witnesses["GramRank"] == ranks
        assert ill_defined == rep.witnesses["IllDefined"] == []


# --------------------------------------------------------------------------
# Frozen values.
# --------------------------------------------------------------------------

class TestSmallComplexes:
    def test_dot_has_one_class_everywhere(self):
        k = dot(1, 2)
        for theory in BIGRADED_THEORIES:
            assert TABLES[theory](k).dims == {(1, 2): 1}
        assert de_rham(k).dims == {3: 1}

    def test_vertical_two_dots(self):
        k = vertical_two_dots()
        assert nonzero(dolbeault(k).dims) == {}
        assert conj_dolbeault(k).dims == {(0, 0): 1, (0, 1): 1}
        assert aeppli(k).dims == {(0, 0): 1, (0, 1): 0}
        assert bott_chern(k).dims == {(0, 0): 0, (0, 1): 1}
        assert nonzero(de_rham(k).dims) == {}

    def test_staircase_de_rham_sits_in_lower_degree(self):
        assert de_rham(staircase_three_dots()).dims == {1: 1, 2: 0}

    def test_square_has_no_cohomology_at_all(self):
        k = square_complex()
        for theory in BIGRADED_THEORIES:
            assert nonzero(TABLES[theory](k).dims) == {}
        assert nonzero(de_rham(k).dims) == {}

    def test_comparison_pair_agrees_except_bott_chern_aeppli(self):
        a, b = diagram_a(), diagram_b()
        assert nonzero(dolbeault(a).dims) == nonzero(dolbeault(b).dims) \
            == {(1, 2): 1, (2, 1): 1}
        assert nonzero(conj_dolbeault(a).dims) \
            == nonzero(conj_dolbeault(b).dims)
        assert nonzero(de_rham(a).dims) == nonzero(de_rham(b).dims) \
            == {3: 2}
        assert bott_chern(b).dims[(2, 2)] == 1
        assert bott_chern(a).dims.get((2, 2), 0) == 0
        assert nonzero(bott_chern(b).dims) \
            == {(1, 2): 1, (2, 1): 1, (2, 2): 1}
        assert nonzero(aeppli(b).dims) == {(1, 1): 1, (1, 2): 1, (2, 1): 1}


class TestStructureModels:
    def test_torus_tables_are_binomial(self):
        n = 2
        k = torus(n)
        expected = {(p, q): math.comb(n, p) * math.comb(n, q)
                    for p in range(n + 1) for q in range(n + 1)}
        for theory in BIGRADED_THEORIES:
            assert TABLES[theory](k).dims == expected
        assert de_rham(k).dims == {deg: math.comb(2 * n, deg)
                                   for deg in range(2 * n + 1)}

    def test_iwasawa_dolbeault_corner_values(self):
        dims = dolbeault(iwasawa()).dims
        assert dims[(1, 0)] == 3
        assert dims[(0, 1)] == 2
        assert dims[(1, 0)] + dims[(0, 1)] == 5

    def test_iwasawa_bott_chern_degree_one(self):
        dims = bott_chern(iwasawa()).dims
        assert dims[(1, 0)] == 2 and dims[(0, 1)] == 2

    def test_iwasawa_aeppli_degree_one(self):
        dims = aeppli(iwasawa()).dims
        assert dims[(1, 0)] == 3 and dims[(0, 1)] == 3

    def test_iwasawa_betti_vector(self):
        betti = de_rham(iwasawa()).dims
        assert [betti[deg] for deg in range(7)] == [1, 4, 8, 10, 8, 4, 1]

    def test_kodaira_betti_vector(self):
        betti = de_rham(kodaira_surface()).dims
        assert [betti[deg] for deg in range(5)] == [1, 3, 4, 3, 1]

    @pytest.mark.parametrize("preset", [iwasawa, kodaira_surface])
    def test_serre_type_symmetry(self, preset):
        k = preset()
        n = k.n
        dims = dolbeault(k).dims
        assert all(dims[(p, q)] == dims[(n - p, n - q)] for (p, q) in dims)
        betti = de_rham(k).dims
        assert all(betti[deg] == betti[2 * n - deg] for deg in betti)

    @pytest.mark.parametrize("preset", [torus(2), iwasawa(),
                                        kodaira_surface()])
    def test_conjugation_symmetry(self, preset):
        dol = dolbeault(preset).dims
        conj = conj_dolbeault(preset).dims
        assert all(dol[(p, q)] == conj[(q, p)] for (p, q) in dol)
        for theory in ("bott_chern", "aeppli"):
            dims = TABLES[theory](preset).dims
            assert all(dims[(p, q)] == dims[(q, p)] for (p, q) in dims)


LADDER_DIGEST = ("dd2f74cdaf58cc3670883d1ef63f98a2"
                 "f0f9ff053f405a1bb9dc940de39cbd95")


def _plain(obj):
    """Dataclasses as dicts and tuple keys as "p,q", for ``json.dumps``."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {",".join(map(str, key)) if isinstance(key, tuple)
                else str(key): _plain(value) for key, value in obj.items()}
    return obj


def test_ladder_outputs_are_pinned():
    """SHA-256 over the JSON of ``all_tables`` (the five tables, the
    Frolicher pages and the natural-map ranks) and of ``run_all_checks``,
    each on a fresh nil5 (dim 1024) and nil6 (dim 4096): the large blocks
    that no preset reaches."""
    h = hashlib.sha256()
    for make in (nil5, nil6):
        outputs = {"all_tables": _plain(all_tables(make())),
                   "run_all_checks": [report.to_json_dict()
                                      for report in run_all_checks(make())]}
        h.update(json.dumps(outputs, sort_keys=True).encode())
    assert h.hexdigest() == LADDER_DIGEST


@pytest.fixture(scope="module")
def page_inputs():
    inputs = [*EXAMPLES, nil4(), nil5()]
    inputs += [make() for _, make in scrambled_singles()]
    inputs += [random_bicomplex(seed)[0] for seed in range(300)]
    inputs += [random_bicomplex(seed, symmetric=True)[0]
               for seed in range(100)]
    return inputs


class TestFrolicherPages:
    def test_torus_stabilizes_immediately(self):
        pages = frolicher_pages(torus(2))
        assert pages.r_stab == 1
        assert pages.pages == {1: dolbeault(torus(2)).dims}
        assert pages.e_infinity == dolbeault(torus(2)).dims

    def test_vertical_two_dots_vanishes_on_page_one(self):
        pages = frolicher_pages(vertical_two_dots())
        assert pages.r_stab == 1
        assert nonzero(pages.e_infinity) == {}

    def test_horizontal_two_dots_needs_page_two(self):
        pages = frolicher_pages(horizontal_two_dots())
        assert pages.pages[1] == {(0, 0): 1, (1, 0): 1}
        assert pages.r_stab == 2
        assert nonzero(pages.pages[2]) == {}
        assert nonzero(pages.e_infinity) == {}

    def test_page_one_is_dolbeault_everywhere(self):
        for k in EXAMPLES:
            assert frolicher_pages(k).pages[1] == dolbeault(k).dims, k.label

    def test_pages_weakly_decrease(self):
        for k in EXAMPLES:
            pages = frolicher_pages(k)
            for r in range(2, pages.r_stab + 1):
                for bid, d in pages.pages[r].items():
                    assert d <= pages.pages[r - 1][bid]

    def test_limit_refines_de_rham(self):
        """Implied by the stop rule, which ends the pages at the first one
        whose anti-diagonal totals equal de Rham; kept as a plain
        statement of the limit."""
        for k in EXAMPLES:
            limit = frolicher_pages(k).e_infinity
            betti = de_rham(k).dims
            totals = {}
            for (p, q), d in limit.items():
                totals[p + q] = totals.get(p + q, 0) + d
            assert nonzero(totals) == nonzero(betti), k.label

    def test_iwasawa_does_not_degenerate_on_page_one(self):
        pages = frolicher_pages(iwasawa())
        assert pages.r_stab > 1
        page1 = pages.pages[1]
        assert page1[(1, 0)] + page1[(0, 1)] == 5
        limit = pages.e_infinity
        assert sum(d for (p, q), d in limit.items() if p + q == 1) == 4

    def test_matches_the_full_recompute_loop(self, page_inputs):
        for k in page_inputs:
            assert frolicher_pages(k) == reference_frolicher_pages(k), \
                k.label

    @pytest.mark.parametrize("inputs, passes", [
        (lambda: [nil4()], 0), (lambda: [iwasawa()], 0),
        (lambda: [nil5()], 0),
        (lambda: [random_bicomplex(seed).bicomplex for seed in range(100)],
         19)], ids=["nil4", "iwasawa", "nil5", "random-0-99"])
    def test_page_passes_are_pinned(self, monkeypatch, inputs, passes):
        """With the five tables in the store, the pages enter the forward
        pass only for a degree where rk d exceeds the sum of the delbar
        ranks and de Rham took rk d from its bounds: elsewhere they read
        the pairs that de Rham's passes stored, or need none.  A second
        read enters it 0 times.  The staircase pages entered it 18 times
        on nil4, 8 on iwasawa (10 staircases built), 46 on nil5 and 84 on
        random complexes 0-99."""
        ks = inputs()
        for k in ks:
            for theory in THEORIES:
                cohomology._table(k, theory)
        calls = []
        forward = exactla._forward

        def counted(columns):
            calls.append(len(columns))
            return forward(columns)

        monkeypatch.setattr(exactla, "_forward", counted)
        for k in ks:
            frolicher_pages(k)
        assert len(calls) == passes
        for k in ks:
            frolicher_pages(k)
        assert len(calls) == passes

    def test_a_gap_of_two_needs_page_three(self):
        """(0,1) ->del (1,1) <-delbar (1,0) ->del (2,0): x = (0,1) - (1,0)
        has exact filtration 0 and dx = -(2,0) has 2, so the two ends
        live on pages 1 and 2 and d_2 kills them."""
        k = build({(0, 1): 1, (1, 0): 1, (1, 1): 1, (2, 0): 1},
                  del_entries={(0, 1): [[1]], (1, 0): [[1]]},
                  delbar_entries={(1, 0): [[1]]})
        assert cohomology._d_pairs(k, 1) == {(1, 0): 1, (0, 2): 1}
        pages = frolicher_pages(k)
        assert pages == reference_frolicher_pages(k)
        assert pages.r_stab == 3
        assert nonzero(pages.pages[2]) == {(0, 1): 1, (2, 0): 1}
        assert nonzero(pages.e_infinity) == {}

    def test_pairs_against_the_whole_staircase_and_delbar(self):
        """Per degree the pairs number rk d, the whole staircase
        eliminated; the gap-0 pairs at each p number the delbar rank
        there, so page 1 is Dolbeault by a second route; every gap lies
        in [0, p-width - 1]; and r_stab is 1 + the largest gap."""
        for label, make in bounded_rank_inputs():
            k = make()
            delbar = cohomology._block_ranks(k)["delbar"]
            support = k.support()
            width = support[-1][0] - support[0][0] + 1
            largest = 0
            for deg, key in _d_staircases(k).items():
                pairs = cohomology._d_pairs(k, deg)
                assert sum(pairs.values()) == eliminated(
                    _staircase(k, *key)), (label, deg)
                assert {p: n for (p, gap), n in pairs.items() if not gap} \
                    == {p: n for (p, q), n in delbar.items()
                        if p + q == deg and n}, (label, deg)
                assert all(0 <= gap < width for _, gap in pairs), \
                    (label, deg)
                largest = max([largest, *(gap for _, gap in pairs)])
            assert frolicher_pages(k).r_stab == 1 + largest, label

    def test_pages_build_no_subspace(self, monkeypatch):
        """The pages and all_tables count from ranks alone: every subspace
        routine and ``totalize`` raise, in every module of the package."""
        def refuse(*args):
            raise AssertionError("a subspace was built or a complex "
                                 "totalized")

        for module in [module for name, module in sys.modules.items()
                       if name.startswith("bicomplex_lab")]:
            for name in ("kernel_basis", "image_basis", "complete_basis",
                         "subspace_intersect", "subspace_sum", "preimage",
                         "quotient_dim", "totalize"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        for name in ("full", "zero", "from_columns"):
            monkeypatch.setattr(Subspace, name, refuse)
        for k in [nil4(), iwasawa(), kodaira_surface(),
                  *(random_bicomplex(seed).bicomplex for seed in range(20))]:
            assert frolicher_pages(k) == all_tables(k).frolicher
            assert not any(isinstance(v, Subspace)
                           for v in k._store.values()), k.label
            assert "total" not in k._store, k.label

    def test_stop_guard_raises_on_a_wrong_de_rham(self, monkeypatch, capsys):
        """No page of kodaira sums to Betti numbers one too large, so the
        loop stops at page p-width + 1 with LinAlgError, which the CLI
        maps to the internal-error exit."""
        table = cohomology._table

        def wrong(k, theory):
            right = table(k, theory)
            if theory != "de_rham":
                return right
            return cohomology.CohomologyTable(
                theory="de_rham",
                dims={deg: d + 1 for deg, d in right.dims.items()})

        monkeypatch.setattr(cohomology, "_table", wrong)
        with pytest.raises(LinAlgError, match="page 3"):
            frolicher_pages(kodaira_surface())
        assert clio.main(["cohomology", "--preset", "kodaira",
                          "--format", "json"]) == clio.EXIT_INTERNAL
        assert "LinAlgError" in capsys.readouterr().err


class TestNaturalMaps:
    def test_torus_maps_are_bijective(self):
        k = torus(2)
        ranks = natural_maps(k)
        dims = dolbeault(k).dims
        betti = de_rham(k).dims
        assert ranks.bott_chern_to_dolbeault == dims
        assert ranks.bott_chern_to_conj_dolbeault == dims
        assert ranks.bott_chern_to_aeppli == dims
        assert ranks.dolbeault_to_aeppli == dims
        assert ranks.conj_dolbeault_to_aeppli == dims
        assert ranks.bott_chern_to_de_rham == betti
        assert ranks.de_rham_to_aeppli == betti

    def test_square_maps_are_zero(self):
        ranks = natural_maps(square_complex())
        for field in (ranks.bott_chern_to_dolbeault,
                      ranks.bott_chern_to_aeppli,
                      ranks.bott_chern_to_de_rham,
                      ranks.de_rham_to_aeppli):
            assert nonzero(field) == {}

    def test_dot_maps_have_rank_one(self):
        ranks = natural_maps(dot(1, 2))
        assert ranks.bott_chern_to_dolbeault == {(1, 2): 1}
        assert ranks.bott_chern_to_aeppli == {(1, 2): 1}
        assert ranks.bott_chern_to_de_rham == {3: 1}
        assert ranks.de_rham_to_aeppli == {3: 1}

    def test_comparison_complex_loses_injectivity_at_top(self):
        ranks = natural_maps(diagram_b())
        assert ranks.bott_chern_to_aeppli[(2, 2)] == 0
        assert bott_chern(diagram_b()).dims[(2, 2)] == 1

    def test_iwasawa_fails_injectivity_somewhere(self):
        k = iwasawa()
        ranks = natural_maps(k)
        dims = bott_chern(k).dims
        assert any(ranks.bott_chern_to_aeppli[bid] < dims[bid]
                   for bid in dims)

    def test_ranks_are_bounded_by_both_sides(self):
        for k in EXAMPLES:
            ranks = natural_maps(k)
            bc = bott_chern(k).dims
            dol = dolbeault(k).dims
            aep = aeppli(k).dims
            for bid in bc:
                assert ranks.bott_chern_to_dolbeault[bid] \
                    <= min(bc[bid], dol[bid])
                assert ranks.bott_chern_to_aeppli[bid] \
                    <= min(bc[bid], aep[bid])
                assert ranks.dolbeault_to_aeppli[bid] \
                    <= min(dol[bid], aep[bid])


class TestAllTables:
    def test_each_table_and_map_is_computed_once(self, monkeypatch):
        """Every check alone, run_all_checks, natural_maps and all_tables
        on one complex compute each table and each map once between them:
        the complex's store keeps them."""
        tables = Counter()
        maps = Counter()
        make_table = cohomology.CohomologyTable
        map_ranks = cohomology._map_ranks

        def counted_table(*, theory, **fields):
            tables[theory] += 1
            return make_table(theory=theory, **fields)

        def counted_map(k, source, target):
            maps[(source, target)] += 1
            return map_ranks(k, source, target)

        monkeypatch.setattr(cohomology, "CohomologyTable", counted_table)
        monkeypatch.setattr(cohomology, "_map_ranks", counted_map)
        k = iwasawa()
        for check in (checkers.frolicher_check, checkers.non_ddbar_degrees,
                      checkers.upper_bound_check, checkers.char_minus_check,
                      checkers.ddbar_lemma_check,
                      checkers.schweitzer_pairing_check,
                      checkers.duality_check):
            check(k)
        run_all_checks(k)
        ranks = natural_maps(k)
        bundle = all_tables(k)
        assert tables == Counter(THEORIES)
        assert len(maps) == 7 and set(maps.values()) == {1}
        assert bundle.bott_chern is bott_chern(k)
        assert bundle.natural_ranks == ranks

    def test_invalid_complex_is_rejected_at_the_call(self):
        bad = build({(0, 0): 1, (1, 0): 1, (2, 0): 1},
                    del_entries={(0, 0): [[1]], (1, 0): [[1]]})
        for make in (all_tables, natural_maps):
            with pytest.raises(ValueError, match="square to zero"):
                make(bad)

    def test_bundle_matches_individual_calls(self):
        k = kodaira_surface()
        bundle = all_tables(k)
        assert bundle.dolbeault.dims == dolbeault(k).dims
        assert bundle.conj_dolbeault.dims == conj_dolbeault(k).dims
        assert bundle.bott_chern.dims == bott_chern(k).dims
        assert bundle.aeppli.dims == aeppli(k).dims
        assert bundle.de_rham.dims == de_rham(k).dims
        assert bundle.frolicher.e_infinity \
            == frolicher_pages(k).e_infinity
        assert bundle.natural_ranks == natural_maps(k)

    def test_totals_helper(self):
        k = kodaira_surface()
        table = dolbeault(k)
        totals = table.totals()
        assert totals[1] == table.dims[(1, 0)] + table.dims[(0, 1)]
        assert de_rham(k).totals() == de_rham(k).dims


class TestStore:
    @pytest.mark.parametrize("make", [iwasawa,
                                      lambda: random_bicomplex(6)[0]],
                             ids=["iwasawa", "random-seed-6"])
    def test_each_block_is_reduced_once(self, monkeypatch, make):
        """all_tables and run_all_checks take no kernel and no image, on a
        complex that carries pairings too: the pairing check reads its
        Gram ranks off the Bott-Chern to Aeppli map (there were one
        kernel of [del; delbar] and one image of del delbar per support
        bidegree for the Bott-Chern representatives)."""
        k = make()
        calls = Counter()
        modules = [module for name, module in sys.modules.items()
                   if name.startswith("bicomplex_lab")]
        for name in ("kernel_basis", "image_basis"):
            for module in modules:
                original = getattr(module, name, None)
                if original is not None:
                    def counted(m, _name=name, _original=original):
                        calls[_name] += 1
                        return _original(m)
                    monkeypatch.setattr(module, name, counted)
        all_tables(k)
        assert calls == Counter()
        run_all_checks(k)
        assert calls == Counter()

    def test_store_holds_no_matrix(self):
        """The tables, the checks and decompose leave no matrix in the
        store: an absent block is a fresh zero map, and the del delbar
        composites are formed where they are eliminated or split."""
        inputs = [iwasawa(), nil4()]
        for symmetric, seeds in ((False, 100), (True, 20)):
            inputs += [random_bicomplex(seed, symmetric=symmetric).bicomplex
                       for seed in range(seeds)]
        for k in inputs:
            all_tables(k)
            run_all_checks(k)
            decompose(k)
            assert not any(isinstance(v, Matrix)
                           for v in k._store.values()), k.label
