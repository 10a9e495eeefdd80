"""The five cohomology tables of a double complex, plus spectral pages.

For a valid bounded double complex with horizontal differential ``del``
(bidegree (1,0)) and vertical differential ``delbar`` (bidegree (0,1)) this
module computes, with exact arithmetic throughout:

* Dolbeault cohomology        ker delbar / im delbar     (per bidegree)
* conjugate Dolbeault         ker del / im del           (per bidegree)
* de Rham cohomology          ker d / im d on the totalization (per degree)
* Bott-Chern cohomology       (ker del ∩ ker delbar) / im (del delbar)
* Aeppli cohomology           ker (del delbar) / (im del + im delbar)

together with the pages of the column-filtration spectral sequence (first
page = Dolbeault, converging to de Rham) and the ranks of the seven maps
induced by the identity between these theories.  Every table stores, next
to the dimensions, a canonical subspace of cocycle representatives that
projects to a basis of the quotient.

All of it is built from the kernels and images of del, delbar and
del delbar per bidegree and of the total differential.  A private store
in the complex's ``_store`` slot computes each of these, the totalization
and every theory's (cocycles, coboundaries) pair at most once, on first
use; this module and the Schweitzer pairing check read from it.
"""

from dataclasses import dataclass

from .bicomplex import ensure_valid, totalize
from .exactla import (
    Subspace,
    complete_basis,
    image_basis,
    kernel_basis,
    place_blocks,
    preimage,
    quotient_dim,
    subspace_intersect,
    subspace_sum,
)

BIGRADED_THEORIES = ("dolbeault", "conj_dolbeault", "bott_chern", "aeppli")
THEORIES = ("de_rham",) + BIGRADED_THEORIES


@dataclass(frozen=True)
class CohomologyTable:
    """Dimensions and canonical representatives for one theory.

    ``dims`` maps bidegrees (total degrees for de Rham) to dimensions; keys
    cover the whole support, zeros included.  ``representatives`` maps the
    same keys to subspaces of cocycles that project to a quotient basis.
    """

    theory: str
    dims: dict
    representatives: dict

    def totals(self):
        """Dimensions summed along anti-diagonals (de Rham: a copy)."""
        if self.theory == "de_rham":
            return dict(self.dims)
        out = {}
        for (p, q), d in sorted(self.dims.items()):
            out[p + q] = out.get(p + q, 0) + d
        return out


@dataclass(frozen=True)
class FrolicherPages:
    """Pages of the column-filtration spectral sequence.

    ``pages[r]`` maps bidegrees to the page-r dimensions, for r = 1 up to
    the stabilization page (or up to the requested cap, if smaller);
    ``r_stab`` is the first page equal to the limit; ``e_infinity`` holds
    the limit dimensions regardless of any cap.
    """

    pages: dict
    r_stab: int
    e_infinity: dict


@dataclass(frozen=True)
class NaturalMapRanks:
    """Ranks of the identity-induced maps between the five theories.

    Bigraded maps are keyed by bidegree; maps into or out of de Rham are
    keyed by total degree (their bigraded ends summed over anti-diagonals).
    """

    bott_chern_to_dolbeault: dict
    bott_chern_to_conj_dolbeault: dict
    bott_chern_to_de_rham: dict
    bott_chern_to_aeppli: dict
    dolbeault_to_aeppli: dict
    conj_dolbeault_to_aeppli: dict
    de_rham_to_aeppli: dict


@dataclass(frozen=True)
class AllTables:
    """One-shot bundle of every table this module can produce."""

    de_rham: CohomologyTable
    dolbeault: CohomologyTable
    conj_dolbeault: CohomologyTable
    bott_chern: CohomologyTable
    aeppli: CohomologyTable
    frolicher: FrolicherPages
    natural_ranks: NaturalMapRanks


# The per-complex store.  Every theory is a quotient of these subspaces:
# "ker_*" are kernels out of (p, q), "im_*" images landing in (p, q).
_SUBSPACES = {
    "ker_del": lambda k, p, q: kernel_basis(k.del_map(p, q)),
    "ker_delbar": lambda k, p, q: kernel_basis(k.delbar_map(p, q)),
    "ker_ddbar": lambda k, p, q: kernel_basis(
        k.del_map(p, q + 1) @ k.delbar_map(p, q)),
    "im_del": lambda k, p, q: image_basis(k.del_map(p - 1, q)),
    "im_delbar": lambda k, p, q: image_basis(k.delbar_map(p, q - 1)),
    "im_ddbar": lambda k, p, q: image_basis(
        k.del_map(p - 1, q) @ k.delbar_map(p - 1, q - 1)),
}

# Each bigraded theory's (cocycles, coboundaries), given a lookup ``s`` of
# the subspaces above at one bidegree.
_PAIRS = {
    "dolbeault": lambda s: (s("ker_delbar"), s("im_delbar")),
    "conj_dolbeault": lambda s: (s("ker_del"), s("im_del")),
    "bott_chern": lambda s: (subspace_intersect(s("ker_del"),
                                                s("ker_delbar")),
                             s("im_ddbar")),
    "aeppli": lambda s: (s("ker_ddbar"),
                         subspace_sum(s("im_del"), s("im_delbar"))),
}


def _once(k, key, make):
    """``make()``, kept in ``k._store``; the store is created after one
    validity check and holds no reference back to ``k``."""
    store = k._store
    if store is None:
        ensure_valid(k)
        store = k._store = {}
    if key not in store:
        store[key] = make()
    return store[key]


def _subspace(k, name, bid):
    """One of the ``_SUBSPACES`` of ``k`` at bidegree ``bid``."""
    return _once(k, (name, bid), lambda: _SUBSPACES[name](k, *bid))


def _total(k):
    return _once(k, "total", lambda: totalize(k))


def _pairs(k, theory):
    """Per support bidegree (total degree for de Rham), the theory's
    (cocycles, coboundaries) pair."""
    def make():
        if theory == "de_rham":
            t = _total(k)
            return {deg: (kernel_basis(t.differential(deg)),
                          image_basis(t.differential(deg - 1)))
                    for deg in t.degrees()}
        rule = _PAIRS[theory]
        return {bid: rule(lambda name: _subspace(k, name, bid))
                for bid in k.support()}
    return _once(k, theory, make)


def _table(k, theory):
    dims = {}
    reps = {}
    for key, (z, b) in _pairs(k, theory).items():
        # Columns of z's reduced echelon basis: already canonical.
        reps[key] = Subspace(z.ambient_dim, complete_basis(b, z))
        dims[key] = reps[key].dim
    return CohomologyTable(theory=theory, dims=dims, representatives=reps)


def dolbeault(k):
    """Vertical-differential cohomology, per bidegree."""
    return _table(k, "dolbeault")


def conj_dolbeault(k):
    """Horizontal-differential cohomology, per bidegree."""
    return _table(k, "conj_dolbeault")


def bott_chern(k):
    """(ker del ∩ ker delbar) / im (del delbar), per bidegree."""
    return _table(k, "bott_chern")


def aeppli(k):
    """ker (del delbar) / (im del + im delbar), per bidegree."""
    return _table(k, "aeppli")


def de_rham(k):
    """Total-complex cohomology, per total degree."""
    return _table(k, "de_rham")


def _map_image(m, sub):
    """Image of a subspace under a linear map (zero space for None)."""
    if sub is None:
        return Subspace.zero(m.rows)
    return image_basis(m @ sub.basis)


def frolicher_pages(k, r_max=None):
    """Spectral-sequence pages for the filtration by horizontal degree.

    Page 1 carries the Dolbeault dimensions; the limit page refines de Rham
    (anti-diagonal sums of the limit equal the Betti numbers).  Page r is
    the subquotient of elements extendable to a length-r staircase divided
    by staircase boundaries; both chains are computed by iterated
    image/preimage steps, so every page dimension is exact.

    ``r_max`` caps how many pages are reported (it never affects
    ``r_stab`` or ``e_infinity``); pages past stabilization are omitted
    since they repeat the last one.  Raises ValueError for ``r_max`` < 1.
    """
    dol = _pairs(k, "dolbeault")
    if r_max is not None and r_max < 1:
        raise ValueError("r_max must be at least 1")
    support = k.support()
    if not support:
        return FrolicherPages(pages={1: {}}, r_stab=1, e_infinity={})
    p_values = [p for p, _ in support]
    hard_stop = max(p_values) - min(p_values) + 1
    # extendable[r][(p,q)]: elements whose horizontal image can be chased
    # through r-1 further anti-diagonal steps; absorbable[r] mirrors it for
    # boundaries.  Level 1 extendable = everything; level 0 absorbable = 0.
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
        # Subspaces are canonical, so == is exact: once both chains stop
        # moving, every later page repeats this one.
        if (extendable, absorbable) == chains:
            break
    e_infinity = dims_per_page[-1]
    r_stab = next(r for r, dims in enumerate(dims_per_page, start=1)
                  if dims == e_infinity)
    last = r_stab if r_max is None else min(r_stab, r_max)
    pages = {r: dims_per_page[r - 1] for r in range(1, last + 1)}
    return FrolicherPages(pages=pages, r_stab=r_stab, e_infinity=e_infinity)


def _induced_rank(source_cocycles, target_boundaries):
    """Rank of the identity-induced map between two quotient theories."""
    return (subspace_sum(source_cocycles, target_boundaries).dim
            - target_boundaries.dim)


def natural_maps(k):
    """Ranks of the seven identity-induced maps between the theories.

    Each of the theories is a quotient of a cocycle space and the identity
    on the underlying complex carries one into another whenever the
    cocycles shrink and the coboundaries grow; the rank of the induced map
    is dim((source cocycles + target coboundaries) / target coboundaries).
    Maps through de Rham first re-express bigraded subspaces in total-space
    coordinates.
    """
    bc, dol, conj, aep, dr = (_pairs(k, theory) for theory in (
        "bott_chern", "dolbeault", "conj_dolbeault", "aeppli", "de_rham"))
    t = _total(k)

    def bigraded(source, target):
        return {bid: _induced_rank(source[bid][0], target[bid][1])
                for bid in k.support()}

    def embedded(deg, pairs, side):
        """One side of the pairs in degree ``deg``, in total coordinates."""
        blocks = []
        cols = 0
        for bid, offset in sorted(t.offsets[deg].items()):
            basis = pairs[bid][side].basis
            blocks.append((offset, cols, basis))
            cols += basis.cols
        return Subspace.from_columns(
            t.dims[deg], place_blocks(t.dims[deg], cols, blocks))

    return NaturalMapRanks(
        bott_chern_to_dolbeault=bigraded(bc, dol),
        bott_chern_to_conj_dolbeault=bigraded(bc, conj),
        bott_chern_to_de_rham={
            deg: _induced_rank(embedded(deg, bc, 0), dr[deg][1])
            for deg in t.degrees()},
        bott_chern_to_aeppli=bigraded(bc, aep),
        dolbeault_to_aeppli=bigraded(dol, aep),
        conj_dolbeault_to_aeppli=bigraded(conj, aep),
        de_rham_to_aeppli={
            deg: _induced_rank(dr[deg][0], embedded(deg, aep, 1))
            for deg in t.degrees()},
    )


def all_tables(k):
    """Every table, page family, and natural-map rank in one bundle."""
    return AllTables(
        de_rham=de_rham(k),
        dolbeault=dolbeault(k),
        conj_dolbeault=conj_dolbeault(k),
        bott_chern=bott_chern(k),
        aeppli=aeppli(k),
        frolicher=frolicher_pages(k),
        natural_ranks=natural_maps(k),
    )
