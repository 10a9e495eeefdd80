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
"""

from dataclasses import dataclass

from .bicomplex import ensure_valid, totalize
from .exactla import (
    Matrix,
    SC_ZERO,
    Subspace,
    complete_basis,
    image_basis,
    kernel_basis,
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


def _cocycles_boundaries(k, theory):
    """Per support bidegree, the (cocycle, coboundary) subspace pair."""
    out = {}
    for (p, q) in k.support():
        if theory == "dolbeault":
            z = kernel_basis(k.delbar_map(p, q))
            b = image_basis(k.delbar_map(p, q - 1))
        elif theory == "conj_dolbeault":
            z = kernel_basis(k.del_map(p, q))
            b = image_basis(k.del_map(p - 1, q))
        elif theory == "bott_chern":
            z = subspace_intersect(kernel_basis(k.del_map(p, q)),
                                   kernel_basis(k.delbar_map(p, q)))
            b = image_basis(k.del_map(p - 1, q) @ k.delbar_map(p - 1, q - 1))
        elif theory == "aeppli":
            z = kernel_basis(k.del_map(p, q + 1) @ k.delbar_map(p, q))
            b = subspace_sum(image_basis(k.del_map(p - 1, q)),
                             image_basis(k.delbar_map(p, q - 1)))
        else:
            raise ValueError(f"unknown theory {theory!r}")
        out[(p, q)] = (z, b)
    return out


def _de_rham_pairs(k):
    t = totalize(k)
    out = {}
    for deg in t.degrees():
        z = kernel_basis(t.differential(deg))
        b = image_basis(t.differential(deg - 1))
        out[deg] = (z, b)
    return t, out


def _table_from_pairs(theory, pairs):
    dims = {}
    reps = {}
    for key, (z, b) in pairs.items():
        dims[key] = quotient_dim(z, b)
        reps[key] = Subspace.from_columns(z.ambient_dim,
                                          complete_basis(b, z))
    return CohomologyTable(theory=theory, dims=dims, representatives=reps)


def dolbeault(k):
    """Vertical-differential cohomology, per bidegree."""
    ensure_valid(k)
    return _table_from_pairs("dolbeault", _cocycles_boundaries(k, "dolbeault"))


def conj_dolbeault(k):
    """Horizontal-differential cohomology, per bidegree."""
    ensure_valid(k)
    return _table_from_pairs("conj_dolbeault",
                             _cocycles_boundaries(k, "conj_dolbeault"))


def bott_chern(k):
    """(ker del ∩ ker delbar) / im (del delbar), per bidegree."""
    ensure_valid(k)
    return _table_from_pairs("bott_chern",
                             _cocycles_boundaries(k, "bott_chern"))


def aeppli(k):
    """ker (del delbar) / (im del + im delbar), per bidegree."""
    ensure_valid(k)
    return _table_from_pairs("aeppli", _cocycles_boundaries(k, "aeppli"))


def de_rham(k):
    """Total-complex cohomology, per total degree."""
    ensure_valid(k)
    _, pairs = _de_rham_pairs(k)
    return _table_from_pairs("de_rham", pairs)


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
    ensure_valid(k)
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
    delbar_cycles = {(p, q): kernel_basis(k.delbar_map(p, q))
                     for (p, q) in support}
    delbar_boundaries = {(p, q): image_basis(k.delbar_map(p, q - 1))
                         for (p, q) in support}
    dims_per_page = []
    for r in range(1, hard_stop + 1):
        dims = {}
        for (p, q) in support:
            z = subspace_intersect(delbar_cycles[(p, q)], extendable[(p, q)])
            boundary_src = absorbable.get((p - 1, q))
            b = delbar_boundaries[(p, q)]
            if boundary_src is not None and boundary_src.dim:
                b = subspace_sum(
                    b, _map_image(k.del_map(p - 1, q), boundary_src))
            dims[(p, q)] = quotient_dim(z, b)
        dims_per_page.append(dims)
        if r == hard_stop:
            break
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
    e_infinity = dims_per_page[-1]
    r_stab = next(r for r, dims in enumerate(dims_per_page, start=1)
                  if dims == e_infinity)
    last = r_stab if r_max is None else min(r_stab, r_max)
    pages = {r: dims_per_page[r - 1] for r in range(1, last + 1)}
    return FrolicherPages(pages=pages, r_stab=r_stab, e_infinity=e_infinity)


def _embed_columns(total_dim, offset, mat):
    """Columns of a block matrix re-written in total-space coordinates."""
    cols = []
    for j in range(mat.cols):
        col = [SC_ZERO] * total_dim
        for i, v in enumerate(mat.column(j)):
            col[offset + i] = v
        cols.append(col)
    return cols


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
    ensure_valid(k)
    bc = _cocycles_boundaries(k, "bott_chern")
    dol = _cocycles_boundaries(k, "dolbeault")
    conj = _cocycles_boundaries(k, "conj_dolbeault")
    aep = _cocycles_boundaries(k, "aeppli")
    bc_to_dol = {}
    bc_to_conj = {}
    bc_to_aep = {}
    dol_to_aep = {}
    conj_to_aep = {}
    for bid in k.support():
        bc_to_dol[bid] = _induced_rank(bc[bid][0], dol[bid][1])
        bc_to_conj[bid] = _induced_rank(bc[bid][0], conj[bid][1])
        bc_to_aep[bid] = _induced_rank(bc[bid][0], aep[bid][1])
        dol_to_aep[bid] = _induced_rank(dol[bid][0], aep[bid][1])
        conj_to_aep[bid] = _induced_rank(conj[bid][0], aep[bid][1])
    t, dr = _de_rham_pairs(k)
    bc_to_dr = {}
    dr_to_aep = {}
    for deg in t.degrees():
        total_dim = t.dims[deg]
        z_dr, b_dr = dr[deg]
        bc_cols = []
        aep_boundary_cols = []
        for (p, q), offset in sorted(t.offsets[deg].items()):
            bc_cols.extend(
                _embed_columns(total_dim, offset, bc[(p, q)][0].basis))
            aep_boundary_cols.extend(
                _embed_columns(total_dim, offset, aep[(p, q)][1].basis))
        bc_embedded = Subspace.from_columns(
            total_dim, Matrix.from_columns(total_dim, bc_cols))
        aep_embedded = Subspace.from_columns(
            total_dim, Matrix.from_columns(total_dim, aep_boundary_cols))
        bc_to_dr[deg] = _induced_rank(bc_embedded, b_dr)
        dr_to_aep[deg] = _induced_rank(z_dr, aep_embedded)
    return NaturalMapRanks(
        bott_chern_to_dolbeault=bc_to_dol,
        bott_chern_to_conj_dolbeault=bc_to_conj,
        bott_chern_to_de_rham=bc_to_dr,
        bott_chern_to_aeppli=bc_to_aep,
        dolbeault_to_aeppli=dol_to_aep,
        conj_dolbeault_to_aeppli=conj_to_aep,
        de_rham_to_aeppli=dr_to_aep,
    )


def all_tables(k):
    """Every table, page family, and natural-map rank in one bundle."""
    ensure_valid(k)
    return AllTables(
        de_rham=de_rham(k),
        dolbeault=dolbeault(k),
        conj_dolbeault=conj_dolbeault(k),
        bott_chern=bott_chern(k),
        aeppli=aeppli(k),
        frolicher=frolicher_pages(k),
        natural_ranks=natural_maps(k),
    )
