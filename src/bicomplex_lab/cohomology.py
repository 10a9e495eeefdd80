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
induced by the identity between these theories.  A table holds only the
dimensions, dim cocycles - dim coboundaries; :func:`representatives`
gives, for one theory on demand, a canonical subspace of cocycles that
projects to a basis of each quotient.

All of it is built from the kernels and images of del, delbar and
del delbar per bidegree and of the total differential, plus the
Bott-Chern cocycles ker del ∩ ker delbar and the Aeppli coboundaries
im del + im delbar (one echelon of [del | delbar]).  A private store in
the complex's ``_store`` slot is the one cache of a complex.  Beside the
validity verdict and the zero matrices of absent blocks, it computes
each of these subspaces, the del delbar composites, the totalization,
every table, every theory's representatives and every natural map's
ranks at most once, on first use.  This module, the checks and the
square splitting of the decomposition read from it.

The tables are read off kernels.  Every coboundary space but Aeppli's is
the image of one map whose kernel the store keeps at the map's source,
and by rank-nullity its dimension is the source's dimension less that
kernel's.  So a table builds the cocycles and, for Aeppli, the
coboundaries, and the images of del, delbar, del delbar and d are built
only when a natural map, a Frolicher page or a representative reads
them.
The store also seeds the Frolicher page chase, whose first step reads
im delbar and the Dolbeault cocycles from it; later steps recompute only
the bidegrees whose chain entries moved.  ``THEORIES`` is the one list
of theories and the fields of :class:`NaturalMapRanks` the one list of
maps: the table bundles, the zigzag recount and the CLI's table reports
take their names and order from them.

Every caller gets the stored table or rank dict itself, so none may
change it.  ``all_tables`` and ``natural_maps`` are plain bundles built
from the store, so a caller that reads one table or one map should ask
for it alone: the checks read the five tables and the Bott-Chern to
Aeppli map, never the pages or the other six maps.
"""

from dataclasses import dataclass, fields, make_dataclass

from .bicomplex import ensure_valid, totalize
from .exactla import (
    Subspace,
    complete_basis,
    image_basis,
    kernel_basis,
    place_blocks,
    preimage,
    quotient_dim,
    rank_modulo,
    subspace_intersect,
    subspace_sum,
)

BIGRADED_THEORIES = ("dolbeault", "conj_dolbeault", "bott_chern", "aeppli")
THEORIES = ("de_rham",) + BIGRADED_THEORIES


@dataclass(frozen=True)
class CohomologyTable:
    """Dimensions for one theory.

    ``dims`` maps bidegrees (total degrees for de Rham) to dimensions; keys
    cover the whole support, zeros included.
    """

    theory: str
    dims: dict

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
    the stabilization page ``r_stab``, the first page equal to the limit;
    both ``r_stab`` and the limit ``e_infinity`` are read off ``pages``.
    """

    pages: dict

    @property
    def r_stab(self):
        return max(self.pages)

    @property
    def e_infinity(self):
        return self.pages[self.r_stab]


@dataclass(frozen=True)
class NaturalMapRanks:
    """Ranks of the identity-induced maps between the five theories.

    Fields, named ``<source>_to_<target>``, are the one list of the maps.
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


AllTables = make_dataclass(
    "AllTables", [*THEORIES, "frolicher", "natural_ranks"], frozen=True,
    namespace={"__module__": __name__,
               "__doc__": "Every table of one complex (one field per name "
                          "in THEORIES), its Frolicher pages and its "
                          "natural-map ranks."})


# The per-complex store.  Every theory is a quotient of these subspaces:
# "ker_*" are kernels out of (p, q), "im_*" images landing in (p, q).  The
# Bott-Chern cocycles are ker del ∩ ker delbar, and the Aeppli
# coboundaries im del + im delbar are one echelon of [del | delbar].
_SUBSPACES = {
    "ker_del": lambda k, p, q: kernel_basis(k.del_map(p, q)),
    "ker_delbar": lambda k, p, q: kernel_basis(k.delbar_map(p, q)),
    "ker_ddbar": lambda k, p, q: kernel_basis(_ddbar(k, (p, q))),
    "bc_cocycles": lambda k, p, q: subspace_intersect(
        _subspace(k, "ker_del", (p, q)), _subspace(k, "ker_delbar", (p, q))),
    "im_del": lambda k, p, q: image_basis(k.del_map(p - 1, q)),
    "im_delbar": lambda k, p, q: image_basis(k.delbar_map(p, q - 1)),
    "im_ddbar": lambda k, p, q: image_basis(_ddbar(k, (p - 1, q - 1))),
    "aeppli_coboundaries": lambda k, p, q: image_basis(
        k.del_map(p - 1, q).hstack(k.delbar_map(p, q - 1))),
}

# The same for the total differential d, per total degree.
_TOTAL_SUBSPACES = {
    "ker_d": lambda t, deg: kernel_basis(t.differential(deg)),
    "im_d": lambda t, deg: image_basis(t.differential(deg - 1)),
}

# Each theory's (cocycles, coboundaries), as names of the subspaces above.
_PAIRS = {
    "de_rham": ("ker_d", "im_d"),
    "dolbeault": ("ker_delbar", "im_delbar"),
    "conj_dolbeault": ("ker_del", "im_del"),
    "bott_chern": ("bc_cocycles", "im_ddbar"),
    "aeppli": ("ker_ddbar", "aeppli_coboundaries"),
}

# An image of one map whose kernel the store keeps: that kernel's name and
# the map's source, given the key the image lands in.  A table reads the
# image's dimension off the kernel (see ``_rank_out``) and never builds it.
_IMAGE_SOURCES = {
    "im_d": ("ker_d", lambda deg: deg - 1),
    "im_del": ("ker_del", lambda bid: (bid[0] - 1, bid[1])),
    "im_delbar": ("ker_delbar", lambda bid: (bid[0], bid[1] - 1)),
    "im_ddbar": ("ker_ddbar", lambda bid: (bid[0] - 1, bid[1] - 1)),
}


def _once(k, key, make):
    """``make()``, kept in ``k._store``, which holds no reference back to
    ``k``.  Until the store records that ``k`` validated, a miss first
    runs the validity check, so an invalid complex gets no derived value."""
    store = k._store
    if key not in store:
        if store.get("violations") != ():
            ensure_valid(k)
        store[key] = make()
    return store[key]


def _ddbar(k, bid):
    """The composite del delbar out of bidegree ``bid`` of ``k``."""
    p, q = bid
    return _once(k, ("ddbar", bid),
                 lambda: k.del_map(p, q + 1) @ k.delbar_map(p, q))


def _subspace(k, name, key):
    """One of the ``_SUBSPACES`` of ``k`` at bidegree ``key``, or of the
    ``_TOTAL_SUBSPACES`` at total degree ``key``."""
    if name in _TOTAL_SUBSPACES:
        return _once(k, (name, key),
                     lambda: _TOTAL_SUBSPACES[name](_total(k), key))
    return _once(k, (name, key), lambda: _SUBSPACES[name](k, *key))


def _total(k):
    return _once(k, "total", lambda: totalize(k))


def _keys(k, theory):
    """The keys of the theory's table: total degrees for de Rham, else the
    support bidegrees."""
    return _total(k).degrees() if theory == "de_rham" else k.support()


def _rank_out(k, name, key):
    """Rank of the map out of ``key`` whose kernel there is the store's
    ``name``: by rank-nullity, the source's dimension less the kernel's.
    Out of a zero space it is 0, and no kernel is built."""
    dim = (_total(k).dims.get(key, 0) if name in _TOTAL_SUBSPACES
           else k.dimension(*key))
    return dim - _subspace(k, name, key).dim if dim else 0


def _pairs(k, theory):
    """Per key of the theory's table, its (cocycles, coboundaries) pair."""
    cocycles, coboundaries = _PAIRS[theory]
    return {key: (_subspace(k, cocycles, key), _subspace(k, coboundaries, key))
            for key in _keys(k, theory)}


def _table(k, theory):
    """dim cocycles - dim coboundaries per key.  A coboundary space that
    ``_IMAGE_SOURCES`` lists is counted by ``_rank_out``, so the tables
    build no image but the Aeppli coboundaries."""
    cocycles, coboundaries = _PAIRS[theory]

    def coboundary_dim(key):
        if coboundaries not in _IMAGE_SOURCES:
            return _subspace(k, coboundaries, key).dim
        kernel, source = _IMAGE_SOURCES[coboundaries]
        return _rank_out(k, kernel, source(key))

    return _once(k, ("table", theory), lambda: CohomologyTable(
        theory=theory,
        dims={key: _subspace(k, cocycles, key).dim - coboundary_dim(key)
              for key in _keys(k, theory)}))


def representatives(k, theory):
    """Per key of the theory's table, a subspace of cocycles that projects
    to a basis of the quotient: the columns of the cocycles' reduced
    echelon basis that complete the coboundaries, so it is canonical.

    Kept in the store per theory; no table computes it, so a caller pays
    for it only for the theory it reads.  Raises ValueError for an
    invalid complex.
    """
    return _once(k, ("reps", theory), lambda: {
        key: Subspace(z.ambient_dim, complete_basis(b, z))
        for key, (z, b) in _pairs(k, theory).items()})


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


def frolicher_pages(k):
    """Spectral-sequence pages for the filtration by horizontal degree.

    Page 1 is the Dolbeault table; the limit page refines de Rham
    (anti-diagonal sums of the limit equal the Betti numbers).  Page r is
    the subquotient of elements extendable to a length-r staircase divided
    by staircase boundaries; both chains are computed by iterated
    image/preimage steps, so every page dimension is exact.

    The store seeds the chase: level-2 extendable elements are those whose
    del lies in im delbar, and level-1 absorbable ones are the Dolbeault
    cocycles.  After that, a step recomputes a chain entry only where its
    neighbour moved in the last step, and a page entry only where one of
    the chain entries it reads moved; the others repeat the last page.
    Pages past ``r_stab`` are omitted, since they repeat it.
    """
    dol = _pairs(k, "dolbeault")
    support = k.support()
    if not support:
        return FrolicherPages(pages={1: {}})
    p_values = [p for p, _ in support]
    hard_stop = max(p_values) - min(p_values) + 1
    # extendable[(p,q)]: elements whose horizontal image can be chased
    # through r-1 further anti-diagonal steps; absorbable mirrors it for
    # boundaries.  Level 1 extendable = everything; level 0 absorbable = 0.
    extendable = {bid: Subspace.full(k.dimension(*bid)) for bid in support}
    absorbable = {bid: Subspace.zero(k.dimension(*bid)) for bid in support}
    dims = {bid: z.dim - b.dim for bid, (z, b) in dol.items()}
    dims_per_page = [dims]
    while len(dims_per_page) < hard_stop:
        if len(dims_per_page) == 1:
            new_ext = {(p, q): preimage(
                k.del_map(p, q), _subspace(k, "im_delbar", (p + 1, q)))
                for (p, q) in support}
            new_abs = {bid: z for bid, (z, _) in dol.items()}
        else:
            # An entry reads only its neighbour's previous level.
            new_ext = {(p, q): preimage(k.del_map(p, q), image_basis(
                k.delbar_map(p + 1, q - 1) @ extendable[(p + 1, q - 1)].basis))
                for (p, q) in support if (p + 1, q - 1) in moved_ext}
            new_abs = {(p, q): preimage(k.delbar_map(p, q), image_basis(
                k.del_map(p - 1, q + 1) @ absorbable[(p - 1, q + 1)].basis))
                for (p, q) in support if (p - 1, q + 1) in moved_abs}
        # Subspaces are canonical, so != is exact: once neither chain
        # moves, every later page repeats the last one.
        moved_ext = {bid for bid, s in new_ext.items() if s != extendable[bid]}
        moved_abs = {bid for bid, s in new_abs.items() if s != absorbable[bid]}
        if not (moved_ext or moved_abs):
            break
        extendable.update(new_ext)
        absorbable.update(new_abs)
        dims = dict(dims)
        for (p, q) in support:
            if (p, q) not in moved_ext and (p - 1, q) not in moved_abs:
                continue
            z_dol, b = dol[(p, q)]
            z = subspace_intersect(z_dol, extendable[(p, q)])
            boundary_src = absorbable.get((p - 1, q))
            if boundary_src is not None and boundary_src.dim:
                b = subspace_sum(b, image_basis(
                    k.del_map(p - 1, q) @ boundary_src.basis))
            dims[(p, q)] = quotient_dim(z, b)
        dims_per_page.append(dims)
    r_stab = dims_per_page.index(dims_per_page[-1]) + 1  # first limit page
    return FrolicherPages(pages=dict(enumerate(dims_per_page[:r_stab],
                                               start=1)))


def _map_ranks(k, source, target):
    """Ranks of the map from ``source`` to ``target`` induced by the identity.

    Each of the theories is a quotient of a cocycle space and the identity
    on the underlying complex carries one into another whenever the
    cocycles shrink and the coboundaries grow; the rank of the induced map
    is dim((source cocycles + target coboundaries) / target coboundaries),
    which ``rank_modulo`` takes without echeloning the sum.  A map through
    de Rham first re-expresses its bigraded end in total-space coordinates.
    """
    cocycles, coboundaries = _PAIRS[source][0], _PAIRS[target][1]
    if "de_rham" not in (source, target):
        return {bid: rank_modulo(_subspace(k, cocycles, bid),
                                 _subspace(k, coboundaries, bid))
                for bid in k.support()}
    t = _total(k)

    def side(name, deg):
        """The subspace ``name`` in degree ``deg``: a bigraded one is the
        sum of its pieces, placed at their offsets."""
        if name in _TOTAL_SUBSPACES:
            return _subspace(k, name, deg)
        blocks = []
        cols = 0
        for bid, offset in sorted(t.offsets[deg].items()):
            basis = _subspace(k, name, bid).basis
            blocks.append((offset, cols, basis))
            cols += basis.cols
        # Reduced echelon blocks at ascending row offsets: canonical as is.
        return Subspace(t.dims[deg], place_blocks(t.dims[deg], cols, blocks))

    return {deg: rank_modulo(side(cocycles, deg), side(coboundaries, deg))
            for deg in t.degrees()}


def _natural_map(k, source, target):
    """The ranks of one natural map of ``k``, as :func:`_map_ranks`."""
    return _once(k, ("map", source, target),
                 lambda: _map_ranks(k, source, target))


def natural_maps(k):
    """Ranks of the seven identity-induced maps between the theories.

    Raises ValueError for an invalid complex.
    """
    return NaturalMapRanks(**{
        field.name: _natural_map(k, *field.name.split("_to_"))
        for field in fields(NaturalMapRanks)})


def all_tables(k):
    """The five tables, the Frolicher pages and the natural-map ranks.

    Raises ValueError for an invalid complex.
    """
    return AllTables(**{theory: _table(k, theory) for theory in THEORIES},
                     frolicher=frolicher_pages(k),
                     natural_ranks=natural_maps(k))
