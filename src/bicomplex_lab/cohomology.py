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

Every table and every map rank is counted from the ranks of single
blocks, which the store computes once per complex (``_block_ranks``).
At each support bidegree b they are the ranks of

* del, delbar and del delbar out of b,
* the stack [del; delbar] out of b, whose kernel is the Bott-Chern
  cocycles ker del ∩ ker delbar,
* [del | delbar] into b, whose image is the Aeppli coboundaries
  im del + im delbar,

and in each total degree the rank of d.  A block that is absent has
rank 0 and builds no matrix; a stack or a pair with one absent side has
the rank of the other side.

A table is the dimension less two ranks: that of the map S whose kernel
is the cocycles, out of the key, and that of the map A whose image is
the coboundaries, into it.

* de Rham(k)         = dim - rk d(k) - rk d(k-1)
* Dolbeault(p, q)    = dim - rk delbar(p, q) - rk delbar(p, q-1)
* conjugate(p, q)    = dim - rk del(p, q) - rk del(p-1, q)
* Bott-Chern(p, q)   = dim - rk [del; delbar](p, q) - rk del delbar(p-1, q-1)
* Aeppli(p, q)       = dim - rk del delbar(p, q) - rk [del | delbar](p, q)

A natural map sends the source cocycles Z = ker S to the target's
quotient by B = im A, so its rank is dim Z - dim(Z ∩ B).  S restricted
to im A has kernel im A ∩ ker S and image im(S A), so
dim(Z ∩ B) = rk A - rk(S A), and the rank is

    dim - rk S - rk A + rk(S A).

Since del^2 = delbar^2 = del delbar + delbar del = 0, every block of
S A is zero or plus or minus a del delbar block: a del part of one
factor meets a delbar part of the other.  Distinct del delbar blocks
share no row and no column of S A, and where one block appears twice
(the maps through de Rham) the copies share its rows or its columns, so
rk(S A) is a sum of ranks of del delbar.  With D(p, q) the rank of
del delbar out of (p, q), it is, at (p, q) or in degree k:

* Bott-Chern -> Dolbeault     D(p, q-1)
* Bott-Chern -> conjugate     D(p-1, q)
* Bott-Chern -> Aeppli        D(p, q-1) + D(p-1, q)
* Dolbeault -> Aeppli         D(p-1, q)
* conjugate -> Aeppli         D(p, q-1)
* Bott-Chern -> de Rham       the sum of D(p, q) over p + q = k - 1
* de Rham -> Aeppli           the sum of D(p, q) over p + q = k - 1

For a map through de Rham the bigraded end's ranks are summed over the
anti-diagonal.  From a theory to itself B lies in Z, S A is zero and the
rank is the table.

Subspaces are built only where subspaces are read: ``representatives``
(the pairing check reads the Bott-Chern ones), the Frolicher page chase
and the square splitting of the decomposition.  They are the kernels
and images of del, delbar, del delbar and d, the Bott-Chern cocycles and
the Aeppli coboundaries (``_SUBSPACES``).  A private store in the
complex's ``_store`` slot is the one cache of a complex.  Beside the
validity verdict and the zero matrices of absent blocks, it computes the
block ranks, each of these subspaces, the del delbar composites, the
totalization, every table, every theory's representatives and every
natural map's ranks at most once, on first use.  The Frolicher page
chase starts from it, reading im delbar and the Dolbeault cocycles; later
steps recompute only the bidegrees whose chain entries moved.
``THEORIES`` is the one list of theories and the fields of
:class:`NaturalMapRanks` the one list of maps: the table bundles, the
zigzag recount and the CLI's table reports take their names and order
from them.

Every caller gets the stored table or rank dict itself, so none may
change it.  ``all_tables`` and ``natural_maps`` are plain bundles built
from the store, so a caller that reads one table or one map should ask
for it alone: the checks read the five tables and the Bott-Chern to
Aeppli map, never the pages or the other six maps, and build no
subspace unless the complex carries pairings.
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
    rank,
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


# The subspaces the store builds where subspaces are read (see the module
# docstring): "ker_*" are kernels out of (p, q), "im_*" images landing in
# (p, q).  The Bott-Chern cocycles are ker del ∩ ker delbar,
# and the Aeppli coboundaries im del + im delbar are one echelon of
# [del | delbar].
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

# Each theory's cocycles and coboundaries as block ranks: the name of the
# map S whose kernel out of a key is the cocycles, the name of the map A
# whose image is the coboundaries, and the key A leaves from, given the
# key it lands in.  "stack" is [del; delbar] out of a bidegree and "join"
# is [del | delbar] into it.
_RANKS = {
    "de_rham": ("d", "d", lambda deg: deg - 1),
    "dolbeault": ("delbar", "delbar", lambda bid: (bid[0], bid[1] - 1)),
    "conj_dolbeault": ("del", "del", lambda bid: (bid[0] - 1, bid[1])),
    "bott_chern": ("stack", "ddbar", lambda bid: (bid[0] - 1, bid[1] - 1)),
    "aeppli": ("ddbar", "join", lambda bid: bid),
}

# Per natural map, the keys of the del delbar blocks whose ranks add up
# to rk(S A), given the key of the map.
_OVERLAPS = {
    ("bott_chern", "dolbeault"): lambda bid: [(bid[0], bid[1] - 1)],
    ("bott_chern", "conj_dolbeault"): lambda bid: [(bid[0] - 1, bid[1])],
    ("bott_chern", "de_rham"): lambda deg: [deg - 1],
    ("bott_chern", "aeppli"): lambda bid: [(bid[0], bid[1] - 1),
                                           (bid[0] - 1, bid[1])],
    ("dolbeault", "aeppli"): lambda bid: [(bid[0] - 1, bid[1])],
    ("conj_dolbeault", "aeppli"): lambda bid: [(bid[0], bid[1] - 1)],
    ("de_rham", "aeppli"): lambda deg: [deg - 1],
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


def _block_ranks(k):
    """The block ranks of ``k`` (see the module docstring), by name:
    "del", "delbar", "ddbar", "stack" and "join" per support bidegree,
    "d" per total degree.  A key that is missing has rank 0."""

    def count():
        dels, delbars = k.del_blocks(), k.delbar_blocks()
        ranks = {"del": {bid: rank(m) for bid, m in dels.items()},
                 "delbar": {bid: rank(m) for bid, m in delbars.items()},
                 "ddbar": {}, "stack": {}, "join": {},
                 "d": {deg: rank(m)
                       for deg, m in _total(k).differentials.items()}}
        rk_del, rk_delbar = ranks["del"], ranks["delbar"]
        for bid in k.support():
            p, q = bid
            d, db = dels.get(bid), delbars.get(bid)
            if db is not None and (p, q + 1) in dels:
                ranks["ddbar"][bid] = rank(_ddbar(k, bid))
            ranks["stack"][bid] = (
                rank(place_blocks(d.rows + db.rows, d.cols,
                                  [(0, 0, d), (d.rows, 0, db)]))
                if d is not None and db is not None
                else rk_del.get(bid, 0) + rk_delbar.get(bid, 0))
            d, db = dels.get((p - 1, q)), delbars.get((p, q - 1))
            ranks["join"][bid] = (
                rank(d.hstack(db)) if d is not None and db is not None
                else rk_del.get((p - 1, q), 0) + rk_delbar.get((p, q - 1), 0))
        return ranks

    return _once(k, "ranks", count)


def _dims(k, by_degree):
    """The dimension per key of a table: per total degree when
    ``by_degree`` (de Rham), else per support bidegree."""
    if by_degree:
        return _total(k).dims
    return {bid: k.dimension(*bid) for bid in k.support()}


def _keyed(k, name, by_degree):
    """The block ranks ``name``, summed over anti-diagonals when
    ``by_degree`` (the ranks of d are per degree already)."""
    ranks = _block_ranks(k)[name]
    if not by_degree or name == "d":
        return ranks
    out = {}
    for (p, q), r in ranks.items():
        out[p + q] = out.get(p + q, 0) + r
    return out


def _count(k, source, target, by_degree):
    """Per key, dim - rk S - rk A, with S the map whose kernel is the
    source's cocycles and A the map whose image is the target's
    coboundaries.  From a theory to itself it is the theory's table."""
    out = _keyed(k, _RANKS[source][0], by_degree)
    _, coboundaries, at = _RANKS[target]
    into = _keyed(k, coboundaries, by_degree)
    return {key: dim - out.get(key, 0) - into.get(at(key), 0)
            for key, dim in _dims(k, by_degree).items()}


def _pairs(k, theory):
    """Per key of the theory's table, its (cocycles, coboundaries) pair."""
    cocycles, coboundaries = _PAIRS[theory]
    return {key: (_subspace(k, cocycles, key), _subspace(k, coboundaries, key))
            for key in _dims(k, theory == "de_rham")}


def _table(k, theory):
    """The theory's table, counted from block ranks by :func:`_count`."""
    return _once(k, ("table", theory), lambda: CohomologyTable(
        theory=theory,
        dims=_count(k, theory, theory, theory == "de_rham")))


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

    The rank is dim Z - dim(Z ∩ B), with Z the source cocycles and B the
    target coboundaries: dim - rk S - rk A from :func:`_count`, plus the
    del delbar ranks that ``_OVERLAPS`` lists for rk(S A).  A map through
    de Rham is keyed by total degree.
    """
    by_degree = "de_rham" in (source, target)
    ranks = _count(k, source, target, by_degree)
    ddbar = _keyed(k, "ddbar", by_degree)
    overlap = _OVERLAPS[source, target]
    return {key: r + sum(ddbar.get(c, 0) for c in overlap(key))
            for key, r in ranks.items()}


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
