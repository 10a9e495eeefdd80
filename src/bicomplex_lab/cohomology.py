"""The five cohomology tables of a double complex, plus spectral pages.

For a valid bounded double complex with horizontal differential ``del``
(bidegree (1,0)) and vertical differential ``delbar`` (bidegree (0,1)) this
module computes, with exact arithmetic throughout:

* Dolbeault cohomology        ker delbar / im delbar     (per bidegree)
* conjugate Dolbeault         ker del / im del           (per bidegree)
* de Rham cohomology          ker d / im d on the totalization (per degree)
* Bott-Chern cohomology       (ker del ∩ ker delbar) / im (del delbar)
* Aeppli cohomology           ker (del delbar) / (im del + im delbar)

together with the pages of the Frolicher spectral sequence, the one of
the filtration by horizontal degree (first page = Dolbeault, converging
to de Rham), and the ranks of the seven maps
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

The Frolicher pages are counted the same way, from the ranks of
staircase matrices: del and delbar blocks placed along an anti-diagonal
strip, the first one being delbar, a block rank.  The formulas and the
stop rule are in :func:`frolicher_pages`.  So ``all_tables`` builds no
subspace.

Subspaces are built only where subspaces are read: ``representatives``
(the pairing check reads the Bott-Chern ones) and the square splitting
of the decomposition.  They are the kernels and images of del, delbar,
del delbar and d, the Bott-Chern cocycles (the kernel of the stack
[del; delbar]) and the Aeppli coboundaries (``_SUBSPACES``).  A private
store in the complex's ``_store`` slot is the one cache of a complex.
Beside the validity verdict and the zero matrices of absent blocks, it
computes the block ranks, the staircase ranks, each of these subspaces,
the del delbar composites, the totalization, every table and its
anti-diagonal totals, every theory's representatives and every natural
map's ranks at most once, on first use.
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
from itertools import accumulate

from .bicomplex import ensure_valid, totalize
from .exactla import (
    LinAlgError,
    Subspace,
    complete_basis,
    image_basis,
    kernel_basis,
    place_blocks,
    rank,
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
        return _by_degree(self.dims)


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
# (p, q).  The Bott-Chern cocycles ker del ∩ ker delbar are one kernel
# of [del; delbar], and the Aeppli coboundaries im del + im delbar are
# one echelon of [del | delbar].
_SUBSPACES = {
    "ker_del": lambda k, p, q: kernel_basis(k.del_map(p, q)),
    "ker_delbar": lambda k, p, q: kernel_basis(k.delbar_map(p, q)),
    "ker_ddbar": lambda k, p, q: kernel_basis(_ddbar(k, (p, q))),
    "bc_cocycles": lambda k, p, q: kernel_basis(_stack(k, (p, q))),
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


def _stack(k, bid):
    """The stack [del; delbar] out of ``bid``; its kernel is the
    Bott-Chern cocycles there."""
    d, db = k.del_map(*bid), k.delbar_map(*bid)
    return place_blocks(d.rows + db.rows, d.cols, [(0, 0, d), (d.rows, 0, db)])


def _by_degree(dims):
    """A dict keyed by bidegree, summed along anti-diagonals."""
    out = {}
    for (p, q), d in sorted(dims.items()):
        out[p + q] = out.get(p + q, 0) + d
    return out


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
                rank(_stack(k, bid)) if d is not None and db is not None
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
    return _by_degree(ranks)


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


def totals(k, theory):
    """The theory's table summed along anti-diagonals, as
    :meth:`CohomologyTable.totals`, kept in the store so that the checks
    sum each table once per complex."""
    return _once(k, ("totals", theory), lambda: _table(k, theory).totals())


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


def _staircase_rank(k, r, a, b):
    """rk M_r(a, b), the staircase of :func:`frolicher_pages`, counted at
    most once per complex and kept in the store with every smaller
    staircase it reduces to."""
    ranks = _once(k, "staircase", dict)
    key = (r, a, b)
    if key not in ranks:
        if r == 0:
            ranks[key] = 0
        elif r == 1:
            ranks[key] = _block_ranks(k)["delbar"].get((a, b), 0)
        elif not k.dimension(a, b):
            # x_0 is empty, so its row is zero: the rest is
            # M_{r-1}(a+1, b-1).
            ranks[key] = _staircase_rank(k, r - 1, a + 1, b - 1)
        elif not k.dimension(a + r - 1, b - r + 2):
            # The last row is empty, so x_{r-1}, which only meets it, is
            # a zero column: the rest is M_{r-1}(a, b).
            ranks[key] = _staircase_rank(k, r - 1, a, b)
        else:
            ranks[key] = rank(_staircase(k, r, a, b))
    return ranks[key]


def _staircase(k, r, a, b):
    """The matrix M_r(a, b) of :func:`frolicher_pages`, placed from the
    stored blocks of ``k``."""
    col_at = [0, *accumulate(k.dimension(a + i, b - i) for i in range(r))]
    row_at = [0, *accumulate(k.dimension(a + j, b - j + 1)
                             for j in range(r))]
    dels, delbars = k.del_blocks(), k.delbar_blocks()
    blocks = []
    for j in range(r):
        m = delbars.get((a + j, b - j))
        if m is not None:
            blocks.append((row_at[j], col_at[j], m))
        m = dels.get((a + j - 1, b - j + 1)) if j else None
        if m is not None:
            blocks.append((row_at[j], col_at[j - 1], m))
    return place_blocks(row_at[-1], col_at[-1], blocks)


def frolicher_pages(k):
    """Spectral-sequence pages for the filtration by horizontal degree.

    Page r is counted from the ranks of staircase matrices.  M_r(a, b)
    has column blocks x_i in A^{a+i, b-i} for i < r and row blocks
    A^{a+j, b-j+1} for j < r; its diagonal block (j, j) is delbar out of
    (a+j, b-j) and its block (j, j-1) is del out of (a+j-1, b-j+1), so
    its rows are delbar x_0, del x_0 + delbar x_1, ...,
    del x_{r-2} + delbar x_{r-1}.  M_0 = 0 and M_1(a, b) is delbar out of
    (a, b), a block rank of the store.  Writing R_r for rk M_r, at (p, q):

    * Z_r, the x_0 of the kernel of M_r(p, q), has dimension
      dim A^{p,q} - R_r(p, q) + R_{r-1}(p+1, q-1), since the kernel
      vectors with x_0 = 0 are the kernel of M_{r-1}(p+1, q-1);
    * B_r, the image of the last row of M_r(p-r+1, q+r-2) on the kernel
      of the rows above it, has dimension
      R_r(p-r+1, q+r-2) - R_{r-1}(p-r+1, q+r-2);
    * the page is dim Z_r - dim B_r, so page 1 is the Dolbeault table.

    Each rank is counted once per complex (``_staircase_rank``).  Pages
    weakly decrease pointwise and the limit sums along anti-diagonals to
    the Betti numbers, so the first page whose anti-diagonal totals equal
    de Rham is the limit, ``r_stab``, and the loop stops there.  Page
    p-width + 1 is the limit of any valid bounded complex; a complex that
    has not reached de Rham by then raises LinAlgError instead of
    looping.  Pages past ``r_stab`` are omitted, since they repeat it.
    """
    support = k.support()
    if not support:
        return FrolicherPages(pages={1: {}})
    p_values = [p for p, _ in support]
    hard_stop = max(p_values) - min(p_values) + 1
    betti = de_rham(k).dims
    pages = {}

    def rk(r, a, b):
        return _staircase_rank(k, r, a, b)

    for r in range(1, hard_stop + 1):
        pages[r] = page = {
            (p, q): k.dimension(p, q) - rk(r, p, q) + rk(r - 1, p + 1, q - 1)
            - rk(r, p - r + 1, q + r - 2) + rk(r - 1, p - r + 1, q + r - 2)
            for (p, q) in support}
        sums = _by_degree(page)
        if all(sums.get(deg, 0) == d for deg, d in betti.items()):
            return FrolicherPages(pages=pages)
    raise LinAlgError(f"Frolicher pages did not reach de Rham by page "
                      f"{hard_stop}, the p-width + 1")


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
