"""The five cohomology tables of a double complex, plus spectral pages.

For a valid bounded double complex with horizontal differential ``del``
(bidegree (1,0)) and vertical differential ``delbar`` (bidegree (0,1)) this
module computes, with exact arithmetic throughout:

* Dolbeault cohomology        ker delbar / im delbar     (per bidegree)
* conjugate Dolbeault         ker del / im del           (per bidegree)
* de Rham cohomology          ker d / im d, d = del + delbar (per degree)
* Bott-Chern cohomology       (ker del ∩ ker delbar) / im (del delbar)
* Aeppli cohomology           ker (del delbar) / (im del + im delbar)

together with the pages of the Frolicher spectral sequence, the one of
the filtration by horizontal degree (first page = Dolbeault, converging
to de Rham), and the ranks of the seven maps induced by the identity
between these theories.  A table holds only the dimensions,
dim cocycles - dim coboundaries; no representative of a class is built.

Every table and every map rank is counted from the ranks of single
blocks, which the store computes once per complex (``_block_ranks``).
At each support bidegree b they are the ranks of

* del, delbar and del delbar out of b,
* the stack [del; delbar] out of b, whose kernel is the Bott-Chern
  cocycles ker del ∩ ker delbar,
* [del | delbar] into b, whose image is the Aeppli coboundaries
  im del + im delbar.

In each total degree k the rank of d out of k is the rank of one
staircase matrix (:func:`.bicomplex._staircase`), which holds every del
and delbar block out of degree k, so no table totalizes the complex.
Where it is eliminated, it is the number of pivot pairs of
:func:`_d_pairs`, which the Frolicher pages read too.  Only the del and
delbar ranks are always eliminated.  Each other rank lies between exact
bounds read off ranks already counted, which hold over any field for a
valid complex: Sylvester's inequality for del delbar, im del delbar inside
ker del ∩ ker delbar for the stack, im del + im delbar inside
ker del delbar for the join, and for d its block-triangular shape and
d^2 = 0 (``_block_ranks`` and ``_d_ranks`` prove each bound).  Where the
lower bound equals the upper one the rank is taken without building the
matrix.  So a block that is absent has rank 0 and builds no matrix, and a
stack or a pair with one absent side gets the rank of the other side.

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

The Frolicher pages are counted from the same passes.  Over a field a
filtered complex splits into single generators and pairs x -> dx
(Barannikov, *The framed Morse complex and its invariants*, Adv. Soviet
Math. 1994), and its spectral sequence is read off the filtration gaps
of the pairs, as in persistence (Edelsbrunner and Harer, *Computational
Topology*, AMS 2010): a pair whose dx lies g columns to the right of x
lives on pages 1..g at both of its ends.  One forward elimination of d
per degree, its columns in descending p and its rows in ascending p,
finds those pairs (:func:`_d_pairs`), and :func:`frolicher_pages` takes
each page from Dolbeault less the pairs of smaller gap.  So
``all_tables`` builds no subspace.

The complex's private ``_store`` is the one cache of a complex, and
:func:`.bicomplex._once` the one memo that fills it.  Beside the
validity verdict, it keeps the block ranks, the ranks and pivot pairs of
d, every table and every natural map's ranks, each computed at most
once, on first use.  It holds no matrix and no subspace:
``_block_ranks`` forms a del delbar composite only to eliminate it, and
decompose forms the composites and takes their kernels itself.  The
grading is the complex's own: tables are keyed by
:meth:`.Bicomplex.spaces` and, for de Rham, by the degree dimensions
that ``bicomplex._total_dims`` also keeps in the store.  Anti-diagonal
totals are not stored: :meth:`CohomologyTable.totals` sums a table's few
entries where a check reads them.  ``THEORIES`` is the one list of
theories and the fields of :class:`NaturalMapRanks` the one list of
maps: the table bundles, the zigzag recount and the CLI's table reports
take their names and order from them.

Every caller gets the stored table or rank dict itself, so none may
change it.  ``all_tables`` and ``natural_maps`` are plain bundles built
from the store, so a caller that reads one table or one map should ask
for it alone: the checks read the five tables and the Bott-Chern to
Aeppli map, never the pages or the other six maps, and build no
subspace.
"""

from dataclasses import dataclass, fields, make_dataclass

from . import exactla
from .bicomplex import _d_staircases, _once, _staircase, _total_dims
from .exactla import LinAlgError, place_blocks, rank

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


def _stack(k, bid):
    """The stack [del; delbar] out of ``bid``; its kernel is the
    Bott-Chern cocycles there."""
    d, db = k.del_map(*bid), k.delbar_map(*bid)
    return place_blocks(d.rows + db.rows, d.cols, [(0, 0, d), (d.rows, 0, db)])


def _by_degree(dims):
    """A dict keyed by bidegree, summed along anti-diagonals, each degree
    first met in the order of ``dims``.  Tables are keyed in (p, q)
    order, and the rank dicts summed here are read only with ``get``, so
    nothing is sorted."""
    out = {}
    for (p, q), d in dims.items():
        out[p + q] = out.get(p + q, 0) + d
    return out


def _bounded(low, high, eliminate):
    """A rank known to lie between ``low`` and ``high``: ``low`` when the
    bounds meet, else ``eliminate()``, which builds and ranks the matrix."""
    return low if low == high else eliminate()


def _block_ranks(k):
    """The block ranks of ``k`` (see the module docstring), by name:
    "del", "delbar", "ddbar", "stack" and "join" per support bidegree.
    A key that is missing has rank 0.  The ranks of d are counted apart,
    by ``_d_ranks``, which reads the del and delbar ranks here.

    The del and delbar ranks are eliminated.  The others are walked in
    increasing (p, q) and taken from exact bounds when the bounds meet,
    since the complex is valid; with n the dimension out of (p, q):

    * del delbar out of (p, q) lies between Sylvester's lower bounds
      rk A + rk B - (inner dimension) for its two factorizations
      del(p, q+1) delbar(p, q) and -delbar(p+1, q) del(p, q), and the
      least of those four ranks: a product has at most the rank of
      either factor.
    * [del; delbar] out of (p, q) lies between max(rk del, rk delbar) and
      min(rk del + rk delbar, n - rk del delbar(p-1, q-1)): its kernel
      ker del ∩ ker delbar lies in each kernel, has codimension at most
      the sum of the ranks and holds im del delbar.
    * [del | delbar] into (p, q) lies between the larger of its two ranks
      and min(their sum, n - rk del delbar(p, q)): its image
      im del + im delbar holds each image and lies in ker del delbar.
    """

    def count():
        dels, delbars = k.del_blocks(), k.delbar_blocks()
        rk_del = {bid: rank(m) for bid, m in dels.items()}
        rk_delbar = {bid: rank(m) for bid, m in delbars.items()}
        ddbar, stack, join = {}, {}, {}
        for bid, dim in k.spaces().items():
            p, q = bid
            d, db = rk_del.get(bid, 0), rk_delbar.get(bid, 0)
            if bid in delbars and (p, q + 1) in dels:
                up, right = rk_del[(p, q + 1)], rk_delbar.get((p + 1, q), 0)
                ddbar[bid] = _bounded(
                    max(0, up + db - k.dimension(p, q + 1),
                        right + d - k.dimension(p + 1, q)),
                    min(up, db, right, d),
                    lambda: rank(dels[(p, q + 1)] @ delbars[bid]))
            stack[bid] = _bounded(
                max(d, db), min(d + db, dim - ddbar.get((p - 1, q - 1), 0)),
                lambda: rank(_stack(k, bid)))
            d, db = rk_del.get((p - 1, q), 0), rk_delbar.get((p, q - 1), 0)
            join[bid] = _bounded(
                max(d, db), min(d + db, dim - ddbar.get(bid, 0)),
                lambda: rank(k.del_map(p - 1, q).hstack(
                    k.delbar_map(p, q - 1))))
        return {"del": rk_del, "delbar": rk_delbar, "ddbar": ddbar,
                "stack": stack, "join": join}

    return _once(k, "ranks", count)


def _d_ranks(k):
    """rk d per total degree where ``bicomplex._d_staircases`` names a
    staircase for d; a degree that is missing has rank 0.

    Walked in increasing degree, rk d(k) is taken from exact bounds when
    they meet, and is otherwise the number of pairs of :func:`_d_pairs`:

    * it is at least the sum of the del ranks out of degree k, and at
      least that of the delbar ranks: ordered by p, d is block triangular
      with either differential's blocks on the diagonal;
    * it is at most dim_{k+1}, and at most dim_k - rk d(k-1), since
      d^2 = 0 puts im d(k-1) in ker d(k).
    """

    def count():
        dims = _total_dims(k)
        ranks = _block_ranks(k)
        by_del, by_delbar = (_by_degree(ranks["del"]),
                             _by_degree(ranks["delbar"]))
        out = {}
        for deg in _d_staircases(k):
            out[deg] = _bounded(
                max(by_del.get(deg, 0), by_delbar.get(deg, 0)),
                min(dims[deg + 1], dims[deg] - out.get(deg - 1, 0)),
                lambda: sum(_d_pairs(k, deg).values()))
        return out

    return _once(k, "d_ranks", count)


def _d_pairs(k, deg):
    """The pivot pairs of d out of total degree ``deg``, filtered by p, as
    {(p, gap): count}, the counts summing to rk d: a pair leaves
    A^{p, deg-p} and enters A^{p+gap, deg+1-p-gap} (see
    :func:`frolicher_pages` for what the gaps mean).

    One forward pass of ``exactla._forward`` runs over the staircase of
    d with its rows in ascending p and its column blocks in descending p
    (``_staircase(..., descending=True)``): a column is reduced only by
    the columns before it, which lie in the same or a higher p, so each
    pivot column is a vector x of exact filtration p whose dx leads, at
    its least p, in the pivot row.  None is run where the staircase
    reduces without one:

    * an empty first column block leaves the first row block zero, and
      an empty last row block leaves the last column block zero, since
      its del lands one p further, where the support or an earlier step
      left nothing: such blocks are dropped, and a staircase left with
      one bidegree is its delbar, whose stored rank counts its pairs,
      all of gap 0;
    * a zero matrix has no pair, and one with a single row or column one
      pair, at the lead of its first nonzero column.

    Counted at most once per complex and kept in the store.
    """

    def count():
        r, a, b = _d_staircases(k)[deg]
        while r > 1:
            if not k.dimension(a, b):
                a, b = a + 1, b - 1
            elif k.dimension(a + r - 1, b - r + 2):
                break
            r -= 1
        if r == 1:
            rk = _block_ranks(k)["delbar"].get((a, b), 0)
            return {(a, 0): rk} if rk else {}
        m = _staircase(k, r, a, b, descending=True)
        if m.is_zero():
            return {}
        columns = m._data
        if m.rows == 1 or m.cols == 1:
            j = next(j for j, c in enumerate(columns) if c)
            pivots = [(min(columns[j]), j, None)]
        else:
            pivots = exactla._forward(columns)
        # The p of each row and column, in the staircase's order.
        spaces, row_p, col_p = k.spaces(), [], []
        for i in range(r):
            row_p += [a + i] * spaces.get((a + i, b - i + 1), 0)
            col_p = [a + i] * spaces.get((a + i, b - i), 0) + col_p
        out = {}
        for row, j, _ in pivots:
            p = col_p[j]
            key = p, row_p[row] - p
            out[key] = out.get(key, 0) + 1
        return out

    return _once(k, ("d_pairs", deg), count)


def _keyed(k, name, by_degree):
    """The block ranks ``name``, summed over anti-diagonals when
    ``by_degree``; "d" is the ranks of d, per degree already."""
    if name == "d":
        return _d_ranks(k)
    ranks = _block_ranks(k)[name]
    return _by_degree(ranks) if by_degree else ranks


def _count(k, source, target, by_degree):
    """Per key, dim - rk S - rk A, with S the map whose kernel is the
    source's cocycles and A the map whose image is the target's
    coboundaries.  From a theory to itself it is the theory's table."""
    out = _keyed(k, _RANKS[source][0], by_degree)
    _, coboundaries, at = _RANKS[target]
    into = _keyed(k, coboundaries, by_degree)
    dims = _total_dims(k) if by_degree else k.spaces()
    return {key: dim - out.get(key, 0) - into.get(at(key), 0)
            for key, dim in dims.items()}


def _table(k, theory):
    """The theory's table, counted from block ranks by :func:`_count`."""
    return _once(k, ("table", theory), lambda: CohomologyTable(
        theory=theory,
        dims=_count(k, theory, theory, theory == "de_rham")))


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

    Over a field a filtered complex splits into single generators and
    pairs x -> dx (Barannikov, *The framed Morse complex and its
    invariants*, Adv. Soviet Math. 1994), and its spectral sequence is
    read off the filtration gaps of the pairs, as in persistence
    (Edelsbrunner and Harer, *Computational Topology*, AMS 2010).  A
    pair whose x has exact filtration p and whose dx has p + gap is
    killed by d_gap: it lives on pages 1..gap at both of its ends, and a
    gap-0 pair is a pair of delbar, on no page at all.  The pairs of d
    per degree are those of :func:`_d_pairs`.  So page 1 is the
    Dolbeault table, and page r at (p, q) is page 1 less the pairs with
    1 <= gap < r that leave or enter (p, q).  ``r_stab`` is 1 + the
    largest gap, and pages past it are omitted, since they repeat it.

    A degree where rk d is the sum of the delbar ranks has only gap-0
    pairs and runs no pass; so where the Dolbeault totals equal de Rham
    no pass runs, and the pages stop at page 1.  The limit sums along
    anti-diagonals to the Betti numbers; a last page whose sums differ
    raises LinAlgError, naming page p-width + 1, by which any valid
    bounded complex has reached its limit.
    """
    betti = de_rham(k).dims
    by_delbar = _by_degree(_block_ranks(k)["delbar"])
    gaps = {}
    for deg, rk in _d_ranks(k).items():
        if rk > by_delbar.get(deg, 0):
            for (p, gap), n in _d_pairs(k, deg).items():
                if gap:
                    gaps.setdefault(gap, []).append(
                        ((p, deg - p), (p + gap, deg + 1 - p - gap), n))
    page = dict(dolbeault(k).dims)
    pages = {1: page}
    for r in range(2, max(gaps, default=0) + 2):
        pages[r] = page = dict(page)
        for source, target, n in gaps.get(r - 1, ()):
            page[source] -= n
            page[target] -= n
    sums = _by_degree(page)
    if any(sums.get(deg, 0) != d for deg, d in betti.items()):
        support = k.support()
        raise LinAlgError(f"Frolicher pages did not reach de Rham by page "
                          f"{support[-1][0] - support[0][0] + 1}, the "
                          f"p-width + 1")
    return FrolicherPages(pages=pages)


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
