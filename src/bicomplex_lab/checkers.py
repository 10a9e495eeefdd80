"""Mechanical verification of quantitative cohomology statements.

Each check inspects one complex and returns a :class:`CheckReport` with a
verdict of ``"holds"``, ``"fails"``, or ``"notApplicable"`` plus exact
integer witnesses, so reports are reproducible and diffable.  A ``fails``
verdict always carries the concrete numbers that violate the statement.
Every check takes the complex alone and reads the tables, the defect, the
Bott-Chern to Aeppli map, the real-structure verdict and the pairing
certificate from its store (see :mod:`.cohomology`), so the checks run
on one complex compute each of them once between them, and build no
subspace.  A check that compares totals sums the stored table along
anti-diagonals itself (:meth:`.CohomologyTable.totals`); the store
keeps no totals.  The extra structures are the complex's own plain
dicts: ``k.conj`` (the conjugation, see :class:`.Bicomplex`) gates the
upper bound and the conjugation rows of the dualities, and
``k.pairings`` with a declared n gates the pairing check and the
product rows of the dualities; the pairing check, the one reader of the
pairing matrices, also needs the pairing certified as a Stokes duality
(:func:`.bicomplex.check_pairing_structure`).  Validation owns the
support rule: a complex with a declared n and support outside [0, n]^2
is invalid, so every check raises ``ValueError`` on it.

The checks, roughly in logical order:

* ``frolicher_check`` - anti-diagonal Dolbeault totals dominate the Betti
  numbers.
* ``non_ddbar_degrees`` - the defect h_BC + h_A - 2b is non-negative in
  every degree; its total vanishes exactly in the two-differential-lemma
  case.
* ``upper_bound_check`` - Aeppli and Bott-Chern totals are bounded by
  min(k+1, 2n-k+1) times neighboring Dolbeault totals.  Requires a
  declared n and a validated conjugation (without the symmetry the bound
  genuinely fails on e.g. a lone vertical domino, so the check gates
  rather than guesses).
* ``char_minus_check`` - the absolute sum of h_BC - h_A vanishes iff the
  degree-wise comparison map from Bott-Chern to Aeppli is injective.
* ``ddbar_lemma_check`` - three independent formulations of the lemma
  (injectivity of the comparison maps, squares-and-dots-only
  decomposition, vanishing defect sum) must agree.  The second is read
  off ranks the tables already hold, not off a decomposition: a
  bounded double complex is a direct sum of squares and zigzags
  (Stelzig 2021) and ranks add over summands, so with r(p, q) the rank
  of del delbar out of (p, q) it holds exactly when rank del out of
  (p, q) is r(p, q) + r(p, q-1) and rank delbar is r(p, q) + r(p-1, q)
  everywhere.  So ``check`` and ``corpus`` do not certify a
  decomposition of each complex; ``decompose``, ``render``, the
  acceptance tests and the benchmark's reference checks do.
* ``schweitzer_pairing_check`` - the top-form pairing on Bott-Chern
  cohomology is non-degenerate exactly when the lemma holds.  The
  pairing is certified as a Stokes duality first (invertible blocks,
  both differentials moved across it by products); an uncertified one
  is not applicable.  On a certified pairing each Gram rank is the rank
  of the Bott-Chern to Aeppli map at the complementary bidegree, so the
  check adds no elimination to the map the store already counts.
* ``duality_check`` - Betti/Serre/Bott-Chern-vs-Aeppli dualities and
  conjugation symmetries, gated on the structures that make them
  meaningful.
"""

from dataclasses import dataclass

from .bicomplex import check_pairing_structure, check_real_structure
from .cohomology import (_block_ranks, _natural_map, _once, aeppli,
                         bott_chern, conj_dolbeault, de_rham, dolbeault)

THEOREM_CHECK_NAMES = ("frolicher_inequality", "non_ddbar_degrees",
                       "hodge_upper_bounds")

ALL_CHECK_NAMES = THEOREM_CHECK_NAMES + (
    "bc_aeppli_characterization", "ddbar_lemma", "schweitzer_pairing",
    "dualities")


@dataclass(frozen=True)
class CheckReport:
    """One verified statement: name, verdict, and exact witnesses."""

    check_name: str
    verdict: str  # "holds" | "fails" | "notApplicable"
    witnesses: dict

    def to_json_dict(self):
        return {"checkName": self.check_name, "verdict": self.verdict,
                "witnesses": self.witnesses}


def _degrees(*dicts):
    keys = set()
    for d in dicts:
        keys.update(d)
    return sorted(keys)


def _real_structure(k):
    """Whether the carried conjugation validates, decided once per
    complex (the caller has checked that there is one)."""
    return _once(k, "real_structure", lambda: check_real_structure(k))


def _bc_to_a_injective(k):
    ranks = _natural_map(k, "bott_chern", "aeppli")
    dims = bott_chern(k).dims
    return all(ranks[bid] == dims[bid] for bid in dims)


def frolicher_check(k):
    """Dolbeault anti-diagonal totals are at least the Betti numbers."""
    betti = de_rham(k).dims
    hodge = dolbeault(k).totals()
    gaps = {deg: hodge.get(deg, 0) - betti.get(deg, 0)
            for deg in _degrees(betti, hodge)}
    verdict = "holds" if all(g >= 0 for g in gaps.values()) else "fails"
    return CheckReport(
        check_name="frolicher_inequality", verdict=verdict,
        witnesses={"Gap": {str(deg): gap for deg, gap in gaps.items()}})


def _defect(k):
    """Per degree, the defect h_BC + h_A - 2b, counted once per complex:
    :func:`non_ddbar_degrees` reports it and :func:`ddbar_lemma_check`
    reads its sum."""

    def count():
        betti = de_rham(k).dims
        h_bc = bott_chern(k).totals()
        h_a = aeppli(k).totals()
        return {deg: h_bc.get(deg, 0) + h_a.get(deg, 0)
                - 2 * betti.get(deg, 0)
                for deg in _degrees(betti, h_bc, h_a)}

    return _once(k, "defect", count)


def non_ddbar_degrees(k):
    """Per-degree defect h_BC + h_A - 2b, its non-negativity and total."""
    delta = _defect(k)
    total = sum(delta.values())
    verdict = "holds" if all(v >= 0 for v in delta.values()) else "fails"
    return CheckReport(
        check_name="non_ddbar_degrees", verdict=verdict,
        witnesses={"Delta": {str(deg): v for deg, v in delta.items()},
                   "DeltaSum": total, "DeltaSumZero": total == 0})


def upper_bound_check(k):
    """Aeppli/Bott-Chern totals vs. scaled neighboring Dolbeault totals.

    Applicable only to complexes with a declared n and a validated
    conjugation; without the symmetry the inequality can genuinely fail,
    so the check reports notApplicable rather than a misleading verdict.
    Support inside [0, n]^2 is not checked here: validation rejects a
    complex that breaks it.
    """

    def skip(reason):
        return CheckReport(check_name="hodge_upper_bounds",
                           verdict="notApplicable",
                           witnesses={"Reason": reason})

    if k.n is None:
        return skip("no declared n")
    if k.conj is None:
        return skip("no conjugation structure")
    if not _real_structure(k):
        return skip("conjugation structure does not validate")
    hodge = dolbeault(k).totals()
    h_a = aeppli(k).totals()
    h_bc = bott_chern(k).totals()
    aeppli_slack = {}
    bc_slack = {}
    for deg in range(0, 2 * k.n + 1):
        cap = min(deg + 1, 2 * k.n - deg + 1)
        aeppli_slack[deg] = (cap * (hodge.get(deg, 0) + hodge.get(deg + 1, 0))
                             - h_a.get(deg, 0))
        bc_slack[deg] = (cap * (hodge.get(deg, 0) + hodge.get(deg - 1, 0))
                         - h_bc.get(deg, 0))
    good = all(v >= 0 for v in aeppli_slack.values()) \
        and all(v >= 0 for v in bc_slack.values())
    return CheckReport(
        check_name="hodge_upper_bounds",
        verdict="holds" if good else "fails",
        witnesses={
            "AeppliSlack": {str(d): v for d, v in aeppli_slack.items()},
            "BottChernSlack": {str(d): v for d, v in bc_slack.items()}})


def char_minus_check(k):
    """|h_BC - h_A| summed over degrees vanishes iff the lemma holds."""
    h_bc = bott_chern(k).totals()
    h_a = aeppli(k).totals()
    degrees = _degrees(h_bc, h_a)
    diff = {deg: h_bc.get(deg, 0) - h_a.get(deg, 0) for deg in degrees}
    total = sum(abs(v) for v in diff.values())
    direct = _bc_to_a_injective(k)
    verdict = "holds" if (total == 0) == direct else "fails"
    return CheckReport(
        check_name="bc_aeppli_characterization", verdict=verdict,
        witnesses={"Difference": {str(d): v for d, v in diff.items()},
                   "AbsoluteSum": total, "SumZero": total == 0,
                   "LemmaDirect": direct})


def _only_squares_and_dots(k):
    """Predicate (b) of :func:`ddbar_lemma_check`.  Its ranks are the
    block ranks of ``cohomology._block_ranks``, which the tables are
    counted from, so the predicate adds no elimination."""
    ranks = _block_ranks(k)
    r_del, r_delbar, r = ranks["del"], ranks["delbar"], ranks["ddbar"]
    return all(
        r_del.get((p, q), 0) == r.get((p, q), 0) + r.get((p, q - 1), 0)
        and r_delbar.get((p, q), 0) == r.get((p, q), 0) + r.get((p - 1, q), 0)
        for (p, q) in k.support())


def ddbar_lemma_check(k):
    """Three formulations of the lemma, which must agree.

    (a) the comparison map from Bott-Chern to Aeppli is injective at
    every bidegree, (b) the complex is a sum of squares and lone dots,
    (c) the defect sum of :func:`non_ddbar_degrees` is zero.  The
    verdict is ``holds`` when the three predicates agree (whatever the
    common value - that common value is the lemma status).

    (b) is read off ranks, not off a decomposition.  A square anchored
    at (a, b) adds a del arrow out of (a, b) and (a, b+1), a delbar
    arrow out of (a, b) and (a+1, b), and the one del delbar arrow out
    of (a, b); a zigzag adds no del delbar, and one of two or more dots
    has an arrow.  Ranks add over summands, so with r(p, q) the rank of
    del delbar out of (p, q) (0 off the support), (b) holds exactly
    when every support bidegree has rank del = r(p, q) + r(p, q-1) and
    rank delbar = r(p, q) + r(p-1, q).  The check therefore certifies
    no decomposition of ``k``; ``zigzag.decompose`` does.
    """
    injective = _bc_to_a_injective(k)
    only_squares_and_dots = _only_squares_and_dots(k)
    delta_sum_zero = sum(_defect(k).values()) == 0
    agree = injective == only_squares_and_dots == delta_sum_zero
    witnesses = {"InjectiveEverywhere": injective,
                 "OnlySquaresAndDots": only_squares_and_dots,
                 "DeltaSumZero": delta_sum_zero}
    if agree:
        witnesses["LemmaHolds"] = injective
    return CheckReport(check_name="ddbar_lemma",
                       verdict="holds" if agree else "fails",
                       witnesses=witnesses)


def schweitzer_pairing_check(k):
    """The pairing on Bott-Chern cohomology is non-degenerate exactly
    when the lemma holds.

    The pairing is first certified as a Stokes duality by
    :func:`.bicomplex.check_pairing_structure`: every block invertible,
    and both differentials moved across it with the Leibniz sign.  A
    pairing it refuses (a block missing, misshapen or singular, or a
    Stokes identity broken) makes the check not applicable, with the
    first failure as the reason; the complex is validated first.

    On a certified pairing Bott-Chern at (p, q) is dual to Aeppli at
    (n-p, n-q), and the Gram form on BC(p, q) x BC(n-p, n-q) is that
    duality composed with the map from Bott-Chern to Aeppli at
    (n-p, n-q).  So the Gram rank at (p, q) is the rank of that map at
    the complementary bidegree, which the store counts from block ranks
    (:func:`.cohomology._natural_map`); no representative is built.  The
    pair is non-degenerate when its rank equals the dimension on both
    sides.  Stokes makes the pairing kill im del delbar on Bott-Chern
    cocycles, so ``IllDefined`` is always empty.  The verdict asserts
    the two-way statement: ``holds`` iff ``NonDegenerate == LemmaHolds``.
    """

    def skip(reason):
        return CheckReport(check_name="schweitzer_pairing",
                           verdict="notApplicable",
                           witnesses={"Reason": reason})

    if k.pairings is None:
        return skip("no product structure")
    if k.n is None:
        return skip("no declared n")
    problem = _once(k, "pairing_structure",
                    lambda: check_pairing_structure(k))
    if problem:
        return skip(problem)
    n = k.n
    dims = bott_chern(k).dims
    to_aeppli = _natural_map(k, "bott_chern", "aeppli")
    gram_rank = {}
    degenerate = []
    for p in range(n + 1):
        for q in range(n + 1):
            bid, comp = (p, q), (n - p, n - q)
            r = gram_rank[str(bid)] = to_aeppli.get(comp, 0)
            if not (r == dims.get(bid, 0) == dims.get(comp, 0)):
                degenerate.append(str(bid))
    non_degenerate = not degenerate
    lemma = _bc_to_a_injective(k)
    return CheckReport(
        check_name="schweitzer_pairing",
        verdict="holds" if non_degenerate == lemma else "fails",
        witnesses={"GramRank": gram_rank,
                   "BottChern": {str(b): v for b, v in sorted(dims.items())},
                   "Degenerate": degenerate, "IllDefined": [],
                   "NonDegenerate": non_degenerate, "LemmaHolds": lemma})


def duality_check(k):
    """Betti, Serre, and Bott-Chern/Aeppli dualities plus conjugation
    symmetries, each gated on the structure that makes it meaningful."""
    has_product = k.pairings is not None and k.n is not None
    conj_valid = k.conj is not None and _real_structure(k)
    if not has_product and not conj_valid:
        return CheckReport(check_name="dualities", verdict="notApplicable",
                           witnesses={"Reason": "no usable product or "
                                                "conjugation structure"})
    witnesses = {"ProductRows": has_product, "ConjugationRows": conj_valid}
    problems = []
    if has_product:
        n = k.n
        betti = de_rham(k).dims
        for deg in range(0, 2 * n + 1):
            if betti.get(deg, 0) != betti.get(2 * n - deg, 0):
                problems.append(f"betti {deg} vs {2 * n - deg}")
        hodge = dolbeault(k).dims
        h_bc = bott_chern(k).dims
        h_a = aeppli(k).dims
        for p in range(n + 1):
            for q in range(n + 1):
                bid, comp = (p, q), (n - p, n - q)
                if hodge.get(bid, 0) != hodge.get(comp, 0):
                    problems.append(f"serre {bid} vs {comp}")
                if h_bc.get(bid, 0) != h_a.get(comp, 0):
                    problems.append(f"bc-aeppli {bid} vs {comp}")
    if conj_valid:
        hodge = dolbeault(k).dims
        conj = conj_dolbeault(k).dims
        h_bc = bott_chern(k).dims
        h_a = aeppli(k).dims
        for (p, q), value in hodge.items():
            if value != conj.get((q, p), 0):
                problems.append(f"conjugation dolbeault ({p},{q})")
        for table in (h_bc, h_a):
            for (p, q), value in table.items():
                if value != table.get((q, p), 0):
                    problems.append(f"conjugation mirror ({p},{q})")
    witnesses["Mismatches"] = problems
    return CheckReport(check_name="dualities",
                       verdict="holds" if not problems else "fails",
                       witnesses=witnesses)


def run_all_checks(k):
    """All checks on one complex, in ``ALL_CHECK_NAMES`` order.

    They share the complex's store, so the five tables, the Bott-Chern
    to Aeppli map, the real-structure verdict and the pairing
    certificate are computed once for all of them, the tables and the
    map from block and staircase ranks.  Each check sums the tables it
    compares along anti-diagonals itself.  The Frolicher pages, the
    other six maps, the totalization, a subspace and a decomposition are
    not computed at all.
    """
    return (frolicher_check(k), non_ddbar_degrees(k), upper_bound_check(k),
            char_minus_check(k), ddbar_lemma_check(k),
            schweitzer_pairing_check(k), duality_check(k))
