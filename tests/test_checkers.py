"""Tests for the theorem checkers.

Oracle policy.  Every frozen number below is derived by hand before being
asserted, in one of three ways:

* preset complexes: classical dimension tables already pinned in
  test_cohomology (Betti vectors, Hodge corner values), plus role
  counting on the decomposition multisets pinned in test_zigzag.  A
  length-2 zigzag contributes exactly +1 to h_BC at its sink degree and
  +1 to h_A at its source degree while adding nothing to Betti numbers,
  so defect and difference tables are arithmetic on the pinned multiset.
  A horizontal length-2 zigzag contributes +1 to the Dolbeault total at
  both of its degrees (neither dot touches a vertical arrow), a vertical
  one contributes nothing, which yields the gap tables.
* hand-built staircases: roles (source/sink) read off the dot sequence
  directly; all five dimension tables follow by the counting rules
  pinned in test_zigzag.
* deliberately bogus product structures: the expected violation is
  computed by evaluating the bilinear form on the (unique, hand-known)
  representatives.

Verdicts of checks whose statement is a theorem for valid inputs
("fails" unreachable) are exercised on seeded corpora instead.
"""

import json
import sys
from collections import Counter

import pytest

from bicomplex_lab import checkers, clio, cohomology, models
from bicomplex_lab.bicomplex import Bicomplex
from bicomplex_lab.checkers import (ALL_CHECK_NAMES, THEOREM_CHECK_NAMES,
                                    CheckReport, char_minus_check,
                                    ddbar_lemma_check, duality_check,
                                    frolicher_check, non_ddbar_degrees,
                                    run_all_checks, schweitzer_pairing_check,
                                    upper_bound_check)
from bicomplex_lab.cohomology import aeppli, bott_chern, dolbeault
from bicomplex_lab.exactla import ExactScalar, Matrix
from bicomplex_lab.models import (iwasawa, kodaira_surface,
                                  random_bicomplex, torus)
from bicomplex_lab.zigzag import (Square, Zigzag, apply_basis_change,
                                  scramble_matrices, standard_conjugation,
                                  synthesize)

SC1 = ExactScalar(1)

VERT_DOMINO = Zigzag(((0, 1), (0, 0)))      # sink (0,1), source (0,0)
HORIZ_DOMINO = Zigzag(((0, 0), (1, 0)))     # source (0,0), sink (1,0)
VEE = Zigzag(((0, 1), (1, 1), (1, 0)))      # sources (0,1),(1,0), sink (1,1)
STAIRCASE5 = Zigzag(((0, 2), (1, 2), (1, 1), (2, 1), (2, 0)))


def with_structure(k, **kw):
    """Rebuild a complex with extra declared structure attached."""
    return Bicomplex({b: k.dimension(*b) for b in k.support()},
                     k.del_blocks(), k.delbar_blocks(), **kw)


def symmetric_complex(parts, n):
    """Synthesized complex with declared n and its standard conjugation."""
    return with_structure(
        synthesize(parts), n=n,
        conj=standard_conjugation(parts))


def all_ones_pairing(k, n):
    """Bogus pairing: every basis vector pairs to 1 with every basis vector
    of the complementary bidegree.  Useful to build deliberately broken
    inputs for the pairing checker."""
    pairings = {}
    for p in range(n + 1):
        for q in range(n + 1):
            rows, cols = k.dimension(n - p, n - q), k.dimension(p, q)
            pairings[(p, q)] = Matrix(rows, cols, [[SC1] * rows] * cols)
    return pairings


@pytest.fixture(scope="module")
def corpus():
    """Seeded corpus with full check reports, shared across tests."""
    rows = []
    for seed in range(60):
        k, _ = random_bicomplex(seed)
        rows.append((f"plain-{seed}", k, run_all_checks(k)))
    for seed in range(20):
        k, _ = random_bicomplex(seed, symmetric=True)
        rows.append((f"symmetric-{seed}", k, run_all_checks(k)))
    for seed in range(20):
        k, _ = random_bicomplex(seed, kinds=("square", "dot"))
        rows.append((f"soup-{seed}", k, run_all_checks(k)))
    return rows


def by_name(reports, name):
    matches = [r for r in reports if r.check_name == name]
    assert len(matches) == 1
    return matches[0]


class TestCheckReport:
    def test_json_dict_shape(self):
        rep = frolicher_check(torus(1))
        obj = rep.to_json_dict()
        assert set(obj) == {"checkName", "verdict", "witnesses"}
        assert obj["checkName"] == "frolicher_inequality"
        json.dumps(obj)

    def test_all_reports_json_serializable(self):
        for rep in run_all_checks(iwasawa()):
            assert isinstance(rep, CheckReport)
            assert rep.verdict in ("holds", "fails", "notApplicable")
            json.dumps(rep.to_json_dict())

    def test_run_all_checks_fixed_order(self):
        names = tuple(r.check_name for r in run_all_checks(torus(1)))
        assert names == ALL_CHECK_NAMES
        assert set(THEOREM_CHECK_NAMES) <= set(ALL_CHECK_NAMES)

    def test_run_all_checks_rejects_invalid_complex(self):
        one = Matrix.from_rows([[SC1]])
        bad = Bicomplex({(0, 0): 1, (1, 0): 1, (2, 0): 1},
                        del_maps={(0, 0): one, (1, 0): one})
        with pytest.raises(ValueError):
            run_all_checks(bad)


class TestFrolicher:
    @pytest.mark.parametrize("n", [1, 2])
    def test_torus_gaps_zero(self, n):
        rep = frolicher_check(torus(n))
        assert rep.verdict == "holds"
        assert set(rep.witnesses["Gap"].values()) == {0}

    def test_iwasawa_gaps(self):
        # Gaps come from the four horizontal length-2 zigzags in the
        # pinned decomposition multiset, each adding one Dolbeault unit
        # at both of its degrees: (1,0)-(2,0) at 1,2; (1,1)-(2,1) twice
        # at 2,3; (1,2)-(2,2) twice at 3,4; (1,3)-(2,3) at 4,5.
        rep = frolicher_check(iwasawa())
        assert rep.verdict == "holds"
        assert rep.witnesses["Gap"] == {"0": 0, "1": 1, "2": 3, "3": 4,
                                        "4": 3, "5": 1, "6": 0}

    def test_kodaira_gaps_zero(self):
        rep = frolicher_check(kodaira_surface())
        assert rep.verdict == "holds"
        assert set(rep.witnesses["Gap"].values()) == {0}

    def test_horizontal_domino_gap(self):
        # Both dots avoid vertical arrows, so the Dolbeault totals are 1
        # in degrees 0 and 1 while the de Rham cohomology vanishes.
        rep = frolicher_check(synthesize([HORIZ_DOMINO]))
        assert rep.verdict == "holds"
        assert rep.witnesses["Gap"] == {"0": 1, "1": 1}

    def test_corpus_theorem(self, corpus):
        for label, _, reports in corpus:
            assert by_name(reports, "frolicher_inequality").verdict \
                == "holds", label


class TestNonDdbarDegrees:
    @pytest.mark.parametrize("n", [1, 2])
    def test_torus_defects_zero(self, n):
        rep = non_ddbar_degrees(torus(n))
        assert rep.verdict == "holds"
        assert set(rep.witnesses["Delta"].values()) == {0}
        assert rep.witnesses["DeltaSum"] == 0
        assert rep.witnesses["DeltaSumZero"] is True

    def test_iwasawa_defects(self):
        # Twelve length-2 zigzags in the pinned multiset, each adding 1
        # at its sink degree and 1 at its source degree; squares and
        # dots cancel.  Summing over the multiset gives (2,6,8,6,2) in
        # degrees 1..5.
        rep = non_ddbar_degrees(iwasawa())
        assert rep.verdict == "holds"
        assert rep.witnesses["Delta"] == {"0": 0, "1": 2, "2": 6, "3": 8,
                                          "4": 6, "5": 2, "6": 0}
        assert rep.witnesses["DeltaSum"] == 24
        assert rep.witnesses["DeltaSumZero"] is False

    def test_kodaira_defects(self):
        # Both length-3 zigzags have their middle dot in total degree 2
        # (the vee's sink, the wedge's source), contributing 1 each.
        rep = non_ddbar_degrees(kodaira_surface())
        assert rep.verdict == "holds"
        assert rep.witnesses["Delta"] == {"0": 0, "1": 0, "2": 2,
                                          "3": 0, "4": 0}
        assert rep.witnesses["DeltaSum"] == 2

    def test_vertical_domino_defects(self):
        # Sink (0,1) gives h_BC = 1 in degree 1, source (0,0) gives
        # h_A = 1 in degree 0; the Betti numbers vanish.
        rep = non_ddbar_degrees(synthesize([VERT_DOMINO]))
        assert rep.verdict == "holds"
        assert rep.witnesses["Delta"] == {"0": 1, "1": 1}
        assert rep.witnesses["DeltaSum"] == 2

    def test_corpus_theorem(self, corpus):
        for label, _, reports in corpus:
            assert by_name(reports, "non_ddbar_degrees").verdict \
                == "holds", label


class TestUpperBound:
    def test_torus2_slacks(self):
        # Dolbeault totals and both one-sided totals are the binomial
        # vector (1,4,6,4,1); e.g. degree 2: 3*(6+4) - 6 = 24.
        rep = upper_bound_check(torus(2))
        assert rep.verdict == "holds"
        assert rep.witnesses["AeppliSlack"] == {"0": 4, "1": 16, "2": 24,
                                                "3": 6, "4": 0}
        assert rep.witnesses["BottChernSlack"] == {"0": 0, "1": 6, "2": 24,
                                                   "3": 16, "4": 4}

    def test_torus1_slacks(self):
        rep = upper_bound_check(torus(1))
        assert rep.verdict == "holds"
        assert rep.witnesses["AeppliSlack"] == {"0": 2, "1": 4, "2": 0}
        assert rep.witnesses["BottChernSlack"] == {"0": 0, "1": 4, "2": 2}

    def test_mirror_domino_pair_tight_at_zero(self):
        # Sources of both dominoes sit at (0,0), so h_A(0) = 2; the
        # horizontal domino provides Dolbeault units in degrees 0 and 1,
        # making the degree-0 bound 1*(1+1) = 2: tight.
        k = symmetric_complex([VERT_DOMINO, HORIZ_DOMINO], n=1)
        rep = upper_bound_check(k)
        assert rep.verdict == "holds"
        assert rep.witnesses["AeppliSlack"] == {"0": 0, "1": 2, "2": 0}
        assert rep.witnesses["BottChernSlack"] == {"0": 1, "1": 2, "2": 1}

    def test_long_staircase_tight_witness(self):
        # Self-mirror length-5 staircase: three sources in degree 2 and
        # two sinks in degree 3, but only the (0,2) dot avoids vertical
        # arrows, so the Dolbeault totals are (0,0,1,0,0).  Both the
        # Aeppli bound at k=2 (3 <= 3*1) and the Bott-Chern bound at
        # k=3 (2 <= 2*1) are achieved with zero slack.
        k = symmetric_complex([STAIRCASE5], n=2)
        rep = upper_bound_check(k)
        assert rep.verdict == "holds"
        assert rep.witnesses["AeppliSlack"] == {"0": 0, "1": 2, "2": 0,
                                                "3": 0, "4": 0}
        assert rep.witnesses["BottChernSlack"] == {"0": 0, "1": 0, "2": 3,
                                                   "3": 0, "4": 0}

    def test_requires_declared_n(self):
        rep = upper_bound_check(synthesize([VERT_DOMINO]))
        assert rep.verdict == "notApplicable"
        assert rep.witnesses["Reason"] == "no declared n"

    def test_requires_support_inside_range(self):
        # validate owns the support rule: a complex that breaks it is
        # rejected like any other invalid complex, not skipped.
        part = Zigzag(((3, 3),))
        k = with_structure(
            synthesize([part]), n=2,
            conj=standard_conjugation([part]))
        with pytest.raises(ValueError, match=r"\(3,3\)"):
            upper_bound_check(k)

    def test_requires_conjugation_and_bound_really_fails_without(self):
        # The gate is not cosmetic: a lone vertical domino with n = 1
        # has h_A(0) = 1 but no Dolbeault classes at all, violating the
        # inequality outright.  Mirror-closure (above) restores it.
        k = with_structure(synthesize([VERT_DOMINO]), n=1)
        rep = upper_bound_check(k)
        assert rep.verdict == "notApplicable"
        assert rep.witnesses["Reason"] == "no conjugation structure"
        h_a0 = sum(v for (p, q), v in aeppli(k).dims.items() if p + q == 0)
        h_dol = sum(dolbeault(k).dims.values())
        assert h_a0 == 1 and h_dol == 0  # 1 > 1 * (0 + 0)

    def test_requires_valid_conjugation(self):
        parts = [VERT_DOMINO, HORIZ_DOMINO]
        maps = standard_conjugation(parts)
        maps[(0, 1)] = maps[(0, 1)].negate()  # breaks the involution
        k = with_structure(synthesize(parts), n=1,
                           conj=maps)
        rep = upper_bound_check(k)
        assert rep.verdict == "notApplicable"
        assert rep.witnesses["Reason"] == \
            "conjugation structure does not validate"

    def test_misshapen_mirror_block_is_not_applicable(self):
        k = Bicomplex({(1, 0): 1, (0, 1): 1}, {}, {}, n=1,
                      conj={(1, 0): Matrix.zero(1, 2),
                            (0, 1): Matrix.identity(1)})
        rep = upper_bound_check(k)
        assert rep.verdict == "notApplicable"
        assert rep.witnesses["Reason"] == \
            "conjugation structure does not validate"

    def test_symmetric_corpus_theorem(self, corpus):
        applicable = 0
        for label, _, reports in corpus:
            rep = by_name(reports, "hodge_upper_bounds")
            assert rep.verdict != "fails", label
            if label.startswith("symmetric"):
                assert rep.verdict == "holds", label
                applicable += 1
        assert applicable == 20


class TestCharMinus:
    @pytest.mark.parametrize("n", [1, 2])
    def test_torus(self, n):
        rep = char_minus_check(torus(n))
        assert rep.verdict == "holds"
        assert set(rep.witnesses["Difference"].values()) == {0}
        assert rep.witnesses["AbsoluteSum"] == 0
        assert rep.witnesses["SumZero"] is True
        assert rep.witnesses["LemmaDirect"] is True

    def test_iwasawa(self):
        # Differences per degree follow from the pinned domino multiset:
        # sink-degree counts minus source-degree counts are
        # (-2,-2,0,2,2) in degrees 1..5.
        rep = char_minus_check(iwasawa())
        assert rep.verdict == "holds"
        assert rep.witnesses["Difference"] == {"0": 0, "1": -2, "2": -2,
                                               "3": 0, "4": 2, "5": 2,
                                               "6": 0}
        assert rep.witnesses["AbsoluteSum"] == 8
        assert rep.witnesses["SumZero"] is False
        assert rep.witnesses["LemmaDirect"] is False

    def test_kodaira(self):
        # From the pinned multiset: the vee adds 1 to BC at degree 2 and
        # 2 to A at degree 1; the wedge adds 2 to BC at degree 3 and 1
        # to A at degree 2; lone dots cancel.  Hence BC - A per degree
        # is (0, -2, 0, 2, 0).
        rep = char_minus_check(kodaira_surface())
        assert rep.verdict == "holds"
        assert rep.witnesses["Difference"] == {"0": 0, "1": -2, "2": 0,
                                               "3": 2, "4": 0}
        assert rep.witnesses["AbsoluteSum"] == 4
        assert rep.witnesses["LemmaDirect"] is False

    def test_biconditional_on_corpus(self, corpus):
        seen = set()
        for label, _, reports in corpus:
            rep = by_name(reports, "bc_aeppli_characterization")
            assert rep.verdict == "holds", label
            seen.add(rep.witnesses["LemmaDirect"])
        assert seen == {True, False}

    def test_square_and_dot_soups_sum_zero(self, corpus):
        soups = [row for row in corpus if row[0].startswith("soup")]
        assert len(soups) == 20
        for label, _, reports in soups:
            rep = by_name(reports, "bc_aeppli_characterization")
            assert rep.witnesses["AbsoluteSum"] == 0, label
            assert rep.witnesses["LemmaDirect"] is True, label


def zigzags_in_box(size, lengths):
    """Every zigzag with its dots in [0, size]^2 and a dot count in
    ``lengths``."""
    found = []

    def grow(dots):
        if len(dots) in lengths:
            found.append(Zigzag(tuple(dots)))
        if len(dots) == max(lengths):
            return
        (p, q), last = dots[-1], None
        if len(dots) > 1:
            last = (p - dots[-2][0], q - dots[-2][1])
        for step in ((1, 0), (0, -1)):
            nxt = (p + step[0], q + step[1])
            if step != last and 0 <= nxt[0] <= size and 0 <= nxt[1] <= size:
                grow(dots + [nxt])

    for p in range(size + 1):
        for q in range(size + 1):
            grow([(p, q)])
    return found


class TestDdbarLemma:
    @staticmethod
    def _only_squares_and_dots(parts, seed):
        k = synthesize(parts)
        k = apply_basis_change(k, scramble_matrices(k, seed))
        return ddbar_lemma_check(k).witnesses["OnlySquaresAndDots"]

    def test_rank_predicate_is_false_exactly_on_zigzags(self):
        zigzags = zigzags_in_box(3, range(2, 6))
        assert len(set(zigzags)) == len(zigzags) == 62
        singles = [Square((1, 1)), Zigzag(((2, 0),))] + zigzags
        for seed, part in enumerate(singles):
            want = part.kind == "square" or part.is_dot
            assert self._only_squares_and_dots([part], seed) == want, part

    def test_rank_predicate_adds_over_summands(self):
        # Squares and dots stacked on the same bidegrees keep it true;
        # one zigzag among them makes it false.
        base = [Square((0, 0)), Square((1, 1)), Zigzag(((1, 1),))]
        assert self._only_squares_and_dots(base, 0) is True
        for seed, zigzag in enumerate(zigzags_in_box(2, range(2, 4))):
            assert self._only_squares_and_dots(base + [zigzag], seed) \
                is False, zigzag

    def test_torus_all_true(self):
        rep = ddbar_lemma_check(torus(1))
        assert rep.verdict == "holds"
        assert rep.witnesses == {"InjectiveEverywhere": True,
                                 "OnlySquaresAndDots": True,
                                 "DeltaSumZero": True,
                                 "LemmaHolds": True}

    @pytest.mark.parametrize("preset", [iwasawa, kodaira_surface])
    def test_presets_all_false(self, preset):
        rep = ddbar_lemma_check(preset())
        assert rep.verdict == "holds"
        assert rep.witnesses["LemmaHolds"] is False
        assert rep.witnesses["InjectiveEverywhere"] is False
        assert rep.witnesses["OnlySquaresAndDots"] is False
        assert rep.witnesses["DeltaSumZero"] is False

    def test_vee_all_false(self):
        # The vee's sink (1,1) carries one Bott-Chern class but no
        # Aeppli class (both (1,1)-slots are hit by the incoming
        # arrows), so the comparison map has a kernel; the defect sum
        # is 1 (degree 2); and the decomposition is the vee itself.
        rep = ddbar_lemma_check(synthesize([VEE]))
        assert rep.verdict == "holds"
        assert rep.witnesses["LemmaHolds"] is False

    def test_square_and_dot_complex_true(self):
        rep = ddbar_lemma_check(synthesize(
            [Square((0, 0)), Zigzag(((2, 2),)), Zigzag(((0, 3),))]))
        assert rep.verdict == "holds"
        assert rep.witnesses["LemmaHolds"] is True

    def test_corpus_agrees_with_characterization(self, corpus):
        for label, _, reports in corpus:
            lemma = by_name(reports, "ddbar_lemma")
            char = by_name(reports, "bc_aeppli_characterization")
            assert lemma.verdict == "holds", label
            assert lemma.witnesses["LemmaHolds"] \
                == char.witnesses["SumZero"], label


class TestSchweitzerPairing:
    @pytest.mark.parametrize("n", [1, 2])
    def test_torus_nondegenerate(self, n):
        rep = schweitzer_pairing_check(torus(n))
        assert rep.verdict == "holds"
        assert rep.witnesses["NonDegenerate"] is True
        assert rep.witnesses["IllDefined"] == []
        assert rep.witnesses["Degenerate"] == []
        assert rep.witnesses["LemmaHolds"] is True
        # perfect pairing: every Gram rank equals the dimension
        assert rep.witnesses["GramRank"] == rep.witnesses["BottChern"]

    @pytest.mark.parametrize("preset", [iwasawa, kodaira_surface])
    def test_presets_degenerate_but_consistent(self, preset):
        k = preset()
        rep = schweitzer_pairing_check(k)
        assert rep.verdict == "holds"
        assert rep.witnesses["IllDefined"] == []
        assert rep.witnesses["NonDegenerate"] is False
        assert rep.witnesses["Degenerate"] != []
        assert rep.witnesses["LemmaHolds"] is False
        # the unit pairs perfectly with the top class
        assert rep.witnesses["GramRank"]["(0, 0)"] == 1
        # transposing the Gram matrix swaps the pair, so ranks agree
        n = k.n
        for p in range(n + 1):
            for q in range(n + 1):
                assert rep.witnesses["GramRank"][str((p, q))] \
                    == rep.witnesses["GramRank"][str((n - p, n - q))]

    # Recorded from the check itself.  On iwasawa, (1,1) has Gram rank
    # h_BC^{1,1} = 4 but its complement (2,2) has h_BC = 8: it is listed
    # only because the complementary dimension differs.
    DEGENERATE = {
        "iwasawa": (iwasawa, "(0,1) (0,2) (1,0) (1,1) (1,2) (1,3) (2,0) "
                             "(2,1) (2,2) (2,3) (3,1) (3,2)"),
        "kodaira": (kodaira_surface, "(0,1) (1,0) (1,1) (1,2) (2,1)"),
        "nil4": (lambda: models.from_structure_equations(
                     models.parse_structure_text(
                         "n = 4\nd w3 = -1* w1^w2\nd w4 = w1^cw1\n")),
                 "(0,1) (0,2) (0,3) (1,0) (1,1) (1,2) (1,3) (1,4) (2,0) "
                 "(2,1) (2,2) (2,3) (2,4) (3,0) (3,1) (3,2) (3,3) (3,4) "
                 "(4,1) (4,2) (4,3)"),
    }

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_list_is_pinned(self, name):
        build, expected = self.DEGENERATE[name]
        rep = schweitzer_pairing_check(build())
        listed = [b.replace(" ", "") for b in rep.witnesses["Degenerate"]]
        assert listed == expected.split()

    def test_ill_defined_product_fails(self):
        # Bott-Chern representatives at (1,1) reduce to the lone dot,
        # but the square's corner is a second-order boundary there; the
        # all-ones pairing does not kill their product, so
        # well-definedness fails exactly at (1,1).
        parts = [Square((0, 0)), Zigzag(((1, 1),)), Zigzag(((2, 2),))]
        base = synthesize(parts)
        k = with_structure(base, n=2, pairings=all_ones_pairing(base, 2))
        rep = schweitzer_pairing_check(k)
        assert rep.verdict == "fails"
        assert rep.witnesses["IllDefined"] == ["(1, 1)"]

    def test_nondegenerate_with_false_lemma_fails(self):
        # Two dominoes plus two dots give complement-symmetric
        # Bott-Chern dimensions (one class at each corner bidegree)
        # while the lemma fails; the all-ones pairing is well-defined
        # here (no second-order boundaries) and non-degenerate, so the
        # implication itself is violated -> "fails" with full witnesses.
        parts = [VERT_DOMINO, HORIZ_DOMINO, Zigzag(((1, 1),)),
                 Zigzag(((0, 0),))]
        base = synthesize(parts)
        k = with_structure(base, n=1, pairings=all_ones_pairing(base, 1))
        rep = schweitzer_pairing_check(k)
        assert rep.verdict == "fails"
        assert rep.witnesses["IllDefined"] == []
        assert rep.witnesses["NonDegenerate"] is True
        assert rep.witnesses["LemmaHolds"] is False

    def test_not_applicable_without_product(self):
        rep = schweitzer_pairing_check(synthesize([VERT_DOMINO]))
        assert rep.verdict == "notApplicable"
        assert rep.witnesses["Reason"] == "no product structure"

    def test_not_applicable_without_n(self):
        base = synthesize([Zigzag(((0, 0),))])
        k = with_structure(base, pairings=all_ones_pairing(base, 0))
        rep = schweitzer_pairing_check(k)
        assert rep.verdict == "notApplicable"
        assert rep.witnesses["Reason"] == "no declared n"

    @staticmethod
    def _iwasawa_with_pairing_at_1_1(block):
        """iwasawa() with its pairing block at (1, 1) replaced by
        ``block``, or dropped when ``block`` is None."""
        k = iwasawa()
        pairings = dict(k.pairings)
        del pairings[(1, 1)]
        if block is not None:
            pairings[(1, 1)] = block
        return with_structure(k, n=k.n, label=k.label, conj=k.conj,
                              pairings=pairings)

    @pytest.mark.parametrize("block, reason", [
        (None, "pairing block at (1,1) is missing"),
        (Matrix.zero(2, 2), "pairing block at (1,1) is 2x2, expected 9x9"),
    ])
    def test_malformed_block_is_not_applicable(self, block, reason):
        """A missing or misshapen block is reported like a misshapen
        conjugation: not applicable, naming the block, never an error."""
        k = self._iwasawa_with_pairing_at_1_1(block)
        rep = schweitzer_pairing_check(k)
        assert rep.verdict == "notApplicable"
        assert rep.witnesses == {"Reason": reason}
        reports = run_all_checks(k)
        assert by_name(reports, "schweitzer_pairing") == rep
        others = [r for r in run_all_checks(iwasawa())
                  if r.check_name != "schweitzer_pairing"]
        assert [r for r in reports
                if r.check_name != "schweitzer_pairing"] == others

    def test_first_malformed_block_in_p_q_order_is_named(self):
        k = iwasawa()
        pairings = dict(k.pairings)
        del pairings[(2, 0)]
        pairings[(1, 3)] = Matrix.zero(1, 1)
        rep = schweitzer_pairing_check(with_structure(
            k, n=k.n, conj=k.conj, pairings=pairings))
        assert rep.witnesses == {"Reason": "pairing block at (1,3) is 1x1, "
                                           "expected 3x3"}

    def test_malformed_pairing_on_invalid_complex_still_raises(self):
        k = Bicomplex({(0, 0): 1, (2, 0): 1}, {}, {}, n=1, pairings={})
        with pytest.raises(ValueError):
            schweitzer_pairing_check(k)


class TestDualities:
    @pytest.mark.parametrize("k", [torus(1), torus(2), iwasawa(),
                                   kodaira_surface()])
    def test_presets_hold_with_both_row_groups(self, k):
        rep = duality_check(k)
        assert rep.verdict == "holds"
        assert rep.witnesses["ProductRows"] is True
        assert rep.witnesses["ConjugationRows"] is True
        assert rep.witnesses["Mismatches"] == []

    def test_iwasawa_cross_theory_equality(self):
        # The classical instance: degree-1 Aeppli matches degree-5
        # Bott-Chern through the pairing duality.
        k = iwasawa()
        h_a = {deg: total for deg, total in aeppli(k).totals().items()}
        h_bc = {deg: total for deg, total in bott_chern(k).totals().items()}
        assert h_a[1] == h_bc[5] == 6

    def test_broken_duality_fails_with_witness(self):
        # A lone vertical domino has a Bott-Chern class at (0,1) but no
        # Aeppli class at the complementary (1,0), and vice versa.
        base = synthesize([VERT_DOMINO])
        k = with_structure(base, n=1, pairings=all_ones_pairing(base, 1))
        rep = duality_check(k)
        assert rep.verdict == "fails"
        assert rep.witnesses["Mismatches"] == [
            "bc-aeppli (0, 1) vs (1, 0)", "bc-aeppli (1, 1) vs (0, 0)"]

    def test_conjugation_only_rows(self):
        k = symmetric_complex([STAIRCASE5], n=2)
        k = with_structure(k, n=None, conj=k.conj)  # drop the declared n
        rep = duality_check(k)
        assert rep.verdict == "holds"
        assert rep.witnesses["ProductRows"] is False
        assert rep.witnesses["ConjugationRows"] is True
        assert rep.witnesses["Mismatches"] == []

    def test_betti_and_serre_mismatches_fail(self):
        # A lone dot at (0, 0) with n = 1: nothing at degree 2 or at
        # (1, 1) answers it.
        k = Bicomplex({(0, 0): 1}, n=1,
                      pairings={})
        rep = duality_check(k)
        assert rep.verdict == "fails"
        assert rep.witnesses["ProductRows"] is True
        assert rep.witnesses["ConjugationRows"] is False
        assert "betti 0 vs 2" in rep.witnesses["Mismatches"]
        assert "serre (0, 0) vs (1, 1)" in rep.witnesses["Mismatches"]

    def test_not_applicable_without_structures(self):
        rep = duality_check(synthesize([VERT_DOMINO]))
        assert rep.verdict == "notApplicable"

    def test_invalid_conjugation_alone_is_not_applicable(self):
        parts = [VERT_DOMINO, HORIZ_DOMINO]
        maps = standard_conjugation(parts)
        maps[(0, 1)] = maps[(0, 1)].negate()
        k = with_structure(synthesize(parts),
                           conj=maps)
        rep = duality_check(k)
        assert rep.verdict == "notApplicable"

    def test_symmetric_corpus_holds(self, corpus):
        for label, _, reports in corpus:
            rep = by_name(reports, "dualities")
            if label.startswith("symmetric"):
                assert rep.verdict == "holds", label
            else:
                assert rep.verdict == "notApplicable", label


class TestTheoremChecksOnCorpus:
    def test_no_theorem_check_ever_fails(self, corpus):
        for label, _, reports in corpus:
            for rep in reports:
                if rep.check_name in THEOREM_CHECK_NAMES:
                    assert rep.verdict != "fails", (label, rep.check_name)

    def test_consistency_checks_never_fail_on_valid_input(self, corpus):
        for label, _, reports in corpus:
            for name in ("bc_aeppli_characterization", "ddbar_lemma"):
                assert by_name(reports, name).verdict == "holds", \
                    (label, name)


def _pin_inputs():
    """(label, maker) for every preset and the corpus seeds 0-49."""
    inputs = sorted(clio.PRESETS.items())
    for seed in range(50):
        for symmetric in (False, True):
            inputs.append((
                f"{'symmetric' if symmetric else 'plain'}-{seed}",
                lambda seed=seed, symmetric=symmetric:
                random_bicomplex(seed, symmetric=symmetric)[0]))
    return inputs


class TestEdgeShapes:
    """The empty complex and a complex with an empty middle degree, where
    the ends of the sorted support are all the p-range there is."""

    @staticmethod
    def _reports(degrees, differences):
        zero = {str(d): 0 for d in degrees}
        return [
            {"checkName": "frolicher_inequality", "verdict": "holds",
             "witnesses": {"Gap": zero}},
            {"checkName": "non_ddbar_degrees", "verdict": "holds",
             "witnesses": {"Delta": zero, "DeltaSum": 0,
                           "DeltaSumZero": True}},
            {"checkName": "hodge_upper_bounds", "verdict": "notApplicable",
             "witnesses": {"Reason": "no declared n"}},
            {"checkName": "bc_aeppli_characterization", "verdict": "holds",
             "witnesses": {"Difference": {str(d): 0 for d in differences},
                           "AbsoluteSum": 0, "SumZero": True,
                           "LemmaDirect": True}},
            {"checkName": "ddbar_lemma", "verdict": "holds",
             "witnesses": {"InjectiveEverywhere": True,
                           "OnlySquaresAndDots": True, "DeltaSumZero": True,
                           "LemmaHolds": True}},
            {"checkName": "schweitzer_pairing", "verdict": "notApplicable",
             "witnesses": {"Reason": "no product structure"}},
            {"checkName": "dualities", "verdict": "notApplicable",
             "witnesses": {"Reason": "no usable product or conjugation "
                                     "structure"}},
        ]

    def test_empty_complex(self):
        k = Bicomplex({}, {}, {})
        reports = [r.to_json_dict() for r in run_all_checks(k)]
        assert json.dumps(reports) == json.dumps(self._reports([], []))
        tables = cohomology.all_tables(k)
        for theory in cohomology.THEORIES:
            assert getattr(tables, theory).dims == {}, theory
        assert tables.frolicher.pages == {1: {}}
        for field, ranks in vars(tables.natural_ranks).items():
            assert ranks == {}, field

    def test_gap_degree_complex(self):
        k = Bicomplex({(2, 0): 1, (0, 0): 1}, {}, {})
        reports = [r.to_json_dict() for r in run_all_checks(k)]
        assert json.dumps(reports) == json.dumps(
            self._reports([0, 1, 2], [0, 2]))
        tables = cohomology.all_tables(k)
        dots = {(0, 0): 1, (2, 0): 1}
        degrees = {0: 1, 1: 0, 2: 1}
        assert tables.de_rham.dims == degrees
        for theory in cohomology.BIGRADED_THEORIES:
            assert getattr(tables, theory).dims == dots, theory
        assert tables.frolicher.pages == {1: dots}
        for field, ranks in vars(tables.natural_ranks).items():
            assert ranks == (degrees if "de_rham" in field else dots), field


class TestChecksReadOnlyWhatTheyNeed:
    """The checks read the five tables, the Bott-Chern to Aeppli map and
    the Bott-Chern representatives from the complex's store, so neither
    run_all_checks nor a check alone computes the Frolicher pages or the
    other six natural maps."""

    @staticmethod
    def _forbid_unread(monkeypatch):
        """Make the page chase and the six unread maps raise; returns the
        list of maps computed."""
        maps = []
        map_ranks = cohomology._map_ranks

        def no_pages(*args, **kwargs):
            raise AssertionError("the Frolicher pages were computed")

        def one_map(k, source, target):
            maps.append((source, target))
            if (source, target) != ("bott_chern", "aeppli"):
                raise AssertionError(f"map {source} -> {target} computed")
            return map_ranks(k, source, target)

        monkeypatch.setattr(cohomology, "frolicher_pages", no_pages)
        monkeypatch.setattr(cohomology, "_map_ranks", one_map)
        return maps

    def test_run_all_checks_skips_pages_and_six_maps(self, monkeypatch):
        inputs = _pin_inputs()
        expected = []
        for _, make in inputs:
            k = make()
            cohomology.all_tables(k)  # every page and map in the store
            expected.append(run_all_checks(k))
        maps = self._forbid_unread(monkeypatch)
        for (label, make), want in zip(inputs, expected):
            maps.clear()
            assert run_all_checks(make()) == want, label
            assert maps == [("bott_chern", "aeppli")], label

    @staticmethod
    def _count_representatives(monkeypatch):
        """Count ``complete_basis`` calls and the calls for the Bott-Chern
        representatives."""
        calls = {"complete_basis": 0, "representatives": 0}
        complete = cohomology.complete_basis
        reps = checkers.bott_chern_representatives

        def counted_complete(*args):
            calls["complete_basis"] += 1
            return complete(*args)

        def counted_reps(k):
            calls["representatives"] += 1
            return reps(k)

        monkeypatch.setattr(cohomology, "complete_basis", counted_complete)
        monkeypatch.setattr(checkers, "bott_chern_representatives",
                            counted_reps)
        return calls

    def test_plain_complex_computes_no_representatives(self, monkeypatch):
        calls = self._count_representatives(monkeypatch)
        k = random_bicomplex(3).bicomplex
        run_all_checks(k)
        assert calls == {"complete_basis": 0, "representatives": 0}
        assert "reps" not in k._store

    def test_pairing_reads_only_bott_chern_representatives(self,
                                                           monkeypatch):
        calls = self._count_representatives(monkeypatch)
        k = iwasawa()
        run_all_checks(k)
        assert calls == {"complete_basis": len(k.support()),
                         "representatives": 1}
        assert "reps" in k._store

    def test_checks_build_no_subspace(self, monkeypatch):
        """The tables and the Bott-Chern to Aeppli map are counted from
        block and staircase ranks, so on a complex without pairings the
        checks take no kernel, image, intersection or preimage, do not
        totalize, and leave no subspace and no totalization in the
        store."""
        calls = Counter()
        modules = [module for name, module in sys.modules.items()
                   if name.startswith("bicomplex_lab")]
        for name in ("kernel_basis", "image_basis", "subspace_intersect",
                     "preimage", "totalize"):
            for module in modules:
                original = getattr(module, name, None)
                if original is None:
                    continue

                def counted(*args, _name=name, _original=original):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counted)
        for seed in range(20):
            k = random_bicomplex(seed).bicomplex
            run_all_checks(k)
            assert calls == Counter(), seed
            names = {key[0] for key in k._store if isinstance(key, tuple)}
            assert not names & set(cohomology._SUBSPACES), seed
            assert "total" not in k._store, seed

    def test_degree_dimensions_are_counted_once(self):
        """The dimension per total degree is counted once per complex and
        kept in its store, however many tables, checks and staircases
        read it."""

        class CountingStore(dict):
            def __init__(self):
                super().__init__()
                self.writes = Counter()

            def __setitem__(self, key, value):
                self.writes[key] += 1
                super().__setitem__(key, value)

        for k in (iwasawa(), random_bicomplex(3).bicomplex,
                  random_bicomplex(5, symmetric=True).bicomplex,
                  Bicomplex({(0, 0): 1, (2, 0): 1}, {}, {})):
            k._store = CountingStore()
            run_all_checks(k)
            cohomology.all_tables(k)
            assert k._store.writes["degree_dims"] == 1, k.label

    def test_dimension_calls_of_a_check_pass_are_pinned(self, monkeypatch):
        """The checks read the grading from ``spaces()`` and the stored
        degree dimensions, so ``Bicomplex.dimension`` is left to the
        del delbar rank bounds and the staircases: 786 calls on corpus
        seeds 0-99 (7322 when each table rebuilt its keys from
        ``support()`` and ``dimension``)."""
        ks = [random_bicomplex(seed).bicomplex for seed in range(100)]
        calls = []
        dimension = Bicomplex.dimension

        def counted(k, p, q):
            calls.append((p, q))
            return dimension(k, p, q)

        monkeypatch.setattr(Bicomplex, "dimension", counted)
        for k in ks:
            run_all_checks(k)
        assert len(calls) == 786

    def test_real_structure_is_decided_once(self, monkeypatch):
        calls = []
        decide = checkers.check_real_structure

        def counted(k):
            calls.append(k.label)
            return decide(k)

        monkeypatch.setattr(checkers, "check_real_structure", counted)
        for k in (iwasawa(), torus(2),
                  random_bicomplex(3, symmetric=True).bicomplex):
            calls.clear()
            run_all_checks(k)
            assert calls == [k.label]
        calls.clear()
        run_all_checks(random_bicomplex(3).bicomplex)  # no conjugation
        assert calls == []

    @pytest.mark.parametrize("check", [
        frolicher_check, non_ddbar_degrees, upper_bound_check,
        char_minus_check, ddbar_lemma_check, schweitzer_pairing_check,
        duality_check])
    def test_each_check_alone_skips_pages_and_six_maps(self, monkeypatch,
                                                        check):
        maps = self._forbid_unread(monkeypatch)
        for make in (iwasawa, kodaira_surface, lambda: torus(2)):
            check(make())
        assert set(maps) <= {("bott_chern", "aeppli")}

