"""Acceptance criteria, one test function per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  The expensive shared work (500 seeded complexes:
generation, exact tables, decomposition, counting) happens once in a
session fixture; every criterion then checks its property over the
whole corpus plus the shipped presets.

Expected values named here (Iwasawa gap/defect numbers, Kodaira defect
values, torus flatness) are the same hand-derived/pinned numbers used
in the module test suites; corpus criteria are identities and theorems
quantified over all generated complexes, so they carry no new frozen
numbers.
"""

import dataclasses
import time
from collections import Counter

import pytest

from bicomplex_lab.checkers import (char_minus_check, ddbar_lemma_check,
                                    duality_check, frolicher_check,
                                    non_ddbar_degrees,
                                    schweitzer_pairing_check,
                                    upper_bound_check)
from bicomplex_lab.clio import (PRESETS, RunConfig, emit_tables,
                                parse_bicomplex_file, render_diagram,
                                run_corpus)
from bicomplex_lab.cohomology import all_tables
from bicomplex_lab.models import random_bicomplex
from bicomplex_lab.zigzag import (Zigzag, count_cohomology_from_zigzags,
                                  decompose, synthesize)

N_PLAIN = 400
N_SYMMETRIC = 100

THEORIES = ("de_rham", "dolbeault", "conj_dolbeault", "bott_chern",
            "aeppli")


@dataclasses.dataclass
class Analyzed:
    label: str
    k: object
    truth: tuple  # ground-truth parts; None for presets
    tables: object
    decomposition: object
    counted: object


@pytest.fixture(scope="session")
def corpus():
    """500 seeded complexes plus presets, fully analyzed; timed."""
    start = time.time()
    rows = []
    for seed in range(N_PLAIN):
        rb = random_bicomplex(seed)
        rows.append(_analyze(f"plain-{seed}", rb.bicomplex, rb.parts))
    for seed in range(N_SYMMETRIC):
        rb = random_bicomplex(seed, symmetric=True)
        rows.append(_analyze(f"symmetric-{seed}", rb.bicomplex, rb.parts))
    for name in sorted(PRESETS):
        rows.append(_analyze(f"preset-{name}", PRESETS[name](), None))
    elapsed = time.time() - start
    return rows, elapsed


def _analyze(label, k, truth):
    # Every table, page and map, kept in the complex's store for the
    # checks below; computed here so that the timed fixture covers them.
    tables = all_tables(k)
    d = decompose(k)
    return Analyzed(label=label, k=k, truth=truth, tables=tables,
                    decomposition=d,
                    counted=count_cohomology_from_zigzags(d))


def test_criterion_01_oracle_equivalence(corpus):
    """Counting from the decomposition equals exact elimination in all
    five theories on >= 500 seeded complexes and all presets, within
    the runtime budget."""
    rows, elapsed = corpus
    assert len(rows) >= 500 + len(PRESETS)
    for row in rows:
        assert row.k.total_dim <= 150, row.label
        for theory in THEORIES:
            assert getattr(row.counted, theory).dims \
                == getattr(row.tables, theory).dims, (row.label, theory)
    assert elapsed < 300, f"corpus analysis took {elapsed:.1f}s"


def test_criterion_02_round_trip(corpus):
    """decompose(synthesize(parts, scrambled)) recovers the ground-truth
    multiset on 100% of the seeded instances."""
    rows, _ = corpus
    checked = 0
    for row in rows:
        if row.truth is None:
            continue
        assert Counter(row.decomposition.parts) == Counter(row.truth), \
            row.label
        checked += 1
    assert checked >= 500


def test_criterion_03_frolicher_inequality(corpus):
    """Dolbeault totals dominate Betti numbers everywhere; the Iwasawa
    model shows the strict gap 1 in degree 1."""
    rows, _ = corpus
    for row in rows:
        rep = frolicher_check(row.k)
        assert rep.verdict == "holds", row.label
    iwasawa = next(r for r in rows if r.label == "preset-iwasawa")
    rep = frolicher_check(iwasawa.k)
    assert rep.witnesses["Gap"]["1"] == 1


def test_criterion_04_defect_nonnegative(corpus):
    """h_BC + h_A - 2b >= 0 in every degree on every complex; torus all
    zero, Iwasawa defect 2 in degree 1, Kodaira defects (0, 2) in
    degrees (1, 2)."""
    rows, _ = corpus
    for row in rows:
        rep = non_ddbar_degrees(row.k)
        assert rep.verdict == "holds", row.label
    def delta(label):
        row = next(r for r in rows if r.label == f"preset-{label}")
        return non_ddbar_degrees(row.k).witnesses["Delta"]
    assert set(delta("torus2").values()) == {0}
    assert delta("iwasawa")["1"] == 2
    assert delta("kodaira")["1"] == 0 and delta("kodaira")["2"] == 2


def test_criterion_05_upper_bounds_and_witness(corpus):
    """Both bound families hold with zero violations on every complex
    where they apply; a growing staircase family shows the Aeppli
    numbers exceed any fixed multiple of the Betti numbers, so no
    purely topological bound exists."""
    rows, _ = corpus
    applicable = 0
    for row in rows:
        rep = upper_bound_check(row.k)
        assert rep.verdict != "fails", row.label
        if rep.verdict == "holds":
            applicable += 1
    assert applicable >= N_SYMMETRIC  # symmetric corpus + presets apply

    ratios = []
    for m in (2, 3, 4, 6):
        dots = [(0, m)]
        for step in range(m):
            dots.append((step + 1, m - step))
            dots.append((step + 1, m - step - 1))
        k = synthesize([Zigzag(tuple(dots))])
        tables = all_tables(k)
        h_a = sum(v for (p, q), v in tables.aeppli.dims.items()
                  if p + q == m)
        b_m = tables.de_rham.dims.get(m, 0)
        assert b_m == 1 and h_a == m + 1
        ratios.append(h_a / b_m)
    assert ratios == sorted(ratios) and ratios[-1] > ratios[0]


def test_criterion_06_bc_aeppli_characterization(corpus):
    """Sum |h_BC - h_A| vanishes exactly when the comparison maps are
    injective, on 100% of the corpus."""
    rows, _ = corpus
    seen = set()
    for row in rows:
        rep = char_minus_check(row.k)
        assert rep.verdict == "holds", row.label
        seen.add(rep.witnesses["LemmaDirect"])
    assert seen == {True, False}


def test_criterion_07_lemma_equivalences(corpus):
    """The three lemma formulations (injectivity, squares-and-dots-only
    decomposition, zero defect sum) agree on 100% of the corpus, and the
    check's rank-based squares-and-dots predicate matches the verified
    decomposition of every complex."""
    rows, _ = corpus
    for row in rows:
        rep = ddbar_lemma_check(row.k)
        assert rep.verdict == "holds", row.label
        assert "LemmaHolds" in rep.witnesses, row.label
        assert rep.witnesses["OnlySquaresAndDots"] == all(
            part.kind == "square" or part.is_dot
            for part in row.decomposition.parts), row.label


def test_criterion_08_pairing_criterion(corpus):
    """No complex with a product has a non-degenerate pairing together
    with a failing lemma; torus pairings are non-degenerate, Iwasawa
    and Kodaira degenerate."""
    rows, _ = corpus
    for row in rows:
        rep = schweitzer_pairing_check(row.k)
        assert rep.verdict != "fails", row.label
        if rep.verdict == "holds":
            assert not (rep.witnesses["NonDegenerate"]
                        and not rep.witnesses["LemmaHolds"]), row.label
    def pairing(label):
        row = next(r for r in rows if r.label == f"preset-{label}")
        return schweitzer_pairing_check(row.k).witnesses
    for name in ("torus1", "torus2", "torus3"):
        assert pairing(name)["NonDegenerate"] is True
    assert pairing("iwasawa")["NonDegenerate"] is False
    assert pairing("kodaira")["NonDegenerate"] is False


def test_criterion_09_dualities(corpus):
    """Betti, Serre, Bott-Chern/Aeppli, and conjugation symmetries hold
    exactly on every structure-equation model (presets and the shipped
    file)."""
    rows, _ = corpus
    models = [r for r in rows if r.label.startswith("preset-")]
    assert models
    for row in models:
        rep = duality_check(row.k)
        assert rep.verdict == "holds", row.label
        assert rep.witnesses["ProductRows"] is True
        assert rep.witnesses["ConjugationRows"] is True
        assert rep.witnesses["Mismatches"] == []
    from pathlib import Path
    bba = Path(__file__).resolve().parents[1] \
        / "src" / "bicomplex_lab" / "data" / "iwasawa.bba"
    k = parse_bicomplex_file(bba)
    assert duality_check(k).verdict == "holds"


def test_criterion_10_determinism(corpus):
    """Identical seeds and flags give byte-identical outputs: corpus
    CSV, table emissions, diagrams, and decomposition bases."""
    config = RunConfig(command="corpus", seed=0, n_corpus=12)
    assert run_corpus(config) == run_corpus(config)

    rows, _ = corpus
    kodaira = next(r for r in rows if r.label == "preset-kodaira")
    for fmt in ("text", "csv", "json"):
        assert emit_tables(kodaira.k, fmt) \
            == emit_tables(PRESETS["kodaira"](), fmt)
    d2 = decompose(kodaira.k)
    assert d2.parts == kodaira.decomposition.parts
    assert d2.basis_change == kodaira.decomposition.basis_change
    for fmt in ("dot", "tikz", "svg"):
        assert render_diagram(d2, fmt, label="x") \
            == render_diagram(kodaira.decomposition, fmt, label="x")
