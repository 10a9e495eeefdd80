"""Tests for summand synthesis, decomposition, and counting rules.

Expected values and how they were obtained:

* Part mechanics (canonical order, arrows, roles, mirroring) are checked
  against tiny hand-walked staircases.
* The synthesized square pattern (three +1 arrows, one -1 on the top
  horizontal arrow) is frozen; the sign is forced by anticommutation of
  the two differentials and is re-derived in the test by composing the
  synthesized blocks.
* Decompositions of the hand-built complexes from test_cohomology have
  obvious summands (they were constructed part by part); the expected
  multisets are written out explicitly.
* The structure-equation presets are frozen after two independent
  confirmations computed in-test: the square count at an anchor equals
  the rank of the composed second-order differential there, and the
  counting rules applied to the multiset reproduce the five cohomology
  tables computed by the independent linear-algebra module.
* Round-trip properties (decompose after synthesize+scramble recovers
  the multiset) need no external values: the input multiset is the
  expectation.
* The zigzag multiplicities of the strip sweep are held against a
  window-rank inclusion-exclusion on the input complex
  (``reference_zigzag_multiplicities``), which shares no code with
  ``decompose``.  The nil4 elimination count is pinned from the sweep as
  written; the window ranks it replaced made 512.
"""

import functools
import hashlib
import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import test_cohomology as tc
from bicomplex_lab import cohomology, exactla, models
from bicomplex_lab import zigzag as zz
from bicomplex_lab.bicomplex import (
    Bicomplex,
    check_real_structure,
    validate,
)
from bicomplex_lab.exactla import (
    Matrix,
    Subspace,
    complete_basis,
    kernel_basis,
    place_blocks,
    rank,
    scalar,
)

THEORIES = ("de_rham", "dolbeault", "conj_dolbeault", "bott_chern", "aeppli")

BASIS_DIGEST = ("a3c15672ad9bded8b3b1dbba0843992d"
                "6d130d72eaf8b21c82b11688d9e76d60")


def scrambled(parts, seed):
    """The synthesized complex of ``parts`` in seeded scrambled bases."""
    k = zz.synthesize(parts)
    return zz.apply_basis_change(k, zz.scramble_matrices(k, seed))


def read_tables(k):
    """Read the five tables of ``k``, which fills its cohomology store."""
    tables = cohomology.all_tables(k)
    for name in THEORIES:
        getattr(tables, name)


def assert_counts_match_tables(k, decomposition=None):
    d = decomposition if decomposition is not None else zz.decompose(k)
    counted = zz.count_cohomology_from_zigzags(d)
    tables = cohomology.all_tables(k)
    for name in THEORIES:
        assert getattr(counted, name).dims == getattr(tables, name).dims, name
    return d


def random_parts(rng, count, limit=5):
    parts = []
    for _ in range(count):
        kind = rng.choice(["square", "dot", "zig"])
        p, q = rng.randrange(limit - 1), rng.randrange(1, limit)
        if kind == "square":
            parts.append(zz.Square(anchor=(p, q)))
        elif kind == "dot":
            parts.append(zz.Zigzag(((p, q),)))
        else:
            dots = [(p, q)]
            step = rng.choice([(1, 0), (0, -1)])
            for _ in range(rng.randrange(1, 5)):
                nxt = (dots[-1][0] + step[0], dots[-1][1] + step[1])
                if nxt[0] > limit or nxt[1] < 0:
                    break
                dots.append(nxt)
                step = (0, -1) if step == (1, 0) else (1, 0)
            parts.append(zz.Zigzag(tuple(dots)))
    return parts


class TestParts:
    def test_square(self):
        s = zz.Square(anchor=(2, 3))
        assert s.kind == "square"
        assert s.dots == ((2, 3), (3, 3), (2, 4), (3, 4))
        assert zz.mirror_part(s) == zz.Square(anchor=(3, 2))

    def test_zigzag_canonical_order(self):
        z = zz.Zigzag(((1, 2), (2, 2), (2, 1)))
        assert z.arrows == ("del", "delbar")
        assert z.roles() == ("source", "sink", "source")
        assert not z.is_dot
        lone = zz.Zigzag(((0, 0),))
        assert lone.is_dot and lone.roles() == ("lone",)

    def test_zigzag_validation(self):
        with pytest.raises(ValueError):
            zz.Zigzag(())
        with pytest.raises(ValueError):
            zz.Zigzag(((0, 0), (0, 1)))  # steps up are not canonical
        with pytest.raises(ValueError):
            zz.Zigzag(((0, 0), (2, 0)))  # jumps two columns
        with pytest.raises(ValueError):
            zz.Zigzag(((0, 2), (0, 1), (0, 0)))  # no alternation
        with pytest.raises(ValueError):
            zz.Zigzag((("a", 0),))
        with pytest.raises(ValueError):
            zz.Square(anchor=(1,))

    def test_mirror_is_an_involution(self):
        samples = [zz.Square(anchor=(0, 1)),
                   zz.Zigzag(((0, 0),)),
                   zz.Zigzag(((0, 1), (0, 0))),
                   zz.Zigzag(((0, 2), (1, 2), (1, 1), (2, 1), (2, 0)))]
        for part in samples:
            assert zz.mirror_part(zz.mirror_part(part)) == part
        # mirroring a vertical domino gives the horizontal one
        assert zz.mirror_part(zz.Zigzag(((0, 1), (0, 0)))) \
            == zz.Zigzag(((0, 0), (1, 0)))
        # the symmetric vee is its own mirror
        vee = zz.Zigzag(((1, 2), (2, 2), (2, 1)))
        assert zz.mirror_part(vee) == vee

    def test_sort_parts(self):
        a = zz.Square(anchor=(0, 0))
        b = zz.Zigzag(((0, 0),))
        c = zz.Zigzag(((0, 1), (0, 0)))
        assert zz.sort_parts([c, b, a]) == (a, b, c)
        assert zz.sort_parts([b, c, a]) == zz.sort_parts([a, b, c])

    def test_json_round_trip(self):
        """A summand's JSON dict comes back equal from JSON text."""
        parts = [zz.Square(anchor=(1, 2)),
                 zz.Zigzag(((0, 1), (1, 1), (1, 0)))]
        objs = [zz.part_to_json_dict(part) for part in parts]
        assert json.loads(json.dumps(objs)) == objs == [
            {"kind": "square", "anchor": [1, 2]},
            {"kind": "zigzag", "dots": [[0, 1], [1, 1], [1, 0]],
             "arrows": ["del", "delbar"]}]


class TestSynthesize:
    def test_single_square_pattern(self):
        k = zz.synthesize([zz.Square(anchor=(0, 0))])
        assert {b: k.dimension(*b) for b in k.support()} \
            == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
        one = scalar(1)
        assert k.del_map(0, 0).entry(0, 0) == one
        assert k.delbar_map(0, 0).entry(0, 0) == one
        assert k.delbar_map(1, 0).entry(0, 0) == one
        assert k.del_map(0, 1).entry(0, 0) == -one
        # the -1 is exactly what anticommutation forces
        lhs = k.del_map(0, 1) @ k.delbar_map(0, 0)
        rhs = (k.delbar_map(1, 0) @ k.del_map(0, 0)).negate()
        assert lhs == rhs and not lhs.is_zero()

    def test_two_dots(self):
        k = zz.synthesize([zz.Zigzag(((0, 0),)), zz.Zigzag(((2, 1),))])
        assert {b: k.dimension(*b) for b in k.support()} \
            == {(0, 0): 1, (2, 1): 1}
        assert k.del_blocks() == {} and k.delbar_blocks() == {}

    def test_stacking_accounts_every_dot(self):
        parts = [zz.Square(anchor=(0, 0)), zz.Zigzag(((0, 1), (0, 0))),
                 zz.Zigzag(((0, 0),))]
        k = zz.synthesize(parts)
        expected = Counter(d for part in parts for d in part.dots)
        assert {b: k.dimension(*b) for b in k.support()} == dict(expected)
        assert validate(k) == []

    def test_scrambled_still_valid(self):
        parts = random_parts(random.Random(3), 8)
        k = scrambled(parts, 9)
        assert validate(k) == []

    def test_malformed_part(self):
        with pytest.raises(ValueError):
            zz.synthesize(["square"])


class TestBasisChanges:
    def test_scramble_deterministic_and_invertible(self):
        k = zz.synthesize(random_parts(random.Random(0), 6))
        first = zz.scramble_matrices(k, 5)
        again = zz.scramble_matrices(k, 5)
        assert first.keys() == again.keys()
        for b in first:
            assert first[b] == again[b]
            assert rank(first[b]) == k.dimension(*b)

    def test_lines_keep_their_basis(self):
        """A scramble leaves out exactly the support bidegrees of
        dimension 1, and so holds no 1x1 matrix."""
        for seed in range(20):
            k = zz.synthesize(random_parts(random.Random(seed), 6))
            mats = zz.scramble_matrices(k, seed)
            assert set(mats) == {b for b in k.support()
                                 if k.dimension(*b) > 1}

    def test_only_stored_blocks_are_multiplied(self, monkeypatch):
        """A basis change keeps zero blocks zero, so apply_basis_change
        multiplies each stored block by the matrices at its two ends and
        no zero block at all."""
        k = zz.synthesize(random_parts(random.Random(4), 6))
        mats = zz.scramble_matrices(k, 3)
        stored = [(src, (src[0] + dp, src[1] + dq))
                  for blocks, (dp, dq) in ((k.del_blocks(), (1, 0)),
                                           (k.delbar_blocks(), (0, 1)))
                  for src in blocks]
        assert len(stored) < 2 * len(k.support())
        factors = []
        product = Matrix.__matmul__

        def counted(a, b):
            factors.append(a.is_zero() or b.is_zero())
            return product(a, b)

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        out = zz.apply_basis_change(k, mats)
        monkeypatch.undo()
        assert not any(factors)
        assert len(factors) == sum((src in mats) + (tgt in mats)
                                   for src, tgt in stored)
        assert out.del_blocks().keys() == k.del_blocks().keys()
        assert out.delbar_blocks().keys() == k.delbar_blocks().keys()

    def test_substitution_inverse_equals_elimination(self):
        """Each unit triangular factor inverted by substitution equals its
        inverse by elimination, and so does the scramble's U^-1 L^-1."""
        rng = random.Random(7)
        for draw in range(250):
            n = 2 + draw % 5
            lower = zz._unitriangular(rng, n, upper=False)
            upper = zz._unitriangular(rng, n, upper=True)
            assert (zz._unitriangular_inverse(lower, upper=False)
                    == exactla.inverse(lower)), draw
            assert (zz._unitriangular_inverse(upper, upper=True)
                    == exactla.inverse(upper)), draw
        for seed in range(40):
            spaces = {(p, 0): 2 + (seed + p) % 5 for p in range(3)}
            mats, inv = zz._scrambles(spaces, seed)
            assert mats.keys() == inv.keys() == spaces.keys()
            for bid, m in mats.items():
                assert inv[bid] == exactla.inverse(m), (seed, bid)
                assert m @ inv[bid] == Matrix.identity(spaces[bid])

    def test_scrambles_keep_the_generator_order(self):
        """``_scrambles`` draws the very matrices ``scramble_matrices``
        draws for the same dimensions and seed."""
        for seed in range(20):
            k = zz.synthesize(random_parts(random.Random(seed), 6))
            mats, _ = zz._scrambles(k.spaces(), seed)
            assert mats == zz.scramble_matrices(k, seed)

    def test_wrong_size_raises_where_no_block_is_stored(self):
        """A matrix that does not fit its bidegree is refused even where
        no block is stored, so nothing would multiply it."""
        k = zz.synthesize([zz.Zigzag(((0, 0),))] * 2)
        with pytest.raises(exactla.LinAlgError, match="basis change"):
            zz.apply_basis_change(k, {(0, 0): Matrix.identity(3)})

    def test_identity_change_is_identity(self):
        k = tc.diagram_b()
        mats = {b: Matrix.identity(k.dimension(*b)) for b in k.support()}
        assert zz.apply_basis_change(k, mats) == k

    def test_cohomology_invariant_under_basis_change(self):
        k = zz.synthesize(random_parts(random.Random(1), 7))
        scrambled = zz.apply_basis_change(k, zz.scramble_matrices(k, 2))
        assert validate(scrambled) == []
        before = cohomology.all_tables(k)
        after = cohomology.all_tables(scrambled)
        for name in THEORIES:
            assert getattr(before, name).dims == getattr(after, name).dims


def _square_anchor_columns(d):
    """Per square anchor, the ``basis_change`` columns of its anchor dots."""
    at = Counter()
    columns = {}
    for part in d.parts:
        for dot in part.dots:
            if part.kind == "square" and dot == part.anchor:
                columns.setdefault(dot, []).append(at[dot])
            at[dot] += 1
    return columns


class TestDecompose:
    def test_square_complex(self):
        k = tc.square_complex()
        d = zz.decompose(k)
        assert d.verified
        assert d.parts == (zz.Square(anchor=(0, 0)),)
        for b, m in d.basis_change.items():
            assert m == Matrix.identity(k.dimension(*b))

    def test_hand_examples(self):
        expected = {
            "dot": (zz.Zigzag(((1, 2),)),),
            "vertical": (zz.Zigzag(((0, 1), (0, 0))),),
            "horizontal": (zz.Zigzag(((0, 0), (1, 0))),),
            "staircase": (zz.Zigzag(((0, 1), (1, 1), (1, 0))),),
            "diagram_a": (zz.Zigzag(((1, 2),)), zz.Zigzag(((2, 1),))),
            "diagram_b": (zz.Zigzag(((1, 2), (1, 1), (2, 1))),
                          zz.Zigzag(((1, 2), (2, 2), (2, 1)))),
        }
        built = {
            "dot": tc.dot(1, 2), "vertical": tc.vertical_two_dots(),
            "horizontal": tc.horizontal_two_dots(),
            "staircase": tc.staircase_three_dots(),
            "diagram_a": tc.diagram_a(), "diagram_b": tc.diagram_b(),
        }
        for name, k in built.items():
            d = zz.decompose(k)
            assert d.parts == expected[name], name

    def test_torus_is_all_dots(self):
        for n in (1, 2):
            d = zz.decompose(models.torus(n))
            assert len(d.parts) == 4 ** n
            assert all(p.kind == "zigzag" and p.is_dot for p in d.parts)

    def test_iwasawa_multiset(self):
        k = models.iwasawa()
        # Independent square count: squares anchored at (p, q) are counted
        # by the rank of the composed differential out of (p, q).
        composite_ranks = {
            b: rank(k.del_map(b[0], b[1] + 1) @ k.delbar_map(*b))
            for b in k.support()}
        assert {b: r for b, r in composite_ranks.items() if r} == {(1, 1): 1}
        d = assert_counts_match_tables(k)
        squares = Counter(p.anchor for p in d.parts if p.kind == "square")
        zigs = Counter(p.dots for p in d.parts
                       if p.kind == "zigzag" and not p.is_dot)
        dots = Counter(p.dots[0] for p in d.parts
                       if p.kind == "zigzag" and p.is_dot)
        assert squares == {(1, 1): 1}
        assert zigs == {((0, 2), (0, 1)): 1, ((1, 0), (2, 0)): 1,
                        ((1, 1), (2, 1)): 2, ((1, 2), (1, 1)): 2,
                        ((1, 2), (2, 2)): 2, ((1, 3), (2, 3)): 1,
                        ((2, 2), (2, 1)): 2, ((3, 2), (3, 1)): 1}
        assert sum(dots.values()) == 36
        # mirror closure reflects the real structure of the preset
        assert Counter(zz.mirror_part(p) for p in d.parts) \
            == Counter(d.parts)

    def test_kodaira_multiset(self):
        k = models.kodaira_surface()
        d = assert_counts_match_tables(k)
        zigs = Counter(p.dots for p in d.parts
                       if p.kind == "zigzag" and not p.is_dot)
        assert zigs == {((0, 1), (1, 1), (1, 0)): 1,
                        ((1, 2), (1, 1), (2, 1)): 1}
        assert not any(p.kind == "square" for p in d.parts)
        assert sum(1 for p in d.parts if p.is_dot) == 10

    def test_deterministic(self):
        k = scrambled(random_parts(random.Random(8), 9), 4)
        a = zz.decompose(k)
        b = zz.decompose(k)
        assert a.parts == b.parts
        assert a.basis_change.keys() == b.basis_change.keys()
        for key in a.basis_change:
            assert a.basis_change[key] == b.basis_change[key]

    def test_round_trip_nested_overlaps(self):
        parts = [
            zz.Zigzag(((0, 2), (1, 2), (1, 1), (2, 1), (2, 0))),
            zz.Zigzag(((1, 2), (1, 1), (2, 1))),
            zz.Zigzag(((1, 2), (1, 1))),
            zz.Zigzag(((1, 1),)),
            zz.Square(anchor=(1, 1)),
        ]
        for seed in (0, 1, 42):
            k = scrambled(parts, seed)
            d = zz.decompose(k)
            assert d.parts == zz.sort_parts(parts), seed

    def test_round_trip_thirty_parts_seed_42(self):
        parts = random_parts(random.Random(42), 30)
        plain = zz.synthesize(parts)
        assert zz.decompose(plain).parts == zz.sort_parts(parts)
        d = zz.decompose(scrambled(parts, 42))
        assert d.parts == zz.sort_parts(parts)
        assert d.verified

    def test_torus_basis_is_the_identity(self):
        """Every differential of the torus vanishes, so every vector is a
        lone dot and the canonical adapted basis is the standard one."""
        k = models.torus(2)
        d = zz.decompose(k)
        assert sorted(d.basis_change) == k.support()
        for b, m in d.basis_change.items():
            assert m == Matrix.identity(k.dimension(*b)), b

    def test_makes_no_random_draws(self, monkeypatch):
        k = scrambled(random_parts(random.Random(3), 12), 7)

        def no_draws(*args, **kwargs):
            raise AssertionError("decompose drew a random number")

        monkeypatch.setattr(zz.random, "Random", no_draws)
        assert zz.decompose(k).verified

    def test_empty_complex(self):
        d = zz.decompose(Bicomplex({}, {}, {}))
        assert d.parts == () and d.verified
        counted = zz.count_cohomology_from_zigzags(d)
        assert counted.de_rham.dims == {}

    def test_square_anchors_complement_ker_del_delbar(self):
        """Squares are split off in input coordinates: at each anchor the
        anchor vectors are the canonical complement of ker(del delbar),
        not one taken in a residual left by earlier anchors."""
        nil4 = models.from_structure_equations(models.parse_structure_text(
            "n = 4\nd w3 = -1* w1^w2\nd w4 = w1^cw1\n"))
        counted = Counter()
        for name, k in [("random", models.random_bicomplex(s).bicomplex)
                        for s in range(200)] + [("nil4", nil4)]:
            d = zz.decompose(k)
            for (p, q), cols in _square_anchor_columns(d).items():
                composed = k.del_map(p, q + 1) @ k.delbar_map(p, q)
                expected = complete_basis(kernel_basis(composed),
                                          Subspace.full(k.dimension(p, q)))
                assert d.basis_change[(p, q)].column_slice(cols) \
                    == expected, (name, (p, q))
                counted[name] += len(cols)
        assert counted["random"] == 142 and counted["nil4"] > 0

    def test_adapted_basis_is_pinned(self):
        """SHA-256 over the parts and the ``str`` of every basis_change
        entry of iwasawa, kodaira, nil4 and 70 random complexes; recorded
        when the zigzag blocks were first taken from the strip sweep's
        chains and the lone dots from one completion per residual
        bidegree."""
        nil4 = models.from_structure_equations(models.parse_structure_text(
            "n = 4\nd w3 = -1* w1^w2\nd w4 = w1^cw1\n"))
        inputs = [models.iwasawa(), models.kodaira_surface(), nil4]
        inputs += [models.random_bicomplex(s).bicomplex for s in range(50)]
        inputs += [models.random_bicomplex(s, symmetric=True).bicomplex
                   for s in range(20)]
        h = hashlib.sha256()
        for k in inputs:
            d = zz.decompose(k)
            h.update(json.dumps([zz.part_to_json_dict(p)
                                 for p in d.parts]).encode())
            for bid in sorted(d.basis_change):
                m = d.basis_change[bid]
                h.update(f"{bid} {m.rows}x{m.cols}\n".encode())
                for row in m.to_rows():
                    h.update((" ".join(map(str, row)) + "\n").encode())
        assert h.hexdigest() == BASIS_DIGEST

    def test_takes_one_ker_del_delbar_per_support_bidegree(self,
                                                           monkeypatch):
        """decompose forms del delbar and takes its kernel itself, once
        per support bidegree and call; the tables build no kernel and the
        store keeps neither, so a second decompose of the same complex
        takes each kernel again.  Most composites are zero maps of a few
        shapes, so the kernels are matched to them by equality, as a
        multiset."""
        k = models.iwasawa()
        read_tables(k)
        composites = [k.del_map(p, q + 1) @ k.delbar_map(p, q)
                      for p, q in k.support()]
        distinct = []
        for m in composites:
            if m not in distinct:
                distinct.append(m)

        def kinds(matrices):
            return Counter(distinct.index(m) for m in matrices
                           if m in distinct)

        calls = []
        kernel_basis = zz.kernel_basis

        def counted(m):
            calls.append(m)
            return kernel_basis(m)

        monkeypatch.setattr(zz, "kernel_basis", counted)
        zz.decompose(k)
        assert kinds(calls) == kinds(composites)
        assert not any(isinstance(v, Subspace) for v in k._store.values())
        zz.decompose(k)
        assert kinds(calls) == kinds(composites * 2)

    def test_invalid_input_rejected(self):
        bad = tc.build({(0, 0): 1, (1, 0): 1, (2, 0): 1},
                       del_entries={(0, 0): [[1]], (1, 0): [[1]]})
        with pytest.raises(ValueError):
            zz.decompose(bad)


# --------------------------------------------------------------------------
# Reference zigzag count: window ranks, inclusion-exclusion.
# --------------------------------------------------------------------------

def reference_zigzag_multiplicities(k):
    """Zigzags of two or more dots, counted from window ranks of ``k``.

    The rank of the map from the limit to the colimit of a staircase
    window counts the summands containing the whole window, so the
    summands that are exactly the window are an inclusion-exclusion over
    the window and its one-step extensions.  It works on ``k`` itself, not
    on a residual: a square also fills its two three-dot staircases, and
    the number of squares at an anchor, the rank of del delbar there, is
    taken off both.  Shares no code with ``decompose``.
    """
    def offsets(dots, roles, skip):
        off, total = {}, 0
        for i, d in enumerate(dots):
            if roles[i] != skip:
                off[i] = total
                total += k.dimension(*d)
        return off, total

    @functools.cache
    def window_rank(dots):
        if any(k.dimension(*d) == 0 for d in dots):
            return 0
        roles = zz.Zigzag(dots).roles()
        n = len(dots)
        s_off, s_total = offsets(dots, roles, "sink")
        t_off, t_total = offsets(dots, roles, "source")
        # Maps from the model window: a vector per source dot, such that
        # del of the left source equals delbar of the right one at every
        # interior sink.
        blocks, at = [], 0
        for i in range(1, n - 1):
            if roles[i] == "sink":
                blocks += [(at, s_off[i - 1], k.del_map(*dots[i - 1])),
                           (at, s_off[i + 1],
                            k.delbar_map(*dots[i + 1]).negate())]
                at += k.dimension(*dots[i])
        maps = (kernel_basis(place_blocks(at, s_total, blocks)).basis
                if at else Matrix.identity(s_total))
        # The colimit over the sink slots: the two arrows out of each
        # interior source are identified.
        first = min(t_off)
        source, arrow = ((1, k.delbar_map(*dots[1])) if first == 0 else
                         (first - 1, k.del_map(*dots[first - 1])))
        to_sinks = place_blocks(t_total, s_total,
                                [(t_off[first], s_off[source], arrow)])
        blocks, at = [], 0
        for i in range(1, n - 1):
            if roles[i] == "source":
                blocks += [(t_off[i - 1], at, k.delbar_map(*dots[i])),
                           (t_off[i + 1], at, k.del_map(*dots[i]).negate())]
                at += k.dimension(*dots[i])
        rel = place_blocks(t_total, at, blocks)
        return rank((to_sinks @ maps).hstack(rel)) - rank(rel)

    def extend_left(dots):
        (p, q), second = dots[0], dots[1]
        return (((p, q + 1) if second == (p + 1, q) else (p - 1, q)),) + dots

    def extend_right(dots):
        (p, q), before = dots[-1], dots[-2]
        return dots + (((p, q - 1) if before == (p - 1, q) else (p + 1, q)),)

    counts = Counter()
    for first in k.support():
        for step in ((1, 0), (0, -1)):
            dots = [first]
            while True:
                nxt = (dots[-1][0] + step[0], dots[-1][1] + step[1])
                if k.dimension(*nxt) == 0:
                    break
                dots.append(nxt)
                step = (0, -1) if step == (1, 0) else (1, 0)
                window = tuple(dots)
                r = window_rank(window)
                if r == 0:
                    break
                counts[window] += (
                    r - window_rank(extend_left(window))
                    - window_rank(extend_right(window))
                    + window_rank(extend_left(extend_right(window))))
    for (p, q) in k.support():
        squares = rank(k.del_map(p, q + 1) @ k.delbar_map(p, q))
        counts[((p, q + 1), (p, q), (p + 1, q))] -= squares
        counts[((p, q + 1), (p + 1, q + 1), (p + 1, q))] -= squares
    assert min(counts.values(), default=0) >= 0
    return {zz.Zigzag(dots): m for dots, m in counts.items() if m}


def _long_zigzags(d):
    return Counter(p for p in d.parts if p.kind == "zigzag" and not p.is_dot)


def _count_echelons(monkeypatch):
    calls = Counter()
    echelon = exactla._echelon

    def counted(work):
        calls["echelon"] += 1
        return echelon(work)

    monkeypatch.setattr(exactla, "_echelon", counted)
    return calls


class TestStripSweep:
    """Phase two finds the zigzags and their adapted basis with one
    zigzag-persistence sweep per anti-diagonal strip; the window-rank
    count above is the reference for the multiplicities, and
    ``verify_decomposition`` the certificate for the basis."""

    def test_matches_window_ranks_on_examples_and_nil_models(self):
        nil5 = models.from_structure_equations(models.parse_structure_text(
            "n = 5\nd w3 = -1* w1^w2\nd w4 = w1^cw1\nd w5 = w1^w3\n"))
        for k in [*tc.EXAMPLES, tc.nil4(), nil5]:
            assert _long_zigzags(zz.decompose(k)) \
                == reference_zigzag_multiplicities(k), k.label

    def test_matches_window_ranks_on_random_complexes(self):
        complexes = [models.random_bicomplex(s).bicomplex
                     for s in range(300)]
        complexes += [models.random_bicomplex(s, symmetric=True).bicomplex
                      for s in range(100)]
        found = 0
        for k in complexes:
            expected = reference_zigzag_multiplicities(k)
            assert _long_zigzags(zz.decompose(k)) == expected, k.label
            found += sum(expected.values())
        assert found > 300

    def test_nil4_echelon_count_is_pinned(self, monkeypatch):
        """After the tables, decompose on nil4 runs 125 eliminations.  It
        ran 143 while phase one solved for each restricted block's
        coordinates in the residual, which reading the residual basis's
        pivot rows gives without elimination; 139 while the tables left
        ker(del delbar) in the store; 252 while a Hom-space phase picked
        the adapted basis, 276 before zero matrices skipped the
        elimination; the window ranks needed 512."""
        k = tc.nil4()
        read_tables(k)
        calls = _count_echelons(monkeypatch)
        zz.decompose(k)
        assert calls["echelon"] == 125

    def test_phase_one_solves_only_for_lam(self, monkeypatch):
        """Phase one's only solve is lam, the left inverse of del delbar
        on the anchors, one per bidegree that anchors squares: 75 solves
        on random complexes 0-99.  Restricting the blocks to the residual
        reads pivot rows and solves nothing.  While each nonzero
        restricted block was solved for, they took 106 solves, and 422
        with 316 zero right-hand sides while every support bidegree's
        blocks were."""
        complexes = [models.random_bicomplex(seed).bicomplex
                     for seed in range(100)]
        zero_sides = []
        solve = zz.solve

        def counted(a, b):
            zero_sides.append(b.is_zero())
            return solve(a, b)

        monkeypatch.setattr(zz, "solve", counted)
        for k in complexes:
            zz.decompose(k)
        assert len(zero_sides) == 75 and not any(zero_sides)

    def test_every_solve_has_an_identity_right_hand_side(self,
                                                         monkeypatch):
        """Every solve decompose makes is a lam, so its right-hand side
        is the identity: on iwasawa, nil4 and random complexes 0-99."""
        sides = []
        solve = zz.solve

        def recorded(a, b):
            sides.append(b)
            return solve(a, b)

        monkeypatch.setattr(zz, "solve", recorded)
        for k in [models.iwasawa(), tc.nil4(),
                  *(models.random_bicomplex(seed).bicomplex
                    for seed in range(100))]:
            zz.decompose(k)
        assert sides
        assert all(b == Matrix.identity(b.rows) for b in sides)

    def test_zero_arrows_end_runs(self, monkeypatch):
        """torus4 has zero differentials: every run is one node, so the
        sweep eliminates nothing and finds no zigzag."""
        k = models.torus(4)
        calls = _count_echelons(monkeypatch)
        assert zz._strip_zigzags(k) == ({}, {})
        assert calls["echelon"] == 0

    def test_runs_split_inside_a_strip(self, monkeypatch):
        """Three zigzags in strip 0: a zero del arrow joins the first two,
        and zero spaces lie between the last two, so each is a run of its
        own.  A run makes one elimination per arrow."""
        parts = [zz.Zigzag(((0, 1), (0, 0))),
                 zz.Zigzag(((1, 0), (1, -1), (2, -1))),
                 zz.Zigzag(((4, -3), (4, -4)))]
        k = scrambled(parts, 3)
        calls = _count_echelons(monkeypatch)
        chains, _ = zz._strip_zigzags(k)
        assert {z: len(c) for z, c in chains.items()} \
            == {part: 1 for part in parts}
        assert calls["echelon"] == 4

    @pytest.mark.parametrize("fault", ["drop", "negate"])
    def test_a_wrong_sweep_cannot_get_through(self, monkeypatch, fault):
        """Nothing derives the multiplicities a second time, so the
        certificate must refuse a sweep that loses one bar of two or more
        nodes, or flips the sign of one vector of its chain."""
        parts = [zz.Square(anchor=(0, 1)),
                 zz.Zigzag(((0, 2), (1, 2), (1, 1), (2, 1))),
                 zz.Zigzag(((1, 2), (1, 1))),
                 zz.Zigzag(((0, 3), (1, 3), (1, 2))),
                 zz.Zigzag(((1, 1),))]
        k = scrambled(parts, 11)
        assert zz.decompose(k).parts == zz.sort_parts(parts)
        sweep = zz._sweep_run
        spoiled = []

        def broken(res, nodes, arrows):
            bars = sweep(res, nodes, arrows)
            long = [j for j, (_, chain) in enumerate(bars) if len(chain) > 1]
            if long and not spoiled:
                j = long[0]
                spoiled.append(bars[j])
                if fault == "drop":
                    del bars[j]
                else:
                    birth, chain = bars[j]
                    vector = {i: -x for i, x in chain[-1].items()}
                    bars[j] = (birth, chain[:-1] + [vector])
            return bars

        monkeypatch.setattr(zz, "_sweep_run", broken)
        with pytest.raises(zz.DecompositionError):
            zz.decompose(k)
        assert spoiled


def _zigzag_from(start, first_step, length):
    dots = [start]
    step = first_step
    for _ in range(length - 1):
        dots.append((dots[-1][0] + step[0], dots[-1][1] + step[1]))
        step = (0, -1) if step == (1, 0) else (1, 0)
    return zz.Zigzag(tuple(dots))


_CORNERS = st.tuples(st.integers(0, 3), st.integers(2, 5))
_PARTS = st.one_of(
    _CORNERS.map(lambda a: zz.Square(anchor=a)),
    st.builds(_zigzag_from, _CORNERS, st.sampled_from([(1, 0), (0, -1)]),
              st.integers(1, 5)),
    _CORNERS.map(lambda a: zz.Zigzag((a,))),
)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_PARTS, max_size=8), st.integers(0, 1000))
    def test_decompose_recovers_synthesized_parts(self, parts, seed):
        d = zz.decompose(scrambled(parts, seed))
        assert d.parts == zz.sort_parts(parts)
        assert d.verified


class TestVerifyDecomposition:
    def test_accepts_own_output(self):
        k = scrambled(random_parts(random.Random(5), 6), 1)
        d = zz.decompose(k)
        assert zz.verify_decomposition(d, k)

    def test_rejects_moved_dot(self):
        k = tc.vertical_two_dots()
        d = zz.decompose(k)
        moved = replace(d, parts=(zz.Zigzag(((1, 1), (1, 0))),))
        assert zz.verify_decomposition(moved, k) is False

    def test_rejects_wrong_part_kind(self):
        k = tc.square_complex()
        d = zz.decompose(k)
        dots = tuple(zz.Zigzag((b,)) for b in sorted(k.support()))
        assert zz.verify_decomposition(replace(d, parts=dots), k) is False

    def test_rejects_singular_block(self):
        k = tc.vertical_two_dots()
        d = zz.decompose(k)
        broken = dict(d.basis_change)
        broken[(0, 0)] = Matrix.zero(1, 1)
        assert zz.verify_decomposition(replace(d, basis_change=broken), k) \
            is False

    def test_rejects_zero_blocks_whatever_rank_reports(self, monkeypatch):
        """All-zero blocks intertwine both differentials trivially; the
        certificate refuses them through the product with an inverse, not
        through a rank, so a rank that over-counts cannot let them in."""
        k = scrambled(random_parts(random.Random(5), 6), 1)
        d = zz.decompose(k)

        def full_rank(m):
            return min(m.rows, m.cols)

        monkeypatch.setattr(exactla, "rank", full_rank)
        monkeypatch.setattr(zz, "rank", full_rank, raising=False)
        zero = {bid: Matrix.zero(s.rows, s.cols)
                for bid, s in d.basis_change.items()}
        assert zz.verify_decomposition(replace(d, basis_change=zero), k) \
            is False

    def test_rejects_relative_sign_flip(self):
        k = tc.vertical_two_dots()
        d = zz.decompose(k)
        flipped = dict(d.basis_change)
        flipped[(0, 0)] = flipped[(0, 0)].negate()
        assert zz.verify_decomposition(replace(d, basis_change=flipped), k) \
            is False

    def test_rejects_missing_blocks(self):
        k = tc.vertical_two_dots()
        d = zz.decompose(k)
        assert zz.verify_decomposition(replace(d, basis_change={}), k) \
            is False


class TestCounting:
    def test_requires_verified(self):
        d = zz.decompose(tc.dot(0, 0))
        with pytest.raises(ValueError):
            zz.count_cohomology_from_zigzags(replace(d, verified=False))

    def test_lone_dot(self):
        counted = zz.count_cohomology_from_zigzags(zz.decompose(tc.dot(1, 2)))
        for name in ("dolbeault", "conj_dolbeault", "bott_chern", "aeppli"):
            assert getattr(counted, name).dims == {(1, 2): 1}, name
        assert counted.de_rham.dims == {3: 1}

    def test_vertical_domino(self):
        counted = zz.count_cohomology_from_zigzags(
            zz.decompose(tc.vertical_two_dots()))
        assert counted.dolbeault.dims == {(0, 0): 0, (0, 1): 0}
        assert counted.conj_dolbeault.dims == {(0, 0): 1, (0, 1): 1}
        assert counted.bott_chern.dims == {(0, 0): 0, (0, 1): 1}
        assert counted.aeppli.dims == {(0, 0): 1, (0, 1): 0}
        assert counted.de_rham.dims == {0: 0, 1: 0}

    def test_two_length_three_zigzags(self):
        counted = zz.count_cohomology_from_zigzags(
            zz.decompose(tc.diagram_b()))
        assert tc.nonzero(counted.bott_chern.dims) \
            == {(1, 2): 1, (2, 1): 1, (2, 2): 1}
        assert tc.nonzero(counted.aeppli.dims) \
            == {(1, 1): 1, (1, 2): 1, (2, 1): 1}

    def test_square_contributes_nothing(self):
        counted = zz.count_cohomology_from_zigzags(
            zz.decompose(tc.square_complex()))
        for name in THEORIES:
            assert not tc.nonzero(getattr(counted, name).dims), name

    @pytest.mark.parametrize("first_step", [(1, 0), (0, -1)])
    def test_de_rham_closed_form_matches_elimination(self, first_step):
        # Every zigzag of 1-9 dots: the closed-form count must agree with
        # de Rham computed by elimination on the synthesized summand.
        for length in range(1, 10):
            dots = [(0, 0)]
            step = first_step
            while len(dots) < length:
                dots.append((dots[-1][0] + step[0], dots[-1][1] + step[1]))
                step = (0, -1) if step == (1, 0) else (1, 0)
            z = zz.Zigzag(tuple(dots))
            k = zz.synthesize([z])
            d = zz.Decomposition(
                parts=(z,), verified=False,
                basis_change={dot: Matrix.identity(1) for dot in z.dots})
            assert zz.verify_decomposition(d, k)
            counted = zz.count_cohomology_from_zigzags(
                replace(d, verified=True))
            assert counted.de_rham.dims == cohomology.de_rham(k).dims, dots

    def test_oracle_equivalence_on_examples(self):
        for k in tc.EXAMPLES:
            assert_counts_match_tables(k)

    def test_oracle_equivalence_on_random_corpus(self):
        for seed in range(40):
            rb = models.random_bicomplex(seed, symmetric=(seed % 4 == 0))
            assert_counts_match_tables(rb.bicomplex)

    def test_frolicher_page_consistency(self):
        for k in tc.EXAMPLES:
            counted = zz.count_cohomology_from_zigzags(zz.decompose(k))
            pages = cohomology.frolicher_pages(k)
            degrees = counted.de_rham.dims
            by_degree = {}
            for (p, q), dim in pages.e_infinity.items():
                by_degree[p + q] = by_degree.get(p + q, 0) + dim
            for deg, total in degrees.items():
                assert by_degree.get(deg, 0) == total, (k.label, deg)

    def test_ddbar_lemma_equivalence(self):
        complexes = list(tc.EXAMPLES) \
            + [models.random_bicomplex(s).bicomplex for s in range(20)]
        seen = set()
        for k in complexes:
            d = zz.decompose(k)
            only_squares_and_dots = all(
                p.kind == "square" or p.is_dot for p in d.parts)
            ranks = cohomology.natural_maps(k).bott_chern_to_aeppli
            h_bc = cohomology.bott_chern(k).dims
            injective = all(ranks[b] == h_bc[b] for b in h_bc)
            assert only_squares_and_dots == injective, k.label
            seen.add(only_squares_and_dots)
        assert seen == {True, False}  # both sides of the equivalence occur


class TestStandardConjugation:
    def test_mirror_closed_multiset_gives_real_structure(self):
        parts = [zz.Square(anchor=(0, 1)), zz.Square(anchor=(1, 0)),
                 zz.Square(anchor=(2, 2)),
                 zz.Zigzag(((0, 1), (0, 0))), zz.Zigzag(((0, 0), (1, 0))),
                 zz.Zigzag(((1, 2), (2, 2), (2, 1))),
                 zz.Zigzag(((1, 1),))]
        base = zz.synthesize(parts)
        maps = zz.standard_conjugation(parts)
        k = Bicomplex({b: base.dimension(*b) for b in base.support()},
                      base.del_blocks(), base.delbar_blocks(),
                      conj=maps)
        assert check_real_structure(k)

    def test_rejects_unbalanced_multiset(self):
        with pytest.raises(ValueError):
            zz.standard_conjugation([zz.Zigzag(((0, 1), (0, 0)))])
        with pytest.raises(ValueError):
            zz.standard_conjugation([zz.Square(anchor=(0, 1))])


class TestRandomComplexes:
    def test_deterministic(self):
        for symmetric in (False, True):
            a = models.random_bicomplex(17, symmetric=symmetric)
            b = models.random_bicomplex(17, symmetric=symmetric)
            assert a.bicomplex == b.bicomplex
            assert a.parts == b.parts

    def test_valid_and_round_trips(self):
        for seed in (0, 3, 11, 29):
            rb = models.random_bicomplex(seed)
            assert validate(rb.bicomplex) == []
            assert rb.parts == zz.sort_parts(rb.parts)
            assert zz.decompose(rb.bicomplex).parts == rb.parts

    def test_symmetric_mode(self):
        for seed in (1, 6):
            rb = models.random_bicomplex(seed, symmetric=True)
            assert validate(rb.bicomplex) == []
            assert check_real_structure(rb.bicomplex)
            assert Counter(zz.mirror_part(p) for p in rb.parts) \
                == Counter(rb.parts)

    def test_kind_filter_and_region(self):
        rb = models.random_bicomplex(2, kinds=("dot",))
        assert all(p.is_dot for p in rb.parts)
        for seed in range(200):
            for symmetric in (False, True):
                rb = models.random_bicomplex(seed, symmetric=symmetric)
                # A mirrored pair may take the last part past six.
                assert 1 <= len(rb.parts) <= (7 if symmetric else 6)
                for (p, q) in rb.bicomplex.support():
                    assert 0 <= p <= 5 and 0 <= q <= 5
