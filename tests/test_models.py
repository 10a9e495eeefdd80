"""Tests for the structure-equation builders and the text format.

Hand-derived facts used as oracles:

* Exterior-algebra dimensions are products of binomials.
* For the Iwasawa-type equations (d w3 = -w1^w2): the horizontal block at
  (1,0) sends w3 to -w1^w2 and kills w1, w2; the conjugated equation gives
  the vertical block at (0,1) sending cw3 to -cw1^cw2.
* For the Kodaira-surface equations (d w2 = w1^cw1): the vertical block at
  (1,0) sends w2 to w1^cw1; conjugation gives the horizontal block at (0,1)
  sending cw2 to -(w1^cw1).
* Negating the whole horizontal block at (1,1) of the Iwasawa model breaks
  anticommutation exactly at (1,1): on the basis vector w3^cw3 the two
  composites no longer cancel (each equals -w1^w2^cw1^cw2 up to the flip).
* d w1 = w1^w2, d w2 = w1^w3 fails d^2 = 0 on w2: d(w1^w3) = w1^w2^w3.
"""

import hashlib
import json
import math
import random
from itertools import combinations

import pytest

from bicomplex_lab import bicomplex, exactla, models
from bicomplex_lab import zigzag as zz
from bicomplex_lab.bicomplex import (
    Bicomplex,
    check_real_structure,
    to_json_dict,
    totalize,
    validate,
)
from bicomplex_lab.exactla import (Matrix, SC_MINUS_ONE, SC_ONE, SC_ZERO,
                                   scalar)
from bicomplex_lab.models import (
    StructureEquationError,
    StructureEquationSpec,
    from_structure_equations,
    iwasawa,
    kodaira_surface,
    parse_structure_text,
    random_bicomplex,
    torus,
)


class TestTorus:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_dimensions_are_binomial_products(self, n):
        k = torus(n)
        assert validate(k) == []
        for p in range(n + 1):
            for q in range(n + 1):
                assert k.dimension(p, q) == math.comb(n, p) * math.comb(n, q)
        assert k.total_dim == 4 ** n

    def test_zero_differentials(self):
        k = torus(2)
        assert k.del_blocks() == {} and k.delbar_blocks() == {}

    def test_point_case(self):
        k = torus(0)
        assert k.support() == [(0, 0)] and k.dimension(0, 0) == 1
        assert k.pairings is not None and k.conj is not None

    def test_real_structure(self):
        assert check_real_structure(torus(2)) is True


class TestIwasawa:
    def test_validates(self):
        assert validate(iwasawa()) == []

    def test_generator_blocks(self):
        k = iwasawa()
        # (1,0) basis: w1, w2, w3 -> (2,0) basis: w1w2, w1w3, w2w3.
        del10 = k.del_map(1, 0)
        assert del10.columns()[0] == [scalar(0)] * 3
        assert del10.columns()[1] == [scalar(0)] * 3
        assert del10.columns()[2] == [scalar(-1), scalar(0), scalar(0)]
        assert k.delbar_map(1, 0).is_zero()
        # Conjugate equation: delbar at (0,1) sends cw3 to -cw1^cw2.
        delbar01 = k.delbar_map(0, 1)
        assert delbar01.columns()[2] == [scalar(-1), scalar(0), scalar(0)]
        assert k.del_map(0, 1).is_zero()

    def test_totalization_dimensions(self):
        t = totalize(iwasawa())
        assert [t.dims[k] for k in sorted(t.dims)] == [1, 6, 15, 20, 15, 6, 1]

    def test_real_structure(self):
        assert check_real_structure(iwasawa()) is True

    def test_block_negation_breaks_anticommutation_at_1_1(self):
        k = iwasawa()
        del_blocks = k.del_blocks()
        del_blocks[(1, 1)] = del_blocks[(1, 1)].negate()
        broken = Bicomplex(
            {bid: k.dimension(*bid) for bid in k.support()},
            del_blocks, k.delbar_blocks(), n=3, label="broken")
        bad = validate(broken)
        assert [v.kind for v in bad] == ["anticommute"]
        assert bad[0].bidegree == (1, 1)

    def test_deterministic_rebuild(self):
        assert iwasawa() == iwasawa()
        assert to_json_dict(iwasawa()) == to_json_dict(iwasawa())


class TestKodairaSurface:
    def test_validates_and_blocks(self):
        k = kodaira_surface()
        assert validate(k) == []
        # (1,0) basis: w1, w2 -> (1,1) basis: w1cw1, w1cw2, w2cw1, w2cw2.
        delbar10 = k.delbar_map(1, 0)
        assert delbar10.columns()[0] == [scalar(0)] * 4
        assert delbar10.columns()[1] == [scalar(1), scalar(0),
                                      scalar(0), scalar(0)]
        assert k.del_map(1, 0).is_zero()
        # Conjugate: del at (0,1) sends cw2 to -(w1^cw1).
        del01 = k.del_map(0, 1)
        assert del01.columns()[1] == [scalar(-1), scalar(0),
                                   scalar(0), scalar(0)]

    def test_totalization_dimensions(self):
        t = totalize(kodaira_surface())
        assert [t.dims[k] for k in sorted(t.dims)] == [1, 4, 6, 4, 1]

    def test_real_structure_and_product(self):
        k = kodaira_surface()
        assert check_real_structure(k) is True
        assert k.pairings is not None


NIL4_TEXT = "n = 4\nd w3 = -1* w1^w2\nd w4 = w1^cw1\n"

PAIRED_MODELS = {
    "iwasawa": iwasawa,
    "kodaira": kodaira_surface,
    "torus2": lambda: torus(2),
    "torus3": lambda: torus(3),
    "nil4": lambda: from_structure_equations(parse_structure_text(NIL4_TEXT)),
}


def _signed(m, sign):
    return m if sign > 0 else m.negate()


over_models = pytest.mark.parametrize("name", sorted(PAIRED_MODELS))


class TestProductStructure:
    """The pairing matrices of the wedge product followed by the top
    functional.  Graded commutativity of the wedge gives the symmetry
    rule; d of a product landing in (n, n) is killed by the functional
    (both differentials into (n, n) vanish), so the graded Leibniz rule
    moves a differential across the pairing with sign -(-1)^(p+q)."""

    @over_models
    def test_pairings_cover_the_square(self, name):
        k = PAIRED_MODELS[name]()
        n = k.n
        assert set(k.pairings) == {
            (p, q) for p in range(n + 1) for q in range(n + 1)}

    @over_models
    def test_graded_symmetry(self, name):
        k = PAIRED_MODELS[name]()
        n, pair = k.n, k.pairings
        for (p, q), m in pair.items():
            assert pair[(n - p, n - q)] == _signed(m.transpose(),
                                                   (-1) ** (p + q))

    @over_models
    def test_stokes_for_both_differentials(self, name):
        k = PAIRED_MODELS[name]()
        n, pair = k.n, k.pairings
        for (p, q), m in pair.items():
            sign = -((-1) ** (p + q))
            if p < n:
                assert pair[(p + 1, q)] @ k.del_map(p, q) == _signed(
                    k.del_map(n - p - 1, n - q).transpose() @ m, sign)
            if q < n:
                assert pair[(p, q + 1)] @ k.delbar_map(p, q) == _signed(
                    k.delbar_map(n - p, n - q - 1).transpose() @ m, sign)

    @over_models
    def test_signed_permutation(self, name):
        k = PAIRED_MODELS[name]()
        for m in k.pairings.values():
            for col in m.columns():
                assert [x for x in col if x] in ([SC_ONE], [SC_MINUS_ONE])

    @over_models
    def test_top_corners_pair_to_one(self, name):
        k = PAIRED_MODELS[name]()
        one = Matrix.from_rows([[SC_ONE]])
        assert k.pairings[(0, 0)] == one
        assert k.pairings[(k.n, k.n)] == one

    def test_non_unimodular_spec_gets_no_product(self):
        spec = StructureEquationSpec(
            n=1, differentials={1: ((SC_ONE, ("w", 1), ("cw", 1)),)})
        k = from_structure_equations(spec, label="hopf-like")
        assert validate(k) == []
        assert k.pairings is None
        assert k.conj is not None and check_real_structure(k) is True


class TestSpecValidation:
    def test_integrability_violation(self):
        spec = StructureEquationSpec(
            n=2, differentials={1: ((SC_ONE, ("cw", 1), ("cw", 2)),)})
        with pytest.raises(StructureEquationError, match="integrability"):
            from_structure_equations(spec)

    def test_d_squared_failure_names_generator(self):
        spec = StructureEquationSpec(
            n=3, differentials={
                1: ((SC_ONE, ("w", 1), ("w", 2)),),
                2: ((SC_ONE, ("w", 1), ("w", 3)),),
            })
        with pytest.raises(StructureEquationError, match="w2"):
            from_structure_equations(spec)

    def test_unknown_generator_rejected(self):
        spec = StructureEquationSpec(
            n=2, differentials={5: ()})
        with pytest.raises(StructureEquationError, match="w5"):
            from_structure_equations(spec)

    def test_swapped_indices_normalize_with_sign(self):
        direct = StructureEquationSpec(
            n=3, differentials={3: ((SC_MINUS_ONE, ("w", 1), ("w", 2)),)})
        swapped = StructureEquationSpec(
            n=3, differentials={3: ((SC_ONE, ("w", 2), ("w", 1)),)})
        assert (from_structure_equations(direct)
                == from_structure_equations(swapped))


class TestRandomBicomplex:
    @pytest.mark.parametrize("kinds", [(), ("dot", "triangle")])
    def test_bad_kinds_raise_value_error(self, kinds):
        with pytest.raises(ValueError, match="kinds"):
            random_bicomplex(0, kinds=kinds)

    def test_generated_complexes_are_pinned(self):
        """SHA-256 over ``to_json_dict`` and the conjugation rows of seeds
        0-199 plain and 0-99 symmetric; recorded when every support
        bidegree, lines included, still got a scramble."""
        h = hashlib.sha256()
        for seed, symmetric in ([(s, False) for s in range(200)]
                                + [(s, True) for s in range(100)]):
            k = random_bicomplex(seed, symmetric=symmetric).bicomplex
            h.update(json.dumps(to_json_dict(k), sort_keys=True).encode())
            _hash_matrices(h, "conj", k.conj)
        assert h.hexdigest() == GENERATOR_DIGEST

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_one_build_and_one_validation_per_draw(self, monkeypatch,
                                                   symmetric):
        """Each draw constructs one Bicomplex and validates only that one,
        the complex it returns."""
        built, checked = [], []
        construct, check = Bicomplex.__init__, bicomplex.validate

        def counted_init(k, *args, **kwargs):
            built.append(k)
            construct(k, *args, **kwargs)

        def counted_validate(k):
            if "violations" not in k._store:
                checked.append(k)
            return check(k)

        monkeypatch.setattr(Bicomplex, "__init__", counted_init)
        monkeypatch.setattr(bicomplex, "validate", counted_validate)
        for seed in range(10):
            built.clear()
            checked.clear()
            out = random_bicomplex(seed, symmetric=symmetric).bicomplex
            assert len(built) == 1 and built[0] is out
            assert len(checked) == 1 and checked[0] is out

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_no_elimination_per_draw(self, monkeypatch, symmetric):
        """The scrambles are inverted from their triangular factors, so a
        draw never enters the elimination loop."""
        forward = exactla._forward
        calls = []

        def counted(columns):
            calls.append(len(columns))
            return forward(columns)

        monkeypatch.setattr(exactla, "_forward", counted)
        for seed in range(100):
            random_bicomplex(seed, symmetric=symmetric)
        assert calls == []

    def test_the_returned_complex_is_validated(self, monkeypatch):
        """With a square's top arrow drawn +1 instead of -1, its two
        paths add up instead of cancelling, and the draw must fail on the
        one validation left."""
        seed = next(s for s in range(100)
                    if any(isinstance(p, zz.Square)
                           for p in random_bicomplex(s).parts))
        arrows = zz._arrows

        def unsigned(part):
            return tuple((which, src, tgt, SC_ONE)
                         for which, src, tgt, _ in arrows(part))

        monkeypatch.setattr(zz, "_arrows", unsigned)
        with pytest.raises(ValueError, match="anticommute"):
            random_bicomplex(seed)


class TestTextFormat:
    IWASAWA_TEXT = """
    # three complex dimensions, one non-closed generator
    n = 3
    d w1 = 0
    d w2 = 0
    d w3 = -1* w1^w2
    """

    def test_parses_iwasawa(self):
        spec = parse_structure_text(self.IWASAWA_TEXT)
        assert from_structure_equations(spec, label="iwasawa") == iwasawa()

    def test_parses_kodaira(self):
        text = "n = 2\nd w1 = 0\nd w2 = w1^cw1\n"
        spec = parse_structure_text(text)
        built = from_structure_equations(spec, label="kodaira-surface")
        assert built == kodaira_surface()

    def test_multi_term_with_complex_scalars(self):
        text = "n = 3\nd w3 = 1/2+1/2 i* w1^w2 - 2* w1^cw2 + w2^cw1\n"
        spec = parse_structure_text(text)
        terms = spec.differentials[3]
        assert terms[0][0] == scalar("1/2", "1/2")
        assert terms[1][0] == scalar(-2)
        assert terms[2][0] == SC_ONE
        assert terms[2][1:] == (("w", 2), ("cw", 1))
        k = from_structure_equations(spec)
        assert validate(k) == []

    def test_errors(self):
        with pytest.raises(StructureEquationError, match="missing n"):
            parse_structure_text("# only a comment\n\n")
        with pytest.raises(StructureEquationError, match="line 2"):
            parse_structure_text("n = 2\nd w1 = w2")
        with pytest.raises(StructureEquationError, match="duplicate"):
            parse_structure_text("n = 2\nd w1 = 0\nd w1 = 0")
        with pytest.raises(StructureEquationError, match="declared before"):
            parse_structure_text("d w1 = 0\nn = 2")
        with pytest.raises(StructureEquationError, match="missing \\+/-"):
            parse_structure_text("n = 2\nd w1 = w1^w2 w1^cw1")

    def test_n_is_capped(self):
        assert parse_structure_text("n = 7\n").n == 7
        with pytest.raises(StructureEquationError, match="line 2: n = 8"):
            parse_structure_text("# too many generators\nn = 8\n")

    @pytest.mark.parametrize("text", [
        "n = " + "9" * 5000,
        "n = 3\nd w" + "9" * 5000 + " = 0",
        "n = 3\nd w3 = w1^w" + "9" * 5000,
    ], ids=["n", "equation", "term"])
    def test_overlong_integers_are_parse_errors(self, text):
        line = text.count("\n") + 1
        with pytest.raises(StructureEquationError, match=f"line {line}"):
            parse_structure_text(text)


# Structure-equation texts with i and 1/2 coefficients: valid ones, a zero
# conjugate-conjugate term (accepted), a self-wedge (dropped), a
# non-unimodular model (no product), and one of each rejection.
PINNED_TEXTS = [
    "n = 3\nd w3 = 1/2+1/2 i* w1^w2 - 2* w1^cw2 + w2^cw1\n",
    "n = 2\nd w2 = i* w1^cw1\n",
    "n = 3\nd w3 = 1/2* w1^w2 + i* w1^cw1 - 1/2+i* w2^cw2\n",
    "n = 3\nd w3 = 1/2-i* cw1^w2 + i* cw2^w1 + 1/2* w2^w1\n",
    "n = 3\nd w2 = 1/2* w1^w3\nd w3 = i* w1^w2\n",
    "n = 2\nd w1 = 0* cw1^cw2\nd w2 = i* w1^w1 + 1/2* w1^cw1\n",
    "n = 1\nd w1 = i* w1^cw1\n",
    "n = 4\nd w3 = i* w1^w2\nd w4 = 1/2* w1^cw1 - 1/2 i* cw2^w2\n",
    "n = 3\nd w1 = i* w1^w2\nd w2 = 1/2* w1^w3\n",
    "n = 2\nd w1 = 1/2* cw1^cw2\n",
    "n = 2\nd w1 = i* w1^w3\n",
    "n = 2\nd w5 = 0\n",
]

MODELS_DIGEST = ("151b7c5d33eed6e585cc5e279ea37a73"
                 "b976865def0d90f8c4aea04a0ce08af6")
GENERATOR_DIGEST = ("878e66eb7a8540b894aff54ef7681619"
                    "49741da0dbbe5c7071e1ac2798c62206")


def _hash_matrices(h, name, blocks):
    if blocks is None:
        h.update(f"{name} none\n".encode())
        return
    for bid in sorted(blocks):
        m = blocks[bid]
        h.update(f"{name} {bid} {m.rows}x{m.cols}\n".encode())
        for row in m.to_rows():
            h.update((" ".join(map(str, row)) + "\n").encode())


def test_model_matrices_are_pinned():
    """SHA-256 over the ``str`` of every del, delbar, conjugation and
    pairing entry of torus0-4, iwasawa, kodaira and nil4, plus the
    matrices or the error message of each text in ``PINNED_TEXTS``;
    recorded when the builder still kept one generator table per
    differential."""
    built = [torus(n) for n in range(5)]
    built += [iwasawa(), kodaira_surface(), PAIRED_MODELS["nil4"]()]
    built += PINNED_TEXTS
    h = hashlib.sha256()
    for item in built:
        if isinstance(item, str):
            h.update(item.encode())
            try:
                item = from_structure_equations(parse_structure_text(item))
            except StructureEquationError as exc:
                h.update(f"error {exc}\n".encode())
                continue
        h.update(f"{item.label} {sorted(item.support())}\n".encode())
        _hash_matrices(h, "del", item.del_blocks())
        _hash_matrices(h, "delbar", item.delbar_blocks())
        _hash_matrices(h, "conj", item.conj)
        _hash_matrices(h, "pairing", item.pairings)
    assert h.hexdigest() == MODELS_DIGEST


def test_one_derivation_per_monomial_builds_iwasawa(monkeypatch):
    """d is applied once per generator for the d^2 check (2n = 6 calls)
    and once per monomial for the del, delbar and conjugation columns
    (4^3 = 64 calls), not once per differential."""
    calls = []
    derive = models._element_diff

    def counted(diff_gen, element):
        calls.append(element)
        return derive(diff_gen, element)

    monkeypatch.setattr(models, "_element_diff", counted)
    iwasawa()
    assert len(calls) == 2 * 3 + 4 ** 3


# An independent builder to hold ``from_structure_equations`` to.  A
# monomial is a pair (I, J) of increasing index tuples, and every sign comes
# from sorting concatenated tuples: no bitmask and no popcount.


def _merge_sign(a, b):
    """Shuffle sign and merge of two sorted index tuples; None if they
    overlap."""
    if set(a) & set(b):
        return None
    inversions = sum(1 for x in a for y in b if y < x)
    return (-1) ** inversions, tuple(sorted(a + b))


def _wedge_monomials(m1, m2):
    """Sign and result of wedging two canonical monomials; None if zero."""
    (i1, j1), (i2, j2) = m1, m2
    mi, mj = _merge_sign(i1, i2), _merge_sign(j1, j2)
    if mi is None or mj is None:
        return None
    return mi[0] * mj[0] * (-1) ** (len(j1) * len(i2)), (mi[1], mj[1])


def _with_sign(coeff, sign):
    return coeff if sign > 0 else -coeff


def _tuple_diff(d_gen, element):
    """The derivation on generators ``d_gen`` applied to ``element``: each
    generator is pulled to the front of its monomial and replaced by its
    differential."""
    out = {}
    for (idx_i, idx_j), coeff in element.items():
        gens = [("w", i) for i in idx_i] + [("cw", j) for j in idx_j]
        for t, gen in enumerate(gens):
            if gen[0] == "w":
                rest = (tuple(x for x in idx_i if x != gen[1]), idx_j)
            else:
                rest = (idx_i, tuple(x for x in idx_j if x != gen[1]))
            for gcoeff, gmono in d_gen.get(gen, ()):
                wedged = _wedge_monomials(gmono, rest)
                if wedged is not None:
                    sign, mono = wedged
                    out[mono] = out.get(mono, SC_ZERO) + _with_sign(
                        coeff * gcoeff, sign * (-1) ** t)
    return {m: c for m, c in out.items() if c}


def _tuple_conjugate(coeff, mono):
    """conj(c w_I^cw_J) = conj(c) cw_I^w_J = (-1)^(|I||J|) conj(c) w_J^cw_I."""
    idx_i, idx_j = mono
    return (_with_sign(coeff.conjugate(), (-1) ** (len(idx_i) * len(idx_j))),
            (idx_j, idx_i))


def reference_structure_model(spec):
    """The structure-equation model of ``spec`` by the tuple derivation,
    with the builder's error messages."""
    n = spec.n
    for k in spec.differentials:
        if not (isinstance(k, int) and 1 <= k <= n):
            raise StructureEquationError(
                f"equation for unknown generator w{k} (n = {n})")
    d_gen = {}
    for k in range(1, n + 1):
        acc = {}
        for coeff, g1, g2 in spec.differentials.get(k, ()):
            coeff = scalar(coeff)
            for kind, idx in (g1, g2):
                if kind not in ("w", "cw") or not 1 <= idx <= n:
                    raise StructureEquationError(
                        f"d(w{k}): bad generator {(kind, idx)!r}")
            if not coeff:
                continue
            if g1[0] == g2[0] == "cw":
                raise StructureEquationError(
                    f"d(w{k}) has a conjugate-conjugate term "
                    f"cw{g1[1]}^cw{g2[1]}: integrability fails")
            wedged = _wedge_monomials(*(((i,), ()) if kind == "w" else
                                        ((), (i,)) for kind, i in (g1, g2)))
            if wedged is not None:
                sign, mono = wedged
                acc[mono] = acc.get(mono, SC_ZERO) + _with_sign(coeff, sign)
        terms = [(c, m) for m, c in acc.items() if c]
        if terms:
            d_gen[("w", k)] = terms
            d_gen[("cw", k)] = [_tuple_conjugate(c, m) for c, m in terms]
    for kind in ("w", "cw"):
        for k in range(1, n + 1):
            if _tuple_diff(d_gen, {m: c for c, m in d_gen.get((kind, k), ())}):
                raise StructureEquationError(
                    f"d does not square to zero on {kind}{k}")
    everything = range(1, n + 1)
    bases = {(p, q): [(i, j) for i in combinations(everything, p)
                      for j in combinations(everything, q)]
             for p in range(n + 1) for q in range(n + 1)}
    index = {m: r for basis in bases.values() for r, m in enumerate(basis)}

    def block(source, target, image):
        cols = [{} for _ in bases[source]]
        for col, mono in zip(cols, bases[source]):
            for m, c in image(mono).items():
                if (len(m[0]), len(m[1])) == target:
                    col[index[m]] = c
        return Matrix._from_sparse(len(bases[target]), len(cols), cols)

    def d(mono):
        return _tuple_diff(d_gen, {mono: SC_ONE})

    def conj(mono):
        c, m = _tuple_conjugate(SC_ONE, mono)
        return {m: c}

    def pair(mono):
        comp = tuple(tuple(x for x in everything if x not in idx)
                     for idx in mono)
        return {comp: _with_sign(SC_ONE, _wedge_monomials(mono, comp)[0])}

    del_maps = {(p, q): block((p, q), (p + 1, q), d)
                for p, q in bases if p < n}
    delbar_maps = {(p, q): block((p, q), (p, q + 1), d)
                   for p, q in bases if q < n}
    conj_maps = {(p, q): block((p, q), (q, p), conj) for p, q in bases}
    pairings = None
    if del_maps.get((n - 1, n), Matrix.zero(1, 0)).is_zero() and \
            delbar_maps.get((n, n - 1), Matrix.zero(1, 0)).is_zero():
        pairings = {(p, q): block((p, q), (n - p, n - q), pair)
                    for p, q in bases}
    return Bicomplex({bid: len(b) for bid, b in bases.items()}, del_maps,
                     delbar_maps, n=n, pairings=pairings,
                     conj=conj_maps)


def _outcome(build, spec):
    """The built complex with its structures, or the error message."""
    try:
        k = build(spec)
    except StructureEquationError as exc:
        return "error", str(exc)
    return k, k.conj, k.pairings


NIL_TEXTS = {
    "nil4": NIL4_TEXT,
    "nil5": NIL4_TEXT.replace("n = 4", "n = 5") + "d w5 = w1^w3\n",
    "nil6": NIL4_TEXT.replace("n = 4", "n = 6")
    + "d w5 = w1^w3\nd w6 = w1^w4\n",
}
ORACLE_SPECS = {
    "torus0": StructureEquationSpec(n=0, differentials={}),
    "torus3": StructureEquationSpec(n=3, differentials={}),
    "iwasawa": parse_structure_text(TestTextFormat.IWASAWA_TEXT),
    "kodaira": parse_structure_text("n = 2\nd w2 = w1^cw1\n"),
    **{name: parse_structure_text(text) for name, text in NIL_TEXTS.items()},
    **{f"pinned{i}": parse_structure_text(text)
       for i, text in enumerate(PINNED_TEXTS)},
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_builder_matches_tuple_oracle(name):
    spec = ORACLE_SPECS[name]
    assert (_outcome(from_structure_equations, spec)
            == _outcome(reference_structure_model, spec))


_ORACLE_COEFFS = [SC_ONE, SC_MINUS_ONE, scalar(0, 1), scalar(0, -1),
                  scalar("1/2", "1/2"), scalar(-2), scalar("3/5")]


def random_nilpotent_spec(rng):
    """n <= 4 and d(w_k) a sum of up to three terms w_i^w_j and w_i^cw_j
    (either factor first) with i, j < k; d^2 need not vanish."""
    n = rng.randint(1, 4)
    differentials = {}
    for k in range(2, n + 1):
        terms = []
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(1, k), rng.randrange(1, k)
            pair = [("w", i), (rng.choice(("w", "cw")), j)]
            rng.shuffle(pair)
            terms.append((rng.choice(_ORACLE_COEFFS), *pair))
        differentials[k] = tuple(terms)
    return StructureEquationSpec(n=n, differentials=differentials)


def test_builder_matches_tuple_oracle_on_random_specs():
    rng = random.Random(20240611)
    failed = 0
    for _ in range(200):
        spec = random_nilpotent_spec(rng)
        built = _outcome(from_structure_equations, spec)
        assert built == _outcome(reference_structure_model, spec), spec
        failed += built[0] == "error"
    # Both verdicts of the d^2 check are among the draws (27 of them fail).
    # Nilpotent specs are unimodular, so each model that builds carries a
    # pairing; PINNED_TEXTS holds one that does not.
    assert 20 <= failed <= 180
