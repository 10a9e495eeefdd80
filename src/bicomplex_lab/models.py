"""Builders producing validated double complexes.

Structure-equation models are finite exterior algebras on generators
``w1..wn`` and their conjugates ``cw1..cwn``, bigraded by (number of w
factors, number of cw factors).  The differential of each ``wk`` is
prescribed; it extends to the whole algebra by the graded Leibniz rule, its
(1,0)/(0,1) bidegree parts give the two differentials, and the equations
for the conjugate generators follow by conjugation.  Such models are
desk-scale stand-ins for the invariant differential forms of compact
homogeneous complex manifolds; presets cover the complex torus, the Iwasawa
threefold, and the primary Kodaira surface.

The module also exposes a small line-based text format for structure
equations and a seeded generator of random abstract complexes assembled
from at most six indecomposable parts inside [0, 5]^2.
"""

import random
import re
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .bicomplex import (
    MAX_N,
    Bicomplex,
    ensure_valid,
)
from .exactla import (
    ExactScalar,
    Matrix,
    SC_MINUS_ONE,
    SC_ONE,
    SC_ZERO,
    scalar,
)
from . import zigzag as zz


class StructureEquationError(ValueError):
    """Raised for malformed or non-integrable structure equations."""


@dataclass(frozen=True)
class StructureEquationSpec:
    """Complex dimension ``n`` plus the prescribed differentials.

    ``differentials`` maps a generator index k (1-based) to a tuple of
    terms ``(coefficient, generator, generator)`` describing d(wk); each
    generator is a pair ("w", i) or ("cw", i).  Missing indices mean
    d(wk) = 0.
    """

    n: int
    differentials: dict


# A monomial w_I ^ cw_J is a pair (a, b) of bitmasks: bit i-1 of a is set
# when w_i is a factor and bit i-1 of b when cw_i is, the w factors coming
# first, each group in increasing index.  All signs are parities of popcounts.


def _below(mask):
    """The XOR, over the bits x of ``mask``, of the mask of the bits below
    x.  Bit y of the result is set when an odd number of bits of ``mask``
    lie above y, so for a disjoint mask r, ``(r & _below(mask)).bit_count()``
    has the parity of the inversions (x in mask, y in r, y < x): the sign
    of merging the factors of ``mask`` with those of r into one increasing
    run."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= low - 1
        mask ^= low
    return out


def _wedge_parity(left, right):
    """Parity of the sign of w_I1^cw_J1 ^ w_I2^cw_J2 = +-w_(I1+I2)^cw_(J1+J2)
    for two disjoint monomials: the merge of the w factors, the merge of
    the cw factors, and J1 moved past I2."""
    (a1, b1), (a2, b2) = left, right
    return ((a2 & _below(a1)).bit_count() + (b2 & _below(b1)).bit_count()
            + b1.bit_count() * a2.bit_count()) & 1


def _element_diff(diff_gen, element):
    """Apply a generator-level derivation to an element.

    ``diff_gen`` lists (on_cw, bit, terms) for each generator with a
    nonzero differential: the generator is cw_i (``on_cw``) or w_i, with
    ``bit`` = 1 << (i-1), and ``terms`` holds (coefficient, its negative,
    a, b, _below(a), _below(b), |b|) for each 2-generator monomial (a, b)
    of its differential.  ``element`` maps monomials to coefficients.  The
    derivation pulls each generator to the front of its monomial (sign
    (-1)^position, the factors before it) and wedges its differential
    with the rest.
    """
    out = {}
    for (a, b), coeff in element.items():
        size_a = a.bit_count()
        for on_cw, bit, terms in diff_gen:
            if on_cw:
                if not b & bit:
                    continue
                ra, rb = a, b ^ bit
                position = size_a + (b & (bit - 1)).bit_count()
            else:
                if not a & bit:
                    continue
                ra, rb = a ^ bit, b
                position = (a & (bit - 1)).bit_count()
            size_ra = ra.bit_count()
            for gcoeff, gneg, ga, gb, below_a, below_b, size_gb in terms:
                if ga & ra or gb & rb:
                    continue
                odd = (position + (ra & below_a).bit_count()
                       + (rb & below_b).bit_count() + size_gb * size_ra) & 1
                value = gneg if odd else gcoeff
                if coeff is not SC_ONE:  # a basis monomial skips the product
                    value = coeff * value
                mono = (ga | ra, gb | rb)
                old = out.get(mono)
                if old is not None:
                    value = old + value
                    if not value:
                        del out[mono]
                        continue
                out[mono] = value
    return out


def _subset_masks(n, size):
    """Masks of the ``size``-element subsets of n bits, in the order of
    ``combinations``."""
    return [sum(1 << i for i in c) for c in combinations(range(n), size)]


def _monomial_basis(n, p, q):
    cw_masks = _subset_masks(n, q)
    return [(a, b) for a in _subset_masks(n, p) for b in cw_masks]


def _conjugate(coeff, mono):
    """Conjugate of ``coeff`` times a monomial: conj(w_I^cw_J) = cw_I^w_J
    = (-1)^(|I||J|) w_J^cw_I."""
    a, b = mono
    c = coeff.conjugate()
    return (-c if a.bit_count() * b.bit_count() % 2 else c), (b, a)


def _normalize_terms(spec):
    """Validate and canonicalize d(wk) for every k; returns ``d_gen``, one
    entry (on_cw, bit, terms) per generator w_k and cw_k with a nonzero
    differential, in the form :func:`_element_diff` reads.  d(cw_k) is the
    conjugate of d(w_k), so the (2,0) and (1,1) terms of d(w_k) give the
    (0,2) and (1,1) terms of d(cw_k)."""
    n = spec.n
    for k in spec.differentials:
        if not (isinstance(k, int) and 1 <= k <= n):
            raise StructureEquationError(
                f"equation for unknown generator w{k} (n = {n})")
    w_gen, cw_gen = [], []
    for k in range(1, n + 1):
        acc = {}
        for coeff, g1, g2 in spec.differentials.get(k, ()):
            coeff = scalar(coeff)
            for g in (g1, g2):
                kind, idx = g
                if kind not in ("w", "cw") or not 1 <= idx <= n:
                    raise StructureEquationError(
                        f"d(w{k}): bad generator {g!r}")
            if not coeff:
                continue
            if g1[0] == g2[0] == "cw":
                raise StructureEquationError(
                    f"d(w{k}) has a conjugate-conjugate term "
                    f"cw{g1[1]}^cw{g2[1]}: integrability fails")
            m1, m2 = ((1 << (i - 1), 0) if kind == "w" else (0, 1 << (i - 1))
                      for kind, i in (g1, g2))
            if m1 == m2:
                continue
            mono = (m1[0] | m2[0], m1[1] | m2[1])
            if _wedge_parity(m1, m2):
                coeff = -coeff
            value = acc.get(mono, SC_ZERO) + coeff
            if value:
                acc[mono] = value
            elif mono in acc:
                del acc[mono]
        if acc:
            bit = 1 << (k - 1)
            terms = [(c, m) for m, c in acc.items()]
            w_gen.append((False, bit, _derivation_terms(terms)))
            cw_gen.append((True, bit, _derivation_terms(
                [_conjugate(c, m) for c, m in terms])))
    return w_gen + cw_gen


def _derivation_terms(terms):
    """The terms (coefficient, monomial) of one generator's differential,
    with what :func:`_element_diff` reads of each."""
    return [(c, -c, a, b, _below(a), _below(b), b.bit_count())
            for c, (a, b) in terms]


def from_structure_equations(spec, *, label=""):
    """Build the exterior-algebra double complex of a structure-equation
    spec.

    One derivation d, given on generators by ``_normalize_terms``, is
    applied once to each monomial of bidegree (p, q): its terms at
    (p+1, q) form the del column and those at (p, q+1) the delbar column.

    The output carries a conjugation structure (generator swap w_i <->
    cw_i) and, whenever the top-bidegree functional provably kills
    boundaries there (automatic for unimodular equations, e.g. all shipped
    presets), the pairing matrices of the wedge product followed by the
    functional that reads off the coefficient of the top monomial
    w1^..^wn^cw1^..^cwn.

    Raises StructureEquationError when integrability fails (a
    conjugate-conjugate term is present) or d does not square to zero.
    """
    n = spec.n
    d_gen = _normalize_terms(spec)
    # d squared must vanish on every generator; by the derivation property
    # this forces it to vanish on the whole algebra.
    d_of = {(on_cw, bit): {(a, b): c for c, _, a, b, *_ in terms}
            for on_cw, bit, terms in d_gen}
    for on_cw, kind in ((False, "w"), (True, "cw")):
        for k in range(1, n + 1):
            if _element_diff(d_gen, d_of.get((on_cw, 1 << (k - 1)), {})):
                raise StructureEquationError(
                    f"d does not square to zero on {kind}{k}")
    monos = {}
    position = {}  # monomial -> its index in the basis of its bidegree
    spaces = {}
    for p in range(n + 1):
        for q in range(n + 1):
            basis = _monomial_basis(n, p, q)
            monos[(p, q)] = basis
            position.update((m, i) for i, m in enumerate(basis))
            spaces[(p, q)] = len(basis)

    def sparse(target, cols):
        return Matrix._from_sparse(spaces[target], len(cols), cols)

    del_maps, delbar_maps, conj_maps = {}, {}, {}
    for (p, q), basis in monos.items():
        del_cols, delbar_cols, conj_cols = [], [], []
        conj_sign = SC_MINUS_ONE if p * q % 2 else SC_ONE
        for mono in basis:
            del_col, delbar_col = {}, {}
            for m, c in _element_diff(d_gen, {mono: SC_ONE}).items():
                col = del_col if m[0].bit_count() > p else delbar_col
                col[position[m]] = c
            del_cols.append(del_col)
            delbar_cols.append(delbar_col)
            conj_cols.append({position[mono[::-1]]: conj_sign})
        if p < n:
            del_maps[(p, q)] = sparse((p + 1, q), del_cols)
        if q < n:
            delbar_maps[(p, q)] = sparse((p, q + 1), delbar_cols)
        conj_maps[(p, q)] = sparse((q, p), conj_cols)

    # Attach the pairing only when the top functional demonstrably kills
    # boundaries in bidegree (n, n): equivalent, since that space is a
    # line, to both differentials into (n, n) vanishing.  On monomials the
    # pairing is a signed permutation: each monomial pairs only with its
    # complement, with the sign of their wedge.
    pairings = None
    into_top = (del_maps.get((n - 1, n)), delbar_maps.get((n, n - 1)))
    if all(m is None or m.is_zero() for m in into_top):
        # The wedge sign with the complement: the merge of each mask with
        # its complement, read off per mask, and the cw factors moved past
        # the n - p complementary w factors.
        full = (1 << n) - 1
        merge = [((full ^ m) & _below(m)).bit_count() & 1
                 for m in range(full + 1)]
        pairings = {}
        for (p, q), basis in monos.items():
            cols = []
            for a, b in basis:
                comp = (full ^ a, full ^ b)
                odd = merge[a] ^ merge[b] ^ (q * (n - p) & 1)
                cols.append({position[comp]: SC_MINUS_ONE if odd else SC_ONE})
            pairings[(p, q)] = sparse((n - p, n - q), cols)
    out = Bicomplex(spaces, del_maps, delbar_maps, n=n, label=label,
                    pairings=pairings, conj=conj_maps)
    ensure_valid(out)
    return out


def torus(n):
    """Exterior algebra with zero differentials; n = 0 is a single point."""
    return from_structure_equations(
        StructureEquationSpec(n=n, differentials={}), label=f"torus-{n}")


def iwasawa():
    """Complex-dimension-3 model with d(w3) = -w1^w2."""
    spec = StructureEquationSpec(
        n=3,
        differentials={3: ((SC_MINUS_ONE, ("w", 1), ("w", 2)),)})
    return from_structure_equations(spec, label="iwasawa")


def kodaira_surface():
    """Complex-dimension-2 model with d(w2) = w1^cw1."""
    spec = StructureEquationSpec(
        n=2,
        differentials={2: ((SC_ONE, ("w", 1), ("cw", 1)),)})
    return from_structure_equations(spec, label="kodaira-surface")


# Integers in the grammar have at most 9 digits, so ``int`` never meets its
# digit limit.
_N_LINE = re.compile(r"^n\s*=\s*(\d{1,9})$", re.ASCII)
_D_LINE = re.compile(r"^d\s+w(\d{1,9})\s*=\s*(.*)$", re.ASCII)
_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<scalar>[^*]+?)\s*\*)?\s*"
    r"(?P<g1>c?w\d{1,9})\s*\^\s*(?P<g2>c?w\d{1,9})", re.ASCII)


def _parse_generator(token):
    if token.startswith("cw"):
        return ("cw", int(token[2:]))
    return ("w", int(token[1:]))


def parse_structure_text(text):
    """Parse the structure-equation text format into a spec.

    Grammar, one statement per line (blank lines and ``#`` comments are
    ignored)::

        n = <int>
        d w<k> = <expr>

    where ``<expr>`` is ``0`` or a sum of terms ``<scalar>* <gen>^<gen>``
    (the scalar factor is optional) with generators ``w<i>`` / ``cw<i>``
    and scalars in the exact string format ("p/q", "p/q+r/s i", ...).
    An ``n`` above ``MAX_N`` is rejected before any basis is built.
    """
    n = None
    differentials = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _N_LINE.match(line)
        if m:
            if n is not None:
                raise StructureEquationError(
                    f"line {lineno}: duplicate n declaration")
            n = int(m.group(1))
            if n > MAX_N:
                raise StructureEquationError(
                    f"line {lineno}: n = {n} exceeds the maximum {MAX_N} "
                    f"(total dimension 4^n)")
            continue
        m = _D_LINE.match(line)
        if not m:
            raise StructureEquationError(
                f"line {lineno}: cannot parse {line!r}")
        if n is None:
            raise StructureEquationError(
                f"line {lineno}: n must be declared before equations")
        k = int(m.group(1))
        if k in differentials:
            raise StructureEquationError(
                f"line {lineno}: duplicate equation for w{k}")
        expr = m.group(2).strip()
        if expr == "0":
            differentials[k] = ()
            continue
        terms = []
        pos = 0
        first = True
        while pos < len(expr):
            match = _TERM.match(expr, pos)
            if not match:
                raise StructureEquationError(
                    f"line {lineno}: cannot parse term starting at "
                    f"{expr[pos:]!r}")
            if not first and match.group("sign") is None:
                raise StructureEquationError(
                    f"line {lineno}: missing +/- between terms near "
                    f"{expr[pos:]!r}")
            try:
                coeff = (ExactScalar.parse(match.group("scalar"))
                         if match.group("scalar") else SC_ONE)
            except ValueError as exc:
                raise StructureEquationError(
                    f"line {lineno}: bad scalar "
                    f"{match.group('scalar')!r}: {exc}") from exc
            if match.group("sign") == "-":
                coeff = -coeff
            terms.append((coeff,
                          _parse_generator(match.group("g1")),
                          _parse_generator(match.group("g2"))))
            pos = match.end()
            first = False
        differentials[k] = tuple(terms)
    if n is None:
        raise StructureEquationError("missing n declaration")
    return StructureEquationSpec(n=n, differentials=differentials)


class RandomBicomplex(NamedTuple):
    """A scrambled random complex plus its ground-truth part multiset."""

    bicomplex: Bicomplex
    parts: tuple


_KIND_WEIGHTS = {"dot": 0.3, "square": 0.2, "zigzag": 0.5}
PART_KINDS = tuple(_KIND_WEIGHTS)
_MAX_PARTS = 6
_MAX_LENGTH = 5
_TOP = 5   # parts lie in [0, _TOP]^2


def random_bicomplex(seed, *, kinds=PART_KINDS, symmetric=False):
    """Seeded random complex assembled from indecomposable parts.

    Draws 1 to 6 parts (dots, squares, zigzags with 2 to 5 dots) inside
    [0, 5]^2, lays them out once, and scrambles the bases with seeded
    invertible matrices (a line keeps its basis).  Each scramble is a
    product of unit triangular factors, inverted by substitution with no
    elimination.
    Returns the one complex built, with the ground-truth multiset of parts
    (canonically sorted) for round-trip testing; identical arguments give
    bit-identical results.  It is validated once: the scrambles are exact
    and invertible, so the scrambled blocks square to zero and anticommute
    exactly when the unscrambled ones do, and this certifies the layout.

    With ``symmetric=True`` the part multiset is closed under mirroring
    across the diagonal, and the result declares n = 5 and carries a
    verified conjugation structure.
    """
    rng = random.Random(seed)
    kinds = tuple(kinds)
    if not kinds or not set(kinds) <= _KIND_WEIGHTS.keys():
        raise ValueError(f"kinds must be a non-empty choice of "
                         f"{sorted(_KIND_WEIGHTS)}, got {kinds!r}")
    weights = [_KIND_WEIGHTS[k] for k in kinds]
    parts = []
    n_parts = rng.randint(1, _MAX_PARTS)
    while len(parts) < n_parts:
        kind = rng.choices(kinds, weights)[0]
        if kind == "dot":
            part = zz.Zigzag(((rng.randint(0, _TOP), rng.randint(0, _TOP)),))
        elif kind == "square":
            part = zz.Square(anchor=(rng.randint(0, _TOP - 1),
                                     rng.randint(0, _TOP - 1)))
        else:
            length = rng.randint(2, _MAX_LENGTH)
            first_role = rng.choice(("source", "sink"))
            shape = _zigzag_dots((0, 0), first_role, length)
            last_p, last_q = shape[-1]
            dp = rng.randint(0, _TOP - last_p)
            dq = rng.randint(-last_q, _TOP)
            part = zz.Zigzag(tuple((p + dp, q + dq) for p, q in shape))
        parts.append(part)
        if symmetric:
            mirrored = zz.mirror_part(part)
            if mirrored != part:
                parts.append(mirrored)
    parts = zz.sort_parts(parts)
    pattern = zz._pattern(parts)
    scramble, inv = zz._scrambles(pattern.spaces, rng.randint(0, 2 ** 31))
    conj = (zz._conjugation(parts, pattern, scramble, inv) if symmetric
            else None)
    out = Bicomplex(
        pattern.spaces,
        zz._rebased(pattern.del_blocks, (1, 0), scramble, inv),
        zz._rebased(pattern.delbar_blocks, (0, 1), scramble, inv),
        n=_TOP if symmetric else None, label=f"random-{seed}", conj=conj)
    ensure_valid(out)
    return RandomBicomplex(out, parts)


def _zigzag_dots(start, first_role, length):
    dots = [start]
    p, q = start
    role_source = first_role == "source"
    for _ in range(length - 1):
        if role_source:
            p += 1
        else:
            q -= 1
        dots.append((p, q))
        role_source = not role_source
    return tuple(dots)
