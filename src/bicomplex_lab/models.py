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
    inverse,
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


# A monomial is a pair (I, J) of strictly increasing index tuples: the
# wedge of the w_i for i in I and the cw_j for j in J, in that order.


def _merge_sign(a, b):
    """Shuffle sign for concatenating two sorted index tuples; None if they
    overlap."""
    if set(a) & set(b):
        return None
    inversions = sum(1 for x in a for y in b if y < x)
    merged = tuple(sorted(a + b))
    return (-1) ** inversions, merged


def _wedge_monomials(m1, m2):
    """Sign and result of wedging two canonical monomials; None if zero."""
    (i1, j1), (i2, j2) = m1, m2
    mi = _merge_sign(i1, i2)
    if mi is None:
        return None
    mj = _merge_sign(j1, j2)
    if mj is None:
        return None
    sign = mi[0] * mj[0] * ((-1) ** (len(j1) * len(i2)))
    return sign, (mi[1], mj[1])


_SIGN_SCALARS = {1: SC_ONE, -1: SC_MINUS_ONE}


def _element_diff(diff_gen, element):
    """Apply a generator-level derivation to an element.

    ``diff_gen`` maps a generator to a list of (coefficient, 2-generator
    monomial) terms; ``element`` maps monomials to coefficients.  The
    derivation pulls each generator to the front of its monomial (sign
    (-1)^position) and substitutes its differential there.
    """
    out = {}
    for (idx_i, idx_j), coeff in element.items():
        gens = [("w", i) for i in idx_i] + [("cw", j) for j in idx_j]
        for t, gen in enumerate(gens):
            terms = diff_gen.get(gen)
            if not terms:
                continue
            if gen[0] == "w":
                rest = (tuple(x for x in idx_i if x != gen[1]), idx_j)
            else:
                rest = (idx_i, tuple(x for x in idx_j if x != gen[1]))
            for gcoeff, gmono in terms:
                wedged = _wedge_monomials(gmono, rest)
                if wedged is None:
                    continue
                sign, mono = wedged
                if t % 2:
                    sign = -sign
                value = out.get(mono, SC_ZERO) + coeff * gcoeff * \
                    _SIGN_SCALARS[sign]
                if value:
                    out[mono] = value
                elif mono in out:
                    del out[mono]
    return out


def _monomial_basis(n, p, q):
    return [(i, j)
            for i in combinations(range(1, n + 1), p)
            for j in combinations(range(1, n + 1), q)]


def _conjugate(coeff, mono):
    """Conjugate of ``coeff`` times a monomial: conj(w_I^cw_J) = cw_I^w_J
    = (-1)^(|I||J|) w_J^cw_I."""
    idx_i, idx_j = mono
    c = coeff.conjugate()
    return (-c if len(idx_i) * len(idx_j) % 2 else c), (idx_j, idx_i)


def _normalize_terms(spec):
    """Validate and canonicalize d(wk) for every k; returns ``d_gen``, one
    table from each generator ("w", k) and ("cw", k) with a nonzero
    differential to its terms (coefficient, 2-generator monomial).  d(cw_k)
    is the conjugate of d(w_k), so the (2,0) and (1,1) terms of d(w_k)
    give the (0,2) and (1,1) terms of d(cw_k)."""
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
            wedged = _wedge_monomials(*(((i,), ()) if kind == "w" else
                                        ((), (i,)) for kind, i in (g1, g2)))
            if wedged is None:
                continue
            sgn, mono = wedged
            value = acc.get(mono, SC_ZERO) + coeff * _SIGN_SCALARS[sgn]
            if value:
                acc[mono] = value
            elif mono in acc:
                del acc[mono]
        if acc:
            terms = [(c, m) for m, c in sorted(acc.items())]
            d_gen[("w", k)] = terms
            d_gen[("cw", k)] = [_conjugate(c, m) for c, m in terms]
    return d_gen


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
    for kind in ("w", "cw"):
        for k in range(1, n + 1):
            if _element_diff(d_gen, {m: c for c, m in
                                     d_gen.get((kind, k), ())}):
                raise StructureEquationError(
                    f"d does not square to zero on {kind}{k}")
    monos = {}
    index_of = {}
    spaces = {}
    for p in range(n + 1):
        for q in range(n + 1):
            basis = _monomial_basis(n, p, q)
            monos[(p, q)] = basis
            index_of[(p, q)] = {m: i for i, m in enumerate(basis)}
            spaces[(p, q)] = len(basis)

    def sparse(target, cols):
        return Matrix._from_sparse(spaces[target], len(cols), cols)

    del_maps, delbar_maps, conj_maps = {}, {}, {}
    for (p, q), basis in monos.items():
        d_cols = {(p + 1, q): [], (p, q + 1): []}
        conj_cols = []
        for mono in basis:
            for cols in d_cols.values():
                cols.append({})
            for m, c in _element_diff(d_gen, {mono: SC_ONE}).items():
                target = (len(m[0]), len(m[1]))
                d_cols[target][-1][index_of[target][m]] = c
            c, m = _conjugate(SC_ONE, mono)
            conj_cols.append({index_of[(q, p)][m]: c})
        if p < n:
            del_maps[(p, q)] = sparse((p + 1, q), d_cols[(p + 1, q)])
        if q < n:
            delbar_maps[(p, q)] = sparse((p, q + 1), d_cols[(p, q + 1)])
        conj_maps[(p, q)] = sparse((q, p), conj_cols)

    # Attach the pairing only when the top functional demonstrably kills
    # boundaries in bidegree (n, n): equivalent, since that space is a
    # line, to both differentials into (n, n) vanishing.  On monomials the
    # pairing is a signed permutation: each monomial pairs only with its
    # complement, with the sign of their wedge.
    pairings = None
    into_top = (del_maps.get((n - 1, n)), delbar_maps.get((n, n - 1)))
    if all(m is None or m.is_zero() for m in into_top):
        everything = range(1, n + 1)
        pairings = {}
        for (p, q), basis in monos.items():
            target_index = index_of[(n - p, n - q)]
            cols = []
            for mono in basis:
                comp = tuple(tuple(x for x in everything if x not in idx)
                             for idx in mono)
                sign, _ = _wedge_monomials(mono, comp)
                cols.append({target_index[comp]: _SIGN_SCALARS[sign]})
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
    [0, 5]^2, stacks them, and scrambles the bases with seeded invertible
    matrices (a line keeps its basis), each inverted once.  Returns the
    complex together with the ground-truth multiset of parts
    (canonically sorted) for round-trip testing.  Identical arguments
    give bit-identical results.

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
    base = zz.synthesize(parts)
    scramble = zz.scramble_matrices(base, rng.randint(0, 2 ** 31))
    inv = {bid: inverse(m) for bid, m in scramble.items()}
    scrambled = zz._rebase(base, scramble, inv)
    conj = None
    if symmetric:
        # Mirror bidegrees have equal dimensions, so the scramble has a
        # matrix at both or at neither; a line keeps its conjugation.
        conj = {(p, q): (inv[(q, p)] @ c0
                         @ scramble[(p, q)].conjugate_entries()
                         if (p, q) in scramble else c0)
                for (p, q), c0 in zz.standard_conjugation(parts).items()}
    out = Bicomplex(
        {(p, q): scrambled.dimension(p, q) for (p, q) in scrambled.support()},
        scrambled.del_blocks(), scrambled.delbar_blocks(),
        n=_TOP if symmetric else None, label=f"random-{seed}", conj=conj)
    ensure_valid(out)
    return RandomBicomplex(out, zz.sort_parts(parts))


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
