"""Reference definitions that only the tests use.

Each is the plain, by-the-definition form of a fact the library computes
another way (general substitution against the evaluation memo, a point
moved by a symmetry, the coefficient-passing rule, nil-Hecke elements
expanded into the permutation-symmetry normal form), or a small helper the
tests build their cases with.  None is on a path of the library, the
command line or the benchmark."""

from typing import Iterable, Mapping

from ogzkit import (
    AffineSymmetry,
    EvalPoint,
    Generators,
    NilHecke,
    OgzError,
    Polynomial,
    QQ,
    RationalFunction,
    Ring,
    RowPermutation,
    SkewOperator,
    YoungSubgroup,
    partial,
    partial_apply_rf,
    partial_for_perm,
    word_to_perm,
)
from ogzkit import _kernel as K
from ogzkit.skewops import ladder_coefficient


class SingularSubstitution(OgzError):
    """A substitution sent some denominator to zero."""


class RegularityError(OgzError):
    """Point is not regular where regularity is required."""


# ---------------------------------------------------------------------------
# exact algebra


def substitute(f, images: Mapping) -> RationalFunction:
    """General substitution into a Polynomial or a RationalFunction; images
    may be rational, so the result is a :class:`RationalFunction`.  Raises
    SingularSubstitution if a denominator vanishes."""
    if isinstance(f, RationalFunction):
        num, den = substitute(f.num, images), substitute(f.den, images)
        if den.is_zero():
            raise SingularSubstitution(f"substitution sent denominator {f.den} to zero")
        return num / den
    ring = f.ring
    imgs = {}
    for vid, val in images.items():
        vid = tuple(vid)
        if vid not in ring.index:
            raise ValueError(f"unknown variable {vid}")
        imgs[ring.index[vid]] = RationalFunction.from_any(ring, val)
    out = RationalFunction.from_any(ring, 0)
    powers: dict = {}
    for m, c in f.terms.items():
        factor = RationalFunction.from_any(ring, QQ(c, f.den))
        for slot, e in enumerate(K.unpack(m, ring.nvars)):
            if not e:
                continue
            if slot not in imgs:
                factor = factor * Polynomial(ring, {tuple(e * (s == slot) for s in range(ring.nvars)): 1})
                continue
            pe = powers.get((slot, e))
            if pe is None:
                pe = powers[(slot, e)] = imgs[slot] ** e
            factor = factor * pe
        out = out + factor
    return out


# ---------------------------------------------------------------------------
# combinatorics


def cells_of(shape) -> list:
    return [(i, j) for i, s in enumerate(shape, start=1) for j in range(1, s + 1)]


def word_is_reduced(shape, word) -> bool:
    return len(word) == word_to_perm(shape, word).length()


def full_rows(shape, rows: Iterable) -> YoungSubgroup:
    """One block per listed row, singletons elsewhere."""
    return YoungSubgroup.from_values(shape, dict.fromkeys(cells_of(shape), 0), rows)


def longest_element(young: YoungSubgroup) -> RowPermutation:
    """Order-reversing permutation within each block."""
    rows = []
    for s, row_blocks in zip(young.shape, young.blocks):
        one_line = [0] * s
        for b in row_blocks:
            for p, q in zip(b, reversed(b)):
                one_line[p - 1] = q
        rows.append(tuple(one_line))
    return RowPermutation(young.shape, tuple(rows))


def inverse(g):
    """The inverse of a RowPermutation or of an AffineSymmetry."""
    if isinstance(g, AffineSymmetry):
        pinv = inverse(g.perm)
        return AffineSymmetry(pinv, tuple(sorted((pinv(cell), -n) for cell, n in g.shifts)))
    rows = []
    for r in g.rows:
        inv = [0] * len(r)
        for p, img in enumerate(r, start=1):
            inv[img - 1] = p
        rows.append(tuple(inv))
    return RowPermutation(g.shape, tuple(rows))


# ---------------------------------------------------------------------------
# operators


def all_named(gens: Generators) -> list:
    """Deterministic (token, operator) list of the full generator family."""
    shape = gens.ring.shape
    out = [(f"E{i}", gens.raising(i)) for i in range(1, len(shape))]
    out += [(f"F{i}", gens.lowering(i)) for i in range(1, len(shape))]
    for i, s in enumerate(shape, start=1):
        out += [(f"gamma[{i},{d}]", gens.multiplier(i, d)) for d in range(1, s + 1)]
    return out


def leibniz_parts(ring: Ring, a, b, f, gamma: AffineSymmetry):
    """Both sides of the coefficient-passing rule
    diff∘(f·gamma) = diff(f)·gamma + f^t·(diff∘gamma), returned as
    (lhs, rhs) skew operators for comparison."""
    a, b = tuple(a), tuple(b)
    f = RationalFunction.from_any(ring, f)
    d = partial(ring, a, b)
    gam = SkewOperator.of_symmetry(ring, gamma)
    lhs = d @ (f * gam)
    rhs = partial_apply_rf(ring, a, b, f) * gam + f.permute_cells({a: b, b: a}) * (d @ gam)
    return lhs, rhs


def nil_hecke_from_word(ring: Ring, word: Iterable) -> NilHecke:
    """diff_word: its permutation when the word is reduced, else zero."""
    word = tuple(word)
    perm = word_to_perm(ring.shape, word)
    return NilHecke(ring, {perm: 1} if perm.length() == len(word) else {})


def to_skew(x: NilHecke) -> SkewOperator:
    """Expand into the permutation-symmetry normal form (for checks on
    generic ground; this direction can introduce the poles that the
    divided-difference basis avoids)."""
    out = SkewOperator.zero(x.ring)
    for w, f in x.terms.items():
        out = out + f * partial_for_perm(x.ring, w)
    return out


# ---------------------------------------------------------------------------
# points


def acted(point: EvalPoint, sym: AffineSymmetry) -> EvalPoint:
    """The point sym·v, pinned by ev_{sym·v} = ev_v ∘ sym^{-1}:
    (sym·v)(a) = v(perm^{-1}(a)) - shift_a."""
    vals = dict(point.entries)
    pinv = inverse(sym.perm)
    shifts = dict(sym.shifts)
    out = {}
    for cell in vals:
        tag, off = vals[pinv(cell)]
        out[cell] = (tag, off - shifts.get(cell, 0))
    return EvalPoint(point.shape, tuple(sorted(out.items())))


def eval_rf_at(ring: Ring, rf: RationalFunction, point: EvalPoint, err=RegularityError):
    """Evaluate a rational function at the point (cells -> values); raises
    ``err`` when the denominator vanishes there."""
    pm = point.point_map(ring)
    den = rf.den.eval_cells(pm)
    if den.is_zero():
        raise err(f"denominator {rf.den} vanishes at point {point}")
    return rf.num.eval_cells(pm) / den


def ladder_point_expansion(ring: Ring, point: EvalPoint, i: int, up: bool) -> list:
    """ev_point ∘ ladder operator as a combination of evaluations at
    translates: [(target point, coefficient)], zero terms dropped.  Needs the
    row values pairwise distinct (else the coefficients have poles, and
    :func:`eval_rf_at` raises :class:`RegularityError`)."""
    if not 1 <= i <= len(point.shape) - 1:
        raise ValueError(f"ladder row {i} out of range")
    out = []
    for cell in ring.row_cells(i):
        coeff = eval_rf_at(ring, ladder_coefficient(ring, i, cell[1], cell[1], up), point)
        if not coeff.is_zero():
            out.append((point.translated({cell: 1 if up else -1}), coeff))
    return out


# ---------------------------------------------------------------------------
# lattice walks


def state_partition(state) -> tuple:
    """Coordinate indices grouped by equal value, blocks sorted by minimum."""
    groups: dict = {}
    for idx, v in enumerate(state):
        groups.setdefault(v, []).append(idx)
    return tuple(sorted(tuple(g) for g in groups.values()))
