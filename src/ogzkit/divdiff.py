"""Divided-difference operators and their nil relations.

For two distinct cells a, b in one row below the top, the divided
difference is ``diff_{a,b} = (id - t_{a,b}) / (x_a - x_b)`` as a skew
operator.  Words of adjacent-pair differences compose by the nil rule: the
product over a non-reduced word vanishes.

Both forms are one combination type,
:class:`~ogzkit.skewops.LinearCombination`, with two kinds of key:

* :class:`~ogzkit.skewops.SkewOperator` keys it by permutation symmetries
  (the normal form convenient for identity checks);
* :class:`NilHecke` keys it by the divided-difference basis, ``sum_w f_w *
  diff_w``, whose left coefficients stay evaluable at points where
  individual skew terms would blow up.  This basis is what the windowed
  module action uses.

Both share one product, ``LinearCombination.__matmul__``.  A nil-Hecke key
supplies its two rules: a function passes through ``diff_w`` by the
coefficient-passing rule, letter by letter (``NilHecke._word_times_fun``),
and ``diff_v diff_u`` is ``diff_{vu}`` when ``l(vu) = l(v) + l(u)``, else 0
(the nil rule, ``NilHecke._key_product``, which the passing rule uses too).

The ladder generators have an alternative form built from a composition of
one row: a sum over blocks of (chain of divided differences) composed with
(block coefficient) and a unit shift of the block's first cell.  On
row-symmetric inputs it agrees with the classical form.
"""

from __future__ import annotations

from typing import Iterable

from . import _kernel as K
from .combinat import RowPermutation, canonical_word
from .errors import InvalidComposition, InvalidPair
from .exactalg import Polynomial, RationalFunction, Ring, merge_terms
from .skewops import AffineSymmetry, LinearCombination, SkewOperator, ladder_coefficient


def _pair_cells(ring: Ring, a, b):
    a, b = tuple(a), tuple(b)
    k = len(ring.shape)
    if a == b:
        raise InvalidPair(f"cells must be distinct, got {a} twice")
    if a[0] != b[0]:
        raise InvalidPair(f"cells {a}, {b} are not in the same row")
    i = a[0]
    if not 1 <= i <= k - 1:
        raise InvalidPair(f"row {i} cells are not shiftable (top row or out of range)")
    s = ring.shape[i - 1]
    if not (1 <= a[1] <= s and 1 <= b[1] <= s):
        raise InvalidPair(f"cells {a}, {b} outside row {i} of size {s}")
    return a, b


def partial(ring: Ring, a, b) -> SkewOperator:
    """Divided difference for any distinct same-row pair (antisymmetric in
    the pair)."""
    a, b = _pair_cells(ring, a, b)
    denom = ring.x(*a) - ring.x(*b)
    t = RowPermutation.transposition(ring.shape, a[0], a[1], b[1])
    inv = RationalFunction.normalize(ring.one(), denom)
    return SkewOperator(
        ring,
        {
            AffineSymmetry.identity(ring.shape): inv,
            AffineSymmetry.from_perm(t): -inv,
        },
    )


def partial_simple(ring: Ring, i: int, p: int) -> SkewOperator:
    return partial(ring, (i, p), (i, p + 1))


def partial_word(ring: Ring, word: Iterable) -> SkewOperator:
    """Composition of adjacent divided differences; the leftmost letter is
    applied last.  Non-reduced words give the zero operator."""
    op = SkewOperator.identity(ring)
    for i, p in word:
        op = op @ partial_simple(ring, i, p)
    return op


def partial_for_perm(ring: Ring, perm: RowPermutation) -> SkewOperator:
    return partial_word(ring, canonical_word(perm))


def partial_apply_rf(ring: Ring, a, b, g: RationalFunction) -> RationalFunction:
    """Divided difference (g - g^t)/(x_a - x_b) of a quotient g = n/d, in
    closed form: diff(n/d) = diff(n*d^t)/(d*d^t), with diff of a polynomial
    taken monomial by monomial (:func:`_ddiff_int`).

    When d^t = d this is diff(n)/d.  Otherwise c = gcd(d, d^t) comes out
    first when c^t = c: with e = d/c, diff(n/d) = diff(n*e^t)/(c*e*e^t), and
    gcd(e, e^t) = 1 makes the numerator coprime to e*e^t, so only a gcd with
    c is left to take.  When c^t = -c (an odd power of x_a - x_b in c) the
    quotient diff(n*d^t)/(d*d^t) is reduced by one normalize."""
    a, b = _pair_cells(ring, a, b)
    swap = {a: b, b: a}
    slots = ring.index[("x",) + a], ring.index[("x",) + b]
    g = RationalFunction.from_any(ring, g)
    n, d = g.num, g.den
    dt = d.permute_cells(swap)
    if dt == d:
        return RationalFunction.normalize(_ddiff(n, *slots), d)
    c = d.gcd(dt)
    if c.permute_cells(swap) != c:
        return RationalFunction.normalize(_ddiff(n * dt, *slots), d * dt)
    e = d if c.is_one() else d.divide_exact(c)
    et = e.permute_cells(swap)
    return RationalFunction._over_coprime(_ddiff(n * et, *slots), c, e * et)


def _ddiff_int(terms: dict, sa: int, sb: int, nvars: int) -> dict:
    """(f - f^t)/(x_a - x_b) on an integer dict, with a, b in slots sa, sb:
    (x_a^p x_b^q - x_a^q x_b^p)/(x_a - x_b) is x_a^q x_b^q times the sum of
    the p-q monomials of degree p-q-1 in x_a, x_b (p > q), and antisymmetric
    in p, q."""
    ua, ub = K.var(sa, nvars), K.var(sb, nvars)
    acc: dict = {}
    get = acc.get
    for m, c in terms.items():
        ea, eb = K.exponent(m, sa, nvars), K.exponent(m, sb, nvars)
        if ea == eb:
            continue
        low, n = min(ea, eb), abs(ea - eb)
        if ea < eb:
            c = -c
        # x_a^(low+t) x_b^(low+n-1-t) times the rest of m, from t = 0 up
        key = m + (low - ea) * ua + (low + n - 1 - eb) * ub
        for _ in range(n):
            acc[key] = get(key, 0) + c
            key += ua - ub
    return {m: c for m, c in acc.items() if c}


def _ddiff(f: Polynomial, sa: int, sb: int) -> Polynomial:
    return Polynomial._reduced(f.ring, _ddiff_int(f.terms, sa, sb, f.ring.nvars), f.den)


def apply_word(ring: Ring, word: Iterable, f: Polynomial) -> Polynomial:
    """Apply a word of adjacent divided differences to a polynomial, rightmost
    letter first, monomial by monomial in closed form (:func:`_ddiff_int`)
    on its integer numerators over its one denominator."""
    terms = f.terms
    for i, p in reversed(list(word)):
        a, b = _pair_cells(ring, (i, p), (i, p + 1))
        terms = _ddiff_int(terms, ring.index[("x",) + a], ring.index[("x",) + b], ring.nvars)
    return Polynomial._reduced(ring, terms, f.den)


def _block_bounds(shape_row: int, mu) -> list:
    mu = tuple(int(m) for m in mu)
    if any(m < 1 for m in mu) or sum(mu) != shape_row:
        raise InvalidComposition(f"{mu} is not a composition of {shape_row}")
    out = []
    start = 1
    for m in mu:
        out.append((start, start + m - 1))
        start += m
    return out


def chain_word(i: int, start: int, end: int) -> tuple:
    """Word for the block chain run from cell ``start`` to cell ``end`` of
    row i: adjacent differences at positions end-1, ..., start, or at
    end, ..., start-1 when start > end (the reversed chain); the rightmost
    letter moves the start cell and acts first."""
    if start > end:
        return tuple((i, p) for p in range(end, start))
    return tuple((i, p) for p in range(end - 1, start - 1, -1))


def generators_ddiff_form(ring: Ring, i: int, mu, up: bool) -> SkewOperator:
    """Ladder operator in divided-difference form for a row composition.

    For each block of ``mu`` (positions [start..end] of row i): compose the
    block chain of divided differences with multiplication by the block
    coefficient (differences of the block-head cell against the adjacent
    row over differences against out-of-block row cells) and a unit shift
    of the block head.  Agrees with the classical ladder operator on
    row-symmetric inputs, for every composition ``mu``.
    """
    k = len(ring.shape)
    if not 1 <= i <= k - 1:
        raise ValueError(f"ladder row {i} must satisfy 1 <= i <= {k - 1}")
    blocks = _block_bounds(ring.shape[i - 1], mu)
    total = SkewOperator.zero(ring)
    for start, end in blocks:
        coeff = ladder_coefficient(ring, i, start, end, up)
        shift = SkewOperator.of_symmetry(
            ring, AffineSymmetry.shift(ring.shape, {(i, start): 1 if up else -1})
        )
        term = partial_word(ring, chain_word(i, start, end)) @ (coeff * shift)
        total = total + term
    return total


class NilHecke(LinearCombination):
    """Sum of left coefficients on divided-difference basis elements,
    ``sum_w f_w * diff_w`` over row permutations w.

    Closed under the algebra operations via the coefficient-passing rule;
    crucially, products of polynomial-coefficient elements keep polynomial
    coefficients, so the result can be evaluated at points where the
    individual permutation-basis terms of the same operator have poles.
    """

    __slots__ = ()
    _KEY_FORMAT = "d[{}]"

    @staticmethod
    def one(ring: Ring) -> "NilHecke":
        return NilHecke(ring, {RowPermutation.identity(ring.shape): 1})

    @staticmethod
    def generator(ring: Ring, i: int, p: int) -> "NilHecke":
        _pair_cells(ring, (i, p), (i, p + 1))
        return NilHecke(ring, {RowPermutation.simple(ring.shape, i, p): 1})

    @staticmethod
    def _key_product(v: RowPermutation, u: RowPermutation):
        """The nil rule: diff_v diff_u = diff_{vu} when l(vu) = l(v) + l(u),
        else 0 (None)."""
        if u.is_identity():
            return v
        vu = v * u
        return vu if vu.length() == v.length() + u.length() else None

    def _key_times_fun(self, w: RowPermutation, g: RationalFunction) -> Iterable:
        return self._word_times_fun(canonical_word(w), g).items()

    def _word_times_fun(self, word: tuple, g: RationalFunction) -> dict:
        """Expansion of diff_word ∘ g as {perm: coeff} via the
        coefficient-passing rule, peeled from the rightmost letter."""
        if not word:
            return {RowPermutation.identity(self.ring.shape): g}
        head, last = word[:-1], word[-1]
        i, p = last
        a, b = (i, p), (i, p + 1)
        dg = partial_apply_rf(self.ring, a, b, g)
        out: dict = {}
        if not dg.is_zero():
            merge_terms(out, self._word_times_fun(head, dg).items())
        gs = g.permute_cells({a: b, b: a})
        if not gs.is_zero():
            sperm = RowPermutation.simple(self.ring.shape, i, p)
            expanded = self._word_times_fun(head, gs).items()
            merge_terms(out, ((ws, c) for w, c in expanded
                              if (ws := self._key_product(w, sperm)) is not None))
        return out

    def mul_right_fun(self, g) -> "NilHecke":
        """Right multiplication by a function, moved to the left through
        every divided-difference word."""
        return self @ NilHecke(self.ring, {RowPermutation.identity(self.ring.shape): g})

    _PAIR_CACHE: dict = {}

    @classmethod
    def pair_expand(cls, ring: Ring, i: int, p: int, q: int) -> "NilHecke":
        """The general-pair divided difference diff_{(i,p),(i,q)} (p < q)
        expanded over the adjacent-pair basis with polynomial coefficients,
        via diff_{(p,q)} = S ∘ diff_{(p,q-1)} ∘ S with
        S = id - (x_{q-1}-x_q)*diff_{q-1}."""
        if not p < q:
            raise InvalidPair(f"pair_expand needs p < q, got {p}, {q}")
        key = (ring._key, i, p, q)
        hit = cls._PAIR_CACHE.get(key)
        if hit is not None:
            return hit
        if q == p + 1:
            out = cls.generator(ring, i, p)
        else:
            lin = ring.x(i, q - 1) - ring.x(i, q)
            s_mid = cls.generator(ring, i, q - 1)
            S = cls.one(ring) - s_mid.mul_left_fun(lin)
            inner = cls.pair_expand(ring, i, p, q - 1)
            out = S @ inner @ S
        cls._PAIR_CACHE[key] = out
        return out

    def conjugated(self, tau: RowPermutation) -> "NilHecke":
        """tau ∘ self ∘ tau^{-1}: coefficients transported by tau, each word
        letter replaced by the transported (possibly non-adjacent, possibly
        reversed) pair expansion."""
        if tau.is_identity():
            return self
        out = NilHecke.zero(self.ring)
        cmap = tau.cell_map()
        for w, f in self.terms.items():
            factor = NilHecke.one(self.ring)
            sign = 1
            for i, p in canonical_word(w):
                qa = tau((i, p))[1]
                qb = tau((i, p + 1))[1]
                if qa < qb:
                    piece = NilHecke.pair_expand(self.ring, i, qa, qb)
                else:
                    piece = NilHecke.pair_expand(self.ring, i, qb, qa)
                    sign = -sign
                factor = factor @ piece
                if not factor.terms:
                    break
            coeff = f.permute_cells(cmap)
            if sign < 0:
                coeff = -coeff
            out = out + factor.mul_left_fun(coeff)
        return out
