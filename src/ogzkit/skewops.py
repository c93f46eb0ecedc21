"""Skew operators: rational-coefficient combinations of affine symmetries.

An :class:`AffineSymmetry` acts on the function field by ``x_a ->
x_{perm(a)} + shift_{perm(a)}`` (permutations within rows, integer shifts on
cells below the top row).  A :class:`SkewOperator` is a finite sum ``sum_t
coeff_t * sym_t`` with the coefficient acting as a left multiplier:
``(f*pi)(g) = f * pi(g)``; two operators are equal exactly when their
normal forms match.

Operators are one combination type, :class:`LinearCombination` (sums of
keys with reduced rational-function coefficients, and their container
algebra), with two kinds of key: affine symmetries for :class:`SkewOperator`
and the divided-difference basis for :class:`~ogzkit.divdiff.NilHecke`.
There is one product, ``(c1*k1)(c2*k2) = sum_t c1*c_t*(k_t k2)`` over the
terms ``c_t*k_t`` of ``k1∘c2``, which keeps every operator in normal form.
Each kind supplies two rules: how a function passes through a key (for a
symmetry ``pi∘g = pi(g)*pi``, one term) and the key product (for symmetries
:meth:`AffineSymmetry.compose`).

The distinguished generators of the operator algebra live here too: the
raising/lowering operators built from cell-difference coefficients and unit
shifts, and multiplication by row elementary symmetric polynomials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Union

from . import _kernel as K
from .combinat import RowPermutation, check_shape
from .errors import NotInvariantInput
from .exactalg import (
    Polynomial,
    RationalFunction,
    Ring,
    elementary_symmetric,
    is_row_symmetric,
    merge_terms,
)

Value = Union[Polynomial, RationalFunction, int]


@dataclass(frozen=True)
class AffineSymmetry:
    """A row permutation followed by integer shifts of movable cells."""

    perm: RowPermutation
    shifts: tuple  # sorted tuple of ((i, j), n) with n != 0, row i below top

    @staticmethod
    def make(perm: RowPermutation, shifts: Mapping = ()) -> "AffineSymmetry":
        shape = perm.shape
        clean = []
        for cell, n in dict(shifts).items():
            cell = tuple(cell)
            n = int(n)
            if n == 0:
                continue
            i, j = cell
            if not (1 <= i < len(shape) and 1 <= j <= shape[i - 1]):
                raise ValueError(f"cell {cell} is not shiftable in shape {shape}")
            clean.append((cell, n))
        return AffineSymmetry(perm, tuple(sorted(clean)))

    @staticmethod
    def identity(shape) -> "AffineSymmetry":
        return AffineSymmetry(RowPermutation.identity(check_shape(shape)), ())

    @staticmethod
    def shift(shape, offsets: Mapping) -> "AffineSymmetry":
        return AffineSymmetry.make(RowPermutation.identity(check_shape(shape)), offsets)

    @staticmethod
    def from_perm(perm: RowPermutation) -> "AffineSymmetry":
        return AffineSymmetry(perm, ())

    @property
    def shape(self) -> tuple:
        return self.perm.shape

    def is_identity(self) -> bool:
        return self.perm.is_identity() and not self.shifts

    def compose(self, other: "AffineSymmetry") -> "AffineSymmetry":
        """self∘other: apply ``other`` first.

        (s1, n1)∘(s2, n2) = (s1 s2, n1 + s1(n2)) with s1(n2)[s1(a)] = n2[a].
        """
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        merged = dict(self.shifts)
        for cell, n in other.shifts:
            tgt = self.perm(cell)
            m = merged.get(tgt, 0) + n
            if m:
                merged[tgt] = m
            elif tgt in merged:
                del merged[tgt]
        return AffineSymmetry(self.perm * other.perm, tuple(sorted(merged.items())))

    def act_poly(self, p: Polynomial) -> Polynomial:
        """x_a -> x_{perm(a)} + shift_{perm(a)} on a polynomial."""
        if p.ring.shape != self.shape:
            raise ValueError("ring shape mismatch")
        out = p if self.perm.is_identity() else p.permute_cells(self.perm.cell_map())
        if self.shifts:
            out = out.shift_cells(dict(self.shifts))
        return out

    def act(self, f: Value) -> RationalFunction:
        if isinstance(f, Polynomial):
            return RationalFunction.from_poly(self.act_poly(f))
        if not isinstance(f, RationalFunction):
            raise TypeError(f"cannot act on {type(f).__name__}")
        out = f if self.perm.is_identity() else f.permute_cells(self.perm.cell_map())
        if self.shifts:
            out = out.shift_cells(dict(self.shifts))
        return out

    def sort_key(self) -> tuple:
        return (self.perm.sort_key(), self.shifts)

    def render(self) -> str:
        parts = []
        if not self.perm.is_identity():
            parts.append(self.perm.render())
        for (i, j), n in self.shifts:
            parts.append(f"phi[{i},{j}]" + (f"^{n}" if n != 1 else ""))
        return "*".join(parts) if parts else "id"

    def __str__(self):
        return self.render()


class LinearCombination:
    """A finite sum ``sum_k c_k * k`` of keys with nonzero reduced
    coefficients.  Keys sort by ``sort_key`` and render through
    ``_KEY_FORMAT``.  Each subclass supplies the two rules of its kind of
    key that :meth:`__matmul__` needs: ``_key_times_fun(k, g)``, the terms
    (key, coefficient) of ``k∘g``, and ``_key_product(k, k2)``, the key of
    ``k∘k2`` or None when the product vanishes."""

    __slots__ = ("ring", "terms")
    _KEY_FORMAT = "{}"

    def __init__(self, ring: Ring, terms: Mapping):
        self.ring = ring
        clean = {}
        for key, coeff in terms.items():
            coeff = RationalFunction.from_any(ring, coeff)
            if not coeff.is_zero():
                clean[key] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, ring: Ring):
        return cls(ring, {})

    def __add__(self, other):
        if self.ring is not other.ring:
            raise ValueError("ring mismatch")
        return type(self)(self.ring, merge_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return type(self)(self.ring, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def mul_left_fun(self, f):
        """Left multiplication by a function: f*(g*k) = (f g)*k."""
        f = RationalFunction.from_any(self.ring, f)
        return type(self)(self.ring, {key: f * c for key, c in self.terms.items()})

    def __matmul__(self, other):
        """Composition, self applied after other: (c1*k1)(c2*k2) is the sum
        of c1*c*(k*k2) over the terms c*k of k1∘c2."""
        if self.ring is not other.ring:
            raise ValueError("ring mismatch")
        products = (
            (kk, c1 * c)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
            for k, c in self._key_times_fun(k1, c2)
            if (kk := self._key_product(k, k2)) is not None
        )
        return type(self)(self.ring, merge_terms({}, products))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring._key, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({self.terms[key]})*" + self._KEY_FORMAT.format(key.render())
            for key in sorted(self.terms, key=lambda key: key.sort_key())
        )

    __str__ = render

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class SkewOperator(LinearCombination):
    """Normal-form sum of (rational coefficient) x (affine symmetry) terms."""

    __slots__ = ("_common",)

    def __init__(self, ring: Ring, terms: Mapping):
        super().__init__(ring, terms)
        self._common = None
        if any(sym.shape != ring.shape for sym in self.terms):
            raise ValueError("symmetry shape mismatch")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def identity(ring: Ring) -> "SkewOperator":
        return SkewOperator(ring, {AffineSymmetry.identity(ring.shape): 1})

    @staticmethod
    def multiplication(ring: Ring, f: Value) -> "SkewOperator":
        return SkewOperator(ring, {AffineSymmetry.identity(ring.shape): f})

    @staticmethod
    def of_symmetry(ring: Ring, sym: AffineSymmetry) -> "SkewOperator":
        return SkewOperator(ring, {sym: 1})

    # -- algebra --------------------------------------------------------------

    # f*op scales the coefficients, and so does op*f: they commute
    __mul__ = __rmul__ = LinearCombination.mul_left_fun
    # named on the class too, where perfbench's tracer looks it up
    __matmul__ = LinearCombination.__matmul__

    @staticmethod
    def _key_times_fun(pi: AffineSymmetry, g: RationalFunction) -> tuple:
        return ((pi, pi.act(g)),)

    _key_product = staticmethod(AffineSymmetry.compose)

    def _over_common_denominator(self) -> tuple:
        """(D, M, [(sym, C_t)]) for the coefficients c_t = n_t/d_t: D is the
        lcm of the d_t with primitive integer coefficients, and C_t are the
        integer numerators of n_t * D/d_t over one integer M.  Computed on
        the first call.  Each factor of the lcm is monic, or monic over a
        positive integer, so its leading numerator divides its denominator,
        and the content of its numerators, dividing both, is 1: they are D."""
        if self._common is None:
            ring = self.ring
            den = ring.one()
            for c in self.terms.values():
                if not c.den.is_one():
                    den = c.den if den.is_one() else den * c.den.divide_exact(den.gcd(c.den))
            den = Polynomial._wrap(ring, den.terms)
            cofs = [(sym, c.num * den.divide_exact(c.den)) for sym, c in self.terms.items()]
            scale = math.lcm(*(p.den for _, p in cofs))
            parts = [(sym, K.p_mul_scalar(p.terms, scale // p.den)) for sym, p in cofs]
            self._common = (den, scale, parts)
        return self._common

    def apply(self, f: Value) -> RationalFunction:
        """The image sum_t c_t * sym_t(f).

        A polynomial f (or a quotient with denominator 1) is summed over
        the common denominator D of the coefficients, with integer
        coefficients throughout: every sym_t(f) keeps the denominator of f,
        so N = sum_t n_t * (D/d_t) * sym_t(f) is a sum of integer numerators
        and takes no gcd.  When D divides N, the image is the quotient over
        1, which is reduced with a monic denominator and so canonical.  That
        is exactly the case of a polynomial image, such as a generator's
        image of an invariant; D is primitive, so by Gauss's lemma the
        quotient of the integer numerator has integer coefficients and the
        exact integer division finds it.  Otherwise (a non-invariant
        argument of a ladder operator, say) N/D takes one ``normalize``.
        An f with a non-trivial denominator is summed term by term."""
        ring = self.ring
        f = RationalFunction.from_any(ring, f)
        if not f.is_polynomial():
            out = RationalFunction.from_any(ring, 0)
            for sym, c in self.terms.items():
                out = out + c * sym.act(f)
            return out
        den, scale, parts = self._over_common_denominator()
        acc: dict = {}
        get = acc.get
        for sym, c in parts:
            for mono, v in K.p_mul(c, sym.act_poly(f.num).terms).items():
                acc[mono] = get(mono, 0) + v
        scale *= f.num.den
        num = {mono: v for mono, v in acc.items() if v}
        q, r = (num, None) if den.is_one() else K.p_divmod(num, den.terms)
        if not r:
            return RationalFunction.from_poly(Polynomial._reduced(ring, q, scale))
        return RationalFunction.normalize(Polynomial._reduced(ring, num, scale), den)

    def is_multiplication(self) -> bool:
        """True when the operator is multiplication by a single function."""
        return len(self.terms) <= 1 and all(sym.is_identity() for sym in self.terms)

    def multiplier_value(self) -> RationalFunction:
        if not self.is_multiplication():
            raise ValueError("operator is not a pure multiplication")
        if not self.terms:
            return RationalFunction.from_any(self.ring, 0)
        return next(iter(self.terms.values()))


def commutator(a: SkewOperator, b: SkewOperator) -> SkewOperator:
    return (a @ b) - (b @ a)


def ladder_coefficient(ring: Ring, i: int, start: int, end: int, up: bool) -> RationalFunction:
    """Coefficient of the ladder term for the row-i block from start to end.

    With head = x[i,start]: the product of (head - x) over the cells x of the
    adjacent row (row i+1 when raising, row i-1 when lowering, none below
    row 1), divided by the product of (head - x) over the row-i cells outside
    the block.  Both are products of distinct linear forms, so they are
    coprime and the quotient takes no gcd.  When start > end the block is run
    from its last cell, along the reversed :func:`~ogzkit.divdiff.chain_word`,
    and the coefficient carries the sign (-1)^(start - end) of that reversal.
    """
    head = ring.x(i, start)
    other_row = i + 1 if up else i - 1
    num = -ring.one() if start > end and (start - end) % 2 else ring.one()
    if other_row >= 1:
        for a in ring.row_cells(other_row):
            num = num * (head - ring.x(*a))
    den = ring.one()
    for b in ring.row_cells(i):
        if not min(start, end) <= b[1] <= max(start, end):
            den = den * (head - ring.x(*b))
    return RationalFunction._monic(num, den)


# the length of a generator key, by its kind
_KEY_LENGTHS = {"raising": 2, "lowering": 2, "multiplier": 3}


class Generators:
    """The distinguished operator family for one shape, built by ``op(key)``.

    ``raising(i)`` / ``lowering(i)`` move cells of row i up/down by one with
    the cell-difference rational coefficients; ``multiplier(i, d)`` is
    multiplication by the d-th elementary symmetric polynomial of row i;
    ``shift_op(cell, n)`` is a bare shift symmetry.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self._cache: dict = {}

    @staticmethod
    def for_shape(shape) -> "Generators":
        return Generators(Ring(check_shape(shape)))

    def op(self, key: tuple) -> SkewOperator:
        """The generator named by a window key: ``("raising", i)``,
        ``("lowering", i)`` or ``("multiplier", i, d)``, checked and built on
        first use and cached."""
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        kind = key[0] if key else None
        if len(key) != _KEY_LENGTHS.get(kind):
            raise ValueError(f"unknown generator key {key}")
        ring, i = self.ring, key[1]
        if kind == "multiplier":
            d = key[2]
            if not 1 <= i <= ring.rows:
                raise ValueError(f"row {i} outside shape {ring.shape}")
            if not 1 <= d <= ring.shape[i - 1]:
                raise ValueError(f"multiplier degree {d} outside row {i}")
            out = SkewOperator.multiplication(ring, elementary_symmetric(ring, i, d))
        else:
            if not 1 <= i < ring.rows:
                raise ValueError(f"ladder row {i} must satisfy 1 <= i <= {ring.rows - 1}")
            up = kind == "raising"
            out = SkewOperator(ring, {
                AffineSymmetry.shift(ring.shape, {(i, j): 1 if up else -1}):
                    ladder_coefficient(ring, i, j, j, up)
                for _, j in ring.row_cells(i)
            })
        self._cache[key] = out
        return out

    def raising(self, i: int) -> SkewOperator:
        return self.op(("raising", i))

    def lowering(self, i: int) -> SkewOperator:
        return self.op(("lowering", i))

    def multiplier(self, i: int, d: int) -> SkewOperator:
        return self.op(("multiplier", i, d))

    def shift_op(self, cell, n: int = 1) -> SkewOperator:
        sym = AffineSymmetry.shift(self.ring.shape, {tuple(cell): n})
        return SkewOperator.of_symmetry(self.ring, sym)


def invariant_family(ring: Ring, max_degree: int) -> list:
    """All products of row elementary symmetric polynomials with total degree
    at most ``max_degree``, in a deterministic order: by degree, then by the
    tuple of factor indices.  These span the invariants up to that degree.

    The family is grown once and cached (:func:`_family`): a member is its
    parent, the product of all its factors but the last, times that last
    factor, so each degree costs one product per new member."""
    return list(_family(ring, max_degree).values())


@functools.lru_cache(maxsize=64)
def _family(ring: Ring, max_degree: int) -> dict:
    """The family up to ``max_degree`` as factor indices -> member, in
    family order: the family one degree lower, then the members of degree
    ``max_degree`` in tuple order of their factor indices."""
    if max_degree <= 0:
        return {(): ring.one()}
    out = dict(_family(ring, max_degree - 1))
    gens = [(i, d) for i in range(1, ring.rows + 1) for d in range(1, ring.shape[i - 1] + 1)]

    def rec(idx, remaining, current):
        # depth first in increasing index: tuple order
        if not remaining:
            combo = tuple(current)
            out[combo] = out[combo[:-1]] * elementary_symmetric(ring, *gens[combo[-1]])
            return
        for t in range(idx, len(gens)):
            if gens[t][1] <= remaining:
                current.append(t)
                rec(t, remaining - gens[t][1], current)
                current.pop()

    rec(0, max_degree, [])
    return out


def random_invariant(ring: Ring, rng, max_degree: int) -> Polynomial:
    """Random integer combination of four invariant family members."""
    fam = invariant_family(ring, max_degree)
    p = ring.zero()
    for _ in range(4):
        c = rng.randint(-9, 9)
        if c == 0:
            c = 1
        p = p + c * fam[rng.randrange(len(fam))]
    return p


def apply_to_invariant(op: SkewOperator, f: Polynomial) -> Polynomial:
    """Apply an invariants-preserving operator to an invariant polynomial and
    return the (checked) polynomial image."""
    if not is_row_symmetric(f):
        raise NotInvariantInput(f"input is not symmetric within rows: {f}")
    image = op.apply(f)
    if not image.is_polynomial():
        raise NotInvariantInput(f"image of an invariant failed to be polynomial: {image}")
    return image.polynomial_part()


def agree_on_invariants(a: SkewOperator, b: SkewOperator, max_degree: int) -> bool:
    """Weak (restriction-to-invariants) operator equality: equal images on the
    whole invariant family up to ``max_degree``.  Normal-form equality
    (``a == b``) is the strong check; this one is what matters on the
    invariant subring."""
    if a.ring is not b.ring:
        raise ValueError("ring mismatch")
    for f in invariant_family(a.ring, max_degree):
        if a.apply(f) != b.apply(f):
            return False
    return True
