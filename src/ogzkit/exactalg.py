"""Exact arithmetic layer: rings of cell/parameter variables, polynomials,
and reduced rational functions.

A :class:`Ring` fixes the variable universe for a row shape: parameter
variables ``z[1..nparams]`` first, then one cell variable ``x[i,j]`` per
cell of the shape, row-major.  A polynomial is stored in one coefficient
format, integer numerators over one positive denominator with no common
factor (the layout of FLINT's ``fmpq_poly``), so shifts, divided
differences, evaluation at points and the gcd all run on integers; a
rational ``QQ`` appears only at the boundary (constants, rendering).  A
monomial is the kernel's int (:mod:`ogzkit._kernel`), whose order is
graded-lex order; exponent tuples appear only as the input of the
:class:`Polynomial` constructor and where rendering unpacks a monomial.
All polynomial values are canonical (no zero coefficients, graded-lex term
order for rendering) and all rational functions are stored fully reduced
with a monic denominator, so structural equality is mathematical equality.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, Mapping

from . import _kernel as K
from ._gcd import gcd_qq
from ._ratio import QQ
from .errors import DivisionByZero

VarId = tuple


class Ring:
    """Variable universe for one shape: z[1..nparams], then x[i,j] row-major."""

    __slots__ = ("shape", "nparams", "vars", "index", "nvars", "_key", "_one", "_monomials")
    _CACHE: dict = {}

    def __new__(cls, shape: tuple, nparams: int = 0):
        shape = tuple(int(s) for s in shape)
        if not shape or any(s < 1 for s in shape):
            raise ValueError(f"shape must be positive integers, got {shape}")
        nparams = operator.index(nparams)  # 3.0 would share the key of 3
        if nparams < 0:
            raise ValueError("nparams must be >= 0")
        key = (shape, nparams)
        hit = cls._CACHE.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.shape = shape
        self.nparams = nparams
        names = [("z", t) for t in range(1, nparams + 1)]
        names += [("x", i, j) for i, s in enumerate(shape, start=1) for j in range(1, s + 1)]
        self.vars = tuple(names)
        self.index = {v: n for n, v in enumerate(names)}
        self.nvars = len(names)
        self._key = key
        # polynomials are immutable, so one unit serves every quotient
        self._one = Polynomial._wrap(self, {0: 1})
        # the one int object per monomial that the PointMaps of the ring emit
        self._monomials: dict = {}
        cls._CACHE[key] = self
        return self

    def __repr__(self):
        return f"Ring(shape={self.shape}, nparams={self.nparams})"

    @property
    def rows(self) -> int:
        return len(self.shape)

    def cells(self) -> list:
        return [(i, j) for i, s in enumerate(self.shape, start=1) for j in range(1, s + 1)]

    def row_cells(self, i: int) -> list:
        if not 1 <= i <= len(self.shape):
            raise ValueError(f"row {i} outside shape {self.shape}")
        return [(i, j) for j in range(1, self.shape[i - 1] + 1)]

    def shiftable_cells(self) -> list:
        """Cells in rows below the top row (the ones shift operators move)."""
        return [(i, j) for i, s in enumerate(self.shape[:-1], start=1) for j in range(1, s + 1)]

    def x(self, i: int, j: int) -> "Polynomial":
        return Polynomial._wrap(self, {self._unit_mono(("x", i, j)): 1})

    def z(self, t: int) -> "Polynomial":
        return Polynomial._wrap(self, {self._unit_mono(("z", t)): 1})

    def _unit_mono(self, vid: VarId) -> int:
        slot = self.index.get(vid)
        if slot is None:
            raise ValueError(f"unknown variable {vid} in {self!r}")
        return K.var(slot, self.nvars)

    def const(self, c) -> "Polynomial":
        """The constant c: an int, a QQ or the text of a QQ."""
        q = c if isinstance(c, int) else QQ(c)
        return Polynomial._wrap(self, {0: q.numerator} if q else {}, q.denominator)

    def zero(self) -> "Polynomial":
        return Polynomial._wrap(self, {})

    def one(self) -> "Polynomial":
        return self._one


def _var_name(vid: VarId) -> str:
    if vid[0] == "z":
        return f"z[{vid[1]}]"
    return f"x[{vid[1]},{vid[2]}]"


class Polynomial:
    """Immutable sparse polynomial over QQ in a fixed :class:`Ring`.

    ``terms`` maps monomials, the kernel's ints, to nonzero integer
    numerators and ``den`` is one positive integer denominator; the
    coefficient of m is ``QQ(terms[m], den)``.  The form is canonical:
    gcd(content(terms), den) is 1, and den is 1 for the zero polynomial."""

    __slots__ = ("ring", "terms", "den", "_hash")

    def __init__(self, ring: Ring, terms: Mapping):
        """Build from exponent tuples of length ``ring.nvars`` with
        coefficients given as ints, QQs or their text.  Raises ValueError
        for a tuple of another length, an exponent that is not an int >= 0,
        or a total degree past the kernel's bound."""
        coeffs = {K.pack(m, ring.nvars): QQ(c) for m, c in terms.items()}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.ring = ring
        self.terms = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items() if c}
        self.den = den
        self._hash = None

    @classmethod
    def _wrap(cls, ring: Ring, terms: dict, den: int = 1) -> "Polynomial":
        """Trusted constructor from numerators and denominator already in
        canonical form."""
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        self.den = den
        self._hash = None
        return self

    @classmethod
    def _reduced(cls, ring: Ring, terms: dict, den: int) -> "Polynomial":
        """The polynomial terms/den for integer numerators without zeros and
        a nonzero integer den, put in canonical form."""
        if den != 1:
            g = math.gcd(den, *terms.values())
            if den < 0:
                g = -g
            if g != 1:
                terms = {m: c // g for m, c in terms.items()}
                den //= g
        return cls._wrap(ring, terms, den)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def is_one(self) -> bool:
        return self.den == 1 and len(self.terms) == 1 and self.terms.get(0) == 1

    def total_degree(self) -> int:
        return K.p_total_degree(self.terms)

    def uses_only_params(self) -> bool:
        return all(s < self.ring.nparams for s in K.p_support(self.terms, self.ring.nvars))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring:
            raise ValueError("polynomials from different rings")

    def _combine(self, other, op) -> "Polynomial":
        """self + other or self - other (``op`` is p_add or p_sub) over the
        lcm of the two denominators."""
        if isinstance(other, RationalFunction):
            return NotImplemented
        other = self._coerce(other)
        self._check(other)
        a, b, da, db = self.terms, other.terms, self.den, other.den
        if da != db:
            g = math.gcd(da, db)
            a, b, da = K.p_mul_scalar(a, db // g), K.p_mul_scalar(b, da // g), da // g * db
        return Polynomial._reduced(self.ring, op(a, b), da)

    def __add__(self, other):
        return self._combine(other, K.p_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, K.p_sub)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Polynomial._wrap(self.ring, K.p_neg(self.terms), self.den)

    def __mul__(self, other):
        if type(other) is int:
            return Polynomial._reduced(self.ring, K.p_mul_scalar(self.terms, other), self.den)
        if isinstance(other, (int, str)) or type(other) is QQ:
            other = self.ring.const(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial._reduced(self.ring, K.p_mul(self.terms, other.terms), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RationalFunction")
        r = self.ring.one()
        base = self
        while n:
            if n & 1:
                r = r * base
            n >>= 1
            if n:
                base = base * base
        return r

    def __truediv__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction.normalize(self, self._coerce(other))

    def __rtruediv__(self, other):
        return RationalFunction.normalize(self._coerce(other), self)

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return self.ring.const(other)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring is other.ring and self.den == other.den and self.terms == other.terms
        if isinstance(other, (int,)) or type(other) is QQ:
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring._key, frozenset(self.terms.items()), self.den))
        return self._hash

    def derivative(self, op: Iterable) -> "Polynomial":
        """The constant-coefficient operator sum_beta c_beta d^beta / beta!
        applied to self, for ``op`` pairs (beta, c_beta) of a monomial and an
        integer.  d^beta x^m / beta! is C(m, beta) x^(m - beta), so the
        numerators stay integers over the same denominator."""
        return Polynomial._reduced(self.ring, K.p_derivative(self.terms, op, self.ring.nvars), self.den)

    # -- substitution --------------------------------------------------------

    def shift_cells(self, offsets: Mapping) -> "Polynomial":
        """Substitute x[a] -> x[a] + n_a for integer offsets keyed by cell.
        An integer shift is invertible over Z, so it keeps the content of
        the numerators and the denominator stays as it is."""
        shifts = [(self.ring.index[("x",) + tuple(cell)], int(n)) for cell, n in offsets.items() if n]
        if not shifts:
            return self
        terms = self.terms
        for slot, n in shifts:
            terms = _shift_slot(terms, slot, self.ring.nvars, n)
        return Polynomial._wrap(self.ring, terms, self.den)

    def permute_cells(self, mapping: Mapping) -> "Polynomial":
        """Substitute x[a] -> x[mapping(a)] for a cell bijection."""
        ring = self.ring
        slot_map = {}
        for src, dst in mapping.items():
            s = ring.index[("x",) + tuple(src)]
            d = ring.index[("x",) + tuple(dst)]
            if s != d:
                slot_map[s] = d
        if not slot_map:
            return self
        if set(slot_map) != set(slot_map.values()):
            raise ValueError("cell mapping is not a bijection on the moved cells")
        n = ring.nvars
        # x_s^e moves to x_d^e: the monomial changes by e * (x_d - x_s)
        moves = [(s, K.var(d, n) - K.var(s, n)) for s, d in slot_map.items()]
        out = {m + sum(K.exponent(m, s, n) * step for s, step in moves): c for m, c in self.terms.items()}
        return Polynomial._wrap(self.ring, out, self.den)

    def eval_cells(self, images: "PointMap | Mapping") -> "Polynomial":
        """Substitute parameter-only polynomials for cell variables (the fast
        path used by functional evaluation).  ``images`` is a
        :class:`PointMap`, or a mapping from cells to Polynomials in the
        z-variables (a one-off map is built for it)."""
        if not isinstance(images, PointMap):
            images = PointMap(self.ring, images)
        return images(self)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """The gcd of the numerators in Z[x], with a positive leading
        coefficient."""
        self._check(other)
        return Polynomial._wrap(self.ring, gcd_qq(self.terms, other.terms, self.ring.nvars))

    def divide_exact(self, other: "Polynomial") -> "Polynomial":
        """Exact quotient; raises ArithmeticError when division leaves a
        remainder (internal misuse, not user error).

        With other = c * P / d for its content c and primitive part P, the
        integer division of the numerators by P is exact (Gauss's lemma),
        and the quotient is that times d / (den * c)."""
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("exact division by zero polynomial")
        c = math.gcd(*other.terms.values())
        prim = other.terms if c == 1 else {m: v // c for m, v in other.terms.items()}
        q, r = K.p_divmod(self.terms, prim)
        if r:
            raise ArithmeticError("division was expected to be exact")
        if other.den != 1:
            q = K.p_mul_scalar(q, other.den)
        return Polynomial._reduced(self.ring, q, self.den * c)

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return f"Polynomial({render_poly(self)})"


def _shift_slot(terms: dict, slot: int, nvars: int, n: int) -> dict:
    """Integer dict with x_slot -> x_slot + n, by the binomial expansion of
    (x+n)^e term by term."""
    unit = K.var(slot, nvars)
    acc: dict = {}
    get = acc.get
    for m, c in terms.items():
        e = K.exponent(m, slot, nvars)
        binom = 1
        power = c
        mm = m
        for t in range(e, -1, -1):
            # term x^t * C(e, e-t) * n^(e-t)
            acc[mm] = get(mm, 0) + binom * power
            binom = binom * t // (e - t + 1)
            power *= n
            mm -= unit
    return {m: v for m, v in acc.items() if v}


def render_poly(p: Polynomial) -> str:
    """Canonical rendering: graded-lex descending, explicit * and ^,
    no whitespace.  This string is the golden-file contract."""
    if not p.terms:
        return "0"
    ring = p.ring
    bits = []
    for m in sorted(p.terms, reverse=True):
        c = QQ(p.terms[m], p.den)
        neg = c < 0
        mag = -c if neg else c
        factors = []
        if mag != 1 or not m:
            factors.append(str(mag))
        for slot, e in enumerate(K.unpack(m, ring.nvars)):
            if e:
                name = _var_name(ring.vars[slot])
                factors.append(name if e == 1 else f"{name}^{e}")
        term = "*".join(factors)
        if not bits:
            bits.append(("-" if neg else "") + term)
        else:
            bits.append(("-" if neg else "+") + term)
    return "".join(bits)


class PointMap:
    """Ring map fixing the parameters and sending cell variables to
    parameter polynomials (their values at a point).

    The image of every power, and of every monomial free of the ring's last
    variable y, is memoised on the map, so evaluating many polynomials at
    one point multiplies out each of them once; after that a polynomial
    costs a scaled sum of memoised images per power of y and one product
    with the image of that power.  Leaving y out keeps the memo small,
    which matters when every translate of a window holds one: over the 28
    translates of the (2,1) doubled point at radius 3 the memos hold 27 514
    terms instead of 360 072.  Images are kept as integer dicts over one
    denominator, so the sums run on integers and the output is reduced
    once.

    A degree past the kernel's bound raises ``ValueError`` before a
    product is built, and before the powers of an image are built up.  The
    keys of the memo and of the output go through one dict per ring,
    ``Ring._monomials``: the maps and values of the ring hold one int
    object per distinct monomial."""

    __slots__ = ("ring", "_images", "_powers", "_monos")

    def __init__(self, ring: Ring, images: Mapping):
        self.ring = ring
        self._images = {
            ring.index[("x",) + tuple(cell)]: (p.terms, p.den, max(p.total_degree(), 0))
            for cell, p in images.items()
        }
        self._powers: dict = {}
        self._monos: dict = {}

    def _power(self, slot: int, e: int) -> tuple:
        """The image of x_slot^e, built up from the highest memoised power."""
        terms, den, deg = self._images[slot]
        K.check_degree(e * deg)
        powers = self._powers
        k = e
        while k > 1 and (slot, k) not in powers:
            k -= 1
        pe = powers.get((slot, k), (terms, den))
        for j in range(k + 1, e + 1):
            pe = powers[(slot, j)] = (self._shared(K.p_mul(pe[0], terms)), pe[1] * den)
        return pe

    def _monomial(self, m: int) -> tuple:
        """The image of x^m, as (terms, denominator): the image of its
        prefix (m without its last variable, memoised too) times the image
        of the power of that variable."""
        img = self._monos.get(m)
        if img is None:
            if not m:
                img = ({0: 1}, 1)
            else:
                n = self.ring.nvars
                slot = max(K.p_support((m,), n))
                e = K.exponent(m, slot, n)
                power = K.var(slot, n, e)
                terms, den = self._monomial(m - power)
                if slot in self._images:
                    pe, pd = self._power(slot, e)
                    img = (self._shared(K.p_mul(terms, pe)), den * pd)
                else:
                    img = (self._shared(K.p_mul_term(terms, power, 1)), den)
            self._monos[m] = img
        return img

    def __call__(self, p: Polynomial) -> Polynomial:
        """The image of p, as sum_k y^k * (sum of the images of the heads of
        the terms with y^k), for y the ring's last variable and the head of
        x^m its monomial without y.  The memo holds the heads only, and each
        sum is multiplied by the image of y^k once."""
        ring = self.ring
        if p.ring is not ring:
            raise ValueError("polynomial from a different ring")
        last = ring.nvars - 1
        monos = self._monos
        parts = []
        for k, heads in K.p_collect(p.terms, last, ring.nvars).items():
            for head, c in heads.items():
                parts.append((k, c, monos.get(head) or self._monomial(head)))
        lcm = math.lcm(*(img[1] for _, _, img in parts))
        sums: dict = {}
        for k, c, (terms, d) in parts:
            acc = sums.get(k)
            if acc is None:
                acc = sums[k] = {}
            get = acc.get
            s = c * (lcm // d)
            for mm, v in terms.items():
                acc[mm] = get(mm, 0) + s * v
        out = sums.pop(0, {})
        if sums:
            tails = {k: self._monomial(K.var(last, ring.nvars, k)) for k in sums}
            tlcm = math.lcm(*(d for _, d in tails.values()))
            if tlcm != 1:
                out = {mm: tlcm * v for mm, v in out.items()}
                lcm *= tlcm
            for k, acc in sums.items():
                pe, pd = tails[k]
                if pd != tlcm:
                    pe = {mm: tlcm // pd * v for mm, v in pe.items()}
                K.p_mul(acc, pe, out)
        return Polynomial._reduced(ring, self._shared(out), lcm * p.den)

    def _shared(self, terms: dict) -> dict:
        """``terms`` without zeros, keyed by the ring's one int object per
        monomial."""
        keys = self.ring._monomials
        return {keys.setdefault(m, m): c for m, c in terms.items() if c}


class RationalFunction:
    """Quotient of polynomials, stored fully reduced with monic denominator."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Polynomial, den: Polynomial):
        # trusted internal constructor: use normalize() to build safely
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def normalize(num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Canonical quotient of two polynomials: reduced, monic denominator.
        A constant denominator is a unit, so it takes no gcd."""
        ring = num.ring
        if den.ring is not ring:
            raise ValueError("numerator and denominator from different rings")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            return RationalFunction(ring.zero(), ring.one())
        if not den.is_constant():
            g = num.gcd(den)
            if not g.is_one():
                num = num.divide_exact(g)
                den = den.divide_exact(g)
        return RationalFunction._monic(num, den)

    @staticmethod
    def _monic(num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den with the unit moved so that den is monic (no gcd): den's
        leading coefficient is lc/d for its leading numerator lc."""
        _, lc = K.p_lead(den.terms)
        if lc != den.den:
            ring = num.ring
            num = Polynomial._reduced(ring, K.p_mul_scalar(num.terms, den.den), num.den * lc)
            den = Polynomial._reduced(ring, den.terms, lc)
        return RationalFunction(num, den)

    @staticmethod
    def _over_coprime(num: Polynomial, part: Polynomial, rest: Polynomial) -> "RationalFunction":
        """Canonical num/(part*rest) for a num coprime to rest: the only gcd
        taken is the one with part."""
        if num.is_zero():
            return RationalFunction(num, num.ring.one())
        if not part.is_constant():
            t = num.gcd(part)
            if not t.is_constant():
                num, part = num.divide_exact(t), part.divide_exact(t)
        return RationalFunction._monic(num, rest if part.is_one() else part * rest)

    @staticmethod
    def from_poly(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, p.ring.one())

    @staticmethod
    def from_any(ring: Ring, val) -> "RationalFunction":
        if isinstance(val, RationalFunction):
            return val
        if isinstance(val, Polynomial):
            return RationalFunction.from_poly(val)
        if not isinstance(val, (int, str)) and type(val) is not QQ:
            raise TypeError(f"cannot coerce {type(val).__name__} to RationalFunction")
        return RationalFunction.from_poly(ring.const(val))

    @property
    def ring(self) -> Ring:
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def polynomial_part(self) -> Polynomial:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    def is_constant(self) -> bool:
        return self.den.is_one() and self.num.is_constant()

    def __add__(self, other):
        """Sum of reduced quotients by Henrici's rule (Knuth, TAOCP 2,
        4.5.1), which takes no gcd of the product of the denominators.

        With g = gcd(d1, d2) and e_i = d_i/g, n1/d1 + n2/d2 is
        (n1*e2 + n2*e1)/(g*e1*e2).  A prime dividing e1 divides n2*e1 but
        neither n1 (n1/d1 is reduced) nor e2 (gcd(e1, e2) = 1), so it does
        not divide the numerator; the same holds for e2.  Hence only a gcd
        with g is left to take, none at all when g = 1, and a denominator 1
        on either side needs none either.  A product of monic polynomials
        is monic, so the result is canonical."""
        try:
            other = RationalFunction.from_any(self.ring, other)
        except TypeError:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            return RationalFunction.normalize(n1 + n2, d1)
        if d1.is_one():
            return RationalFunction(n1 * d2 + n2, d2)
        if d2.is_one():
            return RationalFunction(n1 + n2 * d1, d1)
        g = d1.gcd(d2)
        if g.is_one():
            return RationalFunction(n1 * d2 + n2 * d1, d1 * d2)
        e1, e2 = d1.divide_exact(g), d2.divide_exact(g)
        return RationalFunction._over_coprime(n1 * e2 + n2 * e1, g, e1 * e2)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFunction.from_any(self.ring, other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = RationalFunction.from_any(self.ring, other)
        except TypeError:
            return NotImplemented
        # cross-cancellation keeps the final reduction trivial
        a = RationalFunction.normalize(self.num, other.den)
        b = RationalFunction.normalize(other.num, self.den)
        return RationalFunction(a.num * b.num, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFunction.from_any(self.ring, other)
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        # the reciprocal of a reduced quotient is reduced: only the unit moves
        return self * RationalFunction._monic(other.den, other.num)

    def __rtruediv__(self, other):
        return RationalFunction.from_any(self.ring, other) / self

    def __pow__(self, n: int):
        """Powers of a coprime pair stay coprime and a power of a monic
        polynomial stays monic, so no gcd is taken; a negative power is the
        power of the reciprocal, whose unit is moved once."""
        if n >= 0:
            return RationalFunction(self.num ** n, self.den ** n)
        if self.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RationalFunction._monic(self.den ** -n, self.num ** -n)

    def __eq__(self, other):
        if isinstance(other, (Polynomial, int)) or type(other) is QQ:
            other = RationalFunction.from_any(self.ring, other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def shift_cells(self, offsets: Mapping) -> "RationalFunction":
        return RationalFunction(self.num.shift_cells(offsets), self.den.shift_cells(offsets))

    def permute_cells(self, mapping: Mapping) -> "RationalFunction":
        # permutation can break denominator monicity (it permutes the
        # graded-lex order), so renormalize the unit
        num, den = self.num.permute_cells(mapping), self.den.permute_cells(mapping)
        return RationalFunction._monic(num, den)

    def __str__(self):
        if self.den.is_one():
            return render_poly(self.num)
        return f"({render_poly(self.num)})/({render_poly(self.den)})"

    def __repr__(self):
        return f"RationalFunction({self})"


def merge_terms(acc: dict, pairs) -> dict:
    """Add each (key, value) of ``pairs`` into ``acc``, dropping a key whose
    sum is zero; returns ``acc``."""
    for k, c in pairs:
        prev = acc.get(k)
        s = c if prev is None else prev + c
        if s.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


@functools.lru_cache(maxsize=256)
def elementary_symmetric(ring: Ring, row: int, d: int) -> Polynomial:
    """d-th elementary symmetric polynomial in the row's cell variables
    (polynomials are immutable, so one is kept per (ring, row, d))."""
    cells = ring.row_cells(row)
    if not 0 <= d <= len(cells):
        raise ValueError(f"elementary symmetric degree {d} out of range for row {row}")
    # dp over cells: e_d of first t cells
    acc = [ring.one()] + [ring.zero()] * d
    for i, j in cells:
        x = ring.x(i, j)
        for t in range(min(d, len(acc) - 1), 0, -1):
            acc[t] = acc[t] + acc[t - 1] * x
    return acc[d]


def is_row_symmetric(p: Polynomial) -> bool:
    """True when p is invariant under permuting cells within each row."""
    ring = p.ring
    for i in range(1, ring.rows + 1):
        s = ring.shape[i - 1]
        for j in range(1, s):
            swap = {(i, j): (i, j + 1), (i, j + 1): (i, j)}
            if p.permute_cells(swap) != p:
                return False
    return True
