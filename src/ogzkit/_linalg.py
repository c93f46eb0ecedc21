"""Small exact linear algebra.

``rank`` works generically over any value type with field semantics exposed
as ``+ - * /`` plus an ``is_zero()``-or-falsy test; it is the exact
reference, used with rational functions in the parameters.

:class:`ModEchelon` is the one rank certificate: rows of rational functions
are specialised at an integer point of the parameters modulo a prime and
reduced incrementally.  Its rank is a lower bound on the rank over Q(z)
(Schwartz-Zippel: a point loses rank with probability at most deg/p), so a
full rank certifies independence.  A window's rank certificate and the row
choice of ``solve_columns`` both use it.

``solve_columns`` solves overdetermined systems over rational functions
without a gcd per operation.  Its columns must be independent over Q(z),
which a window's rank certificate guarantees.  It chooses k independent
rows with a :class:`ModEchelon`, solves those k rows over Q[z] by
fraction-free (Bareiss) Gauss-Jordan elimination, which gives numerators
N_c and one determinant D, verifies every row with the gcd-free identity
sum_c N_c * col_c[r] = D * rhs[r], and normalises x_c = N_c / D once per
column.

Everything is deterministic: pivots are chosen first-come in row order and
the specialisation points come from a fixed list.
"""

import math
from typing import List, Optional

from . import _kernel as K
from ._gcd import clear_den, divexact_int
from ._ratio import QQ
from .exactalg import Polynomial, RationalFunction


def _is_zero(x) -> bool:
    z = getattr(x, "is_zero", None)
    if z is not None:
        return z()
    return not x


def rank(rows: List[list]) -> int:
    """Exact rank by Gaussian elimination (destructive on a copy)."""
    if not rows:
        return 0
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rk = 0
    for c in range(ncols):
        piv = None
        for r in range(rk, nrows):
            if not _is_zero(m[r][c]):
                piv = r
                break
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        pv = m[rk][c]
        for r in range(rk + 1, nrows):
            if _is_zero(m[r][c]):
                continue
            factor = m[r][c] / pv
            row = m[r]
            prow = m[rk]
            for cc in range(c, ncols):
                row[cc] = row[cc] - factor * prow[cc]
        rk += 1
        if rk == nrows:
            break
    return rk


# Attempt a specialises the parameters at _spec_point(a) and works modulo
# _PRIMES[a % 2]; alternating the prime means a coefficient denominator
# divisible by one of them makes only every other attempt unlucky.
_PRIMES = (2**61 - 1, 2**89 - 1)
_ATTEMPTS = 8


def _spec_point(attempt: int, nvars: int) -> list:
    return [1009 + 7919 * attempt + 104729 * slot for slot in range(nvars)]


class _UnluckyPoint(Exception):
    pass


def _mod_eval(terms: dict, zv: list, p: int) -> int:
    """Value mod p of a QQ-coefficient dict at the integer point ``zv``."""
    acc = 0
    for m, c in terms.items():
        den = c.denominator % p
        if not den:
            raise _UnluckyPoint
        t = c.numerator * pow(den, -1, p)
        for slot, e in enumerate(m):
            if e:
                t = t * pow(zv[slot], e, p) % p
        acc += t
    return acc % p


def _mod_value(rf, zv: list, p: int) -> int:
    num = _mod_eval(rf.num.terms, zv, p)
    if rf.den.is_one():
        return num
    den = _mod_eval(rf.den.terms, zv, p)
    if not den:
        raise _UnluckyPoint
    return num * pow(den, -1, p) % p


class ModEchelon:
    """Incremental row echelon form of rows of rational functions, taken at
    the integer point of one attempt modulo that attempt's prime.

    ``add`` raises :class:`_UnluckyPoint` when a coefficient denominator or
    a denominator vanishes there mod p; the caller then starts again with
    the next attempt.  ``len`` is the rank of the rows added so far."""

    def __init__(self, attempt: int, nvars: int):
        self.prime = _PRIMES[attempt % 2]
        self.point = _spec_point(attempt, nvars)
        self._rows: list = []  # (pivot column, row scaled to 1 there)

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, row: list) -> bool:
        """Specialise and reduce ``row``; True when it raised the rank."""
        p = self.prime
        vals = [_mod_value(v, self.point, p) for v in row]
        for pc, prow in self._rows:
            f = vals[pc]
            if f:
                vals = [(a - f * b) % p for a, b in zip(vals, prow)]
        pc = next((c for c, a in enumerate(vals) if a), None)
        if pc is None:
            return False
        inv = pow(vals[pc], -1, p)
        self._rows.append((pc, [a * inv % p for a in vals]))
        return True


def _independent_rows(columns: List[list], nrows: int, nvars: int) -> Optional[list]:
    """Indices of len(columns) rows whose square minor is nonsingular, found
    with a :class:`ModEchelon` at the first lucky attempt; None when no
    attempt certifies them."""
    k = len(columns)
    for attempt in range(_ATTEMPTS):
        echelon = ModEchelon(attempt, nvars)
        chosen: list = []
        try:
            for r in range(nrows):
                if echelon.add([col[r] for col in columns]):
                    chosen.append(r)
                    if len(chosen) == k:
                        return chosen
        except _UnluckyPoint:
            continue
    return None


def _integer_row(entries: list) -> list:
    """One equation scaled by a nonzero factor to integer polynomials: by the
    product of its distinct denominators, then by the lcm of the coefficient
    denominators (the solution set is unchanged)."""
    dens: list = []
    for v in entries:
        if not v.den.is_one() and v.den not in dens:
            dens.append(v.den)
    polys = []
    for v in entries:
        t = v.num.terms
        for d in dens:
            if t and d != v.den:
                t = K.p_mul(t, d.terms)
        polys.append(t)
    cleared = [clear_den(t) for t in polys]
    lcm = math.lcm(*(s for _, s in cleared))
    return [{m: v * (lcm // s) for m, v in t.items()} for t, s in cleared]


def _exact_quotient(a: dict, b: dict) -> dict:
    q = divexact_int(a, b)
    if q is None:
        raise ArithmeticError("fraction-free elimination step was expected to be exact")
    return q


def solve_columns(columns: List[list], rhs: list, zero) -> Optional[list]:
    """Solve sum_c x_c * columns[c] = rhs exactly over rational functions.

    The columns must be linearly independent over Q(z), which the window's
    rank certificate guarantees; the system may be (heavily) overdetermined.
    Rows are chosen mod p (a point where a denominator vanishes mod p, or
    where the rows found are dependent, is unlucky: the next point of the
    fixed list is tried), solved fraction-free over Q[z], and *every*
    equation is verified (see the module docstring).  Returns None when no
    point certifies k rows or an equation fails.  ``zero`` fixes the ring.
    """
    ncols = len(columns)
    nrows = len(rhs)
    if any(len(col) != nrows for col in columns):
        raise ValueError("column length mismatch")
    ring = zero.ring
    if not ncols:
        return [] if all(v.is_zero() for v in rhs) else None
    rows = _independent_rows(columns, nrows, ring.nvars)
    if rows is None:
        return None
    eqs = [_integer_row([col[r] for col in columns] + [rhs[r]]) for r in range(nrows)]
    m = [list(eqs[r]) for r in rows]
    prev: dict = {}
    for c in range(ncols):
        # the certified minor is nonsingular, so a pivot exists
        piv = next(r for r in range(c, ncols) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        p = m[c][c]
        for r in range(ncols):
            if r == c:
                continue
            row = m[r]
            a = row[c]
            for j in range(c + 1, ncols + 1):
                t = K.p_mul(p, row[j])
                if a and m[c][j]:
                    t = K.p_sub(t, K.p_mul(a, m[c][j]))
                row[j] = _exact_quotient(t, prev) if c else t
            row[c] = {}
            if r < c:
                row[r] = p
        prev = p
    det = prev
    nums = [m[c][ncols] for c in range(ncols)]
    for eq in eqs:
        acc: dict = {}
        for n, a in zip(nums, eq):
            if n and a:
                acc = K.p_add(acc, K.p_mul(n, a))
        if acc != K.p_mul(det, eq[ncols]):
            return None
    den = Polynomial._wrap(ring, {mo: QQ(v) for mo, v in det.items()})
    return [
        RationalFunction.normalize(Polynomial._wrap(ring, {mo: QQ(v) for mo, v in n.items()}), den)
        for n in nums
    ]
