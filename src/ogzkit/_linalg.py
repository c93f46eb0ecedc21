"""Small exact linear algebra.

``rank`` and ``kernel_basis`` work generically over any value type with
field semantics exposed as ``+ - * /`` plus an ``is_zero()``-or-falsy test;
they are used with rational functions in the parameters and with plain
rationals (for specialized rank certificates).

``solve_columns`` solves overdetermined systems over rational functions
without a gcd per operation.  Its columns must be independent over Q(z),
which a window's rank certificate guarantees.  It chooses k independent
rows by elimination modulo a word-size prime at an integer point of the
variables, solves those k rows over Q[z] by fraction-free (Bareiss)
Gauss-Jordan elimination, which gives numerators N_c and one determinant D,
verifies every row with the gcd-free identity
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


# Row selection specialises the parameters at integer points and works
# modulo a word-size prime; the points are tried in this fixed order.
_PRIME = 2**61 - 1
_ROW_POINTS = 8


def _spec_point(attempt: int, nvars: int) -> list:
    return [(1009 + 7919 * attempt + 104729 * slot) % _PRIME for slot in range(nvars)]


class _UnluckyPoint(Exception):
    pass


def _mod_eval(terms: dict, zv: list) -> int:
    """Value mod p of a QQ-coefficient dict at the integer point ``zv``."""
    acc = 0
    for m, c in terms.items():
        den = c.denominator % _PRIME
        if not den:
            raise _UnluckyPoint
        t = c.numerator * pow(den, -1, _PRIME)
        for slot, e in enumerate(m):
            if e:
                t = t * pow(zv[slot], e, _PRIME) % _PRIME
        acc += t
    return acc % _PRIME


def _mod_value(rf, zv: list) -> int:
    num = _mod_eval(rf.num.terms, zv)
    if rf.den.is_one():
        return num
    den = _mod_eval(rf.den.terms, zv)
    if not den:
        raise _UnluckyPoint
    return num * pow(den, -1, _PRIME) % _PRIME


def _independent_rows(columns: List[list], nrows: int, nvars: int) -> Optional[list]:
    """Indices of len(columns) rows whose square minor is nonsingular, found
    by incremental elimination mod p at the first lucky integer point; None
    when no point in the list certifies them."""
    k = len(columns)
    for attempt in range(_ROW_POINTS):
        zv = _spec_point(attempt, nvars)
        echelon: list = []  # (pivot column, row scaled to 1 there)
        chosen: list = []
        try:
            for r in range(nrows):
                row = [_mod_value(col[r], zv) for col in columns]
                for pc, prow in echelon:
                    f = row[pc]
                    if f:
                        row = [(a - f * b) % _PRIME for a, b in zip(row, prow)]
                pc = next((c for c, a in enumerate(row) if a), None)
                if pc is None:
                    continue
                inv = pow(row[pc], -1, _PRIME)
                echelon.append((pc, [a * inv % _PRIME for a in row]))
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


def solve_columns(columns: List[list], rhs: list, zero, one) -> Optional[list]:
    """Solve sum_c x_c * columns[c] = rhs exactly over rational functions.

    The columns must be linearly independent over Q(z), which the window's
    rank certificate guarantees; the system may be (heavily) overdetermined.
    Rows are chosen mod p (a point where a denominator vanishes mod p, or
    where the rows found are dependent, is unlucky: the next point of the
    fixed list is tried), solved fraction-free over Q[z], and *every*
    equation is verified (see the module docstring).  Returns None when no
    point certifies k rows or an equation fails.  ``zero`` fixes the ring;
    ``one`` is unused and kept for the signature.
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


def kernel_basis(rows: List[list], zero, one) -> List[list]:
    """Basis of the right kernel {x : rows @ x = 0}, exact RREF."""
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    m = [list(r) for r in rows]
    pivots = []  # (row, col)
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
        m[rk] = [v / pv for v in m[rk]]
        for r in range(nrows):
            if r != rk and not _is_zero(m[r][c]):
                factor = m[r][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rk])]
        pivots.append((rk, c))
        rk += 1
        if rk == nrows:
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for r, c in pivots:
            vec[c] = zero - m[r][free]
        basis.append(vec)
    return basis
