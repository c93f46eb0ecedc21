"""Exact linear algebra over one row format.

Every row is scaled once, by a nonzero factor, to integer polynomials in the
parameters (:func:`integer_row`), which changes neither its rank nor the
solutions of its equation; a polynomial's integer numerators are read as
they are stored.  :class:`ModEchelon` takes integer rows at an
integer point of the parameters modulo a prime and reduces them
incrementally.  For any prime and point that rank is a lower bound on the
rank over Q(z), so a full rank certifies independence; a point where the
rows lose rank (probability at most deg/p, Schwartz-Zippel) costs
completeness only.  :func:`prime_to` picks a prime that divides no
coefficient denominator of the data, so the scaled rows keep their rank.

One fraction-free (Bareiss) Gauss-Jordan elimination over Z[z],
:func:`_eliminate`, gives :func:`rank` (its pivot count) and
:func:`solve_columns`: k rows chosen by a :class:`ModEchelon` are eliminated
to numerators N_c and one determinant D, every row is verified with the
gcd-free identity sum_c N_c * col_c[r] = D * rhs[r], and x_c = N_c / D is
normalised once per column.  Pivots are chosen first-come in row order and
the specialisation points come from a fixed list.
"""

import math
from typing import List, Optional

from . import _kernel as K
from .exactalg import Polynomial, RationalFunction

# the row choice of a solve walks over the first _ATTEMPTS integer points
# until the rows keep their rank at one
_ATTEMPTS = 8

# Miller-Rabin with the first 13 prime bases is exact below 3.3 * 10^24
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def prime_to(n: int) -> int:
    """The largest prime up to 2^61 - 1 that does not divide ``n`` (n > 0)."""
    p = 2**61 - 1
    while n % p == 0 or not _is_prime(p):
        p -= 2
    return p


def _terms(v, nvars: int) -> tuple:
    """An entry as (N, s, D) with value N/(s*D): N and D integer dicts (D
    None for 1) and s a positive integer.  A rational number is a constant
    at the zero monomial of width ``nvars``."""
    if isinstance(v, RationalFunction):
        num, den = v.num, v.den
        if den.is_one():
            return num.terms, num.den, None
        return K.p_mul_scalar(num.terms, den.den), num.den, den.terms
    return ({(0,) * nvars: v.numerator} if v else {}), v.denominator, None


def integer_row(entries: list, nvars: int) -> tuple:
    """``entries`` (rational functions in ``nvars`` variables, or rational
    numbers) scaled by one nonzero factor to integer polynomials: by the
    product of their distinct polynomial denominators and by the lcm L of
    their integer denominators.  Returns the integer dicts and L."""
    parts = [_terms(v, nvars) for v in entries]
    dens: list = []
    for _, _, den in parts:
        if den is not None and den not in dens:
            dens.append(den)
    lcm = math.lcm(*(s for _, s, _ in parts))
    row = []
    for t, s, den in parts:
        if t and s != lcm:
            t = K.p_mul_scalar(t, lcm // s)
        for d in dens:
            if t and d != den:
                t = K.p_mul(t, d)
        row.append(t)
    return row, lcm


def _width(rows) -> int:
    """The number of variables of the rational functions among ``rows``."""
    return next((v.ring.nvars for row in rows for v in row if isinstance(v, RationalFunction)), 0)


def _mod_eval(terms: dict, zv: list, p: int) -> int:
    """Value mod p of an integer dict at the integer point ``zv``."""
    acc = 0
    for m, c in terms.items():
        for slot, e in enumerate(m):
            if e:
                c = c * pow(zv[slot], e, p) % p
        acc += c
    return acc % p


class ModEchelon:
    """Incremental row echelon form of integer rows, taken at the integer
    point of ``attempt`` modulo ``prime``.  ``len`` is the rank of the rows
    added so far, a lower bound on their rank over Q(z)."""

    def __init__(self, prime: int, nvars: int, attempt: int = 0):
        self.prime = prime
        self.point = [1009 + 7919 * attempt + 104729 * slot for slot in range(nvars)]
        self._rows: list = []  # (pivot column, row scaled to 1 there)

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, row: list) -> bool:
        """Specialise and reduce ``row``; True when it raised the rank."""
        p = self.prime
        vals = [_mod_eval(t, self.point, p) for t in row]
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


def _independent_rows(rows: list, k: int, nvars: int, prime: int) -> Optional[list]:
    """Indices of k integer ``rows``, read in their first k entries, whose
    square minor is nonsingular: found by a :class:`ModEchelon` at the first
    point where the rows keep rank k; None when no point of the list does."""
    for attempt in range(_ATTEMPTS):
        echelon = ModEchelon(prime, nvars, attempt)
        chosen: list = []
        for r, row in enumerate(rows):
            if echelon.add(row[:k]):
                chosen.append(r)
                if len(chosen) == k:
                    return chosen
    return None


def _exact_quotient(a: dict, b: dict) -> dict:
    q, r = K.p_divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination step was expected to be exact")
    return q


def _dot(a: list, b: list) -> dict:
    acc: dict = {}
    for x, y in zip(a, b):
        if x and y:
            acc = K.p_add(acc, K.p_mul(x, y))
    return acc


def _eliminate(m: list, ncols: int) -> list:
    """Fraction-free (Bareiss) Gauss-Jordan elimination, in place, of the
    integer rows ``m`` in their first ``ncols`` columns; later columns are
    carried along.  A column's pivot is its first nonzero entry at or below
    the current row, and a column with none is skipped.  Every division by
    the previous pivot is exact (Sylvester's identity), and every pivot
    entry ends equal to the last pivot.  Returns the pivot columns."""
    pivots: list = []
    prev: dict = {}
    for c in range(ncols):
        rk = len(pivots)
        piv = next((r for r in range(rk, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        prow = m[rk]
        p = prow[c]
        for r, row in enumerate(m):
            if r == rk:
                continue
            a = row[c]
            for j in range(c + 1, len(row)):
                t = K.p_mul(p, row[j])
                if a and prow[j]:
                    t = K.p_sub(t, K.p_mul(a, prow[j]))
                row[j] = _exact_quotient(t, prev) if prev else t
            row[c] = {}
        for r, pc in enumerate(pivots):
            m[r][pc] = p
        pivots.append(c)
        prev = p
    return pivots


def rank(rows: List[list]) -> int:
    """Rank over Q(z) of rows of rational functions and rationals (over Q
    when all are rationals): the pivot count of the fraction-free
    elimination."""
    if not rows:
        return 0
    nvars = _width(rows)
    m = [integer_row(row, nvars)[0] for row in rows]
    return len(_eliminate(m, len(m[0])))


def is_nilpotent(matrix: List[list]) -> bool:
    """Whether the square matrix N of rational functions has N^n = 0,
    tested as (L*N)^n = 0 for one common nonzero scalar L that makes L*N
    integer polynomials."""
    n = len(matrix)
    flat, _ = integer_row([v for row in matrix for v in row], _width(matrix))
    LN = [flat[r * n : (r + 1) * n] for r in range(n)]
    cols = list(zip(*LN))
    power = LN
    for _ in range(n - 1):
        power = [[_dot(row, col) for col in cols] for row in power]
    return not any(v for row in power for v in row)


def solve_columns(columns: List[list], rhs: list, zero) -> Optional[list]:
    """Solve sum_c x_c * columns[c] = rhs exactly over rational functions.

    The columns must be independent over Q(z), which the window's rank
    certificate guarantees; the system may be (heavily) overdetermined.
    The rows are chosen modulo a prime to the scales of the integer rows
    (see the module docstring).  Returns None when no point of the list
    certifies k rows or an equation fails.  ``zero`` fixes the ring."""
    ncols = len(columns)
    nrows = len(rhs)
    if any(len(col) != nrows for col in columns):
        raise ValueError("column length mismatch")
    ring = zero.ring
    if not ncols:
        return [] if all(v.is_zero() for v in rhs) else None
    scaled = [integer_row([col[r] for col in columns] + [rhs[r]], ring.nvars) for r in range(nrows)]
    eqs = [row for row, _ in scaled]
    rows = _independent_rows(eqs, ncols, ring.nvars, prime_to(math.lcm(*(s for _, s in scaled))))
    if rows is None:
        return None
    m = [list(eqs[r]) for r in rows]
    _eliminate(m, ncols)
    det = m[0][0]
    nums = [row[ncols] for row in m]
    for eq in eqs:
        if _dot(nums, eq) != K.p_mul(det, eq[ncols]):
            return None
    den = Polynomial._wrap(ring, det)
    return [RationalFunction.normalize(Polynomial._wrap(ring, n), den) for n in nums]
