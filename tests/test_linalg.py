"""The fraction-free rank against field elimination, the mod-p echelon
against the exact rank, and the verified solve: rows scaled to integer
polynomials and chosen mod p, fraction-free elimination over Z[z], every
equation checked."""

import math
import random

from ogzkit import QQ, RationalFunction, Ring, _linalg

RING = Ring((2, 1), 2)


def rf(p):
    return RationalFunction.from_any(RING, p)


def random_zpoly(rng: random.Random, max_degree: int = 3):
    z = [RING.z(1), RING.z(2)]
    out = RING.zero()
    for _ in range(rng.randint(1, 4)):
        term = RING.const(QQ(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(rng.randint(0, max_degree)):
            term = term * z[rng.randrange(2)]
        out = out + term
    return out


def combine(columns, x):
    """rhs[r] = sum_c x[c] * columns[c][r]."""
    rhs = []
    for r in range(len(columns[0])):
        acc = rf(0)
        for c, col in enumerate(columns):
            acc = acc + x[c] * col[r]
        rhs.append(acc)
    return rhs


def solve(columns, rhs):
    return _linalg.solve_columns(columns, rhs, rf(0))


def integer(row):
    return _linalg.integer_row(row, RING.nvars)[0]


def integer_rows(columns):
    return [integer([col[r] for col in columns]) for r in range(len(columns[0]))]


def random_system(rng: random.Random, k: int, extra: int):
    columns = [[rf(random_zpoly(rng)) for _ in range(k + extra)] for _ in range(k)]
    rows = [[col[r] for col in columns] for r in range(k + extra)]
    assert _linalg.rank(rows) == k  # full column rank over Q(z)
    x = []
    for _ in range(k):
        num = random_zpoly(rng, 2)
        den = random_zpoly(rng, 1) if rng.random() < 0.5 else RING.one()
        x.append(RationalFunction.normalize(num, den if not den.is_zero() else RING.one()))
    return columns, x


def test_solve_recovers_known_solution():
    rng = random.Random(20240611)
    for _ in range(25):
        k = rng.randint(1, 4)
        columns, x = random_system(rng, k, rng.randint(0, 4))
        assert solve(columns, combine(columns, x)) == x


def test_solve_rational_entries():
    rng = random.Random(77)
    for _ in range(10):
        columns, x = random_system(rng, 2, 2)
        den = rf(random_zpoly(rng, 1) + RING.z(1) * RING.z(1) + RING.one())
        columns = [[v / den if r % 2 else v for r, v in enumerate(col)] for col in columns]
        assert solve(columns, combine(columns, x)) == x


def test_solve_rejects_any_perturbed_row():
    rng = random.Random(5)
    columns, x = random_system(rng, 3, 4)
    rhs = combine(columns, x)
    for r in range(len(rhs)):
        bad = list(rhs)
        bad[r] = bad[r] + rf(RING.z(2))
        assert solve(columns, bad) is None


def test_row_search_passes_rows_singular_at_first_point():
    a1, a2 = _linalg.ModEchelon(M61, RING.nvars).point[:2]
    z1, z2 = RING.z(1), RING.z(2)
    # rows 0 and 1 have determinant (z1 - a1)(z2 - a2), zero at the first
    # specialisation point but not over Q(z); row 2 completes the minor
    col0 = [rf(z1 - a1), rf(RING.zero()), rf(RING.one())]
    col1 = [rf(RING.one()), rf(z2 - a2), rf(z1)]
    columns = [col0, col1]
    assert _linalg._independent_rows(integer_rows(columns), 2, RING.nvars, M61) == [0, 2]
    x = [rf(z2 + 3), rf(QQ(1, 2) * z1)]
    assert solve(columns, combine(columns, x)) == x


def test_unlucky_points_move_to_the_next_point():
    a1, a2 = _linalg.ModEchelon(M61, RING.nvars).point[:2]
    z1, z2 = RING.z(1), RING.z(2)
    x = [rf(z1 * z2 - 7)]
    # every row vanishes at the first point: the specialised minor is singular
    vanishing = [[rf((z1 - a1) * (z2 + n)) for n in range(4)]]
    assert _linalg._independent_rows(integer_rows(vanishing), 1, RING.nvars, M61) == [0]
    assert solve(vanishing, combine(vanishing, x)) == x
    # row 0 has a pole at the first point, where its numerator vanishes too:
    # scaled by its denominator it vanishes there, so row 1 is chosen
    pole = [[rf(z2 - a2) / rf(z1 - a1), rf(z2 + 1), rf(z1)]]
    assert _linalg._independent_rows(integer_rows(pole), 1, RING.nvars, M61) == [1]
    assert solve(pole, combine(pole, x)) == x


def test_dependent_columns_are_not_certified():
    z1 = RING.z(1)
    col = [rf(z1 + n) for n in range(3)]
    assert solve([col, col], col) is None


# ---------------------------------------------------------------------------
# the fraction-free rank against Gaussian elimination over the field


def _reference_is_zero(x) -> bool:
    z = getattr(x, "is_zero", None)
    if z is not None:
        return z()
    return not x


def reference_rank(rows) -> int:
    """Gaussian elimination over Q(z) (or Q), one field division per
    update: the rank that the fraction-free elimination replaced."""
    if not rows:
        return 0
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rk = 0
    for c in range(ncols):
        piv = None
        for r in range(rk, nrows):
            if not _reference_is_zero(m[r][c]):
                piv = r
                break
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        pv = m[rk][c]
        for r in range(rk + 1, nrows):
            if _reference_is_zero(m[r][c]):
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


def deficient_rows(rng: random.Random, entry, zero):
    """Up to 5 x 4 rows spanned by at most min(rows, cols) random rows, with
    a column zeroed now and then so that elimination skips a pivot column."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
    base = [[entry() for _ in range(ncols)] for _ in range(rng.randint(0, min(nrows, ncols)))]
    rows = []
    for _ in range(nrows):
        row = [zero] * ncols
        for b in base:
            c = QQ(rng.randint(-3, 3))
            row = [a + c * v for a, v in zip(row, b)]
        rows.append(row)
    if rng.random() < 0.3:
        dead = rng.randrange(ncols)
        rows = [[zero if j == dead else v for j, v in enumerate(row)] for row in rows]
    return rows


def test_rank_matches_the_reference_elimination():
    rng = random.Random(90210)
    z1, z2 = RING.z(1), RING.z(2)

    def with_pole():
        if rng.random() < 0.3:
            return rf(0)
        v = random_rf(rng)
        return v / rf(z1 - rng.randint(-2, 2)) if rng.random() < 0.4 else v

    def rational():
        return QQ(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else QQ(0)

    for _ in range(30):
        rows = deficient_rows(rng, with_pole, rf(0))
        assert _linalg.rank(rows) == reference_rank(rows)
        qq = deficient_rows(rng, rational, QQ(0))
        assert _linalg.rank(qq) == reference_rank(qq)
    pole = [rf(z2) / rf(z1 - 1009), rf(1)]
    assert _linalg.rank([pole, [rf(z2) * v for v in pole]]) == 1
    # a rational scalar in a row of rational functions is a constant of the
    # row's width, not a monomial that truncates its products
    x = rf(RING.x(1, 1))
    mixed = [[QQ(1), x], [x, x * x]]
    assert _linalg.rank(mixed) == reference_rank(mixed) == 1
    # every pivot sits below the current row, so each step swaps rows
    flip = [[QQ(0)] * 3] + [[QQ(int(i + j == 2)) for j in range(3)] for i in range(3)]
    assert _linalg.rank(flip) == reference_rank(flip) == 3


# ---------------------------------------------------------------------------
# the mod-p echelon against the exact rank

M61 = 2**61 - 1


def echelon(rows):
    """A ModEchelon fed ``rows`` scaled to integer rows, at the first point
    modulo the prime to their scales (the way a solve picks its rows)."""
    scaled, scales = zip(*(_linalg.integer_row(row, RING.nvars) for row in rows))
    out = _linalg.ModEchelon(_linalg.prime_to(math.lcm(*scales)), RING.nvars)
    for row in scaled:
        out.add(row)
    return out


def random_rf(rng: random.Random):
    num = random_zpoly(rng, 2)
    if rng.random() < 0.3:
        num = num * QQ(rng.randint(1, 5), M61)
    den = random_zpoly(rng, 1) if rng.random() < 0.3 else RING.one()
    return RationalFunction.normalize(num, den if not den.is_zero() else RING.one())


def test_echelon_rank_matches_exact_rank():
    rng = random.Random(31337)
    moved = 0
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
        rk = rng.randint(0, min(nrows, ncols))
        base = [[random_rf(rng) for _ in range(ncols)] for _ in range(rk)]
        rows = []
        for _ in range(nrows):
            row = [rf(0)] * ncols
            for b in base:
                c = rf(random_zpoly(rng, 1))
                row = [a + c * v for a, v in zip(row, b)]
            rows.append(row)
        ech = echelon(rows)
        moved += ech.prime != M61
        assert len(ech) == _linalg.rank(rows)
    assert moved  # some matrices carry denominators divisible by 2^61 - 1


def test_echelon_unlucky_and_vanishing_rows():
    a1, a2 = _linalg.ModEchelon(M61, RING.nvars).point[:2]
    z1, z2 = RING.z(1), RING.z(2)
    # a coefficient denominator divisible by 2^61 - 1: scaled to integers,
    # the first row is (z1, 0) modulo that prime, so the prime moves below it
    scaled = [[rf(z1 * QQ(1, M61)), rf(1)], [rf(z1), rf(0)]]
    at_m61 = _linalg.ModEchelon(M61, RING.nvars)
    assert at_m61.add(integer(scaled[0])) and not at_m61.add(integer(scaled[1]))
    ech = echelon(scaled)
    assert ech.prime == _linalg.prime_to(M61) < M61
    assert len(ech) == _linalg.rank(scaled) == 2
    # a row vanishing at the first point does not count there: the
    # specialised rank is only a lower bound
    vanishing = [[rf((z1 - a1) * z2), rf((z1 - a1) * (z2 + 3))], [rf(z1), rf(z1)]]
    rows = [integer(row) for row in vanishing]
    first = _linalg.ModEchelon(M61, RING.nvars)
    assert not first.add(rows[0]) and first.add(rows[1]) and len(first) == 1
    second = _linalg.ModEchelon(M61, RING.nvars, attempt=1)
    assert second.add(rows[0]) and second.add(rows[1]) and len(second) == 2
    assert _linalg.rank(vanishing) == 2
    # a pole at the first point: the row scaled by its denominator is
    # (z2, z1 - a1), which does not vanish there
    pole = [[rf(z2) / rf(z1 - a1), rf(RING.one())], [rf(z1), rf(z2)]]
    assert len(echelon(pole)) == _linalg.rank(pole) == 2
