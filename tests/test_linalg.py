"""The mod-p echelon against the exact rank, and the verified solve: rows
chosen mod p, fraction-free elimination over Q[z], every equation checked."""

import random

import pytest

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
    a1, a2 = _linalg._spec_point(0, RING.nvars)[:2]
    z1, z2 = RING.z(1), RING.z(2)
    # rows 0 and 1 have determinant (z1 - a1)(z2 - a2), zero at the first
    # specialisation point but not over Q(z); row 2 completes the minor
    col0 = [rf(z1 - a1), rf(RING.zero()), rf(RING.one())]
    col1 = [rf(RING.one()), rf(z2 - a2), rf(z1)]
    columns = [col0, col1]
    assert _linalg._independent_rows(columns, 3, RING.nvars) == [0, 2]
    x = [rf(z2 + 3), rf(QQ(1, 2) * z1)]
    assert solve(columns, combine(columns, x)) == x


def test_unlucky_points_move_to_the_next_point():
    a1, a2 = _linalg._spec_point(0, RING.nvars)[:2]
    z1, z2 = RING.z(1), RING.z(2)
    x = [rf(z1 * z2 - 7)]
    # every row vanishes at the first point: the specialised minor is singular
    vanishing = [[rf((z1 - a1) * (z2 + n)) for n in range(4)]]
    assert _linalg._independent_rows(vanishing, 4, RING.nvars) == [0]
    assert solve(vanishing, combine(vanishing, x)) == x
    # row 0 has a pole at the first point, where its numerator vanishes too
    pole = [[rf(z2 - a2) / rf(z1 - a1), rf(z2 + 1), rf(z1)]]
    assert _linalg._independent_rows(pole, 3, RING.nvars) == [0]
    assert solve(pole, combine(pole, x)) == x


def test_dependent_columns_are_not_certified():
    z1 = RING.z(1)
    col = [rf(z1 + n) for n in range(3)]
    assert solve([col, col], col) is None


# ---------------------------------------------------------------------------
# the mod-p echelon against the exact rank

M61 = 2**61 - 1


def echelon_rank(rows):
    """Rank of ``rows`` by ModEchelon at the first attempt with no
    denominator vanishing mod p (the way a window certifies its rank)."""
    for attempt in range(_linalg._ATTEMPTS):
        echelon = _linalg.ModEchelon(attempt, RING.nvars)
        try:
            for row in rows:
                echelon.add(row)
        except _linalg._UnluckyPoint:
            continue
        return len(echelon)
    return None


def random_rf(rng: random.Random):
    num = random_zpoly(rng, 2)
    if rng.random() < 0.3:
        num = num * QQ(rng.randint(1, 5), M61)
    den = random_zpoly(rng, 1) if rng.random() < 0.3 else RING.one()
    return RationalFunction.normalize(num, den if not den.is_zero() else RING.one())


def test_echelon_rank_matches_exact_rank():
    rng = random.Random(31337)
    unlucky = 0
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
        try:
            first = _linalg.ModEchelon(0, RING.nvars)
            for row in rows:
                first.add(row)
        except _linalg._UnluckyPoint:
            unlucky += 1
        assert echelon_rank(rows) == _linalg.rank(rows)
    assert unlucky  # some matrices carry denominators divisible by 2^61 - 1


def test_echelon_unlucky_and_vanishing_rows():
    a1, a2 = _linalg._spec_point(0, RING.nvars)[:2]
    z1, z2 = RING.z(1), RING.z(2)
    # a coefficient denominator divisible by 2^61 - 1 is unlucky at every
    # attempt with that prime, never at an attempt with the other one
    scaled = [[rf(z1 * QQ(1, M61)), rf(z2)], [rf(z2), rf(z1 + 1)]]
    for attempt in range(_linalg._ATTEMPTS):
        echelon = _linalg.ModEchelon(attempt, RING.nvars)
        if echelon.prime == M61:
            with pytest.raises(_linalg._UnluckyPoint):
                echelon.add(scaled[0])
        else:
            assert echelon.add(scaled[0]) and echelon.add(scaled[1])
    assert echelon_rank(scaled) == _linalg.rank(scaled) == 2
    # a row vanishing at the first point does not count there: the
    # specialised rank is only a lower bound
    vanishing = [[rf((z1 - a1) * z2), rf((z1 - a1) * (z2 + 3))], [rf(z1), rf(z1)]]
    first = _linalg.ModEchelon(0, RING.nvars)
    assert not first.add(vanishing[0]) and first.add(vanishing[1]) and len(first) == 1
    second = _linalg.ModEchelon(1, RING.nvars)
    assert second.add(vanishing[0]) and second.add(vanishing[1]) and len(second) == 2
    assert _linalg.rank(vanishing) == 2
    # a pole at the first point makes it unlucky
    pole = [[rf(z2) / rf(z1 - a1), rf(RING.one())], [rf(z1), rf(z2)]]
    with pytest.raises(_linalg._UnluckyPoint):
        _linalg.ModEchelon(0, RING.nvars).add(pole[0])
    assert echelon_rank(pole) == _linalg.rank(pole) == 2
