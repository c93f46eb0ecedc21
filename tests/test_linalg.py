"""The verified solve: rows chosen mod p, fraction-free elimination over
Q[z], every equation checked."""

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
    return _linalg.solve_columns(columns, rhs, rf(0), rf(1))


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
