"""Divided-difference operators, nil-Hecke normal forms."""

import itertools
import random

import pytest

from ogzkit import (
    QQ,
    AffineSymmetry,
    Generators,
    InvalidComposition,
    InvalidPair,
    NilHecke,
    RationalFunction,
    Ring,
    RowPermutation,
    SkewOperator,
    agree_on_invariants,
    apply_word,
    chain_word,
    generators_ddiff_form,
    partial,
    partial_apply_rf,
    partial_for_perm,
    partial_simple,
    partial_word,
)
from ogzkit.skewops import ladder_coefficient
from reference import inverse, leibniz_parts, nil_hecke_from_word, to_skew


def rf(p):
    return RationalFunction.from_poly(p)


def random_poly(ring: Ring, rng: random.Random, max_degree: int = 3):
    gens = [ring.x(*c) for c in ring.cells()]
    out = ring.zero()
    for _ in range(rng.randint(1, 4)):
        term = ring.const(QQ(rng.randint(-6, 6)))
        for _ in range(rng.randint(0, max_degree)):
            term = term * gens[rng.randrange(len(gens))]
        out = out + term
    return out


def all_reduced_words(shape, perm, limit=6):
    """Brute-force enumeration of reduced words by peeling descents."""
    if perm.is_identity():
        return [()]
    out = []
    n = shape[0]
    for p in range(1, n):
        s = RowPermutation.simple(shape, 1, p)
        shorter = s * perm
        if shorter.length() == perm.length() - 1:
            for w in all_reduced_words(shape, shorter, limit):
                out.append(((1, p),) + w)
                if len(out) >= limit:
                    return out
    return out


# ---------------------------------------------------------------------------
# single difference operator


def test_partial_golden():
    ring = Ring((2, 1), 0)
    d = partial(ring, (1, 1), (1, 2))
    x, y = ring.x(1, 1), ring.x(1, 2)
    assert str(d.apply(rf(x * x))) == "x[1,1]+x[1,2]"
    assert str(d.apply(rf(x))) == "1"
    assert str(d.apply(rf(ring.one()))) == "0"
    assert d.apply(rf(x * y)).is_polynomial()


def test_partial_lowers_degree_to_polynomial():
    rng = random.Random(41)
    ring = Ring((3, 1), 0)
    for _ in range(40):
        f = random_poly(ring, rng)
        img = partial(ring, (1, 1), (1, 3)).apply(rf(f))
        assert img.is_polynomial()


def test_partial_antisymmetry():
    ring = Ring((3, 1), 0)
    a = partial(ring, (1, 1), (1, 3))
    b = partial(ring, (1, 3), (1, 1))
    assert (a + b).is_zero()


def test_partial_rejects_bad_pairs():
    ring = Ring((2, 2), 0)
    with pytest.raises(InvalidPair):
        partial(ring, (1, 1), (2, 1))
    with pytest.raises(InvalidPair):
        partial(ring, (1, 1), (1, 1))


def test_partial_kills_symmetric_and_is_idempotent_source():
    # d(f) is symmetric in the pair, so d(d(f)) = 0
    rng = random.Random(42)
    ring = Ring((2, 1), 0)
    d = partial_simple(ring, 1, 1)
    for _ in range(30):
        f = rf(random_poly(ring, rng))
        assert d.apply(d.apply(f)).is_zero()


# ---------------------------------------------------------------------------
# nil-Coxeter relations as operator normal forms


def test_nilcoxeter_square_zero():
    ring = Ring((4, 1), 0)
    for p in (1, 2, 3):
        d = partial_simple(ring, 1, p)
        assert (d @ d).is_zero()


def test_nilcoxeter_braid():
    ring = Ring((4, 1), 0)
    for p in (1, 2):
        a = partial_simple(ring, 1, p)
        b = partial_simple(ring, 1, p + 1)
        assert (a @ b @ a - b @ a @ b).is_zero()


def test_nilcoxeter_commuting():
    ring = Ring((4, 1), 0)
    a = partial_simple(ring, 1, 1)
    b = partial_simple(ring, 1, 3)
    assert (a @ b - b @ a).is_zero()


def test_word_independence_and_nonreduced_vanishing():
    shape = (4, 1)
    ring = Ring(shape, 0)
    perms = [
        RowPermutation(shape, (t + (1, 2, 3, 4)[len(t):], (1,)))
        for t in itertools.permutations((1, 2, 3, 4))
    ]
    rng = random.Random(43)
    for perm in perms:
        words = all_reduced_words(shape, perm, limit=3)
        ops = [partial_word(ring, w) for w in words]
        for other in ops[1:]:
            assert (ops[0] - other).is_zero()
        assert (partial_for_perm(ring, perm) - ops[0]).is_zero()
        # padding with a repeated letter makes the word non-reduced -> 0
        if perm.length() >= 1:
            w = words[0]
            assert partial_word(ring, w + (w[-1],)).is_zero()


def test_apply_word_matches_operator():
    shape = (3, 1)
    ring = Ring(shape, 0)
    rng = random.Random(44)
    for _ in range(30):
        word = tuple((1, rng.randint(1, 2)) for _ in range(rng.randint(0, 4)))
        f = random_poly(ring, rng)
        via_op = partial_word(ring, word).apply(rf(f))
        direct = apply_word(ring, word, f)
        assert via_op.is_polynomial() and via_op.polynomial_part() == direct


def test_linear_independence_small():
    # the six operators indexed by S_3 are linearly independent: evaluate on
    # monomials of degree <= 3 and check the coefficient matrix has rank 6
    shape = (3, 1)
    ring = Ring(shape, 0)
    perms = [
        RowPermutation(shape, (t, (1,)))
        for t in itertools.permutations((1, 2, 3))
    ]
    monos = []
    cells = ring.row_cells(1)
    for total in range(4):
        for es in itertools.product(range(total + 1), repeat=3):
            if sum(es) == total:
                m = ring.one()
                for c, e in zip(cells, es):
                    for _ in range(e):
                        m = m * ring.x(*c)
                monos.append(m)
    rows = []
    colkeys: dict = {}
    for perm in perms:
        op = partial_for_perm(ring, perm)
        entries: dict = {}
        for t, m in enumerate(monos):
            img = op.apply(rf(m)).polynomial_part()
            for mono, coeff in img.terms.items():
                entries[(t, mono)] = QQ(coeff, img.den)
        for k in entries:
            colkeys.setdefault(k, len(colkeys))
        rows.append(entries)
    dense = [
        [row.get(k, QQ(0)) for k in colkeys] for row in rows
    ]
    from ogzkit import _linalg

    assert _linalg.rank(dense) == 6


# ---------------------------------------------------------------------------
# Leibniz rule


def test_leibniz_parts_agree():
    rng = random.Random(45)
    ring = Ring((3, 1), 0)
    for _ in range(25):
        f = random_poly(ring, rng, max_degree=2)
        sym = AffineSymmetry.shift((3, 1), {(1, 1): rng.randint(-1, 1), (1, 2): rng.randint(-1, 1)})
        lhs, rhs = leibniz_parts(ring, (1, 1), (1, 2), f, sym)
        assert (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# divided difference of a quotient against (g - g^t)/(x_a - x_b)


def reference_partial_rf(ring, a, b, g):
    swap = {a: b, b: a}
    return (g - g.permute_cells(swap)) / rf(ring.x(*a) - ring.x(*b))


def test_partial_apply_rf_matches_reference():
    rng = random.Random(80613)
    ring = Ring((3, 1), 1)
    x = {c: ring.x(*c) for c in ring.cells()}
    z = ring.z(1)
    x1, x2, x3, y = x[(1, 1)], x[(1, 2)], x[(1, 3)], x[(2, 1)]
    dens = {
        "polynomial": ring.one(),
        "symmetric": (x1 + x2 + z) * (x1 * x2 - 1),
        "symmetric, adjacent row": (x1 - y) * (x2 - y),
        "asymmetric": (x1 - y) * (x2 + 2 * x3),
        "asymmetric, only x_b": x2 - y + 1,
        "shared symmetric factor": (x1 + x2) * (x1 - y) * (x1 - y),
        "symmetric square times asymmetric": (x1 - y) * (x1 - y) * (x2 - y),
        "with x_a - x_b": (x1 - x2) * (x1 - z),
        "with (x_a - x_b)^2": (x1 - x2) * (x1 - x2) * (x3 + QQ(1, 2)),
        "with x_a - x_b, rational": QQ(2, 3) * (x1 - x2) * (x1 + x2 - y),
    }
    for pair in (((1, 1), (1, 2)), ((1, 2), (1, 1)), ((1, 1), (1, 3))):
        for name, d in dens.items():
            for _ in range(6):
                num = random_poly(ring, rng, 3) * QQ(rng.randint(1, 5), rng.randint(1, 4))
                num = num + QQ(rng.randint(-3, 3), 2) * z
                g = RationalFunction.normalize(num, d)
                got = partial_apply_rf(ring, *pair, g)
                want = reference_partial_rf(ring, *pair, g)
                assert got == want, (pair, name, str(g))
                assert str(got) == str(want)


def test_partial_apply_rf_of_a_symmetric_quotient_is_zero():
    ring = Ring((3, 1), 0)
    x1, x2, y = ring.x(1, 1), ring.x(1, 2), ring.x(2, 1)
    g = RationalFunction.normalize(x1 * x2 + y, (x1 - y) * (x2 - y))
    assert partial_apply_rf(ring, (1, 1), (1, 2), g).is_zero()


# ---------------------------------------------------------------------------
# nil-Hecke normal forms


def test_nilhecke_from_word_matches_skew():
    shape = (4, 1)
    ring = Ring(shape, 0)
    rng = random.Random(46)
    for _ in range(25):
        word = tuple((1, rng.randint(1, 3)) for _ in range(rng.randint(0, 5)))
        nh = nil_hecke_from_word(ring, word)
        assert (to_skew(nh) - partial_word(ring, word)).is_zero()


def test_nilhecke_mul_matches_composition():
    shape = (3, 1)
    ring = Ring(shape, 0)
    rng = random.Random(47)
    for _ in range(25):
        wa = tuple((1, rng.randint(1, 2)) for _ in range(rng.randint(0, 3)))
        wb = tuple((1, rng.randint(1, 2)) for _ in range(rng.randint(0, 3)))
        a, b = nil_hecke_from_word(ring, wa), nil_hecke_from_word(ring, wb)
        assert (to_skew(a @ b) - to_skew(a) @ to_skew(b)).is_zero()


def test_nilhecke_mul_right_fun_peels_function():
    shape = (3, 1)
    ring = Ring(shape, 0)
    rng = random.Random(48)
    for _ in range(25):
        word = tuple((1, rng.randint(1, 2)) for _ in range(rng.randint(0, 4)))
        g = rf(random_poly(ring, rng, max_degree=2))
        nh = nil_hecke_from_word(ring, word)
        lhs = to_skew(nh.mul_right_fun(g))
        rhs = to_skew(nh) @ SkewOperator.multiplication(ring, g)
        assert (lhs - rhs).is_zero()


def test_nilhecke_coefficients_stay_polynomial():
    # the normal form of word * function has polynomial coefficients
    ring = Ring((3, 1), 0)
    g = rf(ring.x(1, 1) * ring.x(1, 2) + ring.x(1, 3))
    nh = nil_hecke_from_word(ring, [(1, 1), (1, 2), (1, 1)]).mul_right_fun(g)
    for y, c in nh.terms.items():
        assert c.is_polynomial()


def test_pair_expand_matches_partial():
    shape = (4, 1)
    ring = Ring(shape, 0)
    for p, q in [(1, 2), (1, 3), (2, 4), (1, 4)]:
        nh = NilHecke.pair_expand(ring, 1, p, q)
        assert (to_skew(nh) - partial(ring, (1, p), (1, q))).is_zero()
        for y, c in nh.terms.items():
            assert c.is_polynomial()


def test_nilhecke_conjugated():
    shape = (3, 1)
    ring = Ring(shape, 0)
    rng = random.Random(49)
    taus = [
        RowPermutation(shape, (t, (1,)))
        for t in itertools.permutations((1, 2, 3))
    ]
    for _ in range(20):
        word = tuple((1, rng.randint(1, 2)) for _ in range(rng.randint(0, 3)))
        nh = nil_hecke_from_word(ring, word)
        tau = taus[rng.randrange(6)]
        t_op = SkewOperator.of_symmetry(ring, AffineSymmetry.from_perm(tau))
        t_inv = SkewOperator.of_symmetry(
            ring, AffineSymmetry.from_perm(inverse(tau))
        )
        assert (to_skew(nh.conjugated(tau)) - t_op @ to_skew(nh) @ t_inv).is_zero()


def test_chain_word_golden():
    assert chain_word(1, 1, 3) == ((1, 2), (1, 1))
    assert chain_word(1, 2, 2) == ()
    assert chain_word(2, 1, 2) == ((2, 1),)
    assert chain_word(1, 3, 1) == ((1, 1), (1, 2))


# ---------------------------------------------------------------------------
# ladder operators in divided-difference form


@pytest.mark.parametrize("up", [True, False])
def test_ddiff_form_agrees_on_invariants(up):
    ring = Ring((2, 1), 0)
    g = Generators.for_shape((2, 1))
    classical = g.raising(1) if up else g.lowering(1)
    for mu in [(2,), (1, 1)]:
        form = generators_ddiff_form(ring, 1, mu, up)
        assert agree_on_invariants(classical, form, 4)


def compositions(n: int):
    """Every composition of n, as its blocks [(start, end), ...]."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        blocks, start = [], 1
        for p, cut in enumerate(cuts + (True,), start=1):
            if cut:
                blocks.append((start, p))
                start = p + 1
        yield blocks


REVERSED_CASES = [
    (shape, i, blocks, up)
    for shape in [(2, 1), (3, 1), (3, 2), (4, 1), (1, 2, 1), (2, 2, 1)]
    for i in range(1, len(shape))
    for blocks in compositions(shape[i - 1])
    for up in (True, False)
]


@pytest.mark.parametrize(
    "shape, i, blocks, up", REVERSED_CASES,
    ids=[
        f"{','.join(map(str, s))}-row{i}-{'+'.join(str(e - b + 1) for b, e in bl)}-{'up' if up else 'down'}"
        for s, i, bl, up in REVERSED_CASES
    ],
)
def test_block_terms_run_from_the_last_cell_agree_on_invariants(shape, i, blocks, up):
    # each block term shifted at its last cell, with the reversed chain and
    # the sign (-1)^(m-1) of an m-cell block, sums to the classical ladder on
    # invariants
    ring = Ring(shape, 0)
    g = Generators.for_shape(shape)
    total = SkewOperator.zero(ring)
    for start, end in blocks:
        shift = SkewOperator.of_symmetry(
            ring, AffineSymmetry.shift(shape, {(i, end): 1 if up else -1})
        )
        coeff = ladder_coefficient(ring, i, end, start, up)
        total = total + partial_word(ring, chain_word(i, end, start)) @ (coeff * shift)
    assert agree_on_invariants(g.raising(i) if up else g.lowering(i), total, 3)


def test_ddiff_form_trivial_composition_is_identical():
    # with singleton blocks the two constructions give the same normal form
    ring = Ring((2, 1), 0)
    g = Generators.for_shape((2, 1))
    form = generators_ddiff_form(ring, 1, (1, 1), True)
    assert (form - g.raising(1)).is_zero()


def test_ddiff_form_rejects_bad_composition():
    ring = Ring((2, 1), 0)
    with pytest.raises(InvalidComposition):
        generators_ddiff_form(ring, 1, (3,), True)
    with pytest.raises(InvalidComposition):
        generators_ddiff_form(ring, 1, (1,), True)


def test_nil_hecke_and_skew_share_the_combination_algebra():
    # one container algebra for both kinds of key; equal only within a kind
    ring = Ring((3, 1), 0)
    d1, d2 = NilHecke.generator(ring, 1, 1), NilHecke.generator(ring, 1, 2)
    x = ring.x(1, 1)
    total = d1.mul_left_fun(x) + d2 - d1
    assert str(total) == "(1)*d[p[1,3,2;1]] + (x[1,1]-1)*d[p[2,1,3;1]]"
    assert repr(-d2) == "NilHecke((-1)*d[p[1,3,2;1]])"
    assert (total - total).is_zero() and total - total == NilHecke.zero(ring)
    assert hash(total + d1) == hash(d1.mul_left_fun(x) + d2)
    skew = partial_simple(ring, 1, 1)
    assert skew == to_skew(d1) and skew != d1
    assert repr(x * SkewOperator.identity(ring)) == "SkewOperator((x[1,1])*id)"
