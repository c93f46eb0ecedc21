"""Shift-permutation symmetries, skew operators, ladder generators."""

import itertools
import random

import pytest

from ogzkit import (
    QQ,
    AffineSymmetry,
    Generators,
    NotInvariantInput,
    Polynomial,
    RationalFunction,
    Ring,
    RowPermutation,
    SkewOperator,
    agree_on_invariants,
    apply_to_invariant,
    commutator,
    elementary_symmetric,
    generators_ddiff_form,
    invariant_family,
    is_row_symmetric,
    random_invariant,
)
from ogzkit.skewops import family_parents, ladder_coefficient
from reference import all_named, inverse


def rf(p):
    return RationalFunction.from_poly(p)


def random_sym(shape, rng: random.Random) -> AffineSymmetry:
    import itertools

    rows = []
    for m in shape:
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        rows.append(tuple(perm))
    perm = RowPermutation(shape, tuple(rows))
    shifts = {}
    for i, m in enumerate(shape[:-1], start=1):
        for p in range(1, m + 1):
            shifts[(i, p)] = rng.randint(-2, 2)
    return AffineSymmetry.make(perm, shifts)


def random_poly(ring: Ring, rng: random.Random, max_degree: int = 3):
    gens = [ring.x(*c) for c in ring.cells()]
    out = ring.zero()
    for _ in range(rng.randint(1, 4)):
        term = ring.const(QQ(rng.randint(-6, 6)))
        for _ in range(rng.randint(0, max_degree)):
            term = term * gens[rng.randrange(len(gens))]
        out = out + term
    return out


# ---------------------------------------------------------------------------
# the symmetry group


def test_symmetry_group_axioms():
    rng = random.Random(31)
    shape = (2, 2)
    e = AffineSymmetry.identity(shape)
    for _ in range(80):
        a, b, c = (random_sym(shape, rng) for _ in range(3))
        assert a.compose(inverse(a)) == e
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_act_poly_is_ring_homomorphism():
    rng = random.Random(32)
    ring = Ring((2, 2), 0)
    for _ in range(40):
        s = random_sym(ring.shape, rng)
        f = random_poly(ring, rng)
        g = random_poly(ring, rng)
        assert s.act_poly(f + g) == s.act_poly(f) + s.act_poly(g)
        assert s.act_poly(f * g) == s.act_poly(f) * s.act_poly(g)


def test_compose_matches_application_order():
    rng = random.Random(33)
    ring = Ring((2, 2), 0)
    for _ in range(40):
        a, b = random_sym(ring.shape, rng), random_sym(ring.shape, rng)
        f = random_poly(ring, rng)
        assert a.compose(b).act_poly(f) == a.act_poly(b.act_poly(f))


def test_shift_moves_variable():
    ring = Ring((1, 1), 0)
    s = AffineSymmetry.shift((1, 1), {(1, 1): 1})
    assert str(s.act_poly(ring.x(1, 1))) == "x[1,1]+1"
    assert s.render() == "phi[1,1]"


# ---------------------------------------------------------------------------
# skew operators: composition == composed application


def random_op(ring: Ring, rng: random.Random) -> SkewOperator:
    op = SkewOperator.zero(ring)
    for _ in range(rng.randint(1, 3)):
        coeff = rf(random_poly(ring, rng, max_degree=2))
        term = SkewOperator.multiplication(ring, coeff) @ SkewOperator.of_symmetry(
            ring, random_sym(ring.shape, rng)
        )
        op = op + term
    return op


def test_composition_matches_application():
    rng = random.Random(34)
    ring = Ring((2, 1), 0)
    for _ in range(40):
        a = random_op(ring, rng)
        b = random_op(ring, rng)
        f = rf(random_poly(ring, rng))
        assert (a @ b).apply(f) == a.apply(b.apply(f))


def reference_product(a: SkewOperator, b: SkewOperator) -> dict:
    """(f*pi)(g*rho) = f*pi(g)*(pi rho), summed term by term with one
    reduced add per term; zero coefficients dropped."""
    out: dict = {}
    for pi, f in a.terms.items():
        for rho, g in b.terms.items():
            key = pi.compose(rho)
            term = f * pi.act(g)
            out[key] = out[key] + term if key in out else term
    return {key: c for key, c in out.items() if not c.is_zero()}


def random_terms_op(ring: Ring, rng: random.Random, nterms: int) -> SkewOperator:
    """An operator with ``nterms`` symmetry terms (fewer if two symmetries
    coincide), built directly, with quotient coefficients."""
    x, y = ring.x(1, 1), ring.x(ring.rows, 1)
    terms = {}
    for _ in range(nterms):
        num = random_poly(ring, rng, max_degree=2)
        den = x - y + QQ(rng.randint(1, 3), rng.randint(1, 2)) if rng.random() < 0.5 else 1
        terms[random_sym(ring.shape, rng)] = rf(num) / den
    return SkewOperator(ring, terms)


@pytest.mark.parametrize("shape", [(2, 2), (3, 1)])
def test_matmul_matches_termwise_product(shape):
    rng = random.Random(37)
    ring = Ring(shape, 0)
    for _ in range(12):
        a = random_terms_op(ring, rng, rng.choice((2, 3)))
        b = random_terms_op(ring, rng, rng.choice((2, 3)))
        got = a @ b
        assert got.terms == reference_product(a, b)
        assert str(got) == str(SkewOperator(ring, reference_product(a, b)))


def test_matmul_matches_termwise_product_on_generators():
    named = all_named(Generators.for_shape((3, 2)))
    for (ta, a), (tb, b) in itertools.product(named, repeat=2):
        assert (a @ b).terms == reference_product(a, b), (ta, tb)


def test_normal_form_collects_symmetries():
    ring = Ring((1, 1), 0)
    s = AffineSymmetry.shift((1, 1), {(1, 1): 1})
    op1 = SkewOperator.of_symmetry(ring, s)
    x = rf(ring.x(1, 1))
    # phi then multiply by x equals multiply by (x+1) then phi
    left = SkewOperator.multiplication(ring, x) @ op1
    right = op1 @ SkewOperator.multiplication(ring, rf(ring.x(1, 1) - ring.one()))
    assert left.apply(rf(ring.x(1, 1))) == right.apply(rf(ring.x(1, 1)))
    assert (left - right).is_zero()


# ---------------------------------------------------------------------------
# ladder generators: frozen hand values


def test_generators_minimal_shape():
    g = Generators.for_shape((1, 1))
    assert g.raising(1).render() == "(x[1,1]-x[2,1])*phi[1,1]"
    assert g.lowering(1).render() == "(1)*phi[1,1]^-1"
    c = commutator(g.raising(1), g.lowering(1))
    assert c.is_multiplication()
    assert str(c.multiplier_value()) == "1"


def test_generators_two_one_renders():
    g = Generators.for_shape((2, 1))
    assert g.raising(1).render() == (
        "((x[1,1]-x[2,1])/(x[1,1]-x[1,2]))*phi[1,1]"
        " + ((-x[1,2]+x[2,1])/(x[1,1]-x[1,2]))*phi[1,2]"
    )
    assert g.lowering(1).render() == (
        "((1)/(x[1,1]-x[1,2]))*phi[1,1]^-1"
        " + ((-1)/(x[1,1]-x[1,2]))*phi[1,2]^-1"
    )
    assert g.multiplier(1, 2).render() == "(x[1,1]*x[1,2])*id"
    assert g.multiplier(2, 1).render() == "(x[2,1])*id"


def test_generator_applications_golden():
    g = Generators.for_shape((2, 1))
    ring = g.ring
    e1 = ring.x(1, 1) + ring.x(1, 2)
    e2 = ring.x(1, 1) * ring.x(1, 2)
    E, F = g.raising(1), g.lowering(1)
    assert str(E.apply(rf(e1))) == "x[1,1]+x[1,2]+1"
    assert str(E.apply(rf(e2))) == "x[1,1]*x[1,2]+x[2,1]"
    # the raising image of the constant is the constant itself: the two
    # simple-pole terms cancel exactly
    assert str(E.apply(rf(ring.one()))) == "1"
    assert str(F.apply(rf(e1))) == "0"
    assert str(F.apply(rf(e2))) == "1"


def test_apply_to_invariant_returns_polynomial():
    rng = random.Random(35)
    for shape in [(2, 1), (2, 2), (1, 2, 3)]:
        g = Generators.for_shape(shape)
        ring = g.ring
        for i in range(1, len(shape)):
            for _ in range(8):
                f = random_invariant(ring, rng, 4)
                up = apply_to_invariant(g.raising(i), f)
                dn = apply_to_invariant(g.lowering(i), f)
                assert is_row_symmetric(up)
                assert is_row_symmetric(dn)


def test_apply_to_invariant_rejects_non_invariant():
    g = Generators.for_shape((2, 1))
    with pytest.raises(NotInvariantInput):
        apply_to_invariant(g.raising(1), g.ring.x(1, 1))


def test_invariant_family_prefix_property():
    # the degree-D family must be a prefix of the degree-(D+1) family:
    # the window rank cache depends on it
    for shape in [(2, 1), (2, 2)]:
        ring = Ring(shape, 0)
        fam3 = invariant_family(ring, 3)
        fam4 = invariant_family(ring, 4)
        assert fam4[: len(fam3)] == fam3
        assert all(is_row_symmetric(f) for f in fam4)
        assert len({str(f) for f in fam4}) == len(fam4)


def reference_family(ring, max_degree):
    """The family built from scratch, each member as its left-to-right
    product of factors: the definition the grown family must equal."""
    gens = [((i, d), d) for i in range(1, ring.rows + 1) for d in range(1, ring.shape[i - 1] + 1)]
    combos = []

    def rec(idx, remaining, current):
        combos.append(tuple(current))
        for t in range(idx, len(gens)):
            if gens[t][1] <= remaining:
                current.append(t)
                rec(t, remaining - gens[t][1], current)
                current.pop()

    rec(0, max_degree, [])
    combos.sort(key=lambda c: (sum(gens[t][1] for t in c), c))
    out = []
    for combo in combos:
        p = ring.one()
        for t in combo:
            p = p * elementary_symmetric(ring, *gens[t][0])
        out.append(p)
    return out


@pytest.mark.parametrize("shape", [(2, 1), (3, 1), (3, 2), (2, 2, 1), (1, 2, 3)])
def test_invariant_family_equals_the_reference(shape):
    ring = Ring(shape, 0)
    for degree in range(8):
        got = invariant_family(ring, degree)
        want = reference_family(ring, degree)
        assert [(f.terms, f.den) for f in got] == [(f.terms, f.den) for f in want]
    # each member after the unit is an earlier member times one factor
    parents = family_parents(ring, 7)
    assert parents[0] is None and len(parents) == len(got)
    for t, (p, (i, d)) in enumerate(parents[1:], start=1):
        assert p < t and got[t] == got[p] * elementary_symmetric(ring, i, d), t


def test_agree_on_invariants():
    g = Generators.for_shape((2, 1))
    assert agree_on_invariants(g.raising(1), g.raising(1), 3)
    assert not agree_on_invariants(g.raising(1), g.lowering(1), 3)


def test_multipliers_commute():
    g = Generators.for_shape((2, 2))
    a = g.multiplier(1, 1)
    b = g.multiplier(1, 2)
    assert commutator(a, b).is_zero()


def test_commutator_with_multiplier_nonzero():
    g = Generators.for_shape((2, 1))
    c = commutator(g.raising(1), g.multiplier(1, 1))
    assert not c.is_zero()


# ---------------------------------------------------------------------------
# apply over one common denominator against the term-by-term sum


def termwise_apply(op: SkewOperator, f) -> RationalFunction:
    """The reference image: sum_t c_t * sym_t(f), one reduced add per term."""
    out = RationalFunction.from_any(op.ring, 0)
    for sym, c in op.terms.items():
        out = out + c * sym.act(RationalFunction.from_any(op.ring, f))
    return out


def _compositions(n: int) -> list:
    return [
        mu
        for k in range(1, n + 1)
        for mu in itertools.product(range(1, n + 1), repeat=k)
        if sum(mu) == n
    ]


def _differential_operators(ring: Ring) -> list:
    g = Generators(ring)
    ops = [op for _, op in all_named(g)]
    for i in range(1, ring.rows):
        for mu in _compositions(ring.shape[i - 1]):
            for up in (True, False):
                ops.append(generators_ddiff_form(ring, i, mu, up))
    ops.append(commutator(g.raising(1), g.lowering(1)))
    ops.append(commutator(g.raising(1), g.multiplier(1, 1)))
    ops.append(g.shift_op((1, 1), -2))
    x = ring.x(1, 1)
    y = ring.x(ring.rows, 1)
    ops.append(
        SkewOperator(
            ring,
            {
                AffineSymmetry.shift(ring.shape, {(1, 1): 1}): (x * QQ(1, 2) + QQ(1, 3))
                / (x - y + QQ(1, 2)),
                AffineSymmetry.identity(ring.shape): RationalFunction.normalize(
                    ring.const(QQ(3, 4)), y * 3 - 2
                ),
            },
        )
    )
    return ops


def _differential_arguments(ring: Ring, degree: int) -> list:
    rng = random.Random(36)
    args = list(invariant_family(ring, degree))
    args.append(random_invariant(ring, rng, degree) * QQ(2, 7))
    args += [random_poly(ring, rng, max_degree=2) * QQ(1, 3) for _ in range(3)]
    args.append(ring.x(1, 1))
    x, y = ring.x(1, 1), ring.x(ring.rows, 1)
    args.append((x * x - QQ(1, 2)) / (x - y + 1))
    return args


@pytest.mark.parametrize("shape,degree", [((2, 1), 3), ((3, 2), 3), ((1, 2, 3), 3)])
def test_apply_matches_termwise_sum(shape, degree):
    ring = Ring(shape, 0)
    args = _differential_arguments(ring, degree)
    exact = fallback = 0
    for op in _differential_operators(ring):
        for f in args:
            want = termwise_apply(op, f)
            got = op.apply(f)
            assert got == want, (op, f)
            assert str(got) == str(want)
            if got.is_polynomial():
                exact += 1
            else:
                fallback += 1
    # both the exact-division path and the normalize fallback ran
    assert exact and fallback


@pytest.mark.parametrize(
    "key, phrase",
    [
        (("raising", 2), "ladder row 2 must satisfy"),
        (("lowering", 0), "ladder row 0 must satisfy"),
        (("multiplier", 3, 1), "row 3 outside shape"),
        (("multiplier", 2, 2), "multiplier degree 2 outside row 2"),
        (("shift", 1), "unknown generator key"),
    ],
)
def test_generator_keys_out_of_range_raise(key, phrase):
    with pytest.raises(ValueError, match=phrase):
        Generators.for_shape((2, 1)).op(key)


def test_generators_are_built_once_per_key():
    g = Generators.for_shape((2, 1))
    assert g.op(("raising", 1)) is g.raising(1)
    assert g.op(("lowering", 1)) is g.lowering(1)
    assert g.op(("multiplier", 1, 2)) is g.multiplier(1, 2)
    assert [tok for tok, _ in all_named(g)] == [
        "E1", "F1", "gamma[1,1]", "gamma[1,2]", "gamma[2,1]"
    ]


@pytest.mark.parametrize(
    "shape",
    [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (1, 2, 1), (1, 2, 3), (2, 2, 1), (3, 2, 1), (1, 2, 3, 1)],
)
def test_ladder_coefficient_needs_no_gcd(shape, monkeypatch):
    # the quotient of coprime products, built without a gcd, equals the one
    # that normalize reduces, for every row, block and direction
    ring = Ring(shape, 0)
    gcd, calls = Polynomial.gcd, []

    def counted(*args):
        calls.append(args)
        return gcd(*args)

    for i in range(1, len(shape)):
        for start, end in itertools.combinations_with_replacement(range(1, shape[i - 1] + 1), 2):
            head = ring.x(i, start)
            for up in (True, False):
                other = i + 1 if up else i - 1
                num = ring.one()
                for a in ring.row_cells(other) if other >= 1 else []:
                    num = num * (head - ring.x(*a))
                den = ring.one()
                for b in ring.row_cells(i):
                    if not start <= b[1] <= end:
                        den = den * (head - ring.x(*b))
                monkeypatch.setattr(Polynomial, "gcd", counted)
                got = ladder_coefficient(ring, i, start, end, up)
                monkeypatch.setattr(Polynomial, "gcd", gcd)
                want = RationalFunction.normalize(num, den)
                assert (got.num, got.den) == (want.num, want.den) and str(got) == str(want)
    assert calls == []
