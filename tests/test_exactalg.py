"""Exact polynomial / rational-function arithmetic."""

import fractions
import inspect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogzkit import (
    KERNEL_NAME,
    QQ,
    DivisionByZero,
    Polynomial,
    RationalFunction,
    Ring,
    SingularSubstitution,
    elementary_symmetric,
    is_row_symmetric,
)
from ogzkit import _gcd, _kernel
from ogzkit.exactalg import PointMap


def random_poly2(ring: Ring, rng: random.Random, max_degree: int = 4) -> Polynomial:
    gens = [ring.x(*c) for c in ring.cells()] + [ring.z(t + 1) for t in range(ring.nparams)]
    out = ring.zero()
    for _ in range(rng.randint(1, 5)):
        term = ring.const(QQ(rng.randint(-9, 9), rng.randint(1, 5)))
        for _ in range(rng.randint(0, max_degree)):
            term = term * gens[rng.randrange(len(gens))]
        out = out + term
    return out


def test_ring_refuses_a_float_parameter_count():
    # 3.0 hashes and compares equal to 3, so it must not reach the ring cache
    assert Ring((2, 1), 3) is Ring((2, 1), 3)
    with pytest.raises(TypeError):
        Ring((2, 1), 3.0)


# ---------------------------------------------------------------------------
# ring axioms on seeded random samples


def test_ring_axioms_bulk():
    rng = random.Random(424241)
    ring = Ring((3, 2, 1), 2)
    zero, one = ring.zero(), ring.one()
    for _ in range(350):
        f = random_poly2(ring, rng)
        g = random_poly2(ring, rng)
        h = random_poly2(ring, rng)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + zero == f and f * one == f
        assert f - f == zero and f * zero == zero


def test_subtraction_and_negation():
    ring = Ring((2, 1), 1)
    x, y = ring.x(1, 1), ring.x(1, 2)
    assert -(x - y) == y - x
    assert (x + y) - y == x


# ---------------------------------------------------------------------------
# golden values (independently derivable by hand)


def test_normalize_cancels_common_factor():
    # (x^2 y - x y^2) / (x^2 - x y) = y after cancelling x (x - y)
    ring = Ring((2, 1), 0)
    x, y = ring.x(1, 1), ring.x(1, 2)
    rf = RationalFunction.normalize(x * x * y - x * y * y, x * x - x * y)
    assert rf.is_polynomial()
    assert str(rf) == "x[1,2]"


def test_substitute_golden():
    ring = Ring((2, 1), 2)
    p = ring.x(1, 1) * ring.x(1, 1)
    img = p.substitute({("x", 1, 1): ring.z(1) + ring.const(QQ(2))})
    assert str(img) == "z[1]^2+4*z[1]+4"


def test_render_goldens():
    ring = Ring((2, 1), 2)
    x11, x12 = ring.x(1, 1), ring.x(1, 2)
    assert str(x11 + x12 * x12) == "x[1,2]^2+x[1,1]"  # graded order, degree first
    assert str(ring.const(QQ(2)) * x11 - x12 + ring.one()) == "2*x[1,1]-x[1,2]+1"
    assert str(-(x11 * x11)) == "-x[1,1]^2"
    assert str(ring.const(QQ(3, 2))) == "3/2"
    assert str(ring.zero()) == "0"
    rf = RationalFunction.normalize(x11 + ring.one(), x12)
    assert str(rf) == "(x[1,1]+1)/(x[1,2])"


def test_elementary_symmetric_golden():
    ring = Ring((2, 1), 0)
    assert str(elementary_symmetric(ring, 1, 1)) == "x[1,1]+x[1,2]"
    assert str(elementary_symmetric(ring, 1, 2)) == "x[1,1]*x[1,2]"
    assert str(elementary_symmetric(ring, 2, 1)) == "x[2,1]"


def test_elementary_symmetric_matches_brute_force():
    import itertools

    ring = Ring((4, 1), 0)
    cells = ring.row_cells(1)
    for d in range(1, 5):
        brute = ring.zero()
        for combo in itertools.combinations(cells, d):
            term = ring.one()
            for c in combo:
                term = term * ring.x(*c)
            brute = brute + term
        assert elementary_symmetric(ring, 1, d) == brute


# ---------------------------------------------------------------------------
# substitution / evaluation / shifting agree with each other


def test_shift_cells_matches_substitute():
    rng = random.Random(7321)
    ring = Ring((2, 2), 1)
    for _ in range(30):
        f = random_poly2(ring, rng)
        shifts = {c: rng.randint(-3, 3) for c in ring.cells()}
        g = f.shift_cells(shifts)
        images = {("x",) + c: ring.x(*c) + ring.const(QQ(n)) for c, n in shifts.items()}
        h = f.substitute(images)
        assert h.is_polynomial() and h.polynomial_part() == g


def test_eval_cells_matches_substitute():
    rng = random.Random(5150)
    ring = Ring((2, 1), 2)
    for _ in range(30):
        f = random_poly2(ring, rng)
        images = {c: ring.z(1 + rng.randrange(2)) + ring.const(QQ(rng.randint(-2, 2))) for c in ring.cells()}
        g = f.eval_cells(images)
        h = f.substitute({("x",) + c: p for c, p in images.items()})
        assert h.is_polynomial() and h.polynomial_part() == g
        assert g.uses_only_params()


def test_point_map_refuses_exponents_past_the_field():
    # z[1], x[1,1], x[1,2], x[2,1]: x[2,1] is the last variable, the tail;
    # x[1,1] is mapped to an image of degree 2, x[1,2] and x[2,1] map to
    # themselves, so the inputs below fit and only their images overflow
    ring = Ring((2, 1), 1)
    image = ring.z(1) ** 2 + ring.const(1)
    pm = PointMap(ring, {(1, 1): image})
    top = 1 << _kernel.FIELD_BITS
    # a power of the mapped image, refused before a power is built
    with pytest.raises(ValueError, match="overflows"):
        pm(Polynomial(ring, {(0, top // 2, 0, 0): 1}))
    assert not pm._powers
    for m in [(0, 2, top - 4, 0), (0, 2, 0, top - 4)]:
        # a mapped times a fixed head image, a head image times a tail image
        with pytest.raises(ValueError, match="overflows"):
            pm(Polynomial(ring, {m: 1}))
    # the largest degrees that fit come back exactly, after the refusals
    for m in [(top - 1, 0, 0, 0), (0, 0, top // 2, top // 2 - 1), (0, 0, 1, top - 2)]:
        f = Polynomial(ring, {m: 3, (0, 0, 0, 1): -2})
        assert pm(f) == f
    for m, rest in [((0, 2, top - 5, 0), ring.x(1, 2) ** (top - 5)), ((0, 2, 0, top - 5), ring.x(2, 1) ** (top - 5))]:
        assert pm(Polynomial(ring, {m: 1})) == image**2 * rest
    assert pm(ring.x(1, 1) ** 2 * ring.x(2, 1)) == image**2 * ring.x(2, 1)
    # every map of the ring emits the ring's one int object per monomial
    other = PointMap(ring, {(1, 1): ring.z(1) - ring.const(1)})
    a, b = (f(ring.x(1, 1) * ring.x(2, 1) ** 2) for f in (pm, other))
    common = a.terms.keys() & b.terms.keys()
    assert common and all(next(m for m in a.terms if m == n) is n for n in common)


def test_constructor_refuses_malformed_monomials():
    # a short tuple once multiplied as if cut to its length, and a negative
    # exponent once cancelled a variable: x[1,1]^-1 * x[1,1] was one
    ring = Ring((2, 1), 1)
    bad = [(1,), (0, 1, 0), (0, 1, 0, 0, 0), (0, -1, 0, 0), (0, 1.0, 0, 0), (0, "1", 0, 0)]
    for m in bad + [(0, 1 << 16, 0, 0), (1, 40000, 30000, 0)]:
        with pytest.raises(ValueError):
            Polynomial(ring, {m: 1})
    with pytest.raises(ValueError, match="overflows"):
        Polynomial(ring, {(0, 0, 1 << 15, 1 << 15): 1})
    top = Polynomial(ring, {(0, 0, 1 << 15, (1 << 15) - 1): 1})
    assert top.total_degree() == _kernel.MAX_DEGREE


def test_operations_refuse_degrees_past_the_bound():
    # products, powers, a product with a term and the gcd's interpolation
    # raise instead of carrying into the next exponent field
    ring = Ring((2, 1), 1)
    n = ring.nvars
    top = ring.x(1, 1) ** _kernel.MAX_DEGREE
    assert top.total_degree() == _kernel.MAX_DEGREE
    (m,) = top.terms
    # 32 is 3 * 10 + 2 in base 10: its digit 3 lands on x[2,1]^1
    for make in (
        lambda: top * ring.x(2, 1),
        lambda: ring.x(1, 1) ** (_kernel.MAX_DEGREE + 1),
        lambda: RationalFunction.from_any(ring, top) ** 2,
        lambda: _kernel.p_mul_term(top.terms, _kernel.var(0, n), 1),
        lambda: _gcd._interp_wrt({m: 32}, 3, 10, n),
    ):
        with pytest.raises(ValueError, match="overflows"):
            make()


def test_point_map_builds_high_powers_without_recursion():
    # one exponent step per power: x[1,1]^2000 once raised RecursionError;
    # the lower power is a memo hit, the higher one two steps past the memo
    ring = Ring((2, 1), 1)
    pm = PointMap(ring, {(1, 1): ring.z(1) + ring.const(1)})
    for e in (2000, 1999, 2002):
        binomial = Polynomial(ring, {(k, 0, 0, 0): math.comb(e, k) for k in range(e + 1)})
        assert pm(Polynomial(ring, {(0, e, 0, 0): 1})) == binomial
    # an image of degree 2 refuses x[1,1]^32768 before it builds a power
    wide = PointMap(ring, {(1, 1): ring.z(1) ** 2 + ring.const(1)})
    assert wide(ring.x(1, 1) ** 3) == (ring.z(1) ** 2 + ring.const(1)) ** 3
    built = dict(wide._powers)
    with pytest.raises(ValueError, match="overflows"):
        wide(Polynomial(ring, {(0, 1 << (_kernel.FIELD_BITS - 1), 0, 0): 1}))
    assert wide._powers == built


def test_derivative_reads_the_taylor_coefficients():
    # sum_beta c_beta d^beta f / beta! against f(x + t) with t = (z[1], z[2])
    # on the cells (1,1), (1,2): the coefficient of t^beta is d^beta f / beta!
    rng = random.Random(6011)
    ring = Ring((2, 1), 2)
    gens = [ring.x(*c) for c in ring.cells()]
    sa, sb = ring.index[("x", 1, 1)], ring.index[("x", 1, 2)]

    def beta(i, j):
        m = [0] * ring.nvars
        m[sa], m[sb] = i, j
        return _kernel.pack(m, ring.nvars)

    def taylor(f, i, j):
        moved = f.substitute({("x", 1, 1): gens[0] + ring.z(1), ("x", 1, 2): gens[1] + ring.z(2)}).num
        exponents = {_kernel.unpack(m, ring.nvars): c for m, c in moved.terms.items()}
        terms = {(0, 0) + m[2:]: QQ(c, moved.den) for m, c in exponents.items() if m[:2] == (i, j)}
        return Polynomial(ring, terms)

    for _ in range(20):
        f = ring.const(QQ(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 6)):
            term = ring.const(rng.randint(-5, 5))
            for _ in range(rng.randint(0, 6)):
                term = term * gens[rng.randrange(len(gens))]
            f = f + term
        for i, j in [(0, 0), (1, 0), (0, 1), (2, 1), (1, 1), (0, 3)]:
            assert f.derivative([(beta(i, j), 1)]) == taylor(f, i, j)
        op = [(beta(1, 0), 1), (beta(0, 1), -1)]
        assert f.derivative(op) == taylor(f, 1, 0) - taylor(f, 0, 1)


def test_one_unit_polynomial_per_ring():
    ring = Ring((2, 1), 2)
    assert ring.one() is ring.one() and ring.one() == ring.const(1)
    assert RationalFunction.from_poly(ring.x(1, 1)).den is ring.one()
    # arithmetic on the shared unit builds new polynomials
    two = ring.one() + ring.one()
    assert str(two) == "2" and str(ring.one()) == "1"


def test_permute_cells_is_action():
    ring = Ring((3, 1), 0)
    rng = random.Random(11)
    cells = ring.row_cells(1)
    fwd = {cells[0]: cells[1], cells[1]: cells[2], cells[2]: cells[0]}
    inv = {v: k for k, v in fwd.items()}
    for _ in range(20):
        f = random_poly2(ring, rng)
        assert f.permute_cells(fwd).permute_cells(inv) == f


def test_singular_substitution_raises():
    ring = Ring((2, 1), 1)
    x11, x12 = ring.x(1, 1), ring.x(1, 2)
    rf = RationalFunction.normalize(ring.one(), x11 - x12)
    with pytest.raises(SingularSubstitution):
        rf.substitute({("x", 1, 1): ring.z(1), ("x", 1, 2): ring.z(1)})


def test_division_errors():
    ring = Ring((1, 1), 0)
    with pytest.raises(DivisionByZero):
        RationalFunction.normalize(ring.x(1, 1), ring.zero())
    with pytest.raises(ArithmeticError):
        (ring.x(1, 1) * ring.x(2, 1)).divide_exact(ring.x(1, 1) + ring.one())


def test_divide_exact_roundtrip():
    rng = random.Random(88)
    ring = Ring((2, 1), 1)
    for _ in range(25):
        f = random_poly2(ring, rng, max_degree=3)
        g = random_poly2(ring, rng, max_degree=3)
        if g.is_zero():
            continue
        assert (f * g).divide_exact(g) == f


def test_is_row_symmetric():
    ring = Ring((2, 1), 1)
    x11, x12 = ring.x(1, 1), ring.x(1, 2)
    assert is_row_symmetric(x11 + x12)
    assert is_row_symmetric(x11 * x12 + ring.z(1))
    assert not is_row_symmetric(x11)
    assert not is_row_symmetric(x11 - x12)
    assert is_row_symmetric(ring.zero())


# ---------------------------------------------------------------------------
# property tests


small_fraction = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


@st.composite
def poly_strategy(draw):
    ring = Ring((2, 1), 1)
    gens = [ring.x(1, 1), ring.x(1, 2), ring.x(2, 1), ring.z(1)]
    out = ring.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        term = ring.const(QQ(draw(small_fraction)))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            term = term * gens[draw(st.integers(min_value=0, max_value=3))]
        out = out + term
    return out


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_distributivity_property(f, g, h):
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_normalization_is_cancellation_invariant(f, h):
    ring = f.ring
    den = ring.x(1, 1) - ring.x(1, 2)
    if h.is_zero():
        h = ring.one()
    a = RationalFunction.normalize(f, den)
    b = RationalFunction.normalize(f * h, den * h)
    assert a == b


@settings(max_examples=60, deadline=None)
@given(poly_strategy())
def test_rational_roundtrip(f):
    ring = f.ring
    den = ring.x(2, 1) + ring.one()
    rf = RationalFunction.normalize(f, den)
    back = rf * RationalFunction.from_poly(den)
    assert back.is_polynomial() and back.polynomial_part() == f


@settings(max_examples=40, deadline=None)
@given(poly_strategy())
def test_total_degree_multiplicative(f):
    ring = f.ring
    g = ring.x(1, 1) * ring.x(2, 1) + ring.one()
    if f.is_zero():
        return
    assert (f * g).total_degree() == f.total_degree() + g.total_degree()


# ---------------------------------------------------------------------------
# gcd with a constant argument


NV = 3
qq_coeff = st.builds(
    QQ,
    st.integers(min_value=-60, max_value=60).filter(bool),
    st.integers(min_value=1, max_value=12),
)
qq_dict = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * NV), qq_coeff, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(qq_coeff, qq_dict)
def test_gcd_with_constant_is_integer_content_gcd(c, b):
    # the numerators of b over their least common denominator
    zero = _kernel.pack((0,) * NV, NV)
    den = math.lcm(*(v.denominator for v in b.values()))
    num = {_kernel.pack(m, NV): int(v * den) for m, v in b.items()}
    content = 0
    for v in num.values():
        content = math.gcd(content, v)
    want = {zero: QQ(math.gcd(c.numerator, content))}
    assert _gcd.gcd_qq({zero: c.numerator}, num, NV) == want
    assert _gcd.gcd_qq(num, {zero: c.numerator}, NV) == want
    ring = Ring((NV,), 0)
    assert ring.const(c).gcd(Polynomial(ring, b)).terms == want


# ---------------------------------------------------------------------------
# the rational-function sum against the product-gcd reference


def reference_sum(f, g):
    return RationalFunction.normalize(f.num * g.den + g.num * f.den, f.den * g.den)


def linear_factors(ring, rng, count):
    gens = [ring.x(*c) for c in ring.cells()] + [ring.z(t + 1) for t in range(ring.nparams)]
    out = []
    while len(out) < count:
        a, b = rng.sample(gens, 2)
        lin = a + QQ(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) * b + rng.randint(-2, 2)
        # pairwise non-proportional, so products of them are distinct
        if all(not RationalFunction.normalize(lin, f).is_constant() for f in out):
            out.append(lin)
    return out


def product(ring, factors):
    out = ring.one()
    for f in factors:
        out = out * f
    return out


def assert_sum_and_difference(f, g):
    for got, want in ((f + g, reference_sum(f, g)), (f - g, reference_sum(f, -g))):
        assert got == want
        assert str(got) == str(want)


def test_sum_matches_product_gcd_reference():
    rng = random.Random(140512)
    ring = Ring((2, 1), 1)
    pool = linear_factors(ring, rng, 6)
    for case in range(120):
        kind = case % 4
        if kind == 0:  # equal denominators
            d1 = d2 = product(ring, rng.choices(pool, k=rng.randint(1, 3)))
        elif kind == 1:  # one side a polynomial
            d1, d2 = ring.one(), product(ring, rng.choices(pool, k=rng.randint(1, 3)))
        elif kind == 2:  # coprime denominators
            left = rng.sample(range(len(pool)), 3)
            right = [t for t in range(len(pool)) if t not in left]
            d1 = product(ring, [pool[t] for t in rng.choices(left, k=rng.randint(1, 3))])
            d2 = product(ring, [pool[t] for t in rng.choices(right, k=rng.randint(1, 3))])
        else:  # shared linear factors, with multiplicities
            shared = rng.choices(pool, k=rng.randint(1, 2))
            d1 = product(ring, shared + rng.choices(pool, k=rng.randint(0, 2)))
            d2 = product(ring, shared + rng.choices(pool, k=rng.randint(0, 2)))
        f = RationalFunction.normalize(random_poly2(ring, rng, 3), d1)
        g = RationalFunction.normalize(random_poly2(ring, rng, 3), d2)
        if case % 2:
            f, g = g, f
        assert_sum_and_difference(f, g)
        assert (f + (-f)).is_zero() and (f - f) == RationalFunction.from_any(ring, 0)
        assert str(f - f) == "0"


def test_sum_with_cancellation_against_the_common_factor():
    # 1/(l1*l2) + 1/(l1*l3) with l2 + l3 = l1: the sum is 1/(l2*l3), so the
    # numerator shares a factor with gcd(d1, d2) itself
    ring = Ring((2, 1), 1)
    l1 = ring.x(1, 1) - ring.x(2, 1)
    l2 = ring.x(1, 2) + ring.z(1)
    l3 = l1 - l2
    f = RationalFunction.normalize(ring.one(), l1 * l2)
    g = RationalFunction.normalize(ring.one(), l1 * l3)
    assert f + g == RationalFunction.normalize(ring.one(), l2 * l3)
    assert_sum_and_difference(f, g)
    h = RationalFunction.normalize(QQ(3, 7) * l1 * l1, l2 * l2 * l3)
    k = RationalFunction.normalize(QQ(-5, 2) * l2, l1 * l3 * l3)
    assert_sum_and_difference(h, k)
    assert_sum_and_difference(h, RationalFunction.from_any(ring, QQ(1, 3)))


def test_powers_and_quotients_match_the_product_reference():
    # f**n and f/g take no gcd of their own: a power of a reduced quotient
    # is reduced, and so is its reciprocal once the unit is moved
    rng = random.Random(181026)
    ring = Ring((2, 1), 1)
    pool = linear_factors(ring, rng, 5)
    for _ in range(30):
        f, g = (
            RationalFunction.normalize(
                random_poly2(ring, rng, 3),
                rng.randint(2, 5) * product(ring, rng.choices(pool, k=rng.randint(0, 2))),
            )
            for _ in range(2)
        )
        if f.is_zero() or g.is_zero():
            continue
        for n in range(-3, 4):
            k = abs(n)
            num, den = (f.num ** k, f.den ** k) if n >= 0 else (f.den ** k, f.num ** k)
            want = RationalFunction.normalize(num, den)
            assert f ** n == want and str(f ** n) == str(want)
        want = RationalFunction.normalize(f.num * g.den, f.den * g.num)
        assert f / g == want and str(f / g) == str(want)
        assert f.num / g == RationalFunction.normalize(f.num * g.den, g.num)
    with pytest.raises(DivisionByZero):
        RationalFunction.from_any(ring, 0) ** -1


# ---------------------------------------------------------------------------
# the kernel surface that the benchmark's tracer and provenance rely on

KERNEL_OPS = (
    "p_add", "p_neg", "p_sub", "p_mul", "p_mul_term", "p_mul_scalar",
    "p_lead", "p_total_degree", "p_deg_in", "p_divmod", "p_eval_int",
)


def test_kernel_surface():
    # the tracer wraps these by name in the kernel module itself
    for name in KERNEL_OPS:
        fn = _kernel.__dict__.get(name)
        assert inspect.isfunction(fn) and fn.__module__ == _kernel.__name__, name
    # results record the kernel and the rational type, and are compared only
    # when both match
    assert KERNEL_NAME == _kernel.KERNEL_NAME == "pure"
    assert QQ is fractions.Fraction
