"""Differential test of the polynomial layer against a reference kept here:
polynomials as dicts of ``fractions.Fraction`` coefficients keyed by
exponent tuples, driven through the coefficient-agnostic functions of the
tuple kernel in ``tuple_kernel`` (plus a field division loop of the test's
own).  Every operation is compared term by term and through its rendering,
on random rationals with non-trivial denominators.  The packed kernel
``_kernel`` is compared with the tuple kernel op by op through ``pack`` and
``unpack``, gcd included, on random inputs and on the products of a large
``apply``; its integer division ``p_divmod`` is compared with the
scan-based loop it replaced, ``tuple_kernel.scan_divmod``."""

import math
import random

import pytest
import tuple_kernel as T
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tuple_kernel import packed, tupled

from ogzkit import QQ, Polynomial, RationalFunction, Ring
from ogzkit import _kernel as K
from ogzkit import _gcd
from ogzkit.cli import main

RING = Ring((2, 1), 1)  # z[1], x[1,1], x[1,2], x[2,1]
NV = RING.nvars
ZERO = (0,) * NV
CELLS = RING.cells()

coeff = st.builds(
    QQ,
    st.integers(min_value=-30, max_value=30).filter(bool),
    st.integers(min_value=1, max_value=12),
)
ref_poly = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * NV), coeff, max_size=5
)
nonzero_poly = ref_poly.filter(bool)
shift = st.dictionaries(st.sampled_from(CELLS), st.integers(min_value=-3, max_value=3))


def as_qq(p: Polynomial) -> dict:
    """The coefficients of ``p`` as exact rationals, keyed by exponent tuple."""
    return {K.unpack(m, NV): QQ(c, p.den) for m, c in p.terms.items()}


def poly(d: dict) -> Polynomial:
    return Polynomial(RING, d)


def unit(slot: int) -> tuple:
    return tuple(int(s == slot) for s in range(NV))


def ref_pow(a: dict, n: int) -> dict:
    out = {ZERO: QQ(1)}
    for _ in range(n):
        out = T.p_mul(out, a)
    return out


def ref_divide(a: dict, b: dict) -> tuple:
    """Leading-term division over the field: (quotient, remainder)."""
    mb, cb = T.p_lead(b)
    q, r, f = {}, {}, dict(a)
    while f:
        mf, cf = T.p_lead(f)
        d = tuple(x - y for x, y in zip(mf, mb))
        if min(d) < 0:
            r[mf] = cf
            del f[mf]
        else:
            q[d] = cf / cb
            f = T.p_sub(f, T.p_mul_term(b, d, cf / cb))
    return q, r


def ref_exact(a: dict, b: dict) -> dict:
    q, r = ref_divide(a, b)
    assert not r
    return q


def ref_gcd(a: dict, b: dict) -> dict:
    """Integer gcd of the numerators over each side's least denominator."""
    def numerators(d):
        den = math.lcm(*(c.denominator for c in d.values()))
        return {m: int(c * den) for m, c in d.items()}

    return {m: QQ(c) for m, c in T.gcd_qq(numerators(a), numerators(b), NV).items()}


def ref_quotient(a: dict, b: dict) -> tuple:
    """a/b reduced, with the denominator's leading coefficient 1."""
    if not a:
        return {}, {ZERO: QQ(1)}
    g = ref_gcd(a, b)
    num, den = ref_exact(a, g), ref_exact(b, g)
    _, lc = T.p_lead(den)
    return T.p_mul_scalar(num, 1 / lc), T.p_mul_scalar(den, 1 / lc)


def ref_shift(a: dict, offsets: dict) -> dict:
    for cell, n in offsets.items():
        slot = RING.index[("x",) + cell]
        lin = T.p_add({unit(slot): QQ(1)}, {ZERO: QQ(n)} if n else {})
        out: dict = {}
        for m, c in a.items():
            base = {m[:slot] + (0,) + m[slot + 1 :]: c}
            out = T.p_add(out, T.p_mul(base, ref_pow(lin, m[slot])))
        a = out
    return a


def ref_permute(a: dict, mapping: dict) -> dict:
    slot = {RING.index[("x",) + s]: RING.index[("x",) + d] for s, d in mapping.items()}
    out = {}
    for m, c in a.items():
        mm = list(m)
        for s, d in slot.items():
            mm[d] = m[s]
        out[tuple(mm)] = c
    return out


def ref_eval(a: dict, images: dict) -> dict:
    """Substitute a parameter polynomial for every cell variable."""
    slot_image = {RING.index[("x",) + cell]: img for cell, img in images.items()}
    out: dict = {}
    for m, c in a.items():
        term = {m[:1] + (0,) * (NV - 1): c}
        for slot, e in enumerate(m):
            if slot in slot_image:
                term = T.p_mul(term, ref_pow(slot_image[slot], e))
        out = T.p_add(out, term)
    return out


def ref_render(a: dict) -> str:
    if not a:
        return "0"
    names = [f"z[{v[1]}]" if v[0] == "z" else f"x[{v[1]},{v[2]}]" for v in RING.vars]
    out = ""
    for m in sorted(a, key=T.grlex_key, reverse=True):
        c = a[m]
        factors = [str(abs(c))] if abs(c) != 1 or not any(m) else []
        factors += [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        sign = "-" if c < 0 else ("+" if out else "")
        out += sign + "*".join(factors)
    return out


def check(p: Polynomial, want: dict):
    assert as_qq(p) == want
    assert str(p) == ref_render(want)


@settings(max_examples=120, deadline=None)
@given(ref_poly, ref_poly, coeff)
def test_ring_operations_match_the_reference(a, b, c):
    pa, pb = poly(a), poly(b)
    check(pa, a)
    check(pa + pb, T.p_add(a, b))
    check(pa - pb, T.p_sub(a, b))
    check(-pa, T.p_neg(a))
    check(pa * pb, T.p_mul(a, b))
    check(pa * c, T.p_mul_scalar(a, c))
    check(c * pa + 3, T.p_add(T.p_mul_scalar(a, c), {ZERO: QQ(3)}))
    for n in range(4):
        check(pa ** n, ref_pow(a, n))
    assert (pa == pb) == (a == b)
    assert (pa == pb) <= (hash(pa) == hash(pb))


@settings(max_examples=80, deadline=None)
@given(ref_poly, nonzero_poly, nonzero_poly)
def test_gcd_and_exact_division_match_the_reference(a, b, g):
    pa, pb, pg = poly(a), poly(b), poly(g)
    check(pa.gcd(pb), ref_gcd(a, b))
    ag = T.p_mul(a, g)
    check(poly(ag).divide_exact(pg), ref_exact(ag, g))
    check(poly(ag).gcd(poly(T.p_mul(b, g))), ref_gcd(ag, T.p_mul(b, g)))


@settings(max_examples=80, deadline=None)
@given(ref_poly, nonzero_poly, ref_poly, nonzero_poly, st.integers(min_value=-3, max_value=3))
def test_quotients_match_the_reference(a, b, c, d, n):
    q = poly(a) / poly(b)
    num, den = ref_quotient(a, b)
    check(q.num, num)
    check(q.den, den)
    r = RationalFunction.normalize(poly(c), poly(d))
    for got, (wn, wd) in (
        (q + r, ref_quotient(T.p_add(T.p_mul(a, d), T.p_mul(c, b)), T.p_mul(b, d))),
        (q - r, ref_quotient(T.p_sub(T.p_mul(a, d), T.p_mul(c, b)), T.p_mul(b, d))),
        (q * r, ref_quotient(T.p_mul(a, c), T.p_mul(b, d))),
    ):
        check(got.num, wn)
        check(got.den, wd)
    if c:
        got = q / r
        wn, wd = ref_quotient(T.p_mul(a, d), T.p_mul(b, c))
        check(got.num, wn)
        check(got.den, wd)
    if a or n >= 0:
        k = abs(n)
        top, bottom = (a, b) if n >= 0 else (b, a)
        wn, wd = ref_quotient(ref_pow(top, k), ref_pow(bottom, k))
        check((q ** n).num, wn)
        check((q ** n).den, wd)


@settings(max_examples=80, deadline=None)
@given(ref_poly, shift, st.permutations(CELLS[:2]))
def test_substitutions_match_the_reference(a, offsets, row1):
    pa = poly(a)
    check(pa.shift_cells(offsets), ref_shift(a, offsets))
    mapping = dict(zip(CELLS[:2], row1))
    check(pa.permute_cells(mapping), ref_permute(a, mapping))


# x[1,1] and x[1,2] take one value, so the head sums at x[2,1]^2 and
# x[2,1]^3 (the last variable, the tail) cancel to 0, alone and beside
# terms that survive
CANCELLING = {
    (0, 1, 0, 2): QQ(1), (0, 0, 1, 2): QQ(-1), (0, 2, 0, 3): QQ(3, 2), (0, 1, 1, 3): QQ(-3, 2),
}
SURVIVORS = {(0, 1, 0, 0): QQ(1), (1, 0, 0, 1): QQ(7)}
EQUAL_PAIR = [(QQ(2), QQ(-1, 3)), (QQ(2), QQ(-1, 3)), (QQ(-3), QQ(5, 2))]


@settings(max_examples=60, deadline=None)
@given(ref_poly, st.lists(st.tuples(coeff, coeff), min_size=len(CELLS), max_size=len(CELLS)))
@example(CANCELLING, EQUAL_PAIR).via("everything cancels")
@example({**CANCELLING, **SURVIVORS}, EQUAL_PAIR).via("cancelling tails beside survivors")
def test_cell_evaluation_matches_the_reference(a, values):
    z = {unit(0): QQ(1)}
    images = {cell: T.p_add(T.p_mul_scalar(z, s), {ZERO: t}) for cell, (s, t) in zip(CELLS, values)}
    got = poly(a).eval_cells({cell: poly(img) for cell, img in images.items()})
    check(got, ref_eval(a, images))


def int_dict(rng: random.Random, nv: int, size: int, deg: int) -> dict:
    out = {}
    for _ in range(size):
        c = rng.randint(-9, 9)
        if c:
            out[tuple(rng.randint(0, deg) for _ in range(nv))] = c
    return out


def division_cases(nv: int, rng: random.Random):
    """(a, b, q) with a = q*b exactly when q is not None."""
    yield {}, int_dict(rng, nv, 3, 2) or {(0,) * nv: 5}, None  # zero dividend
    for _ in range(60):
        b = int_dict(rng, nv, rng.randint(1, 5), 2) or {(1,) * nv: 2}
        q = int_dict(rng, nv, rng.randint(1, 8), 3)
        exact = T.p_mul(q, b)
        yield exact, b, q
        mb, cb = T.p_lead(b)
        yield exact, {**b, mb: -cb}, None  # negative leading coefficient
        # terms whose coefficient b's leading coefficient does not divide
        scaled = T.p_mul_scalar(b, rng.choice((2, 3, -4, 7)))
        yield T.p_add(exact, int_dict(rng, nv, 4, 5)), scaled, None
        # terms whose monomial b's leading monomial does not divide
        yield int_dict(rng, nv, 12, 4), b, None
        yield T.p_add(exact, int_dict(rng, nv, 6, 1)), b, None
        mono = tuple(rng.randint(0, 2) for _ in range(nv))
        for c in (1, -1, 3, -6):
            yield exact, {mono: c}, None  # a single term
            yield exact, {(0,) * nv: c}, None  # a constant


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_divmod_matches_the_scan_reference(nv):
    rng = random.Random(1400 + nv)
    for a, b, q in division_cases(nv, rng):
        want = T.scan_divmod(a, b)
        got = tuple(tupled(d, nv) for d in K.p_divmod(packed(a, nv), packed(b, nv)))
        assert got == want
        # same insertion order too: renderings that walk the dicts agree
        assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
        if q is not None:
            assert got == (q, {})


def test_divmod_by_zero_raises():
    for a in ({}, {(1, 0): 3}):
        with pytest.raises(ZeroDivisionError):
            K.p_divmod(packed(a, 2), {})


# ---------------------------------------------------------------------------
# the packed kernel against the tuple kernel, through pack and unpack


def tuple_dict(rng: random.Random, nv: int, size: int, deg: int) -> dict:
    return int_dict(rng, nv, size, deg) or {(0,) * nv: rng.choice((1, -2))}


@pytest.mark.parametrize("nv", [1, 2, 3, 5])
def test_kernel_ops_match_the_tuple_kernel(nv):
    rng = random.Random(2200 + nv)
    for _ in range(150):
        a, b = (tuple_dict(rng, nv, rng.randint(1, 9), rng.randint(0, 4)) for _ in range(2))
        pa, pb = packed(a, nv), packed(b, nv)
        mono = tuple(rng.randint(0, 3) for _ in range(nv))
        c, s, val = rng.choice((-3, 1, 2)), rng.randrange(nv), rng.randint(-4, 4)
        assert tupled(K.p_add(pa, pb), nv) == T.p_add(a, b)
        assert tupled(K.p_sub(pa, pb), nv) == T.p_sub(a, b)
        assert tupled(K.p_neg(pa), nv) == T.p_neg(a)
        assert tupled(K.p_mul(pa, pb), nv) == T.p_mul(a, b)
        assert tupled(K.p_mul_term(pa, K.pack(mono, nv), c), nv) == T.p_mul_term(a, mono, c)
        assert tupled(K.p_mul_scalar(pa, c), nv) == T.p_mul_scalar(a, c)
        m, lc = K.p_lead(pa)
        assert (K.unpack(m, nv), lc) == T.p_lead(a)
        assert K.p_total_degree(pa) == T.p_total_degree(a)
        assert K.p_deg_in(pa, s, nv) == T.p_deg_in(a, s)
        assert tupled(K.p_eval_int(pa, s, nv, val), nv) == T.p_eval_int(a, s, val)
        q, r = K.p_divmod(pa, pb)
        assert (tupled(q, nv), tupled(r, nv)) == T.p_divmod(a, b)
        # c d^mono a / mono!: distinct monomials have distinct quotients
        want = {
            tuple(x - y for x, y in zip(m, mono)): c * v * math.prod(map(math.comb, m, mono))
            for m, v in a.items()
            if all(x >= y for x, y in zip(m, mono))
        }
        assert tupled(K.p_derivative(pa, [(K.pack(mono, nv), c)], nv), nv) == want
        # int order is graded-lex order
        assert [K.unpack(m, nv) for m in sorted(pa)] == sorted(a, key=T.grlex_key)
    assert K.p_total_degree({}) == T.p_total_degree({}) == -1
    assert K.p_deg_in({}, 0, nv) == T.p_deg_in({}, 0) == -1


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_gcd_matches_the_tuple_gcd(nv):
    # products with a common factor, so that the heuristic and the PRS
    # paths both find non-trivial gcds
    rng = random.Random(3300 + nv)
    for _ in range(40):
        a, b, g = (tuple_dict(rng, nv, rng.randint(1, 4), rng.randint(0, 3)) for _ in range(3))
        for x, y in ((a, b), (T.p_mul(a, g), T.p_mul(b, g)), (g, T.p_mul(a, g)), ({}, b)):
            got = _gcd.gcd_qq(packed(x, nv), packed(y, nv), nv)
            assert tupled(got, nv) == T.gcd_qq(x, y, nv)


def test_products_of_a_large_apply_match_the_tuple_kernel(monkeypatch, capsys):
    # every product that apply E1^4 on (3,2) makes, replayed term for term
    calls = []
    raw = K.p_mul

    def recorded(a, b):
        out = raw(a, b)
        calls.append((a, b, out))
        return out

    for module in (K, _gcd):
        monkeypatch.setattr(module, "p_mul", recorded)
    assert main(["apply", "--shape", "3,2", "--op", "E1^4", "--expr=x[1,1]"]) == 0
    assert capsys.readouterr().out.count("x[") > 100
    nv = Ring((3, 2), 0).nvars
    assert len(calls) > 200
    for a, b, out in calls:
        assert tupled(out, nv) == T.p_mul(tupled(a, nv), tupled(b, nv))
