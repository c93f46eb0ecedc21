"""Exact multivariate polynomial gcd.

Works on the kernel's raw dict representation with integer coefficients,
the numerators of the library's polynomials: the gcd in Q[x] of two
polynomials is that of their numerators up to an integer, and
:func:`gcd_qq` returns the gcd in Z[x] of the numerators.

Strategy: a constant argument reduces to an integer gcd with the other
side's content.  Otherwise strip monomial and integer content, align
variable sets via content reduction, then try a heuristic gcd (evaluate at
a large integer, recurse, interpolate base-x digits, verify by exact
division) with a primitive pseudo-remainder-sequence fallback.  Verification by division
makes the heuristic sound; the fallback makes it total.
"""

import math

from ._kernel import mono_min, p_collect, p_deg_in, p_divmod, p_eval_int, p_lead, p_mul
from ._kernel import p_mul_term, p_sub, p_support, var

_HEU_ATTEMPTS = 6


def _is_one(a):
    return len(a) == 1 and a.get(0) == 1


def _divexact_scalar(a, c):
    return {m: v // c for m, v in a.items()}


def _pos(a):
    """Normalize sign so the graded-lex leading coefficient is positive."""
    if not a:
        return a
    _, c = p_lead(a)
    if c < 0:
        return {m: -v for m, v in a.items()}
    return a


def _divexact(a, b):
    """Exact quotient of integer dicts, or None when b does not divide a."""
    q, r = p_divmod(a, b)
    return None if r else q


def _content_wrt(a, v, nvars):
    """The gcd of the coefficient polynomials of ``a`` in x_v."""
    content = None
    coeffs = p_collect(a, v, nvars)
    for e in sorted(coeffs):
        ce = coeffs[e]
        content = ce if content is None else gcd_qq(content, ce, nvars)
        if _is_one(content):
            break
    return content


def _content_primitive_wrt(a, v, nvars):
    """Split ``a = content * primitive`` with respect to variable v."""
    if p_deg_in(a, v, nvars) <= 0:
        return dict(a), {0: 1}
    content = _content_wrt(a, v, nvars)
    return content, dict(a) if _is_one(content) else _divexact(a, content)


def _pow(a, n):
    r = {0: 1}
    base = a
    while n:
        if n & 1:
            r = p_mul(r, base)
        n >>= 1
        if n:
            base = p_mul(base, base)
    return r


def _max_norm(a):
    return max(abs(c) for c in a.values())


def _interp_wrt(g, v, x, nvars):
    """Reassemble base-x digits (symmetric residues) into variable v."""
    r = {}
    f = dict(g)
    e = 0
    half = x // 2
    while f:
        nf = {}
        digits = {}
        for m, c in f.items():
            d = c % x
            if d > half:
                d -= x
            if d:
                digits[m] = d
            c2 = (c - d) // x
            if c2:
                nf[m] = c2
        r.update(p_mul_term(digits, var(v, nvars, e), 1))
        f = nf
        e += 1
    return r


def _heu_gcd(a, b, v, nvars):
    """Heuristic gcd in the main variable v; None when all attempts fail."""
    na, nb = _max_norm(a), _max_norm(b)
    _, lca = p_lead(a)
    _, lcb = p_lead(b)
    bound = 2 * min(na, nb) + 29
    x = max(min(bound, 99 * math.isqrt(bound)), 2 * min(na // abs(lca), nb // abs(lcb)) + 4)
    for _ in range(_HEU_ATTEMPTS):
        ff = p_eval_int(a, v, nvars, x)
        gg = p_eval_int(b, v, nvars, x)
        if ff and gg:
            h = _interp_wrt(gcd_qq(ff, gg, nvars), v, x, nvars)
            if h:
                ch = math.gcd(*h.values())
                if ch > 1:
                    h = _divexact_scalar(h, ch)
                if _divexact(a, h) is not None and _divexact(b, h) is not None:
                    return h
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011 + 1
    return None


def _prem(f, g, v, nvars):
    """Pseudo-remainder of f by g in variable v (both with positive v-degree,
    deg_v f >= deg_v g)."""
    df = p_deg_in(f, v, nvars)
    dg = p_deg_in(g, v, nvars)
    lc_g = p_collect(g, v, nvars)[dg]
    n = df - dg + 1
    r = dict(f)
    while r:
        dr = p_deg_in(r, v, nvars)
        if dr < dg:
            break
        lc_r = p_collect(r, v, nvars)[dr]
        r = p_sub(p_mul(lc_g, r), p_mul(p_mul_term(lc_r, var(v, nvars, dr - dg), 1), g))
        n -= 1
    if n > 0 and r:
        r = p_mul(r, _pow(lc_g, n))
    return r


def _prs_gcd(a, b, v, nvars):
    """Primitive pseudo-remainder sequence gcd (total fallback)."""
    ca, f = _content_primitive_wrt(a, v, nvars)
    cb, g = _content_primitive_wrt(b, v, nvars)
    c = gcd_qq(ca, cb, nvars)
    if p_deg_in(f, v, nvars) < p_deg_in(g, v, nvars):
        f, g = g, f
    while p_deg_in(g, v, nvars) > 0:
        r = _prem(f, g, v, nvars)
        if not r:
            _, g = _content_primitive_wrt(g, v, nvars)
            return _pos(p_mul(c, g))
        _, r = _content_primitive_wrt(r, v, nvars)
        f, g = g, r
    # sequence dropped to a v-free member: the v-primitive gcd is trivial
    return _pos(c)


def gcd_qq(a, b, nvars):
    """Gcd in Z[x] of integer dicts, with a positive graded-lex leading
    coefficient; ``{0: 1}`` when it is trivial.

    Given the numerators of two polynomials over Q, this is their gcd up to
    a rational unit, and this normalization of it is canonical."""
    if not a:
        return _pos(dict(b))
    if not b:
        return _pos(dict(a))
    # a nonzero constant side: the gcd is an integer, that constant's gcd
    # with the other side's content
    for x, y in ((a, b), (b, a)):
        if len(x) == 1 and 0 in x:
            return {0: math.gcd(x[0], *y.values())}
    ma, mb = mono_min(a, nvars), mono_min(b, nvars)
    mg = mono_min((ma, mb), nvars)
    if ma:
        a = {m - ma: c for m, c in a.items()}
    if mb:
        b = {m - mb: c for m, c in b.items()}
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    c = math.gcd(ca, cb)
    if ca > 1:
        a = _divexact_scalar(a, ca)
    if cb > 1:
        b = _divexact_scalar(b, cb)
    # align variable sets: a variable missing on one side reduces the other
    # side to its content with respect to that variable
    while True:
        va = p_support(a, nvars)
        vb = p_support(b, nvars)
        if va == vb:
            break
        for v in va - vb:
            a = _content_wrt(a, v, nvars)
        for v in vb - va:
            b = _content_wrt(b, v, nvars)
    if not va:
        g = {0: 1}
    elif a == b:
        g = dict(a)
    else:
        v = min(va, key=lambda i: (min(p_deg_in(a, i, nvars), p_deg_in(b, i, nvars)), i))
        g = _heu_gcd(a, b, v, nvars)
        if g is None:
            g = _prs_gcd(a, b, v, nvars)
    return _pos(p_mul_term(g, mg, c))
