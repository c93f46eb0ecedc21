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
from operator import sub

from ._kernel import p_deg_in, p_divmod, p_eval_int, p_lead, p_mul, p_mul_term, p_sub

_HEU_ATTEMPTS = 6


def _one(nvars):
    return {(0,) * nvars: 1}


def _is_one(a):
    if len(a) != 1:
        return False
    ((m, c),) = a.items()
    return c == 1 and not any(m)


def _vars_of(a, nvars):
    live = [False] * nvars
    for m in a:
        for i, e in enumerate(m):
            if e:
                live[i] = True
    return frozenset(i for i in range(nvars) if live[i])


def _divexact_scalar(a, c):
    return {m: v // c for m, v in a.items()}


def _mono_min(a):
    it = iter(a)
    mins = list(next(it))
    for m in it:
        for i, e in enumerate(m):
            if e < mins[i]:
                mins[i] = e
    return tuple(mins)


def _shift_down(a, mono):
    return {tuple(map(sub, m, mono)): c for m, c in a.items()}


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


def _coeff_wrt(a, v, e):
    """Coefficient polynomial of x_v^e (with slot v zeroed)."""
    return {m[:v] + (0,) + m[v + 1 :]: c for m, c in a.items() if m[v] == e}


def _content_wrt(a, v, nvars):
    """The gcd of the coefficient polynomials of ``a`` in x_v."""
    content = None
    for e in range(p_deg_in(a, v) + 1):
        ce = _coeff_wrt(a, v, e)
        if ce:
            content = ce if content is None else gcd_qq(content, ce, nvars)
            if _is_one(content):
                break
    return content


def _content_primitive_wrt(a, v, nvars):
    """Split ``a = content * primitive`` with respect to variable v."""
    if p_deg_in(a, v) <= 0:
        return dict(a), _one(nvars)
    content = _content_wrt(a, v, nvars)
    return content, dict(a) if _is_one(content) else _divexact(a, content)


def _pow(a, n, nvars):
    r = _one(nvars)
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


def _interp_wrt(g, v, x):
    """Reassemble base-x digits (symmetric residues) into variable v."""
    r = {}
    f = dict(g)
    e = 0
    half = x // 2
    while f:
        nf = {}
        for m, c in f.items():
            d = c % x
            if d > half:
                d -= x
            if d:
                r[m[:v] + (e,) + m[v + 1 :]] = d
            c2 = (c - d) // x
            if c2:
                nf[m] = c2
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
        ff = p_eval_int(a, v, x)
        gg = p_eval_int(b, v, x)
        if ff and gg:
            h = _interp_wrt(gcd_qq(ff, gg, nvars), v, x)
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
    df = p_deg_in(f, v)
    dg = p_deg_in(g, v)
    lc_g = _coeff_wrt(g, v, dg)
    n = df - dg + 1
    r = dict(f)
    while r:
        dr = p_deg_in(r, v)
        if dr < dg:
            break
        lc_r = _coeff_wrt(r, v, dr)
        shift = [0] * nvars
        shift[v] = dr - dg
        r = p_sub(p_mul(lc_g, r), p_mul(p_mul_term(lc_r, tuple(shift), 1), g))
        n -= 1
    if n > 0 and r:
        r = p_mul(r, _pow(lc_g, n, nvars))
    return r


def _prs_gcd(a, b, v, nvars):
    """Primitive pseudo-remainder sequence gcd (total fallback)."""
    ca, f = _content_primitive_wrt(a, v, nvars)
    cb, g = _content_primitive_wrt(b, v, nvars)
    c = gcd_qq(ca, cb, nvars)
    if p_deg_in(f, v) < p_deg_in(g, v):
        f, g = g, f
    while p_deg_in(g, v) > 0:
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
    coefficient; ``{(0,) * nvars: 1}`` when it is trivial.

    Given the numerators of two polynomials over Q, this is their gcd up to
    a rational unit, and this normalization of it is canonical."""
    if not a:
        return _pos(dict(b))
    if not b:
        return _pos(dict(a))
    # a nonzero constant side: the gcd is an integer, that constant's gcd
    # with the other side's content
    for x, y in ((a, b), (b, a)):
        if len(x) == 1:
            ((m, c),) = x.items()
            if not any(m):
                return {m: math.gcd(c, *y.values())}
    ma, mb = _mono_min(a), _mono_min(b)
    mg = tuple(min(x, y) for x, y in zip(ma, mb))
    if any(ma):
        a = _shift_down(a, ma)
    if any(mb):
        b = _shift_down(b, mb)
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    c = math.gcd(ca, cb)
    if ca > 1:
        a = _divexact_scalar(a, ca)
    if cb > 1:
        b = _divexact_scalar(b, cb)
    # align variable sets: a variable missing on one side reduces the other
    # side to its content with respect to that variable
    while True:
        va = _vars_of(a, nvars)
        vb = _vars_of(b, nvars)
        if va == vb:
            break
        for v in va - vb:
            a = _content_wrt(a, v, nvars)
        for v in vb - va:
            b = _content_wrt(b, v, nvars)
    if not va:
        g = _one(nvars)
    elif a == b:
        g = dict(a)
    else:
        v = min(va, key=lambda i: (min(p_deg_in(a, i), p_deg_in(b, i)), i))
        g = _heu_gcd(a, b, v, nvars)
        if g is None:
            g = _prs_gcd(a, b, v, nvars)
    return _pos(p_mul_term(g, mg, c))
