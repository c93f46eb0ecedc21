"""The polynomial kernel with exponent tuples for monomials, kept as the
reference that the packed-int kernel is compared with: the eleven ``p_*``
operations, ``grlex_key``, the exact gcd ``gcd_qq`` with its helpers, and
``scan_divmod``, the scan-based division that heap division replaced.  A
polynomial is a dict from exponent tuples of one length to nonzero
coefficients.  ``packed`` and ``tupled`` convert whole dicts through the
kernel's ``pack`` and ``unpack``."""

import math
from heapq import heappop, heappush
from operator import add, sub

from ogzkit import _kernel as K


def packed(a: dict, n: int) -> dict:
    return {K.pack(m, n): c for m, c in a.items()}


def tupled(a: dict, n: int) -> dict:
    return {K.unpack(m, n): c for m, c in a.items()}


def grlex_key(mono):
    """Sort key for graded lexicographic term order."""
    return (sum(mono), mono)


def p_add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    r = dict(a)
    for m, c in b.items():
        s = r.get(m)
        if s is None:
            r[m] = c
        else:
            s = s + c
            if s:
                r[m] = s
            else:
                del r[m]
    return r


def p_neg(a):
    return {m: -c for m, c in a.items()}


def p_sub(a, b):
    if not b:
        return dict(a)
    r = dict(a)
    for m, c in b.items():
        s = r.get(m)
        if s is None:
            r[m] = -c
        else:
            s = s - c
            if s:
                r[m] = s
            else:
                del r[m]
    return r


def p_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    r = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            c = r.get(m)
            if c is None:
                c = ca * cb
            else:
                c = c + ca * cb
            if c:
                r[m] = c
            elif m in r:
                del r[m]
    return r


def p_mul_term(a, mono, coeff):
    """Multiply by a single term ``coeff * x^mono``."""
    if not a or not coeff:
        return {}
    return {tuple(map(add, m, mono)): c * coeff for m, c in a.items()}


def p_mul_scalar(a, coeff):
    if not coeff:
        return {}
    return {m: c * coeff for m, c in a.items()}


def p_lead(a):
    """Leading (mono, coeff) in graded-lex order.  ``a`` must be nonzero."""
    best = None
    bk = None
    for m in a:
        k = (sum(m), m)
        if bk is None or k > bk:
            bk = k
            best = m
    return best, a[best]


def p_total_degree(a):
    """Total degree; -1 for the zero polynomial."""
    if not a:
        return -1
    return max(sum(m) for m in a)


def p_deg_in(a, i):
    """Degree in variable ``i``; -1 for the zero polynomial."""
    if not a:
        return -1
    return max(m[i] for m in a)


def p_divmod(a, b):
    """Division with remainder of integer dicts by a single divisor, by
    graded-lex leading terms.

    A leading term of the running dividend goes to the quotient when both
    its monomial and its coefficient are divisible by those of b's leading
    term, and to the remainder otherwise.  The remainder is empty exactly
    when b divides a in Z[x]; for a primitive b that is division in Q[x]
    (Gauss's lemma).

    Heap division (Monagan and Pearce, "Sparse polynomial division using a
    heap", J. Symb. Comp. 46 (2011)): the dividend is sorted once, a heap
    holds only the monomials that the subtractions create, and the running
    dividend is updated in place.  A step pops the larger of the two heads,
    skips it if it cancelled to 0, and a quotient term subtracts its
    multiple of b's other terms, so a step costs O(|b| log n) and neither
    scans nor copies the dividend.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    mb, cb = p_lead(b)
    tail = [(m, c) for m, c in b.items() if m != mb]
    f = dict(a)
    order = sorted(((sum(m), m) for m in f), reverse=True)
    i, n = 0, len(order)
    heap = []
    q = {}
    r = {}
    while True:
        if heap and (i == n or (-heap[0][0], heap[0][2]) > order[i]):
            mf = heappop(heap)[2]
        elif i < n:
            mf = order[i][1]
            i += 1
        else:
            return q, r
        cf = f.pop(mf)
        if not cf:
            continue
        d = tuple(map(sub, mf, mb))
        qc, rc = divmod(cf, cb)
        if rc or min(d, default=0) < 0:
            r[mf] = cf
            continue
        q[d] = qc
        # every monomial made here is below mf, so none was popped before
        for m, c in tail:
            m = tuple(map(add, m, d))
            s = f.get(m)
            if s is None:
                f[m] = -(c * qc)
                heappush(heap, (-sum(m), tuple(-x for x in m), m))
            else:
                f[m] = s - c * qc


def p_eval_int(a, i, val):
    """Substitute the integer ``val`` for variable ``i``.

    Returns a dict whose monomials have a zero in slot ``i``.  Used with int
    coefficients by the heuristic gcd.
    """
    if not a:
        return {}
    powers = {0: 1}
    r = {}
    for m, c in a.items():
        e = m[i]
        p = powers.get(e)
        if p is None:
            p = val**e
            powers[e] = p
        mm = m[:i] + (0,) + m[i + 1 :]
        s = r.get(mm)
        if s is None:
            s = c * p
        else:
            s = s + c * p
        if s:
            r[mm] = s
        elif mm in r:
            del r[mm]
    return r


def scan_divmod(a, b):
    """The scan-based ``p_divmod`` that heap division replaced: the leading
    term of the whole running dividend is found by ``p_lead`` at every step,
    and every quotient term copies the dividend through ``p_sub``."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    mb, cb = p_lead(b)
    q, r, f = {}, {}, dict(a)
    while f:
        mf, cf = p_lead(f)
        d = tuple(x - y for x, y in zip(mf, mb))
        qc, rc = divmod(cf, cb)
        if rc or min(d, default=0) < 0:
            r[mf] = cf
            del f[mf]
        else:
            q[d] = qc
            f = p_sub(f, p_mul_term(b, d, qc))
    return q, r


# -- the exact gcd over tuple monomials ---------------------------------------

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
