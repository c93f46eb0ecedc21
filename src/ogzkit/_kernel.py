"""The polynomial kernel, in pure Python.

A polynomial in n variables is a dict mapping monomials to nonzero
coefficients; the library passes the integer numerators of a
:class:`~ogzkit.exactalg.Polynomial`.  Every helper but :func:`p_divmod`
works on any exact ring of coefficients.

A monomial is one int, and only this module knows its layout (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007): fields of ``FIELD_BITS + 1`` bits, the total
degree highest, then slots 0 to n - 1.  So a monomial product is one ``+``,
an exact quotient one ``-``, the monomial 1 is ``0``, int order is
graded-lex order, and the degree is the highest nonzero field.  The top bit
of a field is a guard, 0 in every monomial: ``b`` divides ``m`` when no
field of ``(m | G) - b`` clears its guard bit G.  A degree past
``MAX_DEGREE`` raises :class:`~ogzkit.errors.DegreeOverflow` (a
``ValueError``) and never wraps.  Exponent tuples appear only in
:func:`pack` and :func:`unpack`.
"""

from functools import lru_cache, reduce
from heapq import heappop, heappush
from math import comb
from operator import or_

from .errors import DegreeOverflow

KERNEL_NAME = "pure"

FIELD_BITS = 16
MAX_DEGREE = (1 << FIELD_BITS) - 1
_W = FIELD_BITS + 1  # a field: the exponent and the guard bit above it


@lru_cache(maxsize=None)
def _guards(k):
    """The guard bits of the k lowest fields."""
    return sum(1 << (_W * i + FIELD_BITS) for i in range(k))


def _guard(m):
    """The guard bits of every field up to the highest of ``m``."""
    return _guards((m.bit_length() + FIELD_BITS) // _W)


def check_degree(d):
    """Refuse a total degree past ``MAX_DEGREE``."""
    if d > MAX_DEGREE:
        raise DegreeOverflow(f"a monomial of degree {d} overflows the {FIELD_BITS}-bit exponent field")


def pack(exponents, n):
    """The monomial of n exponents; ``ValueError`` for another length, an
    exponent that is not an int >= 0, or a degree above ``MAX_DEGREE``."""
    exponents = tuple(exponents)
    if len(exponents) != n or not all(isinstance(e, int) and e >= 0 for e in exponents):
        raise ValueError(f"{exponents!r} is not a monomial of {n} integer exponents >= 0")
    m = sum(exponents)
    check_degree(m)
    for e in exponents:
        m = m << _W | e
    return m


def unpack(m, n):
    """The exponent tuple of the monomial ``m`` in n variables."""
    return tuple(m >> (_W * (n - 1 - s)) & MAX_DEGREE for s in range(n))


def var(s, n, e=1):
    """The monomial x_s^e in n variables."""
    check_degree(e)
    return e * (1 << (_W * n) | 1 << (_W * (n - 1 - s)))


def exponent(m, s, n):
    """The exponent of x_s in ``m``."""
    return m >> (_W * (n - 1 - s)) & MAX_DEGREE


def degree(m):
    """The total degree of ``m``: its highest nonzero field."""
    return m >> (_W * ((m.bit_length() - 1) // _W)) if m else 0


def divides(b, m):
    """Whether the monomial ``b`` divides ``m``."""
    g = _guard(m if m > b else b)
    return (m | g) - b & g == g


def _fields(m, n):
    """(shift, exponent) of each nonzero exponent of ``m``, highest first."""
    m &= (1 << (_W * n)) - 1  # without the degree
    out = []
    while m:
        sh = (m.bit_length() - 1) // _W * _W
        out.append((sh, m >> sh))
        m &= (1 << sh) - 1
    return out


def mono_min(monos, n):
    """The gcd of nonempty monomials, their exponent-wise minimum."""
    return 0 if 0 in monos else pack(map(min, zip(*(unpack(m, n) for m in monos))), n)


def p_support(a, n):
    """The slots of the variables that occur in ``a``."""
    acc = reduce(or_, a, 0)
    return frozenset(s for s in range(n) if exponent(acc, s, n))


def p_collect(a, s, n):
    """``a`` as a polynomial in x_s: {e: the coefficient of x_s^e}, each
    coefficient free of x_s."""
    sh, unit = _W * (n - 1 - s), var(s, n)
    out = {}
    for m, c in a.items():
        e = m >> sh & MAX_DEGREE
        part = out.get(e)
        if part is None:
            part = out[e] = {}
        part[m - e * unit if e else m] = c
    return out


def p_derivative(a, op, n):
    """sum_beta c_beta d^beta a / beta!, for ``op`` pairs (beta, c_beta) of
    a monomial and a coefficient (see :meth:`Polynomial.derivative`)."""
    op = [(beta, _fields(beta, n), c) for beta, c in op]
    g = _guards(n + 1)  # every field of the ring's monomials
    acc = {}
    get = acc.get
    for m, c in a.items():
        mg = m | g
        for beta, fields, cb in op:
            if mg - beta & g == g:
                for sh, e in fields:
                    cb *= comb(m >> sh & MAX_DEGREE, e)
                key = m - beta
                acc[key] = get(key, 0) + c * cb
    return {m: c for m, c in acc.items() if c}


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


def p_mul(a, b, into=None):
    """The product a*b; or, given a dict ``into``, a*b added to it in place
    and ``into`` returned, with the zeros that cancellations leave."""
    if not a or not b:
        return {} if into is None else into
    if len(a) > len(b):
        a, b = b, a
    check_degree(degree(max(a) + max(b)))
    r = {} if into is None else into
    get = r.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            r[m] = get(m, 0) + ca * cb
    if into is not None:
        return r
    return {m: c for m, c in r.items() if c}


def p_mul_term(a, mono, coeff):
    """Multiply by a single term ``coeff * x^mono``."""
    if not a or not coeff:
        return {}
    check_degree(degree(max(a) + mono))
    return {m + mono: c * coeff for m, c in a.items()}


def p_mul_scalar(a, coeff):
    if not coeff:
        return {}
    return {m: c * coeff for m, c in a.items()}


def p_lead(a):
    """Leading (mono, coeff) in graded-lex order.  ``a`` must be nonzero."""
    m = max(a)
    return m, a[m]


def p_total_degree(a):
    """Total degree; -1 for the zero polynomial."""
    if not a:
        return -1
    return degree(max(a))


def p_deg_in(a, s, n):
    """Degree in variable ``s``; -1 for the zero polynomial."""
    if not a:
        return -1
    sh = _W * (n - 1 - s)
    return max(m >> sh & MAX_DEGREE for m in a)


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
    order = sorted(f, reverse=True)
    # every monomial of the run is at most the dividend's leading one
    g = _guard(max(order[0], mb) if order else mb)
    i, n = 0, len(order)
    heap = []
    q = {}
    r = {}
    while True:
        if heap and (i == n or -heap[0] > order[i]):
            mf = -heappop(heap)
        elif i < n:
            mf = order[i]
            i += 1
        else:
            return q, r
        cf = f.pop(mf)
        if not cf:
            continue
        qc, rc = divmod(cf, cb)
        if rc or (mf | g) - mb & g != g:
            r[mf] = cf
            continue
        d = mf - mb
        q[d] = qc
        # every monomial made here is below mf, so none was popped before
        for m, c in tail:
            m += d
            s = f.get(m)
            if s is None:
                f[m] = -(c * qc)
                heappush(heap, -m)
            else:
                f[m] = s - c * qc


def p_eval_int(a, s, n, val):
    """Substitute the integer ``val`` for variable ``s``.

    Returns a dict free of x_s.  Used with int coefficients by the
    heuristic gcd.
    """
    r = {}
    get = r.get
    for e, part in p_collect(a, s, n).items():
        p = val**e
        for m, c in part.items():
            r[m] = get(m, 0) + c * p
    return {m: c for m, c in r.items() if c}
