"""The polynomial kernel, in pure Python.

A polynomial lives in a fixed variable universe of size ``nvars`` and is a
dict mapping dense exponent tuples to nonzero coefficients.  The library
passes integer coefficients, the numerators of a polynomial over its one
denominator (see :class:`~ogzkit.exactalg.Polynomial`).  Every helper but
:func:`p_divmod` is coefficient-agnostic and works on any exact ring of
coefficients.
"""

from heapq import heappop, heappush
from operator import add, sub

KERNEL_NAME = "pure"


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


def p_addmul_packed(acc, a, b):
    """Add a*b into ``acc`` in place and return it, for monomials packed into
    one int each with every exponent in its own bit field, so that a
    monomial product is one integer addition.  The caller keeps the
    exponents inside their fields, and drops the zeros that cancellations
    leave."""
    get = acc.get
    for mb, cb in b.items():
        for ma, ca in a.items():
            m = ma + mb
            acc[m] = get(m, 0) + ca * cb
    return acc


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
