"""Exact rational coefficient type.

``QQ`` is ``gmpy2.mpq`` when available (noticeably faster on gcd-heavy
workloads) and ``fractions.Fraction`` otherwise.  Both expose the same
surface used here: construction from ints/strings, arithmetic, comparison,
``.numerator``/``.denominator``, and ``str()`` rendering as ``p/q``.
"""

import os

if os.environ.get("OGZKIT_FRACTIONS"):
    from fractions import Fraction as QQ
else:
    try:
        from gmpy2 import mpq as QQ  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover - gmpy2 is an optional extra
        from fractions import Fraction as QQ  # type: ignore[assignment]

QQ0 = QQ(0)
QQ1 = QQ(1)
