"""Exact rational coefficient type: ``QQ`` is ``fractions.Fraction``."""

from fractions import Fraction as QQ

QQ0 = QQ(0)
QQ1 = QQ(1)
