"""Exact rational coefficient type: ``QQ`` is ``fractions.Fraction``."""

from fractions import Fraction as QQ
