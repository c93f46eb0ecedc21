"""Exception types shared across the package.

Everything domain-level derives from :class:`OgzError` so callers (and the
CLI) can separate mathematical failures from programming errors.  Input
validation problems (malformed expressions, bad job specs) raise
``ValueError``/``NameError`` subclasses instead and map to a different CLI
exit code.
"""


class OgzError(Exception):
    """Base class for domain errors raised by the toolkit."""


class DivisionByZero(OgzError):
    """Denominator is the zero polynomial."""


class SingularSubstitution(OgzError):
    """A substitution sent some denominator to zero."""


class InvalidSubgroup(OgzError):
    """Row-block partition is malformed or too large to enumerate."""


class NotASubgroup(OgzError):
    """Claimed subgroup containment does not hold."""


class InvalidPair(OgzError):
    """Divided-difference pair is not two distinct cells in one shiftable row."""


class InvalidComposition(OgzError):
    """Parts are not a composition of the expected total."""


class NotInvariantInput(OgzError):
    """Operator input was required to be symmetric under the row groups."""


class InvalidSingularSetup(OgzError):
    """Evaluation point / radius fail the windowed-basis preconditions."""


class WindowRankError(OgzError):
    """Test family failed to certify full rank of the windowed basis."""


class WindowLeakage(OgzError):
    """A generator application escapes the lattice window."""


class HypothesisViolation(OgzError):
    """A genericity hypothesis failed (vanishing denominator at the point)."""


class RegularityError(OgzError):
    """Point is not regular where regularity is required."""


class InvalidMove(OgzError):
    """Lattice step is not a valid single move between stabilizer classes."""


class ParseError(ValueError):
    """Malformed expression or operator string."""


class JobSpecError(ValueError):
    """CLI job description failed validation."""


class DegreeOverflow(ValueError):
    """A monomial's total degree passed the kernel's exponent field."""
