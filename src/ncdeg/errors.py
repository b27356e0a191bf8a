"""Exception types shared across the package."""


class NcdegError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(NcdegError, ValueError):
    """Operands have incompatible shapes."""


class NotSquare(NcdegError, ValueError):
    """A square matrix was required."""


class Singular(NcdegError, ValueError):
    """A nonsingular matrix was required."""


class MissingSymbol(NcdegError, KeyError):
    """A substitution does not cover every symbol of the matrix."""


class NotSkewSymmetric(NcdegError, ValueError):
    """A skew-symmetric (zero-diagonal) matrix was required."""


class BadCardinality(NcdegError, ValueError):
    """A cardinality target is out of range for the instance."""


class EnumerationCapExceeded(NcdegError, RuntimeError):
    """A brute-force enumeration would exceed its configured cap."""


class AlgorithmStall(NcdegError, RuntimeError):
    """An iteration bound was exceeded; indicates an internal bug."""


class LPInfeasible(NcdegError, ValueError):
    """The linear program has no feasible point."""


class ParseError(NcdegError, ValueError):
    """An instance file or literal could not be parsed."""


class SizeBudgetExceeded(NcdegError, ValueError):
    """An instance is larger than the documented size budget."""
