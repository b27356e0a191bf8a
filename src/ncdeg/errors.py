"""Exception types shared across the package."""


class NcdegError(Exception):
    """Base class for all package errors."""


class ZeroInversion(NcdegError, ZeroDivisionError):
    """Inverse of the zero field element was requested."""


class DimensionMismatch(NcdegError, ValueError):
    """Operands have incompatible shapes."""


class NotSquare(NcdegError, ValueError):
    """A square matrix was required."""


class Singular(NcdegError, ValueError):
    """A nonsingular matrix was required."""


class MissingSymbol(NcdegError, KeyError):
    """A substitution does not cover every symbol of the matrix."""


class InfeasibleShift(NcdegError, ValueError):
    """Shift vectors do not keep every entry at degree <= 0."""


class NotBiproper(NcdegError, ValueError):
    """A biproper matrix was required (degree <= 0, invertible leading term)."""


class NotSorted(NcdegError, ValueError):
    """A vector was required to be sorted (non-increasing)."""


class NotComplementarySlack(NcdegError, ValueError):
    """Primal/dual pair fails a complementary slackness condition."""


class NotSkewSymmetric(NcdegError, ValueError):
    """A skew-symmetric (zero-diagonal) matrix was required."""


class PartitionMismatch(NcdegError, ValueError):
    """A value vector or zero block does not fit the witness it should shape."""


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
