"""Exception hierarchy shared by all cfslab modules."""


class CfsError(Exception):
    """Base class for all cfslab errors."""


class ValidationError(CfsError):
    """An invariant of a domain object is violated."""


class DimensionMismatchError(ValidationError):
    """Operands live on Hilbert spaces of different dimension."""


class EmptySystemError(ValidationError):
    """An operation produced or received a system with no points."""


class NotSpinConnectableError(CfsError):
    """A pair of points does not admit a spin connection."""


class SpliceError(CfsError):
    """No unitary intertwiner between two Clifford subspaces was found."""


class LeftManifoldError(CfsError):
    """A retraction step changed the signature of the base point.

    Carries the offending eigenvalues in ``args[1]`` when available.
    """
