"""Exception hierarchy shared by all treeucat modules."""


class TreeUcatError(Exception):
    """Base class for all errors raised by this package."""


# -- tree structure ----------------------------------------------------------

class InvalidTree(TreeUcatError):
    """A metric tree invariant is violated."""


class CycleDetected(InvalidTree):
    pass


class Disconnected(InvalidTree):
    pass


class NonPositiveLength(InvalidTree):
    pass


class DuplicateVertexId(InvalidTree):
    pass


class InvalidVertexId(InvalidTree):
    pass


class UnknownVertex(TreeUcatError):
    pass


class UnknownEdge(TreeUcatError):
    pass


# -- densities ---------------------------------------------------------------

class DensityError(TreeUcatError):
    pass


class NegativeValue(DensityError):
    pass


class TreeMismatch(DensityError):
    """A density or decomposition refers to a different tree than expected."""


class ZeroDensity(DensityError):
    """Operation undefined for the identically-zero density."""


# -- verification ------------------------------------------------------------

class EmptyModeSet(TreeUcatError):
    pass


class ExceedsKMax(TreeUcatError):
    """No mode multiset up to the requested size is feasible."""

    def __init__(self, k_max: int):
        super().__init__(f"no feasible mode multiset of size <= {k_max}")
        self.k_max = k_max


# -- documents / CLI ---------------------------------------------------------

class DocumentError(TreeUcatError):
    """Instance or decomposition document failed to parse or validate."""


class InternalInvariantError(TreeUcatError):
    """A should-never-happen condition fired; indicates a bug, not bad input."""
