"""Exception types shared across the package."""


class TsvsimError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(TsvsimError, ValueError):
    """Two objects live on incompatible spaces or have incompatible shapes."""


class InvalidNames(TsvsimError, ValueError):
    """A factor, label or mode list is empty, repeated, or misaligned."""


class InvalidBipartition(TsvsimError, ValueError):
    """A bipartition does not split the factor list into two disjoint covers."""


class OrthogonalSelection(TsvsimError):
    """Pre- and post-selection are (numerically) orthogonal.

    The weak value is undefined in this case and the caller must not
    interpret any value."""


class ZeroProbabilityBranch(TsvsimError):
    """A projection left (numerically) zero weight; the collapsed state is undefined."""


class IncompleteSet(TsvsimError, ValueError):
    """A projector family that should resolve the identity does not."""


class ShiftOutOfGrid(TsvsimError, ValueError):
    """A pointer translation would push the wavepacket past the grid edge, or
    is nonzero but too small a fraction of a bin for the grid to resolve."""
