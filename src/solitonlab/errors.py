"""Exception types shared across the package."""


class DomainError(ValueError):
    """An evaluation point lies outside the validity domain of an operation."""


class UnsupportedFamilyError(ValueError):
    """The requested operation is only defined for canonical metric families."""


class GridBoundaryError(DomainError):
    """A stencil would reach outside the grid."""
