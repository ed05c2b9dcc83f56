"""Exception types shared across the package."""


class FbhError(Exception):
    """Base class for all library-specific failures."""


class DimensionMismatch(FbhError):
    """Vector or matrix sizes do not match the domain parameters."""


class PoleProximity(FbhError):
    """Evaluation requested inside the guard band around the pole at t = 1."""


class NotFinite(FbhError):
    """An input or a result holds a NaN or infinite entry."""


class OutsideDomain(FbhError):
    """Point is not strictly inside the domain."""


class NotUnit(FbhError):
    """Direction vector is not unit length."""


class KernelZero(FbhError):
    """Kernel value too small to divide by."""


class NotHermitian(FbhError):
    """Matrix is not Hermitian within tolerance."""


class NotPositiveDefinite(FbhError):
    """Hermitian matrix has an eigenvalue at or below the floor."""


class NotUnitary(FbhError):
    """Matrix fails the unitarity check at construction."""


class DoesNotFixOrigin(FbhError):
    """Automorphism has a nonzero translation part where none is allowed."""
