"""Exception hierarchy shared by all thinwall modules."""


class ThinwallError(Exception):
    """Base class for all library errors."""


# -- geometry / meshing -------------------------------------------------------
# the geometry errors are bad input values, so ValueErrors too

class NonIntegerPeriod(ThinwallError, ValueError):
    """2L/delta is not a positive integer."""


class HoleCollision(ThinwallError, ValueError):
    """A scaled hole touches or crosses the domain boundary."""


class HoleOutOfCell(ThinwallError, ValueError):
    """Canonical hole not strictly inside the unit periodicity cell."""


class MeshFailure(ThinwallError):
    """Triangulation produced degenerate elements or failed to terminate."""


# -- fem ----------------------------------------------------------------------

class UnknownTag(ThinwallError):
    """A boundary tag referenced in assembly does not exist on the mesh."""


class SingularElement(ThinwallError):
    """Element with non-positive Jacobian encountered during assembly."""


class SingularSystem(ThinwallError):
    """A linear system that cannot be solved as posed: the factorization
    failed (zero pivot, singular matrix), a solve's relative residual
    exceeds fem.RTOL, a dof is constrained twice or tied to a constrained
    master, or two paired boundaries are not congruent."""


class FactorOutOfMemory(ThinwallError, MemoryError):
    """The sparse factorization could not allocate its memory: the system
    is too large for this machine, which says nothing of its singularity."""


# -- cell / corner / nearfield ------------------------------------------------

class ResonantCase(ThinwallError):
    """Angular profile requested at a resonant exponent (not supported)."""


class DomainError(ThinwallError):
    """Special-function argument outside the supported domain."""


class IllConditioned(ThinwallError):
    """Coefficient extraction impossible: a radius near a Bessel zero."""


class ExtractionUnstable(ThinwallError):
    """The near-field radial fit of the mode the model reads leaves a
    relative residual beyond tolerance."""


class IndexUnsupported(ThinwallError):
    """Corrector / expansion index outside the implemented table."""


class OutsideRegion(ThinwallError):
    """Evaluation point outside the region where the expansion is valid."""


class DegenerateFit(ThinwallError):
    """Slope fit requested on degenerate data."""
