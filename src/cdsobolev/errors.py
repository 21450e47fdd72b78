"""Exception hierarchy for the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidConfig(ToolkitError):
    """Bad construction parameters or malformed run configuration."""


class SpaceMismatch(ToolkitError):
    """A field was used on a space it does not live on."""


class InvalidExponent(ToolkitError):
    """Lebesgue exponent outside the admissible range."""


class InvalidParameter(ToolkitError):
    """Scalar parameter outside its admissible range."""


class NonPositiveField(ToolkitError):
    """A positivity-requiring transform received a field with min <= 0."""


class NoConvergence(ToolkitError):
    """Iteration budget exhausted before meeting the tolerance."""


class NotAProbabilityDensity(ToolkitError):
    """Density is not positive or does not integrate to one."""


class InvalidAlpha(ToolkitError):
    """Renyi order alpha outside (0, inf) \\ {1}."""


class ConditionViolated(ToolkitError):
    """The convexity condition fails at the evaluation point."""


class PositivityLost(ToolkitError):
    """Density dropped below the positivity floor during a flow."""


class StepUnstable(ToolkitError):
    """A time step increased the Lyapunov functional beyond tolerance."""


class SingularMatrix(ToolkitError):
    """A linear system's matrix is singular to working precision."""
