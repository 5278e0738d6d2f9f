"""Exception types shared across the package."""


class TpslabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(TpslabError):
    """Operands live on incompatible Hilbert-space bipartitions."""


class NotUnitary(TpslabError):
    """A matrix expected to be unitary deviates beyond tolerance."""


class NotHermitian(TpslabError):
    """A matrix expected to be Hermitian deviates beyond tolerance."""


class NotNormalizable(TpslabError):
    """A trajectory leaves the unit sphere beyond the renormalization budget."""


class TooFewSamples(TpslabError):
    """A sampled trajectory is too coarse for the requested analysis."""


class UnsupportedForm(TpslabError):
    """The input has a shape the requested algorithm does not handle."""


class InvalidInput(TpslabError, ValueError):
    """An argument or input value lies outside what the call accepts."""
