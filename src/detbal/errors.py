"""Exceptions shared across the package."""


class HypothesisFailure(RuntimeError):
    """A structural hypothesis of a check is not met by the input.

    Raised when a quantity is well-defined only under a side condition
    (e.g. a weight matrix must commute with the level projector, or the
    normal-ordered correlations must match the weight before the KMS
    condition is read) and that condition fails.  Distinct from a large residual: the check itself
    does not apply, so no residual is reported.
    """


class SpecFileError(ValueError):
    """A channel spec file is malformed or carries an unknown format tag."""
