"""Shared exception types.

Everything user-facing raises one of these so the CLI can map failures to
exit codes: validation problems (bad inputs, malformed configs) are
distinguishable from numerical breakdown (non-convergence, rank collapse).
"""


class ValidationError(ValueError):
    """Input violates a documented precondition or invariant."""


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to reach its tolerance.

    Carries the last residual in ``residual`` when available.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class RankDeficiencyError(ValidationError):
    """Requested model order exceeds the numerical rank of the data.

    ``effective_rank`` holds the rank found.  A caller that would fit at
    that rank instead builds a ``numerics.PencilFactorisation``, which states it.
    """

    def __init__(self, message, effective_rank):
        super().__init__(message)
        self.effective_rank = effective_rank
