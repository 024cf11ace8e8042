"""Exception hierarchy shared by all gramspec modules."""


class GramspecError(Exception):
    """Base class for all errors raised by gramspec."""


class SchemaError(GramspecError):
    """Input document violates the system-document schema.

    ``path`` points at the offending field, e.g. ``"matrices.A"``.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class SolvabilityError(GramspecError):
    """The spectrum violates the pairwise condition lambda_i + lambda_j != 0."""

    def __init__(self, report_or_message):
        if isinstance(report_or_message, str):
            self.report = None
            super().__init__(report_or_message)
            return
        report = report_or_message
        self.report = report
        pairs = ", ".join(f"({i + 1}, {j + 1})" for i, j in report.violating_pairs)
        super().__init__(
            "Lyapunov solvability condition violated for eigenvalue pairs "
            f"[{pairs}]; min |lambda_i + lambda_j| = {report.min_pair_magnitude:.3e}"
        )


class ControllabilityError(GramspecError):
    """Controllability matrix is rank deficient or numerically near-singular."""

    def __init__(self, message, condition=None):
        self.condition = condition
        if condition is not None:
            message = f"{message} (condition estimate {condition:.3e})"
        super().__init__(message)


class ConditioningError(GramspecError):
    """A closed-form construction is numerically unusable (ill-conditioned
    Jordan chains, singular normalization matrix, degenerate chain Hankel)."""

    def __init__(self, message, condition=None):
        self.condition = condition
        if condition is not None:
            message = f"{message} (condition estimate {condition:.3e})"
        super().__init__(message)


class MultipleEigenvalueError(GramspecError):
    """A simple-spectrum operation received a multiple (or numerically
    near-multiple) eigenvalue; the Jordan-chain path handles these."""


class StabilityError(GramspecError):
    """Operation requires a strictly stable spectrum (all Re lambda < 0)."""


class ConvergenceError(GramspecError):
    """Iterative root finding failed to reach the residual bound."""

    def __init__(self, message, worst_residual=None):
        self.worst_residual = worst_residual
        if worst_residual is not None:
            message = f"{message} (worst residual {worst_residual:.3e})"
        super().__init__(message)
