"""Exception hierarchy and the read-only record base shared by all gramspec
modules."""


class Record:
    """Base of gramspec's read-only records.

    A record's fields are the parameters of its own ``__init__``, in order,
    which checks them and stores them in ``self.__dict__``; after that,
    assignment and deletion raise AttributeError.  The repr is
    ``Name(field=value, ...)``, ``_replace(**changes)`` rebuilds the record
    through ``__init__`` (so its checks run again), and a record compares
    and hashes by identity: most hold arrays, which have no truth value.
    Values formed on first use (``functools.cached_property``) are stored in
    the instance dict and are not fields.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class ValueRecord(Record):
    """A record that compares and hashes by the values of its fields."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class GramspecError(Exception):
    """Base class for all errors raised by gramspec."""


class SchemaError(GramspecError):
    """Input document violates the system-document schema.

    ``path`` points at the offending field or entry, e.g. ``"matrices"``
    for a record's refusal or ``"matrices.A[1][0]"`` for a non-number.
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


class ConditioningError(GramspecError):
    """A closed-form construction is numerically unusable (ill-conditioned
    Jordan chains, singular normalization matrix, degenerate chain Hankel,
    values past the double range).  The base of every refusal that the
    command line reports with exit code 3."""

    def __init__(self, message, condition=None):
        self.condition = condition
        if condition is not None:
            message = f"{message} (condition estimate {condition:.3e})"
        super().__init__(message)


class ControllabilityError(ConditioningError):
    """Controllability matrix is rank deficient or numerically near-singular."""


class MultipleEigenvalueError(ConditioningError):
    """A simple-spectrum operation received a multiple (or numerically
    near-multiple) eigenvalue; the Jordan-chain path handles these."""


class StabilityError(GramspecError):
    """Operation requires a strictly stable spectrum (all Re lambda < 0)."""


class ConvergenceError(ConditioningError):
    """Iterative root finding failed to reach the residual bound."""

    def __init__(self, message, worst_residual=None):
        self.worst_residual = worst_residual
        if worst_residual is not None:
            message = f"{message} (worst residual {worst_residual:.3e})"
        super().__init__(message)
