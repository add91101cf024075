"""Exception hierarchy shared across the package."""


class QreGamesError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QreGamesError):
    """Vector or matrix sizes disagree with the declared player dimensions."""


class NonPositiveLambda(QreGamesError):
    """The noise temperature must be finite and > 0."""


class IndexOutOfRange(QreGamesError):
    """An action or area index is outside its valid range."""


class NonFiniteInput(QreGamesError):
    """A cost vector or matrix contains NaN or infinity."""


class NonPositiveStrategy(QreGamesError):
    """A strategy entry is zero or negative where strict positivity is required."""


class EigendecompositionFailure(QreGamesError):
    """The symmetric eigensolver did not converge."""


class DecompositionFailure(QreGamesError):
    """A linear system that the uniqueness certificate keeps nonsingular is
    singular: the game is not certified."""


class ZeroAreaTotal(QreGamesError):
    """Some area receives zero aggregate service."""


class InvalidGeometry(QreGamesError):
    """Malformed area map or home assignment."""


class InfeasibleDetected(QreGamesError):
    """A design's constraints admit no feasible cost matrix.

    The min-norm route does not raise it: its margin constraints are always
    jointly feasible with the uniqueness cone (see `qregames.min_norm`), so
    its dual is bounded.  The class stays in the hierarchy, and in the CLI's
    exit-code mapping, as the signal for a design with no feasible point.
    """

    def __init__(self, message: str, max_violation: float):
        super().__init__(message)
        self.max_violation = max_violation


class InnerSolveFailure(QreGamesError):
    """The equilibrium solve inside the design loop did not converge."""


class InvalidInput(QreGamesError):
    """Malformed JSON input or command-line value, or a constructor argument
    of the wrong kind: a count or action that is not a whole number, or a
    lambda that is not a real number (true/false count as neither)."""
