"""Exception types shared across the package."""


class OddTerwError(Exception):
    """Base class for all library errors."""


class ParameterError(OddTerwError, ValueError):
    """An argument is outside the domain a function accepts."""


class ShapeError(OddTerwError, ValueError):
    """Matrix dimensions do not conform for the requested operation."""


class ClosureDivergenceError(OddTerwError, RuntimeError):
    """Span closure failed to stabilize within the round cap.

    The algebra is finite dimensional, so hitting this indicates a bug in
    the arithmetic kernel rather than a genuinely divergent computation.
    """


class EliminationDivergenceError(OddTerwError, RuntimeError):
    """Row reduction of one vector did not finish within dim + 1 pivot eliminations.

    Correct elimination fires each pivot at most once per reduction pass,
    so this means the field arithmetic is broken, not that the input is
    hard; raising it keeps a broken kernel from looping forever.
    """


class FormulaError(OddTerwError, ArithmeticError):
    """A counting identity that must hold numerically failed to hold."""


class GraphStructureError(OddTerwError, RuntimeError):
    """A constructed graph failed its own structural cross-check (BFS, degree, size)."""
