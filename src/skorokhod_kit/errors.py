"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class UsageError(ValueError):
    """Bad experiment name or unusable configuration."""


class GenerationError(RuntimeError):
    """A sampler produced a non-finite value."""


class EvaluationFault(RuntimeError):
    """A user-supplied evaluator returned a non-finite value.

    ``step_index`` is the grid index at which evaluation failed, when known;
    ``path_index`` is the index of the failing path in its batch, when known.
    """

    def __init__(
        self, message: str, step_index: int | None = None, path_index: int | None = None
    ):
        super().__init__(message)
        self.step_index = step_index
        self.path_index = path_index


class ContractError(ValueError):
    """A declared analytic contract (partial derivatives, bounds) failed a spot check."""


class ProjectionIterationError(RuntimeError):
    """Cyclic projection did not converge within the iteration budget.

    Carries the last iterate and the residual (max constraint violation,
    last cycle movement).
    """

    def __init__(self, message: str, last_iterate: np.ndarray, residual: tuple[float, float]):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class RefinementLimitError(RuntimeError):
    """Grid refinement stopped before reaching the requested tolerance.

    ``gaps`` is the sequence of sup-distances between successive refinement
    levels, coarsest first; ``driver`` is the index of the driver in its
    batch, when known.
    """

    def __init__(self, message: str, gaps: tuple[float, ...], driver: int | None = None):
        super().__init__(message)
        self.gaps = gaps
        self.driver = driver
