"""Dirichlet-truncated (2m+1)-dimensional system and the restriction of
lattice states to it."""

from __future__ import annotations

import dataclasses

import numpy as np

from . import _grid
from .lattice import LatticeWindow, Params
from .stepping import StepConfig, forcing_grid, implicit_steps


@dataclasses.dataclass(frozen=True)
class TruncatedState:
    """Vector in R^(2m+1), indexed by the lattice sites -m..m."""

    m: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if arr.shape != (2 * self.m + 1,):
            raise ValueError("values must have length 2m+1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", arr.copy())
        self.values.setflags(write=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __eq__(self, other):
        if not isinstance(other, TruncatedState):
            return NotImplemented
        return self.m == other.m and np.array_equal(self.values, other.values)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ already treats as equal
        return hash((self.m, (self.values + 0.0).tobytes()))


# -- matrices (reference form, used by tests) -------------------------------


def d_minus_matrix(m: int) -> np.ndarray:
    """Lower bidiagonal: -1 on the diagonal, +1 on the subdiagonal."""
    n = 2 * m + 1
    return -np.eye(n) + np.diag(np.ones(n - 1), -1)


def d_plus_matrix(m: int) -> np.ndarray:
    """Structural adjoint of d_minus: -1 diagonal, +1 superdiagonal."""
    n = 2 * m + 1
    return -np.eye(n) + np.diag(np.ones(n - 1), 1)


def laplacian_matrix(m: int) -> np.ndarray:
    """Tridiagonal with diagonal (2, ..., 2, 1) and off-diagonals -1.

    The asymmetric last corner is exactly the product d_plus @ d_minus of the
    printed bidiagonal factors; it is kept verbatim, not symmetrized.
    """
    return d_plus_matrix(m) @ d_minus_matrix(m)


# -- operator application ---------------------------------------------------


def d_minus_m(x: TruncatedState) -> TruncatedState:
    return TruncatedState(x.m, _grid.d_minus(x.values))


def d_plus_m(x: TruncatedState) -> TruncatedState:
    return TruncatedState(x.m, _grid.d_plus(x.values))


def laplacian_m(x: TruncatedState) -> TruncatedState:
    return TruncatedState(x.m, _grid.d_plus(_grid.d_minus(x.values)))


def truncated_forcing(p: Params, m: int) -> np.ndarray:
    """f^m: the forcing restricted to the sites |i| <= m (no renormalization)."""
    return forcing_grid(p, m, "truncated")


def truncated_field(p: Params, x: TruncatedState) -> TruncatedState:
    """F_m x with the Dirichlet boundary closure."""
    f_m = truncated_forcing(p, x.m)
    return TruncatedState(x.m, _grid.field(p, x.values, f_m, "truncated"))


def truncated_trajectory(p: Params, cfg: StepConfig, x0: TruncatedState,
                         n: int) -> list:
    steps = implicit_steps(p, cfg, x0.values, n, "truncated")
    return [x0] + [TruncatedState(x0.m, y) for y, _ in steps]


def restriction(u: LatticeWindow, m: int) -> TruncatedState:
    """Drop every component with |i| > m."""
    return TruncatedState(m, u.clip_to_grid(m))
