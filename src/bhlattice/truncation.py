"""Dirichlet-truncated (2m+1)-dimensional system and the restriction of
lattice states to it.  A truncated state is a plain grid: an array whose
last axis holds the sites -m..m, stepped by ``stepping.implicit_steps``
with ``mode="truncated"``."""

from __future__ import annotations

import numpy as np

from . import _grid
from .lattice import LatticeWindow, Params
from .stepping import forcing_grid


def truncated_forcing(p: Params, m: int) -> np.ndarray:
    """f^m: the forcing restricted to the sites |i| <= m (no renormalization)."""
    return forcing_grid(p, m, "truncated")


def truncated_field(p: Params, x: np.ndarray) -> np.ndarray:
    """F_m x with the Dirichlet boundary closure, for x over the 2m+1 sites
    -m..m (its last axis)."""
    m = (np.shape(x)[-1] - 1) // 2
    return _grid.field(
        _grid.field_coefficients(p, 1.0, 0.0, truncated_forcing(p, m)), x,
        "truncated")


def restriction(u: LatticeWindow, m: int) -> np.ndarray:
    """Drop every component with |i| > m."""
    return u.clip_to_grid(m)
