"""States, difference operators, and closed-form constants of the damped
Burgers-Huxley lattice system.

A state is a square-summable bi-infinite real sequence, stored as a finite
window with an implicitly zero tail.  All operations here are pure; windows
are immutable once constructed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _grid
from .errors import DissipativityViolation


def _canonical(offset: int, values: np.ndarray) -> tuple[int, np.ndarray]:
    """Trim leading/trailing zeros so equal sequences compare equal."""
    nz = values.nonzero()[0]
    if nz.size == 0:
        return 0, np.zeros(0)
    lo, hi = nz[0], nz[-1]
    return offset + int(lo), values[lo : hi + 1].copy()


@dataclasses.dataclass(frozen=True)
class LatticeWindow:
    """Finitely supported representation of a bi-infinite sequence.

    ``values[j]`` is the component at index ``offset + j``; every component
    outside the stored window is zero.  Windows are stored in canonical
    (zero-trimmed) form, so equality of windows is equality of the underlying
    sequences.
    """

    offset: int = 0
    values: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("window values must be one-dimensional")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("window values must be finite")
        off, arr = _canonical(int(self.offset), arr)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "values", arr)
        self.values.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LatticeWindow":
        return LatticeWindow(0, np.zeros(0))

    @staticmethod
    def basis(i: int, amplitude: float = 1.0) -> "LatticeWindow":
        return LatticeWindow(i, np.array([amplitude], dtype=float))

    @staticmethod
    def from_grid(grid: np.ndarray, half_width: int) -> "LatticeWindow":
        """Window from a dense array over indices [-half_width, half_width]:
        the one-row case of ``from_grids``."""
        return LatticeWindow.from_grids(
            np.asarray(grid, dtype=float)[None], half_width)[0]

    @staticmethod
    def from_grids(grids: np.ndarray, half_width: int) -> list:
        """The windows of the rows of an (N, 2*half_width+1) array, each the
        one ``LatticeWindow(-half_width, row)`` gives, bit for bit.

        The whole block is checked and trimmed at once: one finiteness test,
        and the first and last entry != 0 of each row (so -0.0 counts as
        zero); each row then only copies its trimmed slice."""
        grids = np.asarray(grids, dtype=float)
        n = 2 * half_width + 1
        if grids.ndim != 2 or grids.shape[1] != n:
            raise ValueError("grid length must be 2*half_width + 1")
        if not np.isfinite(grids).all():
            raise ValueError("window values must be finite")
        nonzero = grids != 0
        lo = nonzero.argmax(axis=1)
        hi = n - nonzero[:, ::-1].argmax(axis=1)
        # an all-zero row has argmax 0 at an entry that is zero
        lo[~nonzero[np.arange(len(grids)), lo]] = n
        windows = []
        for row, a, b in zip(grids, lo.tolist(), hi.tolist()):
            if a == n:
                a, values = half_width, np.zeros(0)
            else:
                values = row[a:b].copy()
            values.setflags(write=False)
            w = object.__new__(LatticeWindow)
            object.__setattr__(w, "offset", a - half_width)
            object.__setattr__(w, "values", values)
            windows.append(w)
        return windows

    # -- inspection --------------------------------------------------------

    @property
    def support(self) -> tuple[int, int]:
        """Inclusive index range of the stored (nonzero) window; (0, -1) if zero."""
        if self.values.size == 0:
            return (0, -1)
        return (self.offset, self.offset + self.values.size - 1)

    def __getitem__(self, i: int) -> float:
        j = i - self.offset
        if 0 <= j < self.values.size:
            return float(self.values[j])
        return 0.0

    def fits(self, half_width: int) -> bool:
        """Whether the stored window lies in [-half_width, half_width]."""
        lo, hi = self.support
        return -half_width <= lo and hi <= half_width

    def to_grid(self, half_width: int) -> np.ndarray:
        """Dense array over [-half_width, half_width]; raises if mass is lost."""
        if not self.fits(half_width):
            raise ValueError("window support exceeds the requested grid")
        return self.clip_to_grid(half_width)

    def clip_to_grid(self, half_width: int) -> np.ndarray:
        """Dense array over [-half_width, half_width]; components outside
        it are dropped."""
        grid = np.zeros(2 * half_width + 1)
        lo = max(self.offset, -half_width)
        hi = min(self.offset + self.values.size - 1, half_width)
        if lo <= hi:
            grid[lo + half_width : hi + half_width + 1] = \
                self.values[lo - self.offset : hi - self.offset + 1]
        return grid

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeWindow):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(
            self.values, other.values
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ already treats as equal
        return hash((self.offset, (self.values + 0.0).tobytes()))

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "LatticeWindow"):
        lo = min(self.offset, other.offset)
        hi = max(self.offset + self.values.size, other.offset + other.values.size)
        n = max(hi - lo, 0)
        a = np.zeros(n)
        b = np.zeros(n)
        a[self.offset - lo : self.offset - lo + self.values.size] = self.values
        b[other.offset - lo : other.offset - lo + other.values.size] = other.values
        return lo, a, b

    def __add__(self, other: "LatticeWindow") -> "LatticeWindow":
        lo, a, b = self._aligned(other)
        return LatticeWindow(lo, a + b)

    def __sub__(self, other: "LatticeWindow") -> "LatticeWindow":
        lo, a, b = self._aligned(other)
        return LatticeWindow(lo, a - b)

    def __mul__(self, c: float) -> "LatticeWindow":
        return LatticeWindow(self.offset, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "LatticeWindow":
        return LatticeWindow(self.offset, -self.values)

    def norm(self) -> float:
        """l^2 norm of the underlying sequence."""
        a = self.values
        return float(np.sqrt((a * a).sum()))


# -- difference operators --------------------------------------------------


def d_plus(u: LatticeWindow) -> LatticeWindow:
    """(D+ u)_i = u_{i+1} - u_i.  Support grows by at most one index."""
    return LatticeWindow(u.support[0] - 1, _grid.d_plus(np.pad(u.values, 1)))


def d_minus(u: LatticeWindow) -> LatticeWindow:
    """(D- u)_i = u_{i-1} - u_i.  Support grows by at most one index."""
    return LatticeWindow(u.support[0] - 1, _grid.d_minus(np.pad(u.values, 1)))


def laplacian(u: LatticeWindow) -> LatticeWindow:
    """(L u)_i = -u_{i-1} + 2 u_i - u_{i+1}, applied verbatim.

    Note this orientation is the negative of the continuum second difference;
    see ``Params.laplacian_sign`` for how the vector field consumes it.
    """
    ext = np.pad(u.values, 2)
    return LatticeWindow(u.support[0] - 1,
                         -ext[:-2] + 2.0 * ext[1:-1] - ext[2:])


# -- model parameters and constants ----------------------------------------


@dataclasses.dataclass(frozen=True)
class Params:
    """Model coefficients and external forcing.

    ``laplacian_sign`` selects the orientation of the diffusion term inside
    the vector field: "paper" uses +nu*L with L as defined above (the
    orientation all quantitative bounds are stated for), "continuum" flips it
    to the standard diffusive sign.
    """

    nu: float
    alpha: float
    beta: float
    gamma: float
    lam: float
    f: LatticeWindow = dataclasses.field(default_factory=LatticeWindow.zero)
    laplacian_sign: str = "paper"

    def __post_init__(self):
        if self.nu <= 0 or self.alpha <= 0 or self.beta <= 0:
            raise ValueError("nu, alpha, beta must be positive")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if self.laplacian_sign not in ("paper", "continuum"):
            raise ValueError("laplacian_sign must be 'paper' or 'continuum'")

    def replace(self, **kw) -> "Params":
        return dataclasses.replace(self, **kw)


def lambda_star_coeffs(nu: float, alpha: float, beta: float, gamma: float) -> float:
    """Dissipativity threshold 4*nu + (2a+b+bg)^2/(4b) - b*g."""
    return 4.0 * nu + (2.0 * alpha + beta + beta * gamma) ** 2 / (4.0 * beta) \
        - beta * gamma


def lambda_star(p: Params) -> float:
    return lambda_star_coeffs(p.nu, p.alpha, p.beta, p.gamma)


def m_bound(p: Params, r: float) -> float:
    """Growth bound: sup of ||F u|| over the ball of radius r."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return (
        p.beta * r**3
        + (2.0 * p.alpha + p.beta + p.beta * p.gamma) * r**2
        + (4.0 * p.nu + p.beta * p.gamma + p.lam) * r
        + p.f.norm()
    )


def l_bound(p: Params, r: float) -> float:
    """Lipschitz bound for F on the ball of radius r."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return (
        4.0 * p.nu
        + 2.0 * math.sqrt(5.0) * r * p.alpha
        + math.sqrt(12.0 * r**2 * (1.0 + p.gamma) ** 2 + 27.0 * r**4
                    + 3.0 * p.gamma**2) * p.beta
        + p.lam
    )


@dataclasses.dataclass(frozen=True)
class DerivedConstants:
    """Dissipativity threshold, absorbing radius and safe step cap."""

    lambda_star: float
    r_star: float
    eps_star: float

    def allows_step(self, eps: float) -> bool:
        """Whether the implicit step eps is within the cap eps*, where the
        Picard map contracts."""
        return eps <= self.eps_star


def derived_constants(p: Params) -> DerivedConstants:
    """Compute the absorbing radius r* and step cap eps* for p.

    Raises DissipativityViolation unless lam exceeds the threshold; callers
    must not run the contraction solver otherwise.
    """
    ls = lambda_star(p)
    if p.lam <= ls:
        raise DissipativityViolation(
            f"lam={p.lam} does not exceed the threshold {ls}"
        )
    r_star = 1.0 + p.f.norm() / (p.lam - ls)
    eps_star = min(1.0 / m_bound(p, r_star + 1.0), 1.0 / (1.0 + l_bound(p, r_star + 1.0)))
    return DerivedConstants(
        lambda_star=ls,
        r_star=r_star,
        eps_star=eps_star,
    )


# -- vector field ----------------------------------------------------------


def window_field(p: Params, u: LatticeWindow, kernel) -> LatticeWindow:
    """``kernel(U, f_grid)`` as a window: U and f_grid on a grid one site
    wider than the supports of u and f, so the stencil loses nothing."""
    lo, hi = u.support
    flo, fhi = p.f.support
    half = max(abs(lo), abs(hi), abs(flo), abs(fhi), 1) + 1
    return LatticeWindow.from_grid(kernel(u.to_grid(half), p.f.to_grid(half)),
                                   half)


def vector_field(p: Params, u: LatticeWindow) -> LatticeWindow:
    """F u = nu*L u - alpha*u.(D-)u + beta*u(1-u)(u-gamma) - lam*u + f.

    Products are componentwise.  Support grows by at most one index beyond
    the union of the supports of u and f.
    """
    return window_field(p, u, lambda U, f: _grid.field(
        _grid.field_coefficients(p, 1.0, 0.0, f), U, "window"))


# -- cut-off function and tail mass ----------------------------------------


def cutoff_xi(k: int, i: int | np.ndarray) -> float | np.ndarray:
    """C^1 ramp xi(|i|/k): 0 on [0,1], 1 on [2,inf), cubic smoothstep
    between; a float for an index, an array for an array of indices."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    w = np.clip(np.abs(i) / k - 1.0, 0.0, 1.0)
    xi = 3.0 * w * w - 2.0 * w**3
    return float(xi) if np.ndim(xi) == 0 else xi


def tail_mass(u: LatticeWindow, k: int) -> float:
    """Sum of xi_{k,i} * u_i^2; an upper surrogate for the mass beyond |i|=2k."""
    return float(tail_masses(u.values, k, u.offset))


def tail_masses(U: np.ndarray, k: int, lo: int) -> np.ndarray:
    """``tail_mass`` of each grid in U, one grid or a stack of them, whose
    last axis holds the sites lo, lo + 1, ..."""
    xi = cutoff_xi(k, np.arange(lo, lo + U.shape[-1]))
    return np.sum(xi * U**2, axis=-1)
