"""States, difference operators, and closed-form constants of the damped
Burgers-Huxley lattice system.

A state is a square-summable bi-infinite real sequence, stored as a finite
window with an implicitly zero tail.  All operations here are pure; windows
are immutable once constructed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .errors import DissipativityViolation

# sup |xi'| for the cubic smoothstep ramp used by the cut-off function
CUTOFF_SLOPE_BOUND = 1.5


def _canonical(offset: int, values: np.ndarray) -> tuple[int, np.ndarray]:
    """Trim leading/trailing zeros so equal sequences compare equal."""
    nz = np.flatnonzero(values)
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
        if arr.size and not np.all(np.isfinite(arr)):
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
    def from_items(items: dict) -> "LatticeWindow":
        if not items:
            return LatticeWindow.zero()
        lo = min(items)
        hi = max(items)
        arr = np.zeros(hi - lo + 1)
        for i, v in items.items():
            arr[i - lo] = v
        return LatticeWindow(lo, arr)

    @staticmethod
    def from_grid(grid: np.ndarray, half_width: int) -> "LatticeWindow":
        """Window from a dense array over indices [-half_width, half_width]."""
        grid = np.asarray(grid, dtype=float)
        if grid.shape != (2 * half_width + 1,):
            raise ValueError("grid length must be 2*half_width + 1")
        return LatticeWindow(-half_width, grid)

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

    def to_grid(self, half_width: int) -> np.ndarray:
        """Dense array over [-half_width, half_width]; raises if mass is lost."""
        lo, hi = self.support
        if self.values.size and (lo < -half_width or hi > half_width):
            raise ValueError("window support exceeds the requested grid")
        grid = np.zeros(2 * half_width + 1)
        if self.values.size:
            grid[lo + half_width : hi + half_width + 1] = self.values
        return grid

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

    def hadamard(self, other: "LatticeWindow") -> "LatticeWindow":
        """Componentwise product; the support is the intersection."""
        lo, a, b = self._aligned(other)
        return LatticeWindow(lo, a * b)

    def dot(self, other: "LatticeWindow") -> float:
        _, a, b = self._aligned(other)
        return float(a @ b)

    def norm(self, p: int = 2) -> float:
        return norm_lp(self, p)


def norm_lp(u: LatticeWindow, p: int = 2) -> float:
    """l^p norm of the underlying sequence, for p in {1, 2, 3, 4}."""
    if p not in (1, 2, 3, 4):
        raise ValueError(f"unsupported norm exponent p={p}")
    if u.values.size == 0:
        return 0.0
    a = np.abs(u.values)
    if p == 1:
        return float(a.sum())
    if p == 2:
        return float(np.sqrt((a * a).sum()))
    return float((a**p).sum() ** (1.0 / p))


# -- difference operators --------------------------------------------------


def _padded(u: LatticeWindow) -> tuple[int, np.ndarray]:
    """Values of u on [lo-1, hi+1] so all stencil reads are in range."""
    lo, hi = u.support
    if u.values.size == 0:
        return 0, np.zeros(3)
    ext = np.zeros(u.values.size + 2)
    ext[1:-1] = u.values
    return lo - 1, ext


def d_plus(u: LatticeWindow) -> LatticeWindow:
    """(D+ u)_i = u_{i+1} - u_i.  Support grows by at most one index."""
    off, ext = _padded(u)
    out = np.empty_like(ext)
    out[:-1] = ext[1:] - ext[:-1]
    out[-1] = -ext[-1]
    return LatticeWindow(off, out)


def d_minus(u: LatticeWindow) -> LatticeWindow:
    """(D- u)_i = u_{i-1} - u_i.  Support grows by at most one index."""
    off, ext = _padded(u)
    out = np.empty_like(ext)
    out[1:] = ext[:-1] - ext[1:]
    out[0] = -ext[0]
    return LatticeWindow(off, out)


def laplacian(u: LatticeWindow) -> LatticeWindow:
    """(L u)_i = -u_{i-1} + 2 u_i - u_{i+1}, applied verbatim.

    Note this orientation is the negative of the continuum second difference;
    see ``Params.laplacian_sign`` for how the vector field consumes it.
    """
    off, ext = _padded(u)
    out = np.empty_like(ext)
    out[1:-1] = -ext[:-2] + 2.0 * ext[1:-1] - ext[2:]
    out[0] = 2.0 * ext[0] - ext[1]
    out[-1] = -ext[-2] + 2.0 * ext[-1]
    return LatticeWindow(off, out)


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
    """Absorbing radius, safe step cap, and the bound evaluators."""

    lambda_star: float
    r_star: float
    eps_star: float
    m_of_r: Callable[[float], float]
    l_of_r: Callable[[float], float]


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
        m_of_r=lambda r: m_bound(p, r),
        l_of_r=lambda r: l_bound(p, r),
    )


# -- vector field ----------------------------------------------------------


def vector_field(p: Params, u: LatticeWindow) -> LatticeWindow:
    """F u = nu*L u - alpha*u.(D-)u + beta*u(1-u)(u-gamma) - lam*u + f.

    Products are componentwise.  Support grows by at most one index beyond
    the union of the supports of u and f.
    """
    from . import _grid

    lo, hi = u.support
    flo, fhi = p.f.support
    half = max(abs(lo), abs(hi), abs(flo), abs(fhi), 1) + 1
    out = _grid.field(p, u.to_grid(half), p.f.to_grid(half), "window")
    return LatticeWindow.from_grid(out, half)


# -- cut-off function and tail mass ----------------------------------------


def cutoff_xi(k: int, i: int) -> float:
    """C^1 ramp xi(|i|/k): 0 on [0,1], 1 on [2,inf), cubic smoothstep between."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    s = abs(i) / k
    if s <= 1.0:
        return 0.0
    if s >= 2.0:
        return 1.0
    w = s - 1.0
    return 3.0 * w * w - 2.0 * w * w * w


def tail_mass(u: LatticeWindow, k: int) -> float:
    """Sum of xi_{k,i} * u_i^2; an upper surrogate for the mass beyond |i|=2k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    lo, hi = u.support
    if u.values.size == 0:
        return 0.0
    idx = np.arange(lo, hi + 1)
    s = np.abs(idx) / k
    w = np.clip(s - 1.0, 0.0, 1.0)
    xi = 3.0 * w * w - 2.0 * w**3
    return float(np.sum(xi * u.values**2))
