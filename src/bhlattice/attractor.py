"""Attractors as evolved point clouds: sampling, stabilization, Hausdorff
distances, tail diagnostics, and JSON serialization."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
from scipy.spatial.distance import cdist

from .errors import NotStabilized, SpaceMismatch
from .lattice import LatticeWindow, tail_mass

CLOUD_SCHEMA_VERSION = 1


@dataclasses.dataclass
class AttractorConfig:
    """Controls for the evolve-until-stable attractor surrogate."""

    sample_count: int = 256
    burn_in: int = 1000
    stabilization_gap: int = 20
    stabilization_tol: float = 1e-7
    max_rounds: int = 200
    seed: int = 0

    def __post_init__(self):
        if min(self.sample_count, self.burn_in, self.stabilization_gap,
               self.max_rounds) < 1:
            raise ValueError("all count fields must be positive")
        if self.stabilization_tol <= 0:
            raise ValueError("stabilization_tol must be positive")


@dataclasses.dataclass
class PointCloud:
    """Finite set of states approximating an attractor.

    ``space`` is "window" or "truncated"; points are dense rows over the
    sites [-half_width, half_width].  ``meta`` records provenance (eps, m,
    sigma, seed, steps_evolved) as available.
    """

    space: str
    half_width: int
    points: np.ndarray
    meta: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty 2-D array")
        if pts.shape[1] != 2 * self.half_width + 1:
            raise ValueError("point length must be 2*half_width + 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if self.space not in ("window", "truncated"):
            raise SpaceMismatch(f"unknown space {self.space!r}")
        self.points = pts

    def __len__(self):
        return self.points.shape[0]

    def windows(self):
        return [LatticeWindow(-self.half_width, row) for row in self.points]


def sample_ball(radius: float, space: str, half_width: int, count: int,
                seed: int) -> PointCloud:
    """Uniform sample of the l^2 ball: direction on the sphere times
    radius * U^(1/dim).  Deterministic in the seed."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    dim = 2 * half_width + 1
    rng = np.random.default_rng(seed)
    direc = rng.standard_normal((count, dim))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / dim)
    pts = direc * radii[:, None]
    return PointCloud(space, half_width, pts, meta={"seed": seed, "radius": radius})


def hausdorff_semi(A: PointCloud, B: PointCloud) -> float:
    """d(A, B) = max over a of min over b of ||a - b||, from the full
    matrix of pairwise distances (scipy's cdist)."""
    _check_same_space(A, B)
    return _semi_arrays(A.points, B.points)


def hausdorff_sym(A: PointCloud, B: PointCloud) -> float:
    _check_same_space(A, B)
    return max(_semi_arrays(A.points, B.points), _semi_arrays(B.points, A.points))


def cloud_norm(A: PointCloud) -> float:
    """||A|| = max point norm (distance from the cloud to the origin)."""
    return float(np.max(np.linalg.norm(A.points, axis=1)))


def hausdorff_semi_pruned(A: PointCloud, B: PointCloud) -> float:
    """Early-exit variant of the semi-distance; regression-tested against
    the brute-force double loop."""
    _check_same_space(A, B)
    best_overall = 0.0
    for a in A.points:
        best = np.inf
        for b in B.points:
            d = float(np.linalg.norm(a - b))
            if d < best:
                best = d
                if best <= best_overall:
                    break  # this a cannot raise the maximum
        if best > best_overall:
            best_overall = best
    return best_overall


def _check_same_space(A: PointCloud, B: PointCloud):
    if A.space != B.space or A.half_width != B.half_width:
        raise SpaceMismatch(
            f"clouds live in different spaces: ({A.space}, {A.half_width}) "
            f"vs ({B.space}, {B.half_width}); embed first")


def _semi_arrays(a: np.ndarray, b: np.ndarray) -> float:
    dmat = cdist(a, b)
    return float(np.max(np.min(dmat, axis=1)))


def embed_cloud(A: PointCloud, half_width: int) -> PointCloud:
    """Null-expand a cloud into the window space of the given half-width."""
    if half_width < A.half_width:
        raise ValueError("cannot embed into a narrower window")
    pad = half_width - A.half_width
    pts = np.pad(A.points, ((0, 0), (pad, pad)))
    return PointCloud("window", half_width, pts, meta=dict(A.meta))


def attractor_approx(advance, cfg: AttractorConfig, ball_radius: float,
                     space: str, half_width: int,
                     meta: dict | None = None) -> PointCloud:
    """Evolve a sampled absorbing-ball cloud until it stops moving.

    ``advance(points, n_steps)`` must advance every row by n_steps.  After
    the burn-in, the cloud is pushed ``stabilization_gap`` steps per round
    until the symmetric Hausdorff distance between consecutive snapshots
    drops below ``stabilization_tol``.  Raises NotStabilized (carrying the
    last cloud) if ``max_rounds`` is exhausted.
    """
    cloud = sample_ball(ball_radius, space, half_width, cfg.sample_count,
                        cfg.seed)
    U = advance(cloud.points, cfg.burn_in)
    steps = cfg.burn_in
    dist = np.inf
    for _ in range(cfg.max_rounds):
        V = advance(U, cfg.stabilization_gap)
        steps += cfg.stabilization_gap
        dist = max(_semi_arrays(U, V), _semi_arrays(V, U))
        U = V
        if dist <= cfg.stabilization_tol:
            out_meta = {"seed": cfg.seed, "steps_evolved": steps,
                        "stabilized_distance": dist}
            out_meta.update(meta or {})
            return PointCloud(space, half_width, U, meta=out_meta)
    out_meta = {"seed": cfg.seed, "steps_evolved": steps}
    out_meta.update(meta or {})
    raise NotStabilized(dist, PointCloud(space, half_width, U, meta=out_meta))


def tail_profile(A: PointCloud, k: int) -> float:
    """Max over points of the cut-off tail mass beyond index k."""
    if A.space == "truncated" and A.half_width < 2 * k:
        raise ValueError("truncated cloud too narrow for this tail index")
    return max(tail_mass(w, k) for w in A.windows())


# -- serialization ----------------------------------------------------------


def cloud_to_json(A: PointCloud) -> str:
    doc = {
        "version": CLOUD_SCHEMA_VERSION,
        "space": A.space,
        "half_width": A.half_width,
        "points": [[float(x) for x in row] for row in A.points],
        "meta": _jsonable(A.meta),
    }
    return json.dumps(doc, separators=(",", ":"))


def cloud_from_json(text: str) -> PointCloud:
    doc = json.loads(text)
    if doc.get("version") != CLOUD_SCHEMA_VERSION:
        raise ValueError(f"unsupported cloud schema version {doc.get('version')}")
    return PointCloud(doc["space"], int(doc["half_width"]),
                      np.array(doc["points"], dtype=float), doc.get("meta", {}))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
