"""Attractors as evolved point clouds: sampling, stabilization, Hausdorff
distances, tail diagnostics, and JSON serialization."""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .errors import NotStabilized, SpaceMismatch, _is_int, _is_real
from .lattice import tail_masses

CLOUD_SCHEMA_VERSION = 1

# A round that moves the cloud by d_k <= tol ends the run if it moved it at
# most this fraction of the round before.  If each later round moves the
# cloud at most rho <= 1/2 as far as the last, the remaining motion is at
# most d_k * rho / (1 - rho) <= d_k <= tol.
CONTRACTION_RATIO = 0.5

# most squared differences that one block of a distance matrix holds
DISTANCE_BLOCK = 2**16


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
        counts = (self.sample_count, self.burn_in, self.stabilization_gap,
                  self.max_rounds)
        if not all(_is_int(n) and n >= 1 for n in counts):
            raise ValueError("all count fields must be positive integers")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not _is_real(self.stabilization_tol) or self.stabilization_tol <= 0:
            raise ValueError("stabilization_tol must be a positive number")


@dataclasses.dataclass
class PointCloud:
    """Finite set of states approximating an attractor.

    ``space`` is "window" or "truncated"; points are dense rows over the
    sites [-half_width, half_width].  ``meta`` records provenance (eps, m,
    sigma, seed, steps_evolved, rounds, contraction_ratio) as available.
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
    matrix of pairwise distances."""
    _check_same_space(A, B)
    return float(np.max(np.min(_distances(A.points, B.points), axis=1)))


def hausdorff_sym(A: PointCloud, B: PointCloud) -> float:
    _check_same_space(A, B)
    return _sym_arrays(A.points, B.points)


def cloud_norm(A: PointCloud) -> float:
    """||A|| = max point norm (distance from the cloud to the origin)."""
    return float(np.max(np.linalg.norm(A.points, axis=1)))


def cloud_diameter(A: PointCloud) -> float:
    """Largest distance between two points of the cloud (0 for one point)."""
    return float(np.max(_distances(A.points, A.points)))


def _check_same_space(A: PointCloud, B: PointCloud):
    if A.space != B.space or A.half_width != B.half_width:
        raise SpaceMismatch(
            f"clouds live in different spaces: ({A.space}, {A.half_width}) "
            f"vs ({B.space}, {B.half_width}); embed first")


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) matrix of Euclidean distances between rows.

    Squared differences are summed in coordinate order, the order of
    scipy's cdist, so every entry has cdist's bits.  Rows of ``a`` go
    through in blocks of at most DISTANCE_BLOCK differences, or one row
    where a row alone holds more."""
    out = np.empty((len(a), len(b)))
    rows = max(1, DISTANCE_BLOCK // (len(b) * a.shape[1]))
    for i in range(0, len(a), rows):
        d = a[i:i + rows, None, :] - b
        d *= d
        np.sqrt(np.add.accumulate(d, axis=-1)[..., -1], out=out[i:i + rows])
    return out


def _sym_arrays(a: np.ndarray, b: np.ndarray) -> float:
    # both semi-distances from one matrix: d(a, b) over its rows, d(b, a)
    # over its columns
    dmat = _distances(a, b)
    return float(max(np.max(np.min(dmat, axis=1)),
                     np.max(np.min(dmat, axis=0))))


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
    the burn-in, the cloud is pushed ``stabilization_gap`` steps per round;
    d_k is the symmetric Hausdorff distance between the snapshots before
    and after round k.  The run stops after round k >= 2 once d_k <=
    ``stabilization_tol`` and either the round contracted (d_k <=
    CONTRACTION_RATIO * d_{k-1}) or the round before was within tolerance
    too.  Raises NotStabilized (carrying the last cloud) if ``max_rounds``
    is exhausted.
    """
    cloud = sample_ball(ball_radius, space, half_width, cfg.sample_count,
                        cfg.seed)
    U = advance(cloud.points, cfg.burn_in)
    steps = cfg.burn_in
    tol = cfg.stabilization_tol
    prev = dist = np.inf
    for rounds in range(1, cfg.max_rounds + 1):
        V = advance(U, cfg.stabilization_gap)
        steps += cfg.stabilization_gap
        prev, dist = dist, _sym_arrays(U, V)
        U = V
        if rounds >= 2 and dist <= tol and (
                dist <= CONTRACTION_RATIO * prev or prev <= tol):
            out_meta = {"seed": cfg.seed, "steps_evolved": steps,
                        "rounds": rounds, "stabilized_distance": dist,
                        "contraction_ratio": dist / prev if prev else None}
            out_meta.update(meta or {})
            return PointCloud(space, half_width, U, meta=out_meta)
    out_meta = {"seed": cfg.seed, "steps_evolved": steps}
    out_meta.update(meta or {})
    raise NotStabilized(dist, PointCloud(space, half_width, U, meta=out_meta))


def tail_profile(A: PointCloud, k: int) -> float:
    """Max over points of the cut-off tail mass beyond index k."""
    if A.space == "truncated" and A.half_width < 2 * k:
        raise ValueError("truncated cloud too narrow for this tail index")
    return float(np.max(tail_masses(A.points, k, -A.half_width)))


# -- serialization ----------------------------------------------------------


def cloud_to_json(A: PointCloud) -> str:
    doc = {
        "version": CLOUD_SCHEMA_VERSION,
        "space": A.space,
        "half_width": A.half_width,
        "points": [[float(x) for x in row] for row in A.points],
        "meta": A.meta,
    }
    # numpy scalars in meta become the Python numbers they hold
    return json.dumps(doc, separators=(",", ":"), default=lambda x: x.item())


def cloud_from_json(text: str) -> PointCloud:
    doc = json.loads(text)
    if doc.get("version") != CLOUD_SCHEMA_VERSION:
        raise ValueError(f"unsupported cloud schema version {doc.get('version')}")
    return PointCloud(doc["space"], int(doc["half_width"]),
                      np.array(doc["points"], dtype=float), doc.get("meta", {}))

