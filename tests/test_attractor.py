import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from bhlattice import attractor
from bhlattice import (
    AttractorConfig,
    NotStabilized,
    PointCloud,
    SpaceMismatch,
    attractor_approx,
    cloud_diameter,
    cloud_from_json,
    cloud_norm,
    cloud_to_json,
    embed_cloud,
    hausdorff_semi,
    hausdorff_sym,
    sample_ball,
    tail_profile,
)


def cloud(rows, space="window"):
    pts = np.asarray(rows, dtype=float)
    half = (pts.shape[1] - 1) // 2
    return PointCloud(space, half, pts)


class TestSampling:
    def test_deterministic_in_seed(self):
        a = sample_ball(2.0, "window", 4, 32, seed=5)
        b = sample_ball(2.0, "window", 4, 32, seed=5)
        assert np.array_equal(a.points, b.points)
        c = sample_ball(2.0, "window", 4, 32, seed=6)
        assert not np.array_equal(a.points, c.points)

    def test_stays_inside_ball(self):
        A = sample_ball(1.5, "window", 8, 500, seed=1)
        assert np.all(np.linalg.norm(A.points, axis=1) <= 1.5 + 1e-12)

    def test_mean_norm_matches_uniform_law(self):
        # for the uniform law on the unit ball in R^d, E||x|| = d/(d+1);
        # with d = 3 (half_width 1) that is 3/4
        A = sample_ball(1.0, "window", 1, 40000, seed=2)
        mean = float(np.mean(np.linalg.norm(A.points, axis=1)))
        assert mean == pytest.approx(0.75, abs=0.01)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            sample_ball(0.0, "window", 4, 8, seed=0)


class TestHausdorff:
    def test_hand_example(self):
        A = cloud([[0.0, 0.0, 0.0]])
        B = cloud([[3.0, 4.0, 0.0]])
        assert hausdorff_semi(A, B) == pytest.approx(5.0)
        assert hausdorff_sym(A, B) == pytest.approx(5.0)

    def test_semi_is_asymmetric(self):
        A = cloud([[0.0, 0.0, 0.0]])
        B = cloud([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        assert hausdorff_semi(A, B) == 0.0
        assert hausdorff_semi(B, A) == pytest.approx(10.0)
        assert hausdorff_sym(A, B) == pytest.approx(10.0)

    def test_identity(self):
        rng = np.random.default_rng(31)
        A = cloud(rng.standard_normal((20, 9)))
        assert hausdorff_sym(A, A) == 0.0

    def test_scaling(self):
        rng = np.random.default_rng(32)
        pts = rng.standard_normal((15, 9))
        other = rng.standard_normal((12, 9))
        d1 = hausdorff_sym(cloud(pts), cloud(other))
        d3 = hausdorff_sym(cloud(3 * pts), cloud(3 * other))
        assert d3 == pytest.approx(3 * d1, rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(33)
        A, B, C = (cloud(rng.standard_normal((10, 7))) for _ in range(3))
        assert hausdorff_sym(A, C) <= \
            hausdorff_sym(A, B) + hausdorff_sym(B, C) + 1e-12

    def test_space_mismatch(self):
        A = cloud([[0.0, 0.0, 0.0]])
        B = cloud([[0.0] * 5])
        with pytest.raises(SpaceMismatch):
            hausdorff_sym(A, B)
        C = cloud([[0.0, 0.0, 0.0]], space="truncated")
        with pytest.raises(SpaceMismatch):
            hausdorff_sym(A, C)

    def test_cloud_norm(self):
        A = cloud([[3.0, 4.0, 0.0], [1.0, 0.0, 0.0]])
        assert cloud_norm(A) == pytest.approx(5.0)

    def test_cloud_diameter(self):
        A = cloud([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert cloud_diameter(A) == 5.0
        assert cloud_diameter(cloud([[3.0, 4.0, 0.0]])) == 0.0


def cdist_distances(a, b):
    """semi(a, b), semi(b, a), the diameter of a, from scipy's cdist."""
    d = cdist(a, b)
    return (float(np.max(np.min(d, axis=1))), float(np.max(np.min(d, axis=0))),
            float(np.max(cdist(a, a))))


def assert_bits_of_cdist(a, b):
    A, B = cloud(a), cloud(b)
    semi_ab, semi_ba, diam = cdist_distances(a, b)
    assert hausdorff_semi(A, B).hex() == semi_ab.hex()
    assert hausdorff_semi(B, A).hex() == semi_ba.hex()
    sym = hausdorff_sym(A, B)
    assert sym.hex() == max(semi_ab, semi_ba).hex()
    assert hausdorff_sym(B, A) == sym
    assert hausdorff_sym(A, A) == 0.0
    assert cloud_diameter(A).hex() == diam.hex()


class TestHausdorffBits:
    """Every distance has the bits of scipy's cdist formula: the squared
    differences are summed in coordinate order."""

    @settings(max_examples=60, deadline=None)
    @given(P=st.integers(1, 70), Q=st.integers(1, 70),
           n=st.sampled_from([1, 17, 33, 129, 257]),
           scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3]),
           near=st.sampled_from([None, 0.0, 1e-15, 1e-9]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_cdist(self, P, Q, n, scale, near, seed):
        # near: B is rows of A moved by at most this much (None: B drawn
        # independently)
        rng = np.random.default_rng(seed)
        a = scale * rng.standard_normal((P, n))
        if near is None:
            b = scale * rng.standard_normal((Q, n))
        else:
            b = a[rng.integers(0, P, Q)] + near * scale * rng.uniform(
                -1.0, 1.0, (Q, n))
        assert_bits_of_cdist(a, b)

    def test_equals_cdist_past_one_row_block(self):
        # one row of A against B holds more than a block of differences,
        # so every row is its own block
        rng = np.random.default_rng(36)
        n = 257
        Q = attractor.DISTANCE_BLOCK // n + 3
        a = rng.standard_normal((5, n))
        b = np.concatenate([a[[3, 1]] + 1e-12, rng.standard_normal((Q, n))])
        assert_bits_of_cdist(a, b)
        assert_bits_of_cdist(b, a)


class TestEmbedding:
    def test_embed_preserves_distances(self):
        rng = np.random.default_rng(35)
        A = cloud(rng.standard_normal((8, 5)))
        B = cloud(rng.standard_normal((6, 5)))
        d = hausdorff_sym(A, B)
        assert hausdorff_sym(embed_cloud(A, 6), embed_cloud(B, 6)) == \
            pytest.approx(d, rel=1e-14)

    def test_embed_narrower_rejected(self):
        A = cloud([[1.0] * 5])
        with pytest.raises(ValueError):
            embed_cloud(A, 1)


class TestStabilization:
    def test_contracting_map_stabilizes(self):
        def advance(pts, n):
            return pts * 0.5 ** n

        cfg = AttractorConfig(sample_count=16, burn_in=10,
                              stabilization_gap=5, stabilization_tol=1e-6,
                              max_rounds=50, seed=3)
        A = attractor_approx(advance, cfg, 1.0, "window", 4)
        assert cloud_norm(A) <= 1e-4
        assert A.meta["steps_evolved"] >= cfg.burn_in + cfg.stabilization_gap
        assert A.meta["stabilized_distance"] <= 1e-6

    def test_rotating_map_raises_with_payload(self):
        theta = 0.7

        def advance(pts, n):
            out = pts.copy()
            c, s = np.cos(n * theta), np.sin(n * theta)
            x, y = out[:, 0].copy(), out[:, 1].copy()
            out[:, 0] = c * x - s * y
            out[:, 1] = s * x + c * y
            return out

        cfg = AttractorConfig(sample_count=16, burn_in=5, stabilization_gap=3,
                              stabilization_tol=1e-9, max_rounds=4, seed=4)
        with pytest.raises(NotStabilized) as exc:
            attractor_approx(advance, cfg, 1.0, "window", 2)
        assert exc.value.last_distance > 1e-9
        assert isinstance(exc.value.cloud, PointCloud)
        assert exc.value.cloud.meta == {"seed": 4,
                                        "steps_evolved": 5 + 4 * 3}

    @pytest.mark.parametrize("q, gap", [
        (0.5, 3),   # each round contracts 8-fold: stops on the ratio
        (0.9, 1),   # each round moves 0.9 as far: stops a round later
        (0.5, 1),   # exactly the contraction ratio
    ])
    def test_geometric_map_stops_at_the_predicted_round(self, q, gap):
        # one point p: after round k the cloud is p * q**(burn_in + k*gap),
        # so d_k = |p| q**burn_in (1 - q**gap) (q**gap)**(k - 1)
        burn_in, tol = 10, 1e-6
        cfg = AttractorConfig(sample_count=1, burn_in=burn_in,
                              stabilization_gap=gap, stabilization_tol=tol,
                              max_rounds=200, seed=3)
        r = float(np.linalg.norm(sample_ball(1.0, "window", 4, 1, 3).points))
        ratio = q**gap
        d = [r * q**burn_in * (1 - ratio) * ratio**j for j in range(200)]
        # first round within tol; a later one if rounds do not halve
        first = next(k for k in range(1, 201) if d[k - 1] <= tol)
        expected = max(2, first if ratio <= 0.5 else first + 1)
        A = attractor_approx(lambda pts, n: pts * q**n, cfg, 1.0,
                             "window", 4)
        assert A.meta["rounds"] == expected
        assert A.meta["steps_evolved"] == burn_in + expected * gap
        assert A.meta["stabilized_distance"] <= tol
        assert A.meta["contraction_ratio"] == pytest.approx(ratio, rel=1e-9)

    def test_steady_drift_within_tol_stops_after_two_rounds(self):
        # every round moves the cloud by tol/2 and none contracts: round 1
        # cannot stop it, round 2 follows a round within tol
        tol, gap = 1e-7, 4

        def advance(pts, n):
            out = pts.copy()
            out[:, 0] += n * (tol / 2) / gap
            return out

        cfg = AttractorConfig(sample_count=16, burn_in=7,
                              stabilization_gap=gap, stabilization_tol=tol,
                              max_rounds=50, seed=5)
        A = attractor_approx(advance, cfg, 1.0, "window", 3)
        assert A.meta["rounds"] == 2
        assert A.meta["steps_evolved"] == 7 + 2 * gap
        assert A.meta["stabilized_distance"] == pytest.approx(tol / 2)
        assert A.meta["contraction_ratio"] == pytest.approx(1.0)

    def test_fixed_cloud_has_no_contraction_ratio(self):
        cfg = AttractorConfig(sample_count=4, burn_in=1, stabilization_gap=1,
                              max_rounds=5, seed=6)
        A = attractor_approx(lambda pts, n: pts, cfg, 1.0, "window", 2)
        assert A.meta["rounds"] == 2
        assert A.meta["stabilized_distance"] == 0.0
        assert A.meta["contraction_ratio"] is None

    def test_deterministic_given_seed(self):
        def advance(pts, n):
            return pts * 0.9 ** n

        cfg = AttractorConfig(sample_count=8, burn_in=50,
                              stabilization_gap=10, stabilization_tol=1e-4,
                              max_rounds=100, seed=9)
        A = attractor_approx(advance, cfg, 1.0, "window", 3)
        B = attractor_approx(advance, cfg, 1.0, "window", 3)
        assert np.array_equal(A.points, B.points)


class TestTailProfile:
    def test_zero_for_core_supported_cloud(self):
        A = cloud([[0.0, 1.0, 2.0, 1.0, 0.0]])
        assert tail_profile(A, 2) == 0.0

    def test_positive_for_wide_cloud(self):
        pts = np.zeros((1, 17))
        pts[0, 0] = 3.0  # site -8
        A = PointCloud("window", 8, pts)
        assert tail_profile(A, 2) == pytest.approx(9.0)


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(36)
        A = PointCloud("truncated", 4, rng.standard_normal((7, 9)),
                       meta={"eps": 0.01, "m": 4, "seed": 36})
        B = cloud_from_json(cloud_to_json(A))
        assert B.space == A.space and B.half_width == A.half_width
        assert np.array_equal(A.points, B.points)
        assert B.meta["eps"] == 0.01 and B.meta["m"] == 4

    def test_numpy_scalars_and_tuples_in_meta_round_trip(self):
        meta = {"rounds": np.int64(3), "certified": np.bool_(True),
                "kappa": np.float64(-0.5), "iterations": np.int32(7),
                "shape": (2, np.int64(3)), "steps": {"rows": [np.int64(0)]}}
        A = PointCloud("window", 1, np.eye(3)[:2], meta=meta)
        text = cloud_to_json(A)
        B = cloud_from_json(text)
        assert B.meta == {"rounds": 3, "certified": True, "kappa": -0.5,
                          "iterations": 7, "shape": [2, 3],
                          "steps": {"rows": [0]}}
        assert type(B.meta["rounds"]) is int
        assert type(B.meta["certified"]) is bool
        assert cloud_to_json(B) == text

    def test_version_check(self):
        A = cloud([[1.0, 2.0, 3.0]])
        text = cloud_to_json(A).replace('"version":1', '"version":99')
        with pytest.raises(ValueError):
            cloud_from_json(text)


class TestValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            PointCloud("window", 1, np.zeros((0, 3)))
        with pytest.raises(ValueError):
            PointCloud("window", 1, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            PointCloud("window", 1, np.array([[0.0, np.nan, 0.0]]))

    def test_rejects_unknown_space(self):
        with pytest.raises(SpaceMismatch):
            PointCloud("fourier", 1, np.zeros((1, 3)))
