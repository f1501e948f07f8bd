import json
import math
import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquereg import (
    Association,
    InputError,
    PointCloud,
    RegistrationError,
    RigidTransform,
    Scenario,
    build_consistency_graph,
    estimate_rigid_transform,
    load_scenario,
    mean_nearest_neighbor_distance,
    register_clouds,
    registration_errors,
    save_scenario,
    synthetic_scene,
)
from cliquereg.graph import _MAX_PACKED_BYTES
from cliquereg.registration import _BUILD_BLOCK, _distance_mismatch

from .conftest import assert_packed_rows_match
from .oracles import broadcast_distance_mismatch


def rotation_about_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rigid(rng: np.random.Generator) -> RigidTransform:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return RigidTransform(rotation=rot, translation=rng.uniform(-1.0, 1.0, size=3))


class TestDataTypes:
    def test_point_cloud_shape_checked(self):
        with pytest.raises(InputError):
            PointCloud(np.zeros((3, 2)))
        with pytest.raises(InputError):
            PointCloud(np.zeros(3))
        with pytest.raises(InputError):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))
        assert len(PointCloud(np.zeros((4, 3)))) == 4

    def test_rigid_transform_validation(self):
        with pytest.raises(InputError):
            RigidTransform(rotation=np.eye(3) * 2.0, translation=np.zeros(3))
        with pytest.raises(InputError):
            RigidTransform(rotation=np.diag([1.0, 1.0, -1.0]), translation=np.zeros(3))
        with pytest.raises(InputError):
            RigidTransform(rotation=np.eye(3), translation=np.zeros(2))

    def test_apply(self):
        tf = RigidTransform(
            rotation=rotation_about_z(math.pi / 2.0),
            translation=np.array([1.0, 0.0, 0.0]),
        )
        moved = tf.apply(np.array([[1.0, 0.0, 0.0]]))
        assert np.allclose(moved, [[1.0, 1.0, 0.0]], atol=1e-15)


class TestConsistencyGraph:
    def test_distance_agreement_decides_edges(self):
        # Association 2 claims a point far from where the others put it:
        # the distance mismatch kills both of its potential edges.
        a = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]))
        b = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0]]))
        assoc = [Association(0, 0), Association(1, 1), Association(2, 2)]
        g = build_consistency_graph(a, b, assoc, epsilon=0.5)
        assert g.edge_count == 1
        assert (g.rows[0] >> 1) & 1
        assert not (g.rows[0] >> 2) & 1
        assert not (g.rows[1] >> 2) & 1

    def test_shared_endpoints_never_connect(self):
        # Two associations disputing the same point cannot both hold, even
        # when their implied distances agree perfectly.
        a = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        b = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        same_a = [Association(0, 0), Association(0, 1)]
        same_b = [Association(0, 0), Association(1, 0)]
        assert build_consistency_graph(a, b, same_a, 10.0).edge_count == 0
        assert build_consistency_graph(a, b, same_b, 10.0).edge_count == 0

    def test_threshold_is_strict(self):
        a = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        b = PointCloud(np.array([[0.0, 0, 0], [1.5, 0, 0]]))
        assoc = [Association(0, 0), Association(1, 1)]
        assert build_consistency_graph(a, b, assoc, 0.5).edge_count == 0
        assert build_consistency_graph(a, b, assoc, 0.5 + 1e-9).edge_count == 1

    @staticmethod
    def assert_matches_broadcast_at_ties(cloud_a, cloud_b, assoc):
        """Built rows equal the broadcast reference's thresholded matrix, at
        epsilons equal to mismatch values that occur, so the strict
        comparison decides the tied pairs."""
        ai = np.array([a.a_index for a in assoc])
        bi = np.array([a.b_index for a in assoc])
        mismatch = broadcast_distance_mismatch(cloud_a.points[ai], cloud_b.points[bi])
        distinct = (ai[:, None] != ai[None, :]) & (bi[:, None] != bi[None, :])
        off = mismatch[distinct]
        epsilons = np.quantile(off, [0.1, 0.5], method="lower") if off.size else [1.0]
        for epsilon in epsilons:
            g = build_consistency_graph(cloud_a, cloud_b, assoc, epsilon)
            want = (mismatch < epsilon) & distinct
            assert g.adjacency_matrix().tobytes() == want.tobytes()
            assert g.edge_count == np.count_nonzero(want) // 2
            # from_adjacency re-checks the symmetry and the empty diagonal
            # that the blocked build only has by construction.
            assert_packed_rows_match(g)

    def test_graph_matches_broadcast_reference_at_exact_ties(self):
        # Associations reuse endpoints, so the endpoint rule decides edges
        # too; the reused ones sit in the first row block, their reusers in
        # the second.
        scene = synthetic_scene(80, 0.2, 80, 1.0, 150, 0.6, seed=3)
        assoc = list(scene.associations) + [
            Association(a.a_index, (a.b_index + 1) % len(scene.cloud_b))
            for a in scene.associations[:20]
        ]
        self.assert_matches_broadcast_at_ties(scene.cloud_a, scene.cloud_b, assoc)

    @pytest.mark.parametrize(
        "n",
        [1, 7, _BUILD_BLOCK - 1, _BUILD_BLOCK, _BUILD_BLOCK + 1, 2 * _BUILD_BLOCK + 3],
    )
    def test_graph_matches_broadcast_reference_at_block_boundaries(self, n):
        # One block, exactly one, one plus a single row, and a short last
        # block. The last quarter of the associations reuses an endpoint of
        # the first quarter, in either cloud, across blocks once n > B.
        base = n - n // 4
        scene = synthetic_scene(80, 0.2, 80, 1.0, base, 0.6, seed=n)
        na, nb = len(scene.cloud_a), len(scene.cloud_b)
        assoc = list(scene.associations) + [
            Association(a.a_index, (a.b_index + 1) % nb)
            if k % 2
            else Association((a.a_index + 1) % na, a.b_index)
            for k, a in enumerate(scene.associations[: n - base])
        ]
        assert len(assoc) == n
        self.assert_matches_broadcast_at_ties(scene.cloud_a, scene.cloud_b, assoc)

    def test_build_memory_is_linear_in_block_rows(self):
        # A dense build at 3000 associations peaks near 140 MB (two n x n
        # float64 matrices); the blocked one holds B x n floats plus the
        # packed rows.
        scene = synthetic_scene(3000, 0.2, 3000, 1.0, 3000, 0.95, seed=1)
        tracemalloc.start()
        try:
            build_consistency_graph(
                scene.cloud_a, scene.cloud_b, scene.associations, scene.epsilon
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_built_rows_live_outside_the_malloc_heap(self):
        # The graph keeps its packed rows for the whole solve, so the build
        # writes them into an anonymous mapping rather than onto the heap.
        scene = synthetic_scene(80, 0.2, 80, 1.0, 100, 0.6, seed=3)
        g = build_consistency_graph(
            scene.cloud_a, scene.cloud_b, scene.associations, scene.epsilon
        )
        owner = g.packed
        while isinstance(owner, (np.ndarray, memoryview)):
            owner = owner.base if isinstance(owner, np.ndarray) else owner.obj
        assert isinstance(owner, mmap.mmap)

    def test_association_count_over_packed_cap_rejected(self):
        # 92,681 associations need n * ceil(n/8) bytes of packed rows, just
        # over the 1 GiB cap; they are refused before any n x n allocation.
        n = 92681
        assert n * ((n + 7) // 8) > _MAX_PACKED_BYTES
        a = PointCloud(np.zeros((1, 3)))
        with pytest.raises(InputError, match="cap"):
            build_consistency_graph(a, a, [Association(0, 0)] * n, 1.0)

    def test_input_validation(self):
        a = PointCloud(np.zeros((2, 3)))
        assoc = [Association(0, 0)]
        with pytest.raises(InputError):
            build_consistency_graph(a, a, assoc, 0.0)
        with pytest.raises(InputError):
            build_consistency_graph(a, a, [], 1.0)
        with pytest.raises(InputError):
            build_consistency_graph(a, a, [Association(0, 5)], 1.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        # NaN compares false against every distance, so it would otherwise
        # give an edgeless graph without complaint.
        a = PointCloud(np.zeros((2, 3)))
        with pytest.raises(InputError, match="finite"):
            build_consistency_graph(a, a, [Association(0, 0)], epsilon)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_rigid_motion_preserves_all_consistencies(self, seed):
        # Rigid motions preserve pairwise distances exactly, so identity
        # associations between a cloud and its moved copy form a complete
        # consistency graph at any positive threshold.
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, size=(8, 3))
        moved = random_rigid(rng).apply(pts)
        assoc = [Association(i, i) for i in range(8)]
        g = build_consistency_graph(
            PointCloud(pts), PointCloud(moved), assoc, epsilon=1e-9
        )
        assert g.edge_count == 8 * 7 // 2


class TestDistanceMismatch:
    """The kernel must equal the (n, n, 3) broadcast form byte for byte:
    scene thresholds and graph edges are decided by exact comparisons."""

    @staticmethod
    def assert_same_bytes(pa, pb):
        want = broadcast_distance_mismatch(pa, pb)
        got = _distance_mismatch(pa, pb, pa, pb)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # The graph build's form: rows s:e against columns s:, and the sets
        # swapped for the mirrored part. The step is below the build's block
        # so every input has several blocks and a short last one.
        n = len(pa)
        for s in range(0, n, 48):
            e = min(s + 48, n)
            block = _distance_mismatch(pa[s:e], pb[s:e], pa[s:], pb[s:])
            assert block.tobytes() == want[s:e, s:].tobytes()
            mirror = _distance_mismatch(pa[s:], pb[s:], pa[s:e], pb[s:e])
            assert mirror.tobytes() == want[s:, s:e].tobytes()
            assert mirror.tobytes() == block.T.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ratio", [0.5, 0.95])
    def test_matches_broadcast_on_seeded_scenes(self, seed, ratio):
        scene = synthetic_scene(300, 0.2, 300, 1.0, 300, ratio, seed=seed)
        ai = [a.a_index for a in scene.associations]
        bi = [a.b_index for a in scene.associations]
        self.assert_same_bytes(scene.cloud_a.points[ai], scene.cloud_b.points[bi])

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6])
    def test_matches_broadcast_with_duplicates_across_scales(self, scale):
        rng = np.random.default_rng(17)
        base = rng.uniform(-1.0, 1.0, size=(60, 3))
        # Repeated rows give exact zero distances off the diagonal.
        pa = scale * base[rng.integers(0, 40, size=120)]
        pb = scale * random_rigid(rng).apply(base)[rng.integers(0, 40, size=120)]
        self.assert_same_bytes(pa, pb)


class TestRigidTransformFit:
    def test_identity_recovery(self):
        pts = PointCloud(
            np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        )
        pairs = [Association(i, i) for i in range(4)]
        tf = estimate_rigid_transform(pts, pts, pairs)
        assert np.allclose(tf.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(tf.translation, 0.0, atol=1e-12)

    def test_known_motion_recovery(self):
        src = PointCloud(
            np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        )
        tf_true = RigidTransform(
            rotation=rotation_about_z(math.pi / 2.0),
            translation=np.array([0.3, -0.2, 0.7]),
        )
        dst = PointCloud(tf_true.apply(src.points))
        pairs = [Association(i, i) for i in range(4)]
        tf = estimate_rigid_transform(src, dst, pairs)
        err = registration_errors(tf, tf_true)
        assert err.rotation_error_deg < 1e-9
        assert err.translation_error < 1e-12

    def test_coplanar_points_are_fine(self):
        # A planar correspondence set still pins the rotation down; only
        # collinear sets are ambiguous.
        square = PointCloud(
            np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1.0, 0], [0, 1.0, 0]])
        )
        rng = np.random.default_rng(11)
        tf_true = random_rigid(rng)
        dst = PointCloud(tf_true.apply(square.points))
        tf = estimate_rigid_transform(
            square, dst, [Association(i, i) for i in range(4)]
        )
        err = registration_errors(tf, tf_true)
        assert err.rotation_error_deg < 1e-9
        assert err.translation_error < 1e-12

    def test_collinear_points_rejected(self):
        line = PointCloud(
            np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        )
        with pytest.raises(RegistrationError):
            estimate_rigid_transform(
                line, line, [Association(i, i) for i in range(4)]
            )

    def test_coincident_points_rejected(self):
        blob = PointCloud(np.ones((3, 3)))
        with pytest.raises(RegistrationError):
            estimate_rigid_transform(
                blob, blob, [Association(i, i) for i in range(3)]
            )

    def test_too_few_pairs_rejected(self):
        pts = PointCloud(np.eye(3))
        with pytest.raises(RegistrationError):
            estimate_rigid_transform(pts, pts, [Association(0, 0), Association(1, 1)])

    def test_mirrored_data_still_yields_proper_rotation(self):
        src = PointCloud(
            np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        )
        mirrored = PointCloud(src.points * np.array([1.0, 1.0, -1.0]))
        tf = estimate_rigid_transform(
            src, mirrored, [Association(i, i) for i in range(4)]
        )
        assert np.linalg.det(tf.rotation) == pytest.approx(1.0, abs=1e-12)

    def test_random_motions_recovered_exactly(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            pts = PointCloud(rng.uniform(-2.0, 2.0, size=(10, 3)))
            tf_true = random_rigid(rng)
            dst = PointCloud(tf_true.apply(pts.points))
            tf = estimate_rigid_transform(
                pts, dst, [Association(i, i) for i in range(10)]
            )
            err = registration_errors(tf, tf_true)
            assert err.rotation_error_deg < 1e-9
            assert err.translation_error < 1e-9


class TestRegistrationErrors:
    def test_pure_rotation_angle(self):
        tf_a = RigidTransform(
            rotation=rotation_about_z(0.1), translation=np.zeros(3)
        )
        err = registration_errors(tf_a, RigidTransform.identity())
        assert err.rotation_error_deg == pytest.approx(math.degrees(0.1), abs=1e-9)
        assert err.translation_error == 0.0

    def test_translation_distance(self):
        tf_a = RigidTransform(
            rotation=np.eye(3), translation=np.array([3.0, 4.0, 0.0])
        )
        err = registration_errors(tf_a, RigidTransform.identity())
        assert err.rotation_error_deg == pytest.approx(0.0, abs=1e-6)
        assert err.translation_error == pytest.approx(5.0)

    def test_antipodal_rotation_reads_180(self):
        flip = RigidTransform(
            rotation=np.diag([-1.0, -1.0, 1.0]), translation=np.zeros(3)
        )
        err = registration_errors(flip, RigidTransform.identity())
        assert err.rotation_error_deg == pytest.approx(180.0)

    def test_identical_transforms_never_produce_nan(self):
        # trace can land a hair above 3 in floats; acos must be clamped.
        rng = np.random.default_rng(8)
        for _ in range(20):
            tf = random_rigid(rng)
            err = registration_errors(tf, tf)
            assert math.isfinite(err.rotation_error_deg)
            assert err.rotation_error_deg < 1e-5


class TestNearestNeighborSpacing:
    def test_hand_case(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        assert mean_nearest_neighbor_distance(pts) == pytest.approx(4.0 / 3.0)

    def test_needs_two_points(self):
        with pytest.raises(InputError):
            mean_nearest_neighbor_distance(np.zeros((1, 3)))


class TestSyntheticScene:
    def test_deterministic_per_seed(self):
        a = synthetic_scene(40, 1.0, 20, 1.0, 30, 0.5, seed=5)
        b = synthetic_scene(40, 1.0, 20, 1.0, 30, 0.5, seed=5)
        assert np.array_equal(a.cloud_a.points, b.cloud_a.points)
        assert np.array_equal(a.cloud_b.points, b.cloud_b.points)
        assert a.associations == b.associations
        assert a.epsilon == b.epsilon
        c = synthetic_scene(40, 1.0, 20, 1.0, 30, 0.5, seed=6)
        assert not np.array_equal(a.cloud_a.points, c.cloud_a.points)

    def test_counts_and_mask_layout(self):
        s = synthetic_scene(60, 1.0, 30, 1.0, 50, 0.4, seed=1)
        assert len(s.associations) == 50
        assert sum(s.inlier_mask) == 30
        assert s.inlier_mask == (True,) * 30 + (False,) * 20
        assert len(s.cloud_a) == 60
        assert len(s.cloud_b) == 90

    def test_extreme_ratios(self):
        all_in = synthetic_scene(30, 1.0, 10, 1.0, 20, 0.0, seed=2)
        assert all(all_in.inlier_mask)
        all_out = synthetic_scene(30, 1.0, 10, 1.0, 20, 1.0, seed=2)
        assert not any(all_out.inlier_mask)

    def test_inliers_are_identity_pairs_and_outliers_are_wrong(self):
        s = synthetic_scene(50, 1.0, 25, 1.0, 40, 0.5, seed=9)
        for assoc, is_inlier in zip(s.associations, s.inlier_mask):
            if is_inlier:
                assert assoc.a_index == assoc.b_index < 50
            else:
                assert not (assoc.a_index == assoc.b_index < 50)

    def test_planted_inliers_form_a_clique(self):
        # The stored threshold is inflated exactly enough for this.
        for seed in range(10):
            s = synthetic_scene(50, 1.0, 25, 1.0, 40, 0.5, seed=seed)
            g = build_consistency_graph(
                s.cloud_a, s.cloud_b, s.associations, s.epsilon
            )
            inliers = [i for i, m in enumerate(s.inlier_mask) if m]
            for x in range(len(inliers)):
                for y in range(x + 1, len(inliers)):
                    assert (g.rows[inliers[x]] >> inliers[y]) & 1
            assert s.epsilon_inflation >= 1.0

    def test_input_validation(self):
        with pytest.raises(InputError):
            synthetic_scene(1, 1.0, 10, 1.0, 5, 0.5, seed=0)
        with pytest.raises(InputError):
            synthetic_scene(10, 1.0, -1, 1.0, 5, 0.5, seed=0)
        with pytest.raises(InputError):
            synthetic_scene(10, 1.0, 10, 1.0, 5, 1.5, seed=0)
        with pytest.raises(InputError):
            # 20 inliers need 20 distinct cloud-A points, only 10 exist.
            synthetic_scene(10, 1.0, 10, 1.0, 20, 0.0, seed=0)
        with pytest.raises(InputError):
            # 2 points, no clutter: only 2 wrong pairs exist.
            synthetic_scene(2, 1.0, 0, 1.0, 5, 1.0, seed=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("argument", ["cube_size", "outlier_sphere_radius"])
    def test_scene_sizes_must_be_positive_and_finite(self, argument, value):
        kwargs = dict(n_points=10, cube_size=1.0, n_outlier_points=10,
                      outlier_sphere_radius=1.0, n_associations=5,
                      outlier_ratio=0.5, seed=0)
        kwargs[argument] = value
        with pytest.raises(InputError, match=f"^{argument} must be positive and finite"):
            synthetic_scene(**kwargs)


class TestScenarioSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        s = synthetic_scene(30, 1.0, 15, 1.0, 25, 0.6, seed=77)
        path = tmp_path / "scene.json"
        save_scenario(s, path)
        r = load_scenario(path)
        assert np.array_equal(r.cloud_a.points, s.cloud_a.points)
        assert np.array_equal(r.cloud_b.points, s.cloud_b.points)
        assert np.array_equal(r.gt_transform.rotation, s.gt_transform.rotation)
        assert np.array_equal(r.gt_transform.translation, s.gt_transform.translation)
        assert r.associations == s.associations
        assert r.inlier_mask == s.inlier_mask
        assert r.epsilon == s.epsilon
        assert r.epsilon_inflation == s.epsilon_inflation
        assert r.seed == s.seed

    @pytest.mark.parametrize(
        "payload", [{"format": "something-else"}, [1, 2]], ids=["other format", "list"]
    )
    def test_rejects_wrong_format(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError):
            load_scenario(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_scenario(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_scenario(tmp_path / "absent.json")

    def test_rejects_missing_key(self, tmp_path):
        s = synthetic_scene(10, 1.0, 5, 1.0, 8, 0.5, seed=3)
        path = tmp_path / "scene.json"
        save_scenario(s, path)
        payload = json.loads(path.read_text())
        del payload["cloud_b"]
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError):
            load_scenario(path)


class TestRegisterClouds:
    def test_identity_scene(self):
        rng = np.random.default_rng(4)
        pts = PointCloud(rng.uniform(-1.0, 1.0, size=(12, 3)))
        assoc = [Association(i, i) for i in range(12)]
        result = register_clouds(pts, pts, assoc, epsilon=1e-6)
        assert np.allclose(result.transform.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(result.transform.translation, 0.0, atol=1e-9)
        assert len(result.inlier_indices) == 12

    def test_synthetic_scene_with_outliers(self):
        s = synthetic_scene(100, 1.0, 50, 1.0, 60, 0.5, seed=42)
        result = register_clouds(
            s.cloud_a, s.cloud_b, list(s.associations), s.epsilon
        )
        err = registration_errors(result.transform, s.gt_transform)
        assert err.rotation_error_deg < 5.0
        assert err.translation_error < 2.0 * s.epsilon
        # Crosscheck the selected associations against the planted truth:
        # at 50% outliers the inlier clique should dominate.
        planted = {i for i, m in enumerate(s.inlier_mask) if m}
        found = set(result.inlier_indices)
        assert len(found & planted) >= 0.9 * len(planted)

    def test_too_small_clique_raises(self):
        a = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        assoc = [Association(0, 0), Association(1, 1)]
        with pytest.raises(RegistrationError):
            register_clouds(a, a, assoc, epsilon=1.0)
