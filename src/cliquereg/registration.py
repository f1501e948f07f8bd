"""Outlier-robust global registration via pairwise-consistency cliques.

Putative point associations between two clouds become vertices of a
consistency graph; two associations are joined when the intra-cloud
distances they imply agree within a threshold and they do not reuse an
endpoint. Rigid-motion inliers are mutually consistent, so they form a
clique, and the largest clique is the standard robust inlier hypothesis.
The estimated clique feeds a least-squares rigid transform fit.

This is the one module that uses scipy, in two functions:
``_distance_mismatch`` (``cdist``) and ``mean_nearest_neighbor_distance``
(``cKDTree``). Each imports it when called, so ``import cliquereg`` and the
graph solvers never load scipy.
"""

from __future__ import annotations

import json
import math
import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clipper_plus import ClipperPlusReport, clipper_plus
from .errors import InputError, RegistrationError, read_json_object
from .graph import Graph, _check_packed_size, _from_packed
from .relaxation import SolverParams

SCENARIO_FORMAT = "cliquereg-scenario-v1"

# Rigid transforms are validated to this tolerance on orthonormality and
# determinant; collinearity of correspondence sets is judged relative to
# the largest singular value.
_ORTHONORMAL_TOL = 1e-9
_DEGENERATE_RATIO = 1e-9


@dataclass(frozen=True)
class PointCloud:
    """Points as an (m, 3) float64 array; entries must be finite."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InputError(f"point cloud must have shape (m, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InputError("point cloud has non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Association:
    """Index pair: point ``a_index`` of cloud A matched to ``b_index`` of B."""

    a_index: int
    b_index: int


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion ``x -> R x + t``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        tra = np.asarray(self.translation, dtype=float)
        if rot.shape != (3, 3):
            raise InputError(f"rotation must be 3x3, got {rot.shape}")
        if tra.shape != (3,):
            raise InputError(f"translation must be a 3-vector, got {tra.shape}")
        if np.max(np.abs(rot @ rot.T - np.eye(3))) > _ORTHONORMAL_TOL:
            raise InputError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > _ORTHONORMAL_TOL:
            raise InputError("rotation determinant is not +1 (improper rotation)")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(rotation=np.eye(3), translation=np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation


@dataclass(frozen=True)
class RegistrationErrors:
    rotation_error_deg: float
    translation_error: float


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    inlier_indices: tuple[int, ...]  # association indices in the clique
    report: ClipperPlusReport


@dataclass(frozen=True)
class Scenario:
    """A synthetic registration problem with known ground truth.

    ``epsilon`` is the consistency threshold to use downstream. When the
    drawn noise makes some true-inlier pair exceed the threshold implied by
    the cloud density, the stored threshold is inflated by the minimal
    factor restoring the inlier clique and ``epsilon_inflation`` records it.
    """

    cloud_a: PointCloud
    cloud_b: PointCloud
    associations: tuple[Association, ...]
    inlier_mask: tuple[bool, ...]
    gt_transform: RigidTransform
    epsilon: float
    seed: int
    epsilon_inflation: float = 1.0


def _distance_mismatch(
    pa: np.ndarray, pb: np.ndarray, qa: np.ndarray, qb: np.ndarray
) -> np.ndarray:
    """``| ||pa_i - qa_k|| - ||pb_i - qb_k|| |`` for every row i of the
    associations ``(pa, pb)`` against every row k of ``(qa, qb)``.

    The consistency graph, one row block at a time, and the scene
    generator's threshold inflation both call this, so the planted inliers
    are a clique under exactly the numbers the graph build compares.
    ``cdist`` computes each entry from its own pair of points alone,
    summing the squared coordinate differences in axis order as
    ``np.linalg.norm`` over an ``(n, n, 3)`` difference array does, so any
    block's bytes equal that form's slice without allocating it. The
    squares of ``a - b`` and ``b - a`` are equal, so swapping the two sets
    gives the transpose bit for bit.

    ``cdist`` is imported here, not at module level, so only registration
    loads scipy; after the first call the import is a ``sys.modules``
    lookup of about 1 µs.
    """
    from scipy.spatial.distance import cdist

    mismatch = cdist(pa, qa)
    mismatch -= cdist(pb, qb)
    return np.abs(mismatch, out=mismatch)


# Associations per row block of the graph build. A multiple of 8, so every
# block starts on a byte of the packed rows.
_BUILD_BLOCK = 128


def build_consistency_graph(
    cloud_a: PointCloud,
    cloud_b: PointCloud,
    associations: list[Association] | tuple[Association, ...],
    epsilon: float,
) -> Graph:
    """Graph over associations; edges join geometrically consistent pairs.

    Associations (i, j) and (k, l) are consistent when
    ``| ||a_i - a_k|| - ||b_j - b_l|| | < epsilon`` (strict) and they share
    no endpoint in either cloud. Endpoint reuse is excluded because two
    associations claiming the same point cannot both be correct.

    The build walks row blocks ``[s, e)`` of ``_BUILD_BLOCK`` (B)
    associations and computes each block against columns ``s..n`` only, the
    upper triangle. It packs the block's bits into rows ``s..e`` and the
    transpose of its part right of the block into rows ``e..n``, so the
    graph is symmetric by construction, and the graph keeps those packed
    rows. Memory is O(B·n) beyond the ``n * ceil(n/8)`` bytes of packed rows
    (and the rows as Python ints, the same size again): a block's mismatch
    peaks at two ``B x n`` float64 matrices, 2 MB at 1k associations and
    41 MB at 20k, where the packed rows take 125 kB and 50 MB. A count whose
    packed rows would pass ``graph._MAX_PACKED_BYTES`` raises ``InputError``
    before anything of size n² is allocated.
    """
    if not (0.0 < epsilon < math.inf):
        raise InputError(f"epsilon must be positive and finite, got {epsilon}")
    n = len(associations)
    if n == 0:
        raise InputError("need at least one association")
    _check_packed_size(n)
    ai = np.array([a.a_index for a in associations], dtype=int)
    bi = np.array([a.b_index for a in associations], dtype=int)
    if ai.min() < 0 or ai.max() >= len(cloud_a):
        raise InputError("association references a point outside cloud A")
    if bi.min() < 0 or bi.max() >= len(cloud_b):
        raise InputError("association references a point outside cloud B")
    pa = cloud_a.points[ai]
    pb = cloud_b.points[bi]
    # The endpoint masks only test equality, so endpoints are replaced by
    # their ranks, which fit int32 under the cap: half the bytes to compare.
    ai = np.unique(ai, return_inverse=True)[1].astype(np.int32)
    bi = np.unique(bi, return_inverse=True)[1].astype(np.int32)
    # The graph keeps these rows for the whole solve. They go into an
    # anonymous mapping, zero-filled by the kernel, rather than onto the
    # malloc heap, where they raised the peak RSS of the perfbench
    # register workload by up to 2 MB and made it vary between runs.
    nbytes = (n + 7) // 8
    packed = np.frombuffer(mmap.mmap(-1, n * nbytes), dtype=np.uint8).reshape(n, nbytes)
    for s in range(0, n, _BUILD_BLOCK):
        e = min(s + _BUILD_BLOCK, n)
        blk = _distance_mismatch(pa[s:e], pb[s:e], pa[s:], pb[s:]) < epsilon
        # Distinct endpoints also clear the diagonal.
        blk &= ai[s:e, None] != ai[None, s:]
        blk &= bi[s:e, None] != bi[None, s:]
        packed[s:e, s // 8 :] = np.packbits(blk, axis=1, bitorder="little")
        if e < n:
            # packbits is several times faster on a contiguous copy of the
            # transpose than on the transposed view.
            mirror = np.ascontiguousarray(blk[:, e - s :].T)
            packed[e:, s // 8 : e // 8] = np.packbits(mirror, axis=1, bitorder="little")
    return _from_packed(packed, n)


def estimate_rigid_transform(
    src: PointCloud,
    dst: PointCloud,
    pairs: list[Association] | tuple[Association, ...],
) -> RigidTransform:
    """Least-squares rigid transform mapping paired src points onto dst.

    SVD of the cross-covariance; when the candidate rotation comes out as a
    reflection, the singular direction with the smallest singular value is
    flipped. Needs at least 3 non-collinear source points.
    """
    if len(pairs) < 3:
        raise RegistrationError(
            f"need at least 3 correspondences, got {len(pairs)}"
        )
    si = np.array([p.a_index for p in pairs], dtype=int)
    di = np.array([p.b_index for p in pairs], dtype=int)
    if si.min() < 0 or si.max() >= len(src):
        raise InputError("pair references a point outside the source cloud")
    if di.min() < 0 or di.max() >= len(dst):
        raise InputError("pair references a point outside the destination cloud")
    a = src.points[si]
    b = dst.points[di]
    ca = a.mean(axis=0)
    cb = b.mean(axis=0)
    h = (a - ca).T @ (b - cb)
    u, s, vt = np.linalg.svd(h)
    if s[0] <= 0.0 or s[1] <= _DEGENERATE_RATIO * s[0]:
        raise RegistrationError(
            "correspondences are collinear or coincident; the rigid "
            "transform is not unique"
        )
    v = vt.T
    sign = np.sign(np.linalg.det(v @ u.T))
    rot = v @ np.diag([1.0, 1.0, sign]) @ u.T
    tra = cb - rot @ ca
    return RigidTransform(rotation=rot, translation=tra)


def registration_errors(
    estimated: RigidTransform, gt: RigidTransform
) -> RegistrationErrors:
    """Geodesic rotation error in degrees plus translation distance.

    The angle comes from atan2 of the rotation's sine (skew part) and
    cosine (trace); unlike the arccos-of-trace form this resolves angles
    all the way down to machine precision.
    """
    rel = estimated.rotation @ gt.rotation.T
    sin = 0.5 * math.sqrt(
        (rel[2, 1] - rel[1, 2]) ** 2
        + (rel[0, 2] - rel[2, 0]) ** 2
        + (rel[1, 0] - rel[0, 1]) ** 2
    )
    cos = (np.trace(rel) - 1.0) / 2.0
    angle = math.degrees(math.atan2(sin, cos))
    dist = float(np.linalg.norm(estimated.translation - gt.translation))
    return RegistrationErrors(rotation_error_deg=angle, translation_error=dist)


def mean_nearest_neighbor_distance(points: np.ndarray) -> float:
    """Average distance from each point to its nearest other point."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        raise InputError("need at least 2 points for nearest-neighbour spacing")
    from scipy.spatial import cKDTree

    dists, _ = cKDTree(pts).query(pts, k=2)
    return float(dists[:, 1].mean())


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    # Normalized Gaussian quaternion: uniform over rotations.
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _uniform_in_sphere(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    direction = rng.normal(size=(count, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    r = radius * rng.uniform(0.0, 1.0, size=count) ** (1.0 / 3.0)
    return direction * r[:, None]


def synthetic_scene(
    n_points: int,
    cube_size: float,
    n_outlier_points: int,
    outlier_sphere_radius: float,
    n_associations: int,
    outlier_ratio: float,
    seed: int,
) -> Scenario:
    """Generate a seeded registration scenario with known ground truth.

    Cloud A is uniform in an origin-centred cube of side ``cube_size``; the
    consistency threshold is its mean nearest-neighbour distance. Cloud B is
    A under a random rigid motion (rotation uniform over the group,
    translation uniform in [-0.5, 0.5] per axis) with per-axis uniform noise
    in [-eps/2, eps/2], followed by clutter points drawn uniformly from a
    sphere of radius ``outlier_sphere_radius`` centred on the transformed
    cloud. Inlier associations pair distinct cloud-A points with their
    transformed counterparts; outlier associations are random wrong pairs.

    Determinism: one seed sequence per component, split in a fixed order
    (cloud A, transform, noise, clutter, association sampling), each driving
    an independent PCG64 stream.
    """
    if n_points < 2:
        raise InputError(f"need at least 2 cloud points, got {n_points}")
    if not (0.0 < cube_size < math.inf):
        raise InputError(f"cube_size must be positive and finite, got {cube_size}")
    if not (0.0 < outlier_sphere_radius < math.inf):
        raise InputError(
            "outlier_sphere_radius must be positive and finite, "
            f"got {outlier_sphere_radius}"
        )
    if n_outlier_points < 0:
        raise InputError(f"clutter count must be non-negative, got {n_outlier_points}")
    if n_associations < 1:
        raise InputError(f"need at least one association, got {n_associations}")
    if not (0.0 <= outlier_ratio <= 1.0):
        raise InputError(f"outlier ratio must lie in [0, 1], got {outlier_ratio}")

    n_inliers = round(n_associations * (1.0 - outlier_ratio))
    n_outliers = n_associations - n_inliers
    if n_inliers > n_points:
        raise InputError(
            f"{n_inliers} inlier associations need distinct endpoints but "
            f"cloud A only has {n_points} points"
        )
    wrong_pairs_available = n_points * (n_points + n_outlier_points) - n_points
    if n_outliers > wrong_pairs_available:
        raise InputError(
            f"{n_outliers} distinct wrong associations requested but only "
            f"{wrong_pairs_available} exist"
        )

    streams = np.random.SeedSequence(seed).spawn(5)
    rng_cloud, rng_tf, rng_noise, rng_clutter, rng_assoc = (
        np.random.Generator(np.random.PCG64(s)) for s in streams
    )

    half = cube_size / 2.0
    points_a = rng_cloud.uniform(-half, half, size=(n_points, 3))
    eps = mean_nearest_neighbor_distance(points_a)

    gt = RigidTransform(
        rotation=_random_rotation(rng_tf),
        translation=rng_tf.uniform(-0.5, 0.5, size=3),
    )
    transformed = gt.apply(points_a)
    noisy = transformed + rng_noise.uniform(-eps / 2.0, eps / 2.0, size=(n_points, 3))
    clutter = transformed.mean(axis=0) + _uniform_in_sphere(
        rng_clutter, n_outlier_points, outlier_sphere_radius
    )
    points_b = np.vstack([noisy, clutter]) if n_outlier_points else noisy

    inlier_a = rng_assoc.choice(n_points, size=n_inliers, replace=False)
    associations = [Association(int(i), int(i)) for i in sorted(inlier_a)]
    seen = {(a.a_index, a.b_index) for a in associations}
    total_b = n_points + n_outlier_points
    while len(associations) < n_inliers + n_outliers:
        i = int(rng_assoc.integers(0, n_points))
        j = int(rng_assoc.integers(0, total_b))
        if i == j and j < n_points:
            continue  # would be a correct match, not an outlier
        if (i, j) in seen:
            continue
        seen.add((i, j))
        associations.append(Association(i, j))
    mask = [True] * n_inliers + [False] * n_outliers

    # The per-point noise can stretch an inlier pair's distance mismatch
    # past eps; raise the stored threshold minimally so the planted inliers
    # always form a clique under it.
    inflation = 1.0
    if n_inliers >= 2:
        ia = np.array([a.a_index for a, m in zip(associations, mask) if m])
        pa, pb = points_a[ia], points_b[ia]
        worst = float(_distance_mismatch(pa, pb, pa, pb).max())
        if worst >= eps:
            needed = math.nextafter(worst, math.inf)
            inflation = needed / eps
            eps = needed

    return Scenario(
        cloud_a=PointCloud(points_a),
        cloud_b=PointCloud(points_b),
        associations=tuple(associations),
        inlier_mask=tuple(mask),
        gt_transform=gt,
        epsilon=eps,
        seed=seed,
        epsilon_inflation=inflation,
    )


def register_clouds(
    cloud_a: PointCloud,
    cloud_b: PointCloud,
    associations: list[Association] | tuple[Association, ...],
    epsilon: float,
    params: SolverParams | None = None,
) -> RegistrationResult:
    """Consistency graph -> combined clique solver -> rigid transform."""
    g = build_consistency_graph(cloud_a, cloud_b, associations, epsilon)
    report = clipper_plus(g, params)
    idx = report.clique.members
    if len(idx) < 3:
        raise RegistrationError(
            f"largest consistent set has only {len(idx)} associations; "
            "at least 3 are needed for a rigid transform"
        )
    pairs = [associations[i] for i in idx]
    transform = estimate_rigid_transform(cloud_a, cloud_b, pairs)
    return RegistrationResult(
        transform=transform, inlier_indices=idx, report=report
    )


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write a scenario as structured JSON text.

    Floats are serialized with shortest round-tripping reprs, so loading
    reproduces every coordinate bit for bit.
    """
    payload = {
        "format": SCENARIO_FORMAT,
        "seed": scenario.seed,
        "epsilon": scenario.epsilon,
        "epsilon_inflation": scenario.epsilon_inflation,
        "gt_rotation": scenario.gt_transform.rotation.tolist(),
        "gt_translation": scenario.gt_transform.translation.tolist(),
        "cloud_a": scenario.cloud_a.points.tolist(),
        "cloud_b": scenario.cloud_b.points.tolist(),
        "associations": [[a.a_index, a.b_index] for a in scenario.associations],
        "inlier_mask": list(scenario.inlier_mask),
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_scenario(path: str | Path) -> Scenario:
    payload = read_json_object(path, "scenario")
    if payload.get("format") != SCENARIO_FORMAT:
        raise InputError(
            f"not a {SCENARIO_FORMAT} file: {payload.get('format')!r}"
        )
    try:
        scenario = Scenario(
            cloud_a=PointCloud(np.array(payload["cloud_a"], dtype=float)),
            cloud_b=PointCloud(np.array(payload["cloud_b"], dtype=float)),
            associations=tuple(
                Association(int(i), int(j)) for i, j in payload["associations"]
            ),
            inlier_mask=tuple(bool(b) for b in payload["inlier_mask"]),
            gt_transform=RigidTransform(
                rotation=np.array(payload["gt_rotation"], dtype=float),
                translation=np.array(payload["gt_translation"], dtype=float),
            ),
            epsilon=float(payload["epsilon"]),
            seed=int(payload["seed"]),
            epsilon_inflation=float(payload.get("epsilon_inflation", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"scenario file is missing or corrupt: {exc}") from exc
    if len(scenario.inlier_mask) != len(scenario.associations):
        raise InputError(
            f"scenario has {len(scenario.inlier_mask)} inlier flags for "
            f"{len(scenario.associations)} associations"
        )
    return scenario
