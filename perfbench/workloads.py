"""The workloads: seeded inputs, the op each one times, and its gate.

An input class is one parameter setting (an outlier ratio, or a G(n, p)
density). Each class has an integer weight, and a workload's schedule holds
``weight * replicas`` distinct seeded inputs of each class. The timed loop
runs whole passes over the schedule, so every class keeps its weight share
of the ops. The weights put ``op_ms_p50`` inside one class rather than on the
boundary between two, and on ``clique-dense`` and ``exact-oracle`` they give
the costliest class a fifth or a sixth of the ops, so ``op_ms_p90`` falls
inside that class too.

The program only ever sees the generated inputs: scenes come from
``synthetic_scene`` and graphs from ``Graph.from_adjacency`` on a seeded
boolean matrix, both built during set-up.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cliquereg import Graph, registration_errors, validate_clique

registration = importlib.import_module("cliquereg.registration")
clipper_mod = importlib.import_module("cliquereg.clipper_plus")

# A register op succeeds only below this rotation error. Planted inliers
# carry noise up to half the cloud spacing, which gives errors near 1 deg.
ROT_ERR_LIMIT_DEG = 5.0

# Scene parameters of the register workload (cloud points, cube side,
# clutter points, clutter sphere radius, associations).
SCENE = dict(n_points=1000, cube_size=0.2, n_outlier_points=1000,
             outlier_sphere_radius=1.0, n_associations=1000)


@dataclass(frozen=True)
class InputClass:
    label: str
    weight: int
    param: tuple


@dataclass
class Input:
    name: str
    label: str
    data: object  # a Scenario for register, a Graph otherwise


@dataclass
class Outcome:
    """What one op returned: the clique, whether it degraded, and the raw result."""

    members: tuple[int, ...]
    degraded: bool
    result: object


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[InputClass, ...]
    make: Callable[[np.random.Generator, tuple], object]
    op: Callable[[object], Outcome]
    # Copies of each weighted slot. More distinct inputs per class average
    # out the seed-to-seed cost differences between random instances; the
    # exact-search cost differs most between instances.
    replicas: int
    # Layers whose spans must fire in a traced run of this workload.
    required_spans: frozenset[str]

    def schedule(self, seed: int) -> list[Input]:
        """Seeded inputs in op order; identical for identical seeds."""
        inputs = []
        # The position in WORKLOADS keys the seed stream: add new workloads
        # at the end, or the inputs of the existing ones change.
        wl_index = tuple(WORKLOADS).index(self.name)
        for replica in range(self.replicas):
            for ci, cls in enumerate(self.classes):
                for slot in range(cls.weight):
                    rng = np.random.default_rng([seed, wl_index, ci, replica, slot])
                    name = f"{cls.label}#{replica * cls.weight + slot}"
                    inputs.append(Input(name, cls.label, self.make(rng, cls.param)))
        return inputs


def gnp(rng: np.random.Generator, param: tuple) -> Graph:
    """Symmetric G(n, p) with no self-loops."""
    n, p = param
    upper = np.triu(rng.random((n, n)) < p, 1)
    return Graph.from_adjacency(upper | upper.T)


def scene(rng: np.random.Generator, param: tuple):
    (ratio,) = param
    return registration.synthetic_scene(
        **SCENE, outlier_ratio=ratio, seed=int(rng.integers(2**31)))


def input_digest(inputs: list[Input]) -> str:
    """Hash of every input's content, to prove set-up is deterministic."""
    h = hashlib.sha256()
    for inp in inputs:
        h.update(inp.name.encode())
        d = inp.data
        if isinstance(d, Graph):
            nbytes = (d.n + 7) // 8
            for row in d.rows:
                h.update(row.to_bytes(nbytes, "little"))
        else:
            h.update(d.cloud_a.points.tobytes())
            h.update(d.cloud_b.points.tobytes())
            h.update(np.array([(a.a_index, a.b_index) for a in d.associations]).tobytes())
            h.update(np.float64(d.epsilon).tobytes())
    return h.hexdigest()


# The ops look the program's functions up through their modules at call
# time, so a traced run sees the wrapped versions.

def op_register(sc) -> Outcome:
    res = registration.register_clouds(sc.cloud_a, sc.cloud_b, sc.associations, sc.epsilon)
    return Outcome(res.inlier_indices, res.report.degraded, res)


def op_clipper(g: Graph) -> Outcome:
    rep = clipper_mod.clipper_plus(g)
    return Outcome(rep.clique.members, rep.degraded, rep)


def op_exact(g: Graph) -> Outcome:
    clique = clipper_mod.max_clique_exact(g)
    return Outcome(clique.members, False, clique)


WORKLOADS: dict[str, Workload] = {
    "register": Workload(
        "register",
        (InputClass("r0.5", 2, (0.5,)), InputClass("r0.9", 1, (0.9,)),
         InputClass("r0.95", 4, (0.95,))),
        scene, op_register, 5,
        frozenset({"registration.register_clouds", "registration.build_consistency_graph",
                   "clipper_plus.clipper_plus", "graph.core_numbers",
                   "greedy.greedy_maximal_clique", "clipper_plus.prune_by_core",
                   "relaxation.solve_relaxation", "registration.estimate_rigid_transform"}),
    ),
    "clique-dense": Workload(
        "clique-dense",
        (InputClass("G200-0.9", 1, (200, 0.9)), InputClass("G500-0.5", 4, (500, 0.5)),
         InputClass("G1000-0.3", 1, (1000, 0.3))),
        gnp, op_clipper, 5,
        frozenset({"clipper_plus.clipper_plus", "graph.core_numbers",
                   "greedy.greedy_maximal_clique", "clipper_plus.prune_by_core",
                   "relaxation.solve_relaxation"}),
    ),
    "exact-oracle": Workload(
        "exact-oracle",
        (InputClass("G300-0.24", 2, (300, 0.24)), InputClass("G150-0.5", 1, (150, 0.5)),
         InputClass("G100-0.7", 5, (100, 0.7)), InputClass("G200-0.5", 2, (200, 0.5))),
        gnp, op_exact, 4,
        frozenset({"clipper_plus.max_clique_exact", "graph.core_numbers",
                   "greedy.greedy_maximal_clique"}),
    ),
}


def omega_networkx(g: Graph) -> int:
    """Maximum clique size by networkx, an oracle independent of cliquereg."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from((v, u) for v in range(g.n) for u in g.neighbors(v) if u > v)
    return nx.max_weight_clique(G, weight=None)[1]


class Gate:
    """Correctness checks on op outcomes, run outside the timed interval.

    Each distinct (input, clique) pair is checked once: the clique must be
    a maximal clique of the op's graph. ``register`` also needs at least 3
    associations and a rotation error under ROT_ERR_LIMIT_DEG, and
    ``exact-oracle`` needs the size to equal omega, which networkx computes
    once per input (the pinned reference for every op on that input).
    """

    def __init__(self, workload: Workload, inputs: list[Input]):
        self.workload = workload
        self.inputs = inputs
        self._graphs: dict[int, Graph] = {}
        self._omega: dict[int, int] = {}
        self._verdicts: dict[tuple[int, tuple[int, ...]], str | None] = {}

    def graph(self, idx: int) -> Graph:
        data = self.inputs[idx].data
        if isinstance(data, Graph):
            return data
        if idx not in self._graphs:
            self._graphs[idx] = registration.build_consistency_graph(
                data.cloud_a, data.cloud_b, data.associations, data.epsilon)
        return self._graphs[idx]

    def omega(self, idx: int) -> int:
        if idx not in self._omega:
            self._omega[idx] = omega_networkx(self.graph(idx))
        return self._omega[idx]

    def _check_clique(self, idx: int, members: tuple[int, ...]) -> str | None:
        key = (idx, members)
        if key not in self._verdicts:
            check = validate_clique(self.graph(idx), members)
            verdict = None
            if not (check.is_clique and check.is_maximal):
                verdict = "not a maximal clique"
            elif self.workload.name == "exact-oracle" and len(members) != self.omega(idx):
                verdict = f"size {len(members)} != omega {self.omega(idx)}"
            self._verdicts[key] = verdict
        return self._verdicts[key]

    def rotation_error_deg(self, idx: int, outcome: Outcome) -> float:
        return registration_errors(
            outcome.result.transform, self.inputs[idx].data.gt_transform
        ).rotation_error_deg

    def check(self, idx: int, outcome: Outcome | None, error: str | None) -> str | None:
        """Reason the op failed, or None when it passed."""
        if error is not None:
            return error
        if outcome.degraded:
            return "degraded"
        reason = self._check_clique(idx, outcome.members)
        if reason is None and self.workload.name == "register":
            if len(outcome.members) < 3:
                reason = f"only {len(outcome.members)} associations"
            else:
                err = self.rotation_error_deg(idx, outcome)
                if not err < ROT_ERR_LIMIT_DEG:
                    reason = f"rotation error {err:.3g} deg >= {ROT_ERR_LIMIT_DEG}"
        return reason

    def inlier_recall(self, idx: int, outcome: Outcome) -> float:
        mask = self.inputs[idx].data.inlier_mask
        planted = sum(mask)
        return sum(1 for i in outcome.members if mask[i]) / planted
