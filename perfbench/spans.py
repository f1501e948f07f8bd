"""In-memory span tracing around the program's layer functions.

Tracing wraps the module-level names the program resolves at call time
(for example ``cliquereg.clipper_plus.core_numbers``), so no program file
changes. Each span records its name, op id, parent span, start and end,
plus a few attributes read from arguments and results. Wrappers are
installed only for the traced passes and removed after each.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from cliquereg import Graph, RelaxationDiagnostics

registration = importlib.import_module("cliquereg.registration")
clipper_mod = importlib.import_module("cliquereg.clipper_plus")
relaxation = importlib.import_module("cliquereg.relaxation")

# Nested spans must account for the op's duration: the self times of all
# spans of one op sum to the op span's duration within this tolerance.
SELF_SUM_TOL_S = 1e-6

OP_SPAN = "op"


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1  # id of the current op

    @contextmanager
    def op_span(self):
        """Root span of one op: spans opened inside it carry its op id."""
        self.op += 1
        with self.span(OP_SPAN):
            yield

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = Span(name, self.op, self._stack[-1] if self._stack else None)
        self.spans.append(rec)
        self._stack.append(idx)
        rec.start = perf_counter()
        try:
            yield rec.attrs
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def _plain(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _build_graph(self, fn):
        @functools.wraps(fn)
        def wrapper(cloud_a, cloud_b, associations, epsilon):
            with self.span("registration.build_consistency_graph") as attrs:
                g = fn(cloud_a, cloud_b, associations, epsilon)
                attrs.update(n=len(associations), m=g.edge_count)
                return g
        return wrapper

    def _clipper(self, fn):
        @functools.wraps(fn)
        def wrapper(g, params=None):
            with self.span("clipper_plus.clipper_plus") as attrs:
                rep = fn(g, params)
                attrs.update(n=g.n, pruned_n=rep.pruned_n, early=rep.early_terminated,
                             relaxed=rep.relaxation_ran, degraded=rep.degraded,
                             win=rep.relaxation_ran and rep.clique.size > rep.greedy_size)
                return rep
        return wrapper

    def _relax(self, fn):
        @functools.wraps(fn)
        def wrapper(g, initial_guess, params=None, *, diagnostics=None):
            diag = RelaxationDiagnostics() if diagnostics is None else diagnostics
            with self.span("relaxation.solve_relaxation") as attrs:
                try:
                    return fn(g, initial_guess, params, diagnostics=diag)
                finally:
                    attrs.update(n=g.n, outer_rounds=diag.outer_rounds,
                                 inner_steps=diag.inner_steps,
                                 capped_rounds=diag.capped_rounds)
        return wrapper

    def install(self) -> None:
        """Wrap every traced name; the originals come back on uninstall."""
        plan = [
            (registration, "register_clouds", lambda f: self._plain("registration.register_clouds", f)),
            (registration, "build_consistency_graph", self._build_graph),
            (registration, "clipper_plus", self._clipper),
            (registration, "estimate_rigid_transform",
             lambda f: self._plain("registration.estimate_rigid_transform", f)),
            (clipper_mod, "clipper_plus", self._clipper),
            (clipper_mod, "max_clique_exact", lambda f: self._plain("clipper_plus.max_clique_exact", f)),
            (clipper_mod, "core_numbers", lambda f: self._plain("graph.core_numbers", f)),
            (clipper_mod, "greedy_maximal_clique",
             lambda f: self._plain("greedy.greedy_maximal_clique", f)),
            (clipper_mod, "prune_by_core", lambda f: self._plain("clipper_plus.prune_by_core", f)),
            (clipper_mod, "solve_relaxation", self._relax),
            (relaxation, "solve_relaxation", self._relax),
            (relaxation, "validate_clique", lambda f: self._plain("graph.validate_clique", f)),
            (Graph, "induced_subgraph", lambda f: self._plain("graph.induced_subgraph", f)),
        ]
        for owner, attr, wrap in plan:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        original = Graph.__dict__["from_adjacency"]
        self._saved.append((Graph, "from_adjacency", original))
        Graph.from_adjacency = classmethod(self._plain("graph.from_adjacency", original.__func__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def ops_of(spans: list[Span]) -> dict[int, list[int]]:
    """Span indices per op id, in recording order (the op span first)."""
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        out.setdefault(s.op, []).append(i)
    return out


def self_times(spans: list[Span], idxs: list[int]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover (s).

    Child intervals are clipped to the parent and merged before they are
    subtracted, so a child that escapes its parent or overlaps a sibling
    shows up as a mismatch in ``integrity_errors``.
    """
    children: dict[int, list[tuple[float, float]]] = {i: [] for i in idxs}
    for i in idxs:
        p = spans[i].parent
        if p is not None and p in children:
            children[p].append((spans[i].start, spans[i].end))
    out = {}
    for i in idxs:
        s = spans[i]
        covered, cursor = 0.0, s.start
        for a, b in sorted(children[i]):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[i] = (s.end - s.start) - covered
    return out


def integrity_errors(spans: list[Span], required: frozenset[str]) -> list[str]:
    """Nesting, self-time sum and required-span checks on a traced run."""
    errors = []
    fired = {s.name for s in spans}
    for name in sorted(required - fired):
        errors.append(f"span {name} never fired")
    for op, idxs in ops_of(spans).items():
        root = spans[idxs[0]]
        if root.name != OP_SPAN or root.parent is not None:
            errors.append(f"op {op}: first span is {root.name}, not a root op span")
            continue
        for i in idxs[1:]:
            s, p = spans[i], spans[i].parent
            if p is None or spans[p].op != op:
                errors.append(f"op {op}: span {s.name} has no parent in its op")
            elif not (spans[p].start <= s.start <= s.end <= spans[p].end):
                errors.append(f"op {op}: span {s.name} escapes parent {spans[p].name}")
        total = sum(self_times(spans, idxs).values())
        if abs(total - (root.end - root.start)) > SELF_SUM_TOL_S:
            errors.append(f"op {op}: self times sum to {total * 1e3:.6f} ms, "
                          f"op took {root.ms:.6f} ms")
    return errors


# Per-layer time metrics: (metric name, span name, use self time).
TIME_METRICS = (
    ("registration.build_consistency_graph.self_ms", "registration.build_consistency_graph", True),
    ("graph.from_adjacency.ms", "graph.from_adjacency", False),
    ("registration.estimate_rigid_transform.ms", "registration.estimate_rigid_transform", False),
    ("graph.core_numbers.ms", "graph.core_numbers", False),
    ("greedy.greedy_maximal_clique.ms", "greedy.greedy_maximal_clique", False),
    ("clipper_plus.prune_by_core.ms", "clipper_plus.prune_by_core", False),
    ("graph.induced_subgraph.ms", "graph.induced_subgraph", False),
    ("relaxation.solve_relaxation.ms", "relaxation.solve_relaxation", False),
    ("graph.validate_clique.ms", "graph.validate_clique", False),
    ("clipper_plus.max_clique_exact.self_ms", "clipper_plus.max_clique_exact", True),
)


def share_name(metric: str) -> str:
    return metric[: -len("ms")] + "share"


# Bytes the consistency-graph build allocates for n associations, computed
# from its array expressions, not measured: per cloud an (n, n, 3) float64
# difference, its square and the (n, n) float64 norm; then two (n, n)
# float64 matrices for |da - db| and six (n, n) boolean masks.
def build_bytes_computed(n: int) -> int:
    return n * n * (2 * (24 + 24 + 8) + 2 * 8 + 6)


def layer_metrics(spans: list[Span], cycle_ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are per-op medians over every traced op, and each time's share
    is its total over the total op time. Counts and ratios come from the
    first ``cycle_ops`` ops, one pass over the schedule, so they depend on
    the seed only and not on how many ops fit in the run.
    """
    by_op = ops_of(spans)
    ops = sorted(by_op)
    op_total = sum(spans[by_op[o][0]].end - spans[by_op[o][0]].start for o in ops)
    per_op: dict[str, list[float]] = {name: [] for name, _, _ in TIME_METRICS}
    totals = dict.fromkeys(per_op, 0.0)
    relax_ms = relax_steps = 0.0
    for o in ops:
        idxs = by_op[o]
        selfs = self_times(spans, idxs)
        for metric, span_name, use_self in TIME_METRICS:
            v = sum(selfs[i] if use_self else spans[i].end - spans[i].start
                    for i in idxs if spans[i].name == span_name)
            per_op[metric].append(v * 1e3)
            totals[metric] += v
        for i in idxs:
            if spans[i].name == "relaxation.solve_relaxation":
                relax_ms += spans[i].ms
                relax_steps += spans[i].attrs["inner_steps"]
    out: dict[str, float] = {}
    for metric, _, _ in TIME_METRICS:
        out[metric] = statistics.median(per_op[metric])
        out[share_name(metric)] = totals[metric] / op_total
    out["relaxation.ms_per_inner_step"] = relax_ms / relax_steps if relax_steps else 0.0

    cycle = ops[:cycle_ops]
    counts: dict[str, list[float]] = {k: [] for k in (
        "registration.build_bytes_computed", "registration.graph_m", "relaxation.outer_rounds",
        "relaxation.inner_steps", "relaxation.capped_rounds",
        "relaxation.matrix_bytes_computed", "graph.validate_clique.calls")}
    clippers = []
    for o in cycle:
        c = dict.fromkeys(counts, 0)
        for i in by_op[o]:
            s = spans[i]
            if s.name == "graph.validate_clique":
                c["graph.validate_clique.calls"] += 1
            elif not s.attrs:
                continue  # the call raised before its result was read
            elif s.name == "registration.build_consistency_graph":
                c["registration.build_bytes_computed"] += build_bytes_computed(s.attrs["n"])
                c["registration.graph_m"] += s.attrs["m"]
            elif s.name == "relaxation.solve_relaxation":
                for k in ("outer_rounds", "inner_steps", "capped_rounds"):
                    c["relaxation." + k] += s.attrs[k]
                c["relaxation.matrix_bytes_computed"] += s.attrs["outer_rounds"] * s.attrs["n"] ** 2 * 8
            elif s.name == "clipper_plus.clipper_plus":
                clippers.append(s.attrs)
        for k, v in c.items():
            counts[k].append(v)
    out.update({k: statistics.median(v) for k, v in counts.items()})

    relaxed = [a for a in clippers if a["relaxed"]]
    out["clipper_plus.prune_removed_ratio"] = (
        statistics.fmean((a["n"] - a["pruned_n"]) / a["n"] for a in clippers) if clippers else 0.0)
    out["clipper_plus.early_terminated_ratio"] = (
        statistics.fmean(a["early"] for a in clippers) if clippers else 0.0)
    out["clipper_plus.relax_win_ratio"] = (
        statistics.fmean(a["win"] for a in relaxed) if relaxed else 0.0)
    out["clipper_plus.degraded"] = sum(a["degraded"] for a in clippers)
    return out
