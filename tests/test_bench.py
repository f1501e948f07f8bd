import json

import numpy as np
import pytest

from cliquereg import (
    BudgetExceeded,
    InputError,
    SweepConfig,
    bench_dimacs,
    bench_synthetic,
    records_to_csv,
    run_algorithm,
    scenario_seed,
    write_records,
)
from cliquereg.bench import ALGORITHM_NAMES, CSV_COLUMNS, BenchRecord

from .conftest import random_graph

WORKED_EXAMPLE = """\
p edge 5 4
e 1 4
e 2 3
e 2 5
e 3 5
"""


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "triangle_plus_edge.clq"
    path.write_text(WORKED_EXAMPLE)
    return path


class TestRunAlgorithm:
    def test_all_algorithms_agree_on_worked_example(self, triangle_plus_edge):
        for name in ALGORITHM_NAMES:
            run = run_algorithm(name, triangle_plus_edge)
            assert run.clique.members == (1, 2, 4), name
            assert run.runtime_ms >= 0.0

    def test_early_termination_only_reported_by_clipper(self, triangle_plus_edge):
        assert run_algorithm("greedy", triangle_plus_edge).report is None
        assert run_algorithm("clipper+", triangle_plus_edge).report.stop == "core bound"

    def test_unknown_name(self, triangle_plus_edge):
        with pytest.raises(InputError):
            run_algorithm("simplex", triangle_plus_edge)

    def test_exact_budget_passthrough(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 40, 0.6)
        with pytest.raises(BudgetExceeded):
            run_algorithm("exact", g, exact_budget=3)


class TestBenchDimacs:
    def test_records_layout(self, example_file):
        records = bench_dimacs([example_file], ["greedy", "clipper+"])
        assert len(records) == 2
        by_algo = {r.algo: r for r in records}
        assert set(by_algo) == {"greedy", "clipper+"}
        for rec in records:
            assert rec.graph_id == "triangle_plus_edge"
            assert rec.n == 5
            assert rec.sparsity == pytest.approx(0.6)
            assert rec.clique_size == 3
            assert rec.omega_gt is None  # not in the published table
            assert rec.r is None
            assert rec.seed is None
        assert by_algo["clipper+"].stop == "core bound"
        assert by_algo["greedy"].stop is None

    def test_colour_bound_stop_is_recorded(self, tmp_path):
        # The octahedron: every vertex has core number 4, so all six survive
        # the greedy's triangle, and three colour classes prove it maximum.
        path = tmp_path / "octahedron.clq"
        path.write_text(
            "p edge 6 12\n"
            + "".join(f"e {i} {j}\n" for i in range(1, 7) for j in range(i + 1, 7)
                      if (i, j) not in ((1, 2), (3, 4), (5, 6)))
        )
        (rec,) = bench_dimacs([path], ["clipper+"])
        assert (rec.clique_size, rec.stop) == (3, "colour bound")
        assert records_to_csv([rec]).splitlines()[1].endswith(",colour bound")

    def test_relaxation_stop_is_recorded(self, tmp_path):
        # The 5-cycle: core and colour bounds are both 3, above the
        # greedy's edge, so only the relaxation can end the solve.
        path = tmp_path / "c5.clq"
        path.write_text(
            "p edge 5 5\n" + "".join(f"e {i} {i % 5 + 1}\n" for i in range(1, 6))
        )
        (rec,) = bench_dimacs([path], ["clipper+"])
        assert (rec.clique_size, rec.stop) == (2, "relaxation")
        assert records_to_csv([rec]).splitlines()[1].endswith(",relaxation")

    def test_omega_override_fills_ratio(self, example_file):
        records = bench_dimacs(
            [example_file], ["greedy"], omega_gt={"triangle_plus_edge": 3}
        )
        assert records[0].omega_gt == 3
        assert records[0].r == pytest.approx(1.0)

    def test_failed_run_warns_and_keeps_the_other_records(self, tmp_path, capsys):
        g = random_graph(np.random.default_rng(3), 40, 0.6)
        path = tmp_path / "dense.clq"
        path.write_text(
            f"p edge {g.n} {g.edge_count}\n"
            + "".join(f"e {v + 1} {u + 1}\n" for v in range(g.n) for u in g.neighbors(v) if u > v)
        )
        records = bench_dimacs([path], ["greedy", "exact"], exact_budget=3)
        assert [r.algo for r in records] == ["greedy"]
        assert "warning: exact failed on dense" in capsys.readouterr().err

    def test_records_sorted_by_graph_then_algo(self, tmp_path, example_file):
        other = tmp_path / "a_first.clq"
        other.write_text(WORKED_EXAMPLE)
        records = bench_dimacs([example_file, other], ["greedy", "exact"])
        keys = [(r.graph_id, r.algo) for r in records]
        assert keys == sorted(keys)


class TestScenarioSeed:
    def test_deterministic_and_distinct(self):
        a = scenario_seed(0, 10, 3)
        assert a == scenario_seed(0, 10, 3)
        assert a != scenario_seed(0, 10, 4)
        assert a != scenario_seed(0, 20, 3)
        assert a != scenario_seed(1, 10, 3)


class TestSweepConfig:
    def test_defaults_are_valid(self):
        config = SweepConfig()
        assert config.outlier_percentages == (0, 10, 20, 30, 40, 50, 60, 70, 80, 90)

    def test_validation(self):
        with pytest.raises(InputError):
            SweepConfig(outlier_step=0)
        with pytest.raises(InputError):
            SweepConfig(outlier_start=50, outlier_stop=40)
        with pytest.raises(InputError):
            SweepConfig(outlier_stop=110)
        with pytest.raises(InputError):
            SweepConfig(trials=0)
        with pytest.raises(InputError):
            SweepConfig(algorithms=("greedy", "magic"))


@pytest.fixture(scope="module")
def small_sweep():
    config = SweepConfig(
        outlier_start=0,
        outlier_stop=60,
        outlier_step=30,
        trials=3,
        algorithms=("greedy", "clipper+"),
        n_points=40,
        n_outlier_points=40,
        n_associations=30,
        base_seed=7,
    )
    return config, bench_synthetic(config)


class TestBenchSynthetic:
    def test_record_counts_and_determinism(self, small_sweep):
        config, (records, aggregates) = small_sweep
        assert len(records) == 3 * 3 * 2  # increments x trials x algorithms
        assert len(aggregates) == 3 * 2
        again, _ = bench_synthetic(config)
        stripped = lambda recs: [
            (r.graph_id, r.algo, r.clique_size, r.omega_gt, r.r, r.seed)
            for r in recs
        ]
        assert stripped(records) == stripped(again)

    def test_ratios_present_and_bounded(self, small_sweep):
        _, (records, aggregates) = small_sweep
        for rec in records:
            assert rec.omega_gt is not None
            assert 0.0 < rec.r <= 1.0
        for agg in aggregates:
            assert agg.trials_counted == 3
            assert 0.0 < agg.mean_r <= 1.0

    def test_csv_stable_except_runtime(self, small_sweep):
        config, (records, _) = small_sweep
        again, _ = bench_synthetic(config)
        strip = lambda text: [
            ",".join(v for i, v in enumerate(line.split(",")) if i != 7)
            for line in text.splitlines()
        ]
        assert strip(records_to_csv(records)) == strip(records_to_csv(again))


class TestRecordSerialization:
    RECORD = BenchRecord(
        graph_id="g",
        n=5,
        sparsity=0.6,
        algo="clipper+",
        clique_size=3,
        omega_gt=None,
        r=None,
        runtime_ms=1.25,
        seed=42,
        stop="colour bound",
    )

    def test_csv_header_and_cells(self):
        text = records_to_csv([self.RECORD])
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[0] == (
            "graph_id,n,sparsity,algo,clique_size,omega_gt,r,runtime_ms,seed,stop"
        )
        assert lines[1] == "g,5,0.6,clipper+,3,,,1.25,42,colour bound"

    def test_float_cells_round_trip(self):
        rec = BenchRecord(
            graph_id="g", n=3, sparsity=1.0 / 3.0, algo="exact", clique_size=1,
            omega_gt=1, r=1.0, runtime_ms=0.1 + 0.2, seed=None,
            stop=None,
        )
        line = records_to_csv([rec]).splitlines()[1]
        cells = line.split(",")
        assert float(cells[2]) == 1.0 / 3.0
        assert float(cells[7]) == 0.1 + 0.2
        assert cells[9] == ""

    def test_write_csv_and_json(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        write_records([self.RECORD], csv_path)
        assert csv_path.read_text() == records_to_csv([self.RECORD])

        json_path = tmp_path / "out.json"
        write_records([self.RECORD], json_path)
        payload = json.loads(json_path.read_text())
        assert payload == [
            {
                "graph_id": "g",
                "n": 5,
                "sparsity": 0.6,
                "algo": "clipper+",
                "clique_size": 3,
                "omega_gt": None,
                "r": None,
                "runtime_ms": 1.25,
                "seed": 42,
                "stop": "colour bound",
            }
        ]
