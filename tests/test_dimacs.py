import pytest

from cliquereg import DimacsParseError, DimacsWarning, InputError, load_dimacs, parse_dimacs

WORKED_EXAMPLE = """\
c triangle on 2,3,5 plus the 1-4 edge
p edge 5 4
e 1 4
e 2 3
e 2 5
e 3 5
"""


def test_worked_example():
    g = parse_dimacs(WORKED_EXAMPLE)
    assert g.n == 5
    assert g.edge_count == 4
    assert (g.rows[0] >> 3) & 1
    assert (g.rows[1] >> 2) & 1
    assert (g.rows[1] >> 4) & 1
    assert (g.rows[2] >> 4) & 1
    assert not (g.rows[0] >> 1) & 1


def test_comments_and_blank_lines_ignored():
    g = parse_dimacs("c header\n\np edge 2 1\nc mid comment\ne 1 2\n\n")
    assert g.n == 2 and g.edge_count == 1


def test_duplicate_edges_collapse():
    g = parse_dimacs("p edge 3 1\ne 1 2\ne 2 1\ne 1 2\n")
    assert g.edge_count == 1


def test_vertex_count_over_packed_graph_cap_rejected():
    # The header alone sizes the graph: 92,681 vertices need just over 1 GiB
    # of packed rows, refused before they are allocated.
    with pytest.raises(InputError, match="cap"):
        parse_dimacs("p edge 92681 0\n")


def test_isolated_vertices_allowed():
    g = parse_dimacs("p edge 10 1\ne 1 2\n")
    assert g.n == 10
    assert g.rows[9].bit_count() == 0


def test_edge_count_mismatch_warns():
    with pytest.warns(DimacsWarning):
        g = parse_dimacs("p edge 3 5\ne 1 2\n")
    assert g.edge_count == 1


class TestErrorsCarryLineNumbers:
    def test_edge_before_problem_line(self):
        with pytest.raises(DimacsParseError, match="line 1"):
            parse_dimacs("e 1 2\n")

    def test_second_problem_line(self):
        with pytest.raises(DimacsParseError, match="line 2"):
            parse_dimacs("p edge 2 0\np edge 2 0\n")

    def test_malformed_problem_line(self):
        with pytest.raises(DimacsParseError, match="p edge"):
            parse_dimacs("p col 2 1\n")
        with pytest.raises(DimacsParseError):
            parse_dimacs("p edge two 1\n")
        with pytest.raises(DimacsParseError):
            parse_dimacs("p edge -2 1\n")

    def test_malformed_edge_line(self):
        with pytest.raises(DimacsParseError, match="line 2"):
            parse_dimacs("p edge 2 1\ne 1\n")
        with pytest.raises(DimacsParseError, match="line 2"):
            parse_dimacs("p edge 2 1\ne 1 x\n")

    def test_endpoint_out_of_range(self):
        with pytest.raises(DimacsParseError, match="outside"):
            parse_dimacs("p edge 2 1\ne 1 3\n")
        with pytest.raises(DimacsParseError, match="outside"):
            parse_dimacs("p edge 2 1\ne 0 1\n")

    def test_self_loop(self):
        with pytest.raises(DimacsParseError, match="self-loop"):
            parse_dimacs("p edge 2 1\ne 2 2\n")

    def test_unknown_line_type(self):
        with pytest.raises(DimacsParseError, match="line 2"):
            parse_dimacs("p edge 2 1\nx 1 2\n")

    def test_missing_problem_line(self):
        with pytest.raises(DimacsParseError, match="problem line"):
            parse_dimacs("c only a comment\n")


class TestLoadDimacs:
    def test_round_trip_via_file(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_text(WORKED_EXAMPLE)
        g = load_dimacs(path)
        assert g.n == 5 and g.edge_count == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_dimacs(tmp_path / "absent.clq")

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "binary.clq"
        path.write_bytes(b"p edge 2 1\ne 1 2\n\xff\n")
        with pytest.raises(InputError, match="cannot read DIMACS file"):
            load_dimacs(path)
