"""Tests for DIMACS and edge-list I/O."""

import pytest

from repro.graph import (
    FormatError,
    grid_network,
    load_dimacs,
    load_edge_list,
    save_dimacs,
)


class TestDimacsRoundTrip:
    def test_round_trip_preserves_graph(self, tmp_path) -> None:
        net = grid_network(5, 6, seed=9, diagonal_fraction=0.2)
        gr, co = tmp_path / "net.gr", tmp_path / "net.co"
        save_dimacs(net, gr, co)
        loaded = load_dimacs(gr, co, name=net.name)
        assert loaded.num_nodes == net.num_nodes
        assert loaded.num_edges == net.num_edges
        for edge in net.edges():
            assert loaded.edge_weight(edge.u, edge.v) == pytest.approx(edge.weight)

    def test_round_trip_coordinates(self, tmp_path) -> None:
        net = grid_network(4, 4, seed=1)
        gr, co = tmp_path / "g.gr", tmp_path / "g.co"
        save_dimacs(net, gr, co)
        loaded = load_dimacs(gr, co)
        for node in net.nodes():
            expected = net.coordinate(node)
            got = loaded.coordinate(node)
            assert got[0] == pytest.approx(expected[0], abs=1e-5)
            assert got[1] == pytest.approx(expected[1], abs=1e-5)

    def test_gzip_round_trip(self, tmp_path) -> None:
        net = grid_network(3, 3, seed=2)
        gr = tmp_path / "g.gr.gz"
        save_dimacs(net, gr)
        loaded = load_dimacs(gr)
        assert loaded.num_edges == net.num_edges

    def test_without_coordinates(self, tmp_path) -> None:
        net = grid_network(3, 3, seed=0)
        gr = tmp_path / "bare.gr"
        save_dimacs(net, gr)
        loaded = load_dimacs(gr)
        assert loaded.coordinate(0) == (0.0, 0.0)


class TestDimacsParsing:
    def test_parses_hand_written_file(self, tmp_path) -> None:
        gr = tmp_path / "hand.gr"
        gr.write_text(
            "c comment line\n"
            "p sp 3 4\n"
            "a 1 2 10\n"
            "a 2 1 10\n"
            "a 2 3 5\n"
            "a 3 2 5\n"
        )
        net = load_dimacs(gr)
        assert net.num_nodes == 3
        assert net.num_edges == 2
        assert net.edge_weight(0, 1) == 10.0

    def test_self_loops_skipped(self, tmp_path) -> None:
        gr = tmp_path / "loop.gr"
        gr.write_text("p sp 2 2\na 1 1 3\na 1 2 4\n")
        net = load_dimacs(gr)
        assert net.num_edges == 1

    def test_missing_problem_line_raises(self, tmp_path) -> None:
        gr = tmp_path / "bad.gr"
        gr.write_text("a 1 2 10\n")
        with pytest.raises(FormatError, match="problem line"):
            load_dimacs(gr)

    def test_bad_arc_line_raises(self, tmp_path) -> None:
        gr = tmp_path / "bad2.gr"
        gr.write_text("p sp 2 1\na 1 2\n")
        with pytest.raises(FormatError, match="bad arc"):
            load_dimacs(gr)

    def test_unknown_record_raises(self, tmp_path) -> None:
        gr = tmp_path / "bad3.gr"
        gr.write_text("p sp 2 1\nz 1 2 3\n")
        with pytest.raises(FormatError, match="unknown record"):
            load_dimacs(gr)

    def test_bad_coordinate_node_raises(self, tmp_path) -> None:
        gr = tmp_path / "g.gr"
        co = tmp_path / "g.co"
        gr.write_text("p sp 2 2\na 1 2 1\n")
        co.write_text("v 5 0.0 0.0\n")
        with pytest.raises(FormatError, match="out of range"):
            load_dimacs(gr, co)

    def test_non_finite_arc_weight_refused(self, tmp_path) -> None:
        gr = tmp_path / "inf.gr"
        gr.write_text("p sp 3 4\na 1 2 inf\na 2 1 inf\na 2 3 1\na 3 2 1\n")
        with pytest.raises(ValueError, match=r"edge \(0, 1\).*non-finite"):
            load_dimacs(gr)


class TestEdgeList:
    def test_load_edge_list(self, tmp_path) -> None:
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n0 1 2.5\n1 2 3.5\n\n")
        net = load_edge_list(path)
        assert net.num_nodes == 3
        assert net.edge_weight(1, 2) == 3.5

    def test_malformed_line_raises(self, tmp_path) -> None:
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n")
        with pytest.raises(FormatError):
            load_edge_list(path)

    def test_nan_weight_refused(self, tmp_path) -> None:
        path = tmp_path / "nan.txt"
        path.write_text("1 2 1.0\n0 1 nan\n")
        with pytest.raises(ValueError, match=r"edge \(0, 1\).*non-finite"):
            load_edge_list(path)


class TestStreamingChunks:
    """The chunked parser behaves identically across flush boundaries."""

    def test_round_trip_with_tiny_chunks(self, tmp_path, monkeypatch) -> None:
        import repro.graph.io as io_mod
        from repro.graph import grid_network, save_dimacs

        net = grid_network(8, 8, seed=6)
        gr, co = tmp_path / "g.gr", tmp_path / "g.co"
        save_dimacs(net, gr, co)
        first_gr, first_co = gr.read_bytes(), co.read_bytes()
        monkeypatch.setattr(io_mod, "_CHUNK_LINES", 5)
        loaded = load_dimacs(gr, co, name=net.name)
        save_dimacs(loaded, tmp_path / "g2.gr", tmp_path / "g2.co")
        assert (tmp_path / "g2.gr").read_bytes() == first_gr
        assert (tmp_path / "g2.co").read_bytes() == first_co

    def test_bad_line_in_later_chunk_reports_line_number(
        self, tmp_path, monkeypatch
    ) -> None:
        import repro.graph.io as io_mod

        monkeypatch.setattr(io_mod, "_CHUNK_LINES", 4)
        gr = tmp_path / "bad.gr"
        arcs = [f"a {i + 1} {i + 2} 1" for i in range(10)]
        arcs.append("a 90 91")  # malformed, lands in the final chunk
        gr.write_text("p sp 100 11\n" + "\n".join(arcs) + "\n")
        with pytest.raises(FormatError, match=r"bad\.gr:12: bad arc"):
            load_dimacs(gr)

    def test_under_declared_arc_count_still_loads(self, tmp_path, monkeypatch) -> None:
        """Files whose 'p sp' under-declares force buffer growth."""
        import repro.graph.io as io_mod

        monkeypatch.setattr(io_mod, "_CHUNK_LINES", 3)
        gr = tmp_path / "grow.gr"
        arcs = "\n".join(f"a {i + 1} {i + 2} 1" for i in range(9))
        gr.write_text("p sp 10 0\n" + arcs + "\n")
        net = load_dimacs(gr)
        assert net.num_nodes == 10
        assert net.num_edges == 9
