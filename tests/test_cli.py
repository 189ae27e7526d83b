"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self) -> None:
        parser = build_parser()
        for command in ("case-study", "configs", "networks", "profile", "plan"):
            args = parser.parse_args(
                [command] + (
                    ["--lambda-q", "100", "--lambda-u", "100"]
                    if command == "plan" else
                    ["Dijkstra"] if command == "profile" else []
                )
            )
            assert args.command == command

    @pytest.mark.parametrize("argv", [
        ["stats", "--mode", "thread", "--batch-size", "0"],
        ["stats", "--grid", "-3"],
        ["stats", "--x", "0"],
        ["stats", "--y", "two"],
        ["stats", "--z", "0"],
        ["stats", "--objects", "0"],
        ["stats", "--duration", "0"],
        ["stats", "--duration", "nan"],
        ["stats", "--k", "-1"],
        ["stats", "--max-outstanding", "0"],
        ["serve", "--window", "0"],
        ["serve", "--max-inflight", "-1"],
        ["serve", "--batch-size", "0"],
        ["serve", "--max-outstanding", "0"],
    ])
    def test_non_positive_sizes_are_one_error_line(self, argv, capsys) -> None:
        """Refused by the parser — exit 2, one ``error:`` line — before a
        pool (and a raw ``ValueError`` traceback) exists."""
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert len(errors) == 1 and argv[-2] in errors[0], errors

    def test_k_zero_is_a_size(self) -> None:
        assert build_parser().parse_args(["stats", "--k", "0"]).k == 0


class TestCommands:
    def test_configs(self, capsys) -> None:
        assert main(["configs", "--cores", "9"]) == 0
        out = capsys.readouterr().out
        assert "configuration space" in out
        assert "model Rq" in out

    def test_plan_response_time(self, capsys) -> None:
        code = main([
            "plan", "--lambda-q", "5000", "--lambda-u", "10000",
            "--cores", "12",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MPR configuration" in out
        assert "predicted response-time" in out

    def test_plan_throughput(self, capsys) -> None:
        code = main([
            "plan", "--lambda-q", "0", "--lambda-u", "10000",
            "--objective", "throughput",
        ])
        assert code == 0
        assert "throughput" in capsys.readouterr().out

    def test_networks(self, capsys) -> None:
        assert main(["networks", "--inverse-scale", "2000"]) == 0
        out = capsys.readouterr().out
        assert "USA(W)" in out

    def test_profile_unknown_solution_exits_2(self, capsys) -> None:
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["profile", "NopeTree"])

    def test_profile_dijkstra(self, capsys) -> None:
        code = main([
            "profile", "Dijkstra", "--network", "NY",
            "--inverse-scale", "2000", "--objects", "20", "--samples", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tq (us)" in out

    def test_case_study_small(self, capsys) -> None:
        code = main(["case-study", "--cores", "9", "--duration", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Case study" in out
        assert "F-Rep" in out and "MPR" in out

    def test_case_study_json_export(self, capsys, tmp_path) -> None:
        from repro.harness import load_records

        path = tmp_path / "records.json"
        code = main([
            "case-study", "--cores", "9", "--duration", "0.2",
            "--json", str(path),
        ])
        assert code == 0
        records = load_records(path)
        assert len(records) == 8  # 4 response-time + 4 throughput
        assert {r.metric for r in records} == {
            "response_time_s", "throughput_qps"
        }

    def test_frontier(self, capsys) -> None:
        code = main([
            "frontier", "--cores", "9", "--lambda-q", "2000",
            "--lambda-u", "2000", "--points", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Feasibility frontier" in out
        assert "max λu" in out

    def test_stats_prints_a_live_reconfiguration_once(self, capsys) -> None:
        code = main([
            "stats", "--mode", "thread", "--grid", "8", "--duration", "0.3",
            "--reconfigure", "1,2,1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("(2,2,1) -> (1,2,1)") == 1
        assert "warm=" in out


class TestGraphCache:
    def test_build_then_inspect(self, capsys, tmp_path) -> None:
        target = str(tmp_path / "cache")
        assert main(["graph-cache", "build", target, "--grid", "8"]) == 0
        out = capsys.readouterr().out
        assert "content hash:" in out
        assert main(["graph-cache", "inspect", target, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "indptr.npy" in out
        assert "mirrors guarded: True" in out

    def test_inspect_missing_cache_exits_1(self, capsys, tmp_path) -> None:
        assert main(["graph-cache", "inspect", str(tmp_path / "nope")]) == 1
        assert "not a graph cache" in capsys.readouterr().err
