"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.net.addr import int_to_addr
from repro.topology.hitlist import Hitlist


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.preset == "small"
        assert args.experiment == "all"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--experiment", "fig9"])

    def test_probe_requires_dst(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["probe"])


class TestCommands:
    def test_presets_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("tiny", "small", "study-2016"):
            assert name in out

    def test_study_single_experiment(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code = main(
            [
                "study",
                "--preset",
                "tiny",
                "--experiment",
                "table1",
                "--output",
                str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RR-Responsive" in out
        assert report.read_text("utf-8").strip()

    def test_probe_rr(self, capsys, tiny_scenario):
        dest = list(tiny_scenario.hitlist)[0]
        code = main(
            [
                "probe",
                "--preset",
                "tiny",
                "--dst",
                int_to_addr(dest.addr),
                "--type",
                "rr",
            ]
        )
        assert code == 0
        assert "RRPing" in capsys.readouterr().out

    def test_probe_traceroute(self, capsys, tiny_scenario):
        dest = list(tiny_scenario.hitlist)[3]
        code = main(
            [
                "probe",
                "--preset",
                "tiny",
                "--dst",
                int_to_addr(dest.addr),
                "--type",
                "trace",
            ]
        )
        assert code == 0
        assert "Traceroute" in capsys.readouterr().out

    def test_probe_named_vp(self, capsys, tiny_scenario):
        vp = tiny_scenario.vps[0]
        dest = list(tiny_scenario.hitlist)[0]
        code = main(
            [
                "probe",
                "--preset",
                "tiny",
                "--vp",
                vp.name,
                "--dst",
                int_to_addr(dest.addr),
                "--type",
                "ping",
            ]
        )
        assert code == 0
        assert vp.name in capsys.readouterr().out

    def test_export_roundtrips(self, tmp_path, tiny_scenario):
        code = main(["export", "--preset", "tiny", "--dir", str(tmp_path)])
        assert code == 0
        rib = (tmp_path / "rib.txt").read_text("utf-8")
        assert len(rib.strip().splitlines()) == len(tiny_scenario.table)
        hitlist = Hitlist.from_lines(
            (tmp_path / "hitlist.txt").read_text("utf-8").splitlines()
        )
        assert hitlist.addresses() == tiny_scenario.hitlist.addresses()

    def test_experiment_registry_covers_paper(self):
        assert {
            "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "s33", "s35"
        } <= set(EXPERIMENTS)

    def test_probe_trace_renders_hop_walk(self, capsys, tiny_scenario):
        dest = list(tiny_scenario.hitlist)[0]
        code = main(
            [
                "probe",
                "--preset",
                "tiny",
                "--dst",
                int_to_addr(dest.addr),
                "--type",
                "rr",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hop trace" in out
        assert "send" in out
        assert "verdict:" in out

    def test_probe_trace_output_roundtrips(self, tmp_path):
        from repro.obs.export import load_trace_jsonl
        from repro.probing.artifacts import ArtifactError
        from repro.scenarios.presets import get_preset

        path = tmp_path / "trace.jsonl"
        code = main([
            "probe", "--preset", "tiny", "--dst", "0.1.1.10",
            "--type", "rr", "--trace-output", str(path),
        ])
        assert code == 0
        # The same probe on a fresh scenario yields the same events.
        scenario = get_preset("tiny", seed=2016)
        tracer = scenario.network.attach_tracer()
        scenario.prober.ping_rr(scenario.working_vps[0], 0x0001010A)
        events = load_trace_jsonl(path)
        assert events and events == list(tracer.events)
        lines = path.read_text("utf-8").splitlines()
        lines[1] = lines[1].replace('"t":', '"t":1', 1)
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(ArtifactError) as err:
            load_trace_jsonl(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--dst", "999.1.1.1"], "octet out of range"),
            (["--dst", "0.1.1.10", "--vp", "nope"], "unknown vantage point"),
        ],
    )
    def test_probe_bad_input_exits_2(self, capsys, flags, reason):
        assert main(["probe", "--preset", "tiny", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("probe: ") and reason in err

    def test_stats_table_after_study(self, capsys):
        code = main(["stats", "--preset", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dataplane" in out
        assert "sent" in out and "delivered" in out
        assert "dropped[" in out
        assert "probes (by type)" in out

    def test_stats_prom_and_jsonl_formats(self, capsys, tmp_path):
        prom_file = tmp_path / "metrics.prom"
        code = main(
            [
                "stats", "--preset", "tiny",
                "--format", "prom", "--output", str(prom_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE net_sent_total counter" in out
        assert prom_file.read_text("utf-8").startswith("#")
        code = main(["stats", "--preset", "tiny", "--format", "jsonl"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"name": "net_sent_total"' in out
