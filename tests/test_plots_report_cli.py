"""ASCII plots, the report generator, and the CLI."""

import pytest

from repro.analysis.plots import box_plot, render_box, sparkline
from repro.analysis.stats import summarize_samples
from repro.cli import build_parser, main


@pytest.fixture()
def stats():
    return summarize_samples([1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 9.0])


class TestRenderBox:
    def test_width_respected(self, stats):
        assert len(render_box(stats, 0.0, 10.0, width=40)) == 40

    def test_contains_box_glyphs(self, stats):
        row = render_box(stats, 0.0, 10.0)
        assert "[" in row and "]" in row and "|" in row

    def test_mean_marker_when_not_occluded(self):
        # Mean well inside the box, away from corners and median.
        wide = summarize_samples([0.0, 0.0, 0.0, 0.0, 6.0, 10.0, 10.0])
        row = render_box(wide, 0.0, 10.0, width=50)
        assert "*" in row

    def test_structural_glyphs_win_collisions(self, stats):
        # This sample's mean lands on the p75 corner; the corner must
        # survive (the mean is printed as text by box_plot).
        row = render_box(stats, 0.0, 10.0)
        assert "]" in row

    def test_invalid_range(self, stats):
        with pytest.raises(ValueError):
            render_box(stats, 5.0, 5.0)

    def test_tiny_width_rejected(self, stats):
        with pytest.raises(ValueError):
            render_box(stats, 0.0, 1.0, width=5)


class TestBoxPlot:
    def test_multi_series_shared_scale(self, stats):
        other = summarize_samples([10.0, 12.0, 14.0])
        art = box_plot({"a": stats, "b": other})
        lines = art.splitlines()
        assert len(lines) == 3  # two rows + axis
        assert "mean" in lines[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_plot({})


class TestSparkline:
    def test_monotone_ramp(self):
        art = sparkline([1, 2, 3, 4, 5])
        assert art[0] == "▁"
        assert art[-1] == "█"

    def test_flat_series(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparkline([])


class TestCliParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if hasattr(a, "choices") and a.choices
        )
        assert set(sub.choices) == {
            "table1", "protocols", "fig4", "content", "rate",
            "fig5", "fig6", "ablations", "resilience", "campaign",
            "placement", "gauntlet", "scenarios", "validate", "report",
            "reproduce", "worker", "cache",
        }

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_common_flags_parse(self):
        args = build_parser().parse_args(
            ["fig4", "--seed", "3", "--duration", "5", "--repeats", "2"]
        )
        assert (args.seed, args.duration, args.repeats) == (3, 5.0, 2)


class TestCliExecution:
    def test_table1_runs(self, capsys):
        assert main(["table1", "--repeats", "3"]) == 0
        out = capsys.readouterr().out
        assert "Users" in out and "max cell std" in out

    def test_fig5_runs(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "78030" in out
        assert "mean" in out  # the box plot rows

    def test_protocols_runs(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "quic" in out and "anycast" in out

    def test_content_runs(self, capsys):
        assert main(["content"]) == 0
        out = capsys.readouterr().out
        assert "Draco" in out and "keypoints" in out

    @pytest.mark.parametrize("command", [["report"], ["reproduce", "--no-cache"]])
    def test_quick_report_honours_seed(self, command, monkeypatch, capsys):
        import repro.report
        from repro.report import ReportSettings

        built = []

        def fake_generate_report(settings):
            built.append(settings)
            return "# report\n"

        monkeypatch.setattr(repro.report, "generate_report",
                            fake_generate_report)
        assert main(command + ["--quick", "--seed", "7"]) == 0
        assert main(command + ["--quick"]) == 0
        capsys.readouterr()
        seeded, default = built
        quick = ReportSettings.quick()
        assert seeded.seed == 7
        assert default.seed == quick.seed == 0
        for settings in built:
            assert (settings.duration_s, settings.repeats) == (
                quick.duration_s, quick.repeats)


class TestReportSections:
    def test_table1_section_markdown(self):
        from repro.report import ReportSettings, table1_section

        markdown = table1_section(ReportSettings.quick())
        assert markdown.startswith("## Table 1")
        assert "| W |" in markdown

    def test_fig5_section_markdown(self):
        from repro.report import ReportSettings, fig5_section

        markdown = fig5_section(ReportSettings.quick())
        assert "78,030" in markdown
        assert "not adopted" in markdown

    def test_content_section_markdown(self):
        from repro.report import ReportSettings, content_section

        markdown = content_section(ReportSettings.quick())
        assert "Draco" in markdown and "ruled out" in markdown
