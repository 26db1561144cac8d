"""CLI subcommand tests (driven through main(argv))."""

import re

import pytest

from repro.cli import main


def test_unrank(capsys):
    assert main(["unrank", "23", "4"]) == 0
    assert capsys.readouterr().out.strip() == "3 2 1 0"


def test_rank(capsys):
    assert main(["rank", "3", "2", "1", "0"]) == 0
    assert capsys.readouterr().out.strip() == "23"


def test_rank_unrank_inverse(capsys):
    main(["unrank", "17", "4"])
    perm = capsys.readouterr().out.split()
    main(["rank", *perm])
    assert capsys.readouterr().out.strip() == "17"


def test_table1(capsys):
    assert main(["table1", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 7  # header + 3! rows
    assert out[-1].endswith("2 1 0")


def test_table1_default_n4(capsys):
    main(["table1"])
    assert len(capsys.readouterr().out.splitlines()) == 25


def test_shuffle(capsys):
    assert main(["shuffle", "5", "7"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 7
    for row in rows:
        assert sorted(int(x) for x in row.split()) == list(range(5))


def test_resources(capsys):
    assert main(["resources", "4"]) == 0
    out = capsys.readouterr().out
    assert "Freq" in out and len(out.splitlines()) == 2


class TestSynthCommand:
    def test_synth_default_full_pipeline(self, capsys):
        assert main(["synth", "4"]) == 0
        out = capsys.readouterr().out
        for name in ("regprop", "demorgan", "fold", "dedupe", "sweep"):
            assert name in out  # per-pass delta table
        assert "Freq" in out  # resource row

    def test_synth_checked_reports_proof_method(self, capsys):
        assert main(["synth", "3", "--checked"]) == 0
        assert "bdd:" in capsys.readouterr().out

    def test_synth_checked_pipelined_uses_simulation(self, capsys):
        assert main(["synth", "3", "--checked", "--pipelined"]) == 0
        assert "simulation:" in capsys.readouterr().out

    def test_synth_pass_subset(self, capsys):
        assert main(["synth", "4", "--passes", "sweep"]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "demorgan" not in out

    def test_synth_no_opt_has_no_pass_table(self, capsys):
        assert main(["synth", "4", "--no-opt"]) == 0
        out = capsys.readouterr().out
        assert "sweep" not in out and "Freq" in out

    def test_synth_shuffle_circuit(self, capsys):
        assert main(["synth", "4", "--circuit", "shuffle"]) == 0
        assert "Freq" in capsys.readouterr().out

    def test_synth_unknown_pass_is_usage_error(self, capsys):
        assert main(["synth", "4", "--passes", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-perm: error:")
        assert "unknown pass 'bogus'" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_synth_no_opt_and_passes_conflict(self, capsys):
        assert main(["synth", "4", "--no-opt", "--passes", "sweep"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_synth_bad_n(self, capsys):
        assert main(["synth", "0"]) == 2
        assert "n must be at least 1" in capsys.readouterr().err


def test_fig4_small(capsys):
    assert main(["fig4", "2048"]) == 0
    out = capsys.readouterr().out
    assert "chi2 p=" in out
    assert len(out.splitlines()) >= 24


@pytest.mark.parametrize("samples", ["0", "-5", "50", "119"])
def test_fig4_too_few_samples_is_usage_error(capsys, samples):
    """Fewer than 5·4! = 120 samples cannot fill 24 bars at five expected
    each (and 0 or fewer is no campaign at all): one line, exit 2."""
    assert main(["fig4", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro-perm: error:")
    assert len(captured.err.strip().splitlines()) == 1


def test_fig4_smallest_valid_run(capsys):
    assert main(["fig4", "120"]) == 0
    assert "expected/bar=5.0" in capsys.readouterr().out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_no_command_exits():
    with pytest.raises(SystemExit):
        main([])


class TestInputValidation:
    """Bad input: one-line stderr diagnostic, exit code 2, no traceback."""

    @pytest.mark.parametrize("index", ["-1", "24", "9999"])
    def test_unrank_out_of_range(self, capsys, index):
        assert main(["unrank", index, "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-perm: error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_unrank_bad_n(self, capsys):
        assert main(["unrank", "0", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "elements",
        [["0", "0", "1"], ["1", "2", "3"], ["5"], ["0", "2"]],
    )
    def test_rank_non_permutation(self, capsys, elements):
        assert main(["rank", *elements]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "1"],
            ["faults", "4", "--samples", "0"],
            ["faults", "4", "--samples", "-5"],
        ],
    )
    def test_faults_bad_spec(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-perm: error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_valid_inputs_still_exit_zero(self, capsys):
        assert main(["unrank", "23", "4"]) == 0
        assert main(["rank", "3", "2", "1", "0"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "4", "--engine", "warp"],
            ["synth", "4", "--checked", "--engine", "bogus"],
            ["faults", "4", "--engine", "warp"],
            ["--quiet", "faults", "4", "--samples", "8", "--engine", ""],
        ],
    )
    def test_unknown_engine_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-perm: error:")
        assert "unknown engine" in captured.err
        assert "auto" in captured.err and "compiled" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "4", "--workload", "bogus"],
            ["serve", "4", "--workload", "unranks"],
            ["serve", "4", "--batch-size", "0"],
            ["serve", "4", "--batch-size", "-3"],
            ["serve", "4", "--batch-size", "9999"],
            ["serve", "0"],
            ["serve", "1", "--workload", "shuffle"],
            ["serve", "4", "--requests", "0"],
            ["serve", "4", "--clients", "0"],
        ],
    )
    def test_serve_bad_input_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-perm: error:")
        assert len(captured.err.strip().splitlines()) == 1


class TestMetricsFlag:
    def test_metrics_dumps_exposition_to_stderr(self, capsys):
        assert main(["--metrics", "unrank", "5", "42"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().split()) == 42  # the permutation
        assert "# TYPE repro_cli_commands_total counter" in captured.err
        assert 'repro_cli_commands_total{command="unrank"}' in captured.err
        assert 'repro_convert_total{n="42"}' in captured.err

    def test_without_flag_nothing_is_recorded(self, capsys):
        assert main(["unrank", "23", "4"]) == 0
        assert capsys.readouterr().err == ""

    def test_registry_disabled_again_after_exit(self, capsys):
        from repro.obs.metrics import REGISTRY

        main(["--metrics", "unrank", "0", "3"])
        capsys.readouterr()
        assert not REGISTRY.enabled

    def test_metrics_dump_survives_usage_errors(self, capsys):
        assert main(["--metrics", "unrank", "999", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-perm: error:")
        assert "repro_cli_commands_total" in err


class TestQuietFlag:
    def test_faults_reports_progress_events_by_default(self, capsys):
        assert main(["faults", "3", "--samples", "8"]) == 0
        captured = capsys.readouterr()
        assert "[campaign] plan:" in captured.err
        assert "[campaign] done:" in captured.err
        assert "coverage" in captured.out  # report untouched

    def test_quiet_silences_events_not_the_report(self, capsys):
        assert main(["--quiet", "faults", "3", "--samples", "8"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "coverage" in captured.out


class TestTraceCommand:
    def test_trace_faults_has_one_child_span_per_shard(self, capsys):
        # 788 compiled stuck-at faults: two passes, one shard each
        assert main(["--quiet", "trace", "faults", "7", "--model", "stuck"]) == 0
        captured = capsys.readouterr()
        assert "coverage" in captured.out
        tree = captured.err
        assert "faults" in tree
        plan = re.search(r"plan .*\bshards=(\d+)", tree)
        assert plan is not None and "done" in tree  # events landed on spans
        shards = int(plan.group(1))
        assert shards >= 2
        spans = re.findall(r"\bshard(\d+) ", tree)
        assert sorted(map(int, spans)) == list(range(shards))

    def test_trace_vcd_unrank_writes_waveform(self, capsys, tmp_path):
        vcd = tmp_path / "wave.vcd"
        assert main(["trace", "--vcd", str(vcd), "unrank", "3", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "1 2 0"
        assert "vcd_written" in captured.err
        text = vcd.read_text()
        assert text.startswith("$timescale")
        assert "dbg_digit0" in text

    def test_trace_without_subcommand_is_usage_error(self, capsys):
        assert main(["trace"]) == 2
        assert "trace needs a subcommand" in capsys.readouterr().err

    def test_trace_cannot_nest(self, capsys):
        assert main(["trace", "trace", "unrank", "0", "3"]) == 2
        assert "nested" in capsys.readouterr().err

    def test_vcd_restricted_to_unrank(self, capsys, tmp_path):
        vcd = tmp_path / "wave.vcd"
        assert main(["trace", "--vcd", str(vcd), "rank", "0", "1"]) == 2
        assert "--vcd" in capsys.readouterr().err
        assert not vcd.exists()


class TestServeCommand:
    def test_mixed_load_report(self, capsys):
        assert main(
            ["serve", "6", "--requests", "60", "--clients", "4",
             "--deadline-ms", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "served 60 requests" in out
        assert "throughput" in out and "req/s" in out
        assert "p50=" in out and "p99=" in out
        assert "lanes/sweep" in out
        assert "shed" in out

    def test_single_workload_mix(self, capsys):
        assert main(
            ["serve", "5", "--requests", "40", "--clients", "2",
             "--workload", "unrank", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "workload unrank" in out
        assert "unrank=40" in out
        assert "random_perm" not in out.split("workloads")[1]

    def test_explicit_batch_size_accepted(self, capsys):
        assert main(
            ["serve", "5", "--requests", "20", "--clients", "4",
             "--batch-size", "4", "--queue-depth", "64"]
        ) == 0
        assert "served 20 requests" in capsys.readouterr().out


class TestFaultsCommand:
    def test_stuck_campaign_smoke(self, capsys):
        assert main(["faults", "4", "--model", "stuck"]) == 0
        out = capsys.readouterr().out
        assert "Fault-injection campaign: converter n=4, model=stuck" in out
        assert "bijection-check coverage" in out
        assert "silent (valid but WRONG output)" in out

    def test_sampled_seu_on_shuffle(self, capsys):
        assert (
            main(
                ["faults", "4", "--model", "seu", "--circuit", "shuffle",
                 "--samples", "12"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "model=seu" in out
        assert "statistical monitoring" in out

    def test_campaign_with_workers(self, capsys):
        # 600 compiled stuck-at faults: two passes, so two pooled shards
        assert main(["faults", "7", "--samples", "600", "--workers", "2"]) == 0
        captured = capsys.readouterr()
        assert "coverage" in captured.out
        assert re.search(r"plan: .*\bshards=2 workers=2", captured.err)

    def test_index_bus_past_int64(self, capsys):
        """21! > 2**63: test vectors are drawn exactly, not as int64."""
        argv = ["--quiet", "faults", "21", "--model", "stuck", "--samples", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "converter n=21" in out
        assert "test vectors per fault: 64" in out


class TestValidateCommand:
    ARGS = ["validate", "--n", "5", "--samples", "4096", "--block", "2048",
            "--engine", "compiled", "--workers", "1", "--battery-draws", "512"]

    def test_smoke_campaign_passes(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "population validation" in out
        assert "verdict            PASS" in out
        assert "expected m-sequence artifact" in out

    def test_ideal_source_p_value_mode(self, capsys):
        assert main(self.ARGS + ["--source", "ideal"]) == 0
        assert "[p_value]" in capsys.readouterr().out

    def test_report_written_and_schema_valid(self, capsys, tmp_path):
        from repro.analysis.checkpoint import load_checkpoint

        report = tmp_path / "report.json"
        assert main(self.ARGS + ["--report", str(report)]) == 0
        payload = load_checkpoint(report, kind="report")
        assert payload["verdict"]["passed"]
        assert payload["summary"]["samples"] == 4096

    def test_checkpoint_resume_roundtrip(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        assert main(self.ARGS + ["--shards", "2", "--checkpoint", str(ckpt)]) == 0
        # everything already complete: resume just replays the verdict
        assert main(self.ARGS + ["--checkpoint", str(ckpt), "--resume"]) == 0
        assert "resumed" in capsys.readouterr().out

    def test_bad_engine_is_usage_error(self):
        assert main(["validate", "--n", "5", "--samples", "64",
                     "--engine", "quantum"]) == 2

    def test_shuffle_source(self, capsys):
        assert main(self.ARGS + ["--source", "shuffle"]) == 0
        assert "source=shuffle" in capsys.readouterr().out

    def test_shuffle_with_shared_polynomials_is_usage_error(self, capsys):
        """n − 1 stages need distinct widths m, m−1, …, ≥ 8."""
        assert main(["validate", "--n", "5", "--m", "9", "--samples", "64",
                     "--source", "shuffle"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-perm: error:") and "distinct" in err


def test_cli_runs_without_undeclared_packages():
    """``repro.cli`` imports and prints its help with ``networkx`` (not
    declared by the package) blocked."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from repro.cli import main\n"
        "main(['--help'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
