"""CLI surface tests (python -m repro ...)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("list", "run", "report", "table1", "table2", "table3",
                    "table4", "fig6", "fig7", "fig8", "fig9", "asm"):
            args = parser.parse_args([cmd] if cmd not in ("run", "asm")
                                     else [cmd, "dgemm" if cmd == "run"
                                           else "x.s"])
            assert args.command == cmd

    def test_run_rejects_unknown_kernel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bogus"])

    def test_run_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "dgemm", "--config", "EV9"])

    def test_analytic_tables_reject_quick(self):
        # table1/table3 run no simulation; --quick would be a silent lie
        for cmd in ("table1", "table3"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([cmd, "--quick"])

    def test_simulation_grids_take_engine_flags(self):
        parser = build_parser()
        for cmd in ("table2", "table4", "fig6", "fig7", "fig8", "fig9",
                    "report"):
            args = parser.parse_args([cmd, "--quick", "--jobs", "2",
                                      "--no-cache"])
            assert args.quick and args.jobs == 2 and args.no_cache

    def test_report_defaults_to_all_cores_and_cache(self, capsys):
        args = build_parser().parse_args(["report"])
        assert args.jobs == 0 and not args.no_cache
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--help"])
        assert "(0 = all cores; default 0)" in capsys.readouterr().out

    def test_report_defaults_to_full_evaluation(self):
        args = build_parser().parse_args(["report"])
        assert args.suite is None and args.instances == "default"

    def test_report_takes_suite_and_instances(self):
        args = build_parser().parse_args(
            ["report", "--suite", "rivec", "--instances", "baselines"])
        assert args.suite == "rivec" and args.instances == "baselines"

    def test_list_suites_registered(self):
        args = build_parser().parse_args(["list-suites"])
        assert args.command == "list-suites"

    def test_bench_takes_suite(self):
        args = build_parser().parse_args(["bench", "--suite", "rivec"])
        assert args.suite == "rivec"
        assert build_parser().parse_args(["bench"]).suite is None

    def test_report_and_bench_take_pool_flags(self, capsys):
        # --jobs is the only pool flag left; the wall-clock budget flags
        # (--timeout, --deadline) and the backend override (--pool) are gone
        parser = build_parser()
        assert parser.parse_args(["report", "--jobs", "3"]).jobs == 3
        budget_flags = [["--timeout", "5"], ["--deadline", "60"],
                        ["--pool", "process"]]
        for argv in ([[cmd] + flag for cmd in ("report", "bench")
                      for flag in budget_flags]
                     + [["chaos", "--layer", "pool", "--timeout", "4"]]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_pool_flags_default_to_no_budget(self):
        for cmd in ("report", "bench"):
            args = build_parser().parse_args([cmd])
            for budget in ("timeout", "deadline", "pool"):
                assert not hasattr(args, budget), (cmd, budget)

    def test_pool_backend_choices_are_validated(self, capsys):
        # no backend is selectable: every --pool value is an argparse error
        for backend in ("threads", "serial", "process", "auto"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["report", "--pool", backend])
            assert exc.value.code == 2, backend
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_chaos_defaults_to_sim_layer(self):
        args = build_parser().parse_args(["chaos"])
        assert args.layer == "sim"
        assert args.seed == 1234

    def test_chaos_pool_layer_takes_drill_flags(self):
        args = build_parser().parse_args(
            ["chaos", "--layer", "pool", "--seed", "7", "--suite", "rivec",
             "--jobs", "3", "--quick", "--log", "drill.txt"])
        assert args.layer == "pool" and args.seed == 7
        assert args.suite == "rivec" and args.jobs == 3
        assert args.quick
        assert args.log == "drill.txt"

    @pytest.mark.parametrize("layer", ["network", "serve"])
    def test_chaos_layer_choices_are_validated(self, layer):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--layer", layer])

    def test_serve_is_not_a_command(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve"])
        assert exc.value.code == 2

    def test_list_suites_takes_format(self):
        assert build_parser().parse_args(["list-suites"]).format == "text"
        args = build_parser().parse_args(["list-suites", "--format", "json"])
        assert args.format == "json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list-suites", "--format", "yaml"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dgemm" in out and "T10" in out

    def test_run_vector(self, capsys):
        assert main(["run", "streams.copy", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "OPC" in out and "verified" in out

    def test_run_scalar(self, capsys):
        assert main(["run", "streams.copy", "--config", "EV8",
                     "--scale", "0.05"]) == 0
        assert "OPC" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "core_ghz" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Vbox" in capsys.readouterr().out

    def test_list_suites(self, capsys):
        assert main(["list-suites"]) == 0
        out = capsys.readouterr().out
        for suite in ("tarantula", "figures", "table4", "rivec"):
            assert suite in out
        for family in ("default", "baselines", "scaling", "pump"):
            assert family in out

    def test_list_suites_json_is_machine_readable(self, capsys):
        assert main(["list-suites", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        suites = {s["name"] for s in payload["suites"]}
        assert {"tarantula", "figures", "table4", "rivec"} <= suites
        families = {f["name"] for f in payload["families"]}
        assert {"default", "baselines", "scaling", "pump"} <= families
        by_name = {s["name"]: s for s in payload["suites"]}
        assert "streams.copy" in by_name["table4"]["workloads"]
        default = next(f for f in payload["families"]
                       if f["name"] == "default")
        for inst in default["instances"]:
            assert set(inst) == {"name", "config", "scale_factor",
                                 "overrides", "apply_l2_hint"}

    def test_report_unknown_suite_exits_two_with_suggestion(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--suite", "rivecc", "--no-cache"])
        assert exc.value.code == 2
        assert "did you mean: rivec" in capsys.readouterr().err

    def test_report_unknown_family_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--suite", "rivec", "--instances", "bogus",
                  "--no-cache"])
        assert exc.value.code == 2
        assert "unknown instance family" in capsys.readouterr().err

    def test_asm(self, tmp_path, capsys):
        src = tmp_path / "kernel.s"
        src.write_text("setvl #128\nvvaddt v1, v2, v3\n")
        assert main(["asm", str(src)]) == 0
        out = capsys.readouterr().out
        assert "vvaddt" in out and "2 instructions" in out


class TestInterruptExitCode:
    """Ctrl-C anywhere in a command exits 130 with a partial-result
    note, instead of a stack trace."""

    @pytest.fixture(autouse=True)
    def _reset_stats(self):
        from repro.harness.engine import STATS

        STATS.reset()
        yield
        STATS.reset()

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli._cmd_list", boom)
        assert main(["list"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_absorbed_interrupt_still_exits_130(self, monkeypatch, capsys):
        # run_grid converts Ctrl-C into Interrupted failures and returns
        # normally; the CLI must still report the 130 exit code
        def absorbed(args):
            from repro.harness.engine import STATS

            STATS.interrupted = 2
            return 0

        monkeypatch.setattr("repro.cli._cmd_list", absorbed)
        assert main(["list"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_clean_run_is_untouched(self, capsys):
        assert main(["list"]) == 0


class TestLint:
    """Exit-code contract: 0 clean, 1 findings, 2 usage error."""

    def test_clean_kernel_exits_zero(self, capsys):
        assert main(["lint", "streams.copy"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        src = tmp_path / "bad.s"
        src.write_text("vvaddt v1, v2, v3\n")     # vector op, no setvl
        assert main(["lint", str(src)]) == 1
        assert "VL_UNSET" in capsys.readouterr().out

    def test_unknown_target_exits_two_with_suggestion(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "ccradx"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean: ccradix?" in err
        assert "streams.triad" in err       # the full kernel list prints

    def test_missing_target_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint"])
        assert exc.value.code == 2

    def test_unassemblable_file_exits_two(self, tmp_path, capsys):
        src = tmp_path / "nonsense.s"
        src.write_text("frobnicate v1\n")
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(src)])
        assert exc.value.code == 2
        assert "does not assemble" in capsys.readouterr().err

    def test_json_format_has_stable_fields(self, capsys):
        assert main(["lint", "streams.copy", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (prog,) = payload["programs"]
        assert prog["program"] == "streams.copy"
        assert prog["errors"] == 0 and prog["warnings"] == 0
        for diag in prog["diagnostics"]:
            assert set(diag) == {"code", "severity", "pc", "message",
                                 "instruction"}

    def test_json_format_reports_findings(self, tmp_path, capsys):
        src = tmp_path / "bad.s"
        src.write_text("vvaddt v1, v2, v3\n")
        assert main(["lint", str(src), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (prog,) = payload["programs"]
        assert prog["errors"] >= 1
        codes = {d["code"] for d in prog["diagnostics"]}
        assert "VL_UNSET" in codes

    def test_list_codes_enumerates_every_code(self, capsys):
        from repro.analysis import Code

        assert main(["lint", "--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in Code:
            assert code.name in out
        assert "MEM_OOB" in out and "error" in out
