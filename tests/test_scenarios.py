import os
import tracemalloc
from dataclasses import replace

import pytest

from cavityfock import (
    PRESETS,
    ConfigError,
    SimulationConfig,
    resolve_preset,
    run,
    simulate,
    sweep,
)
from cavityfock import scenarios
from cavityfock.cli import main, parse_config_file
from cavityfock.scenarios import CSV_COLUMNS


def _read_csv(path):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in handle]
    return header, rows


def _column(header, rows, name):
    i = header.index(name)
    return [row[i] for row in rows]


class TestPresets:
    def test_known_names_resolve(self):
        cfg = resolve_preset("fig2_stirap")
        assert cfg.model == "effective" and cfg.drive == "stirap"
        assert cfg.omega0_T == 2.0 and cfg.delta_T == 1.0
        assert cfg.tau_p_over_T == 0.5 and cfg.tau_s_over_T == 0.5
        assert cfg.gamma_T is None and cfg.kappa_T is None

    def test_dissipative_preset_values(self):
        cfg = resolve_preset("fig2f_dissipative_tqd")
        assert cfg.gamma_T == 5.0 and cfg.kappa_T == 0.05
        assert cfg.omega0_T == 5.0 and cfg.drive == "tqd"

    def test_full_model_preset(self):
        cfg = resolve_preset("fig3_full")
        assert cfg.model == "full" and cfg.drive == "tqd"
        assert cfg.delta_m_T == 18.0

    def test_unknown_name_lists_presets(self):
        with pytest.raises(ConfigError, match="fig2_stirap"):
            resolve_preset("fig9_bogus")


class TestRun:
    def test_zero_couplings_keep_initial_state(self, tmp_path):
        cfg = SimulationConfig(
            omega0_T=0.0,
            drive="stirap",
            dt_over_T=1e-2,
            stride=50,
            output_path=str(tmp_path / "frozen.csv"),
        )
        path, summary = run(cfg)
        header, rows = _read_csv(path)
        assert header == list(CSV_COLUMNS)
        for cell in _column(header, rows, "p_g1_0"):
            assert float(cell) == 1.0
        # no drive field: the dark state is undefined, column stays empty
        assert set(_column(header, rows, "dark_overlap")) == {""}
        assert summary.final_populations[("g1", 0)] == 1.0

    def test_summary_matches_last_row(self, tmp_path):
        cfg = replace(
            resolve_preset("fig2_stirap"),
            dt_over_T=5e-3,
            stride=100,
            output_path=str(tmp_path / "t.csv"),
        )
        path, summary = run(cfg)
        header, rows = _read_csv(path)
        last = rows[-1]
        assert float(last[header.index("p_g2_1")]) == summary.final_populations[("g2", 1)]
        assert float(last[header.index("n_mean")]) == summary.final_n
        assert float(last[header.index("mandel_q")]) == summary.final_q

    def test_summary_and_csv_lift_no_states_and_no_populations(self, tmp_path):
        sim = replace(resolve_preset("fig2f_dissipative_tqd"), stride=1)
        trajectory, _summary = simulate(sim)
        scenarios.write_trajectory_csv(trajectory, str(tmp_path / "d.csv"))
        assert "populations" not in vars(trajectory)
        assert "states" not in vars(trajectory)

    def test_effective_model_leaves_full_columns_empty(self, tmp_path):
        cfg = replace(
            resolve_preset("fig2_tqd"),
            dt_over_T=1e-2,
            stride=100,
            output_path=str(tmp_path / "eff.csv"),
        )
        path, _ = run(cfg)
        header, rows = _read_csv(path)
        for name in ("p_em_0", "gm_T", "omegam_T"):
            assert set(_column(header, rows, name)) == {""}
        omega1 = [float(v) for v in _column(header, rows, "omega1_T")]
        assert max(omega1) > 0.9  # correction channel active and recorded

    def test_full_model_leaves_effective_columns_empty(self, tmp_path):
        cfg = replace(
            resolve_preset("fig3_full"),
            dt_over_T=1e-2,
            stride=100,
            output_path=str(tmp_path / "full.csv"),
        )
        path, _ = run(cfg)
        header, rows = _read_csv(path)
        for name in ("omega1_T", "dark_overlap"):
            assert set(_column(header, rows, name)) == {""}
        assert max(float(v) for v in _column(header, rows, "gm_T")) > 1.0

    def test_mandel_q_empty_until_cavity_fills(self, tmp_path):
        cfg = replace(
            resolve_preset("fig2_tqd"),
            dt_over_T=1e-2,
            stride=100,
            output_path=str(tmp_path / "q.csv"),
        )
        path, _ = run(cfg)
        header, rows = _read_csv(path)
        q_column = _column(header, rows, "mandel_q")
        assert q_column[0] == ""
        assert float(q_column[-1]) < -0.99

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("n_max", 1.5, "an integer"),
            ("n_max", 2.0, "an integer"),
            ("n_max", True, "an integer"),
            ("stride", 2.5, "an integer"),
            ("stride", True, "an integer"),
            ("dt_over_T", "1e-3", "a number"),
            ("omega0_T", 10**400, "a number"),
            ("gamma_T", "5", "a number"),
            ("model", ["full"], "a string"),
        ],
        ids=lambda x: "10**400" if x == 10**400 else None,
    )
    def test_library_configuration_is_type_checked(self, field, value, expected, monkeypatch):
        built = []
        monkeypatch.setattr(scenarios, "model_config", lambda sim: built.append(sim))
        sim = replace(resolve_preset("fig2f_dissipative_tqd"), **{field: value})
        with pytest.raises(ConfigError) as error:
            simulate(sim)
        assert str(error.value) == f"{field} expects {expected}, got {value!r}"
        assert built == []  # checked before anything is built

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_conserves_norm_or_trace(self, name):
        _trajectory, summary = simulate(resolve_preset(name))
        assert summary.norm_or_trace_drift <= 1e-8

    @pytest.mark.parametrize("tau_p, tau_s", [(0.7, 0.5), (0.5, 0.3)])
    def test_full_model_transfer_off_the_paper_geometry(self, tau_p, tau_s):
        sim = replace(resolve_preset("fig3_full"), tau_p_over_T=tau_p, tau_s_over_T=tau_s)
        _trajectory, summary = simulate(sim)
        assert summary.final_populations[("g2", 1)] >= 0.985

    def test_rerun_is_byte_identical(self, tmp_path):
        paths = []
        for i in (0, 1):
            cfg = replace(
                resolve_preset("fig2_stirap"),
                output_path=str(tmp_path / f"run{i}.csv"),
            )
            run(cfg)
            paths.append(cfg.output_path)
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()


class TestSweep:
    def test_empty_value_list_writes_header_only(self, tmp_path):
        out = str(tmp_path / "empty.csv")
        sweep(SimulationConfig(), "omega0_T", [], out)
        with open(out, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("parameter,value,final_p_g1_0")

    def test_rejects_non_numeric_parameter(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(SimulationConfig(), "model", [1.0], str(tmp_path / "x.csv"))

    @pytest.mark.parametrize(
        "parameter, value",
        [
            ("gamma_T", None),
            ("gamma_T", "abc"),
            ("omega0_T", "2.0"),
            ("omega0_T", True),
            ("omega0_T", 10**400),
            ("n_max", 1.5),
            ("n_max", "2"),
            ("n_max", float("inf")),
        ],
    )
    def test_rejects_a_value_that_is_not_a_number_of_the_field(self, parameter, value, tmp_path):
        out = tmp_path / "x.csv"
        base = resolve_preset("fig2f_dissipative_tqd")
        with pytest.raises(ConfigError, match=parameter):
            sweep(base, parameter, [1, value], str(out))
        assert not out.exists()

    def test_each_value_is_built_once(self, tmp_path, monkeypatch):
        calls = []
        real_setup = scenarios._setup

        def counted(sim):
            calls.append(sim.omega0_T)
            return real_setup(sim)

        monkeypatch.setattr(scenarios, "_setup", counted)
        base = SimulationConfig(dt_over_T=1e-2, stride=100)
        sweep(base, "omega0_T", [1.0, 2.0, 3.0], str(tmp_path / "once.csv"))
        assert calls == [1.0, 2.0, 3.0]

    def test_rows_preserve_input_order(self, tmp_path):
        out = str(tmp_path / "order.csv")
        base = SimulationConfig(dt_over_T=1e-2, stride=100)
        sweep(base, "omega0_T", [3.0, 1.0], out)
        header, rows = _read_csv(out)
        values = [float(v) for v in _column(header, rows, "value")]
        assert values == [3.0, 1.0]

    def test_transfer_improves_with_pulse_area(self, tmp_path):
        # Efficiency grows monotonically with pulse area until it saturates;
        # past saturation (here around omega0_T=4) it oscillates at the
        # percent level instead of increasing strictly.
        out = str(tmp_path / "area.csv")
        base = replace(resolve_preset("fig2_stirap"), dt_over_T=2e-3, stride=100)
        sweep(base, "omega0_T", [1.0, 2.0, 3.0, 4.0, 5.0], out)
        header, rows = _read_csv(out)
        finals = [float(v) for v in _column(header, rows, "final_p_g2_1")]
        assert all(b >= a for a, b in zip(finals[:4], finals[1:4]))
        assert all(value >= 0.98 for value in finals[3:])

    def test_cavity_loss_reduces_final_photon_number(self, tmp_path):
        out = str(tmp_path / "loss.csv")
        base = replace(
            resolve_preset("fig2f_dissipative_tqd"), dt_over_T=2e-3, stride=100
        )
        sweep(base, "kappa_T", [0.0, 0.05], out)
        header, rows = _read_csv(out)
        finals = [float(v) for v in _column(header, rows, "final_n")]
        assert finals[1] < finals[0]


class TestConfigFile:
    def test_parse_with_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comparison run\n"
            "\n"
            "scenario=fig2_tqd\n"
            "dt_over_T = 0.01\n"
            "stride=100\n",
            encoding="utf-8",
        )
        entries = parse_config_file(str(path))
        assert entries == {"scenario": "fig2_tqd", "dt_over_T": "0.01", "stride": "100"}

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("omega0_T\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_duplicate_key_raises(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("stride=10\nomega0_T=2\n stride = 20\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="stride"):
            parse_config_file(str(path))


class TestCli:
    def test_presets_command_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in (
            "fig2_stirap",
            "fig2_tqd",
            "fig2e_lossless",
            "fig2f_dissipative_stirap",
            "fig2f_dissipative_tqd",
            "fig3_full",
        ):
            assert name in out

    def test_run_with_preset_and_overrides(self, tmp_path, capsys):
        out = str(tmp_path / "cli.csv")
        code = main(
            [
                "run",
                "--preset",
                "fig2_stirap",
                "--out",
                out,
                "--set",
                "dt_over_T=0.01",
                "--set",
                "stride=200",
                "--set",
                "model=full",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "final_p_g2_1=" in stdout
        assert "model=full" in stdout.splitlines()
        assert os.path.exists(out)

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "job.cfg"
        cfg_file.write_text(
            "scenario=fig2_stirap\ndt_over_T=0.02\nstride=100\n", encoding="utf-8"
        )
        out = str(tmp_path / "job.csv")
        code = main(
            ["run", "--config", str(cfg_file), "--out", out, "--set", "dt_over_T=0.01"]
        )
        assert code == 0
        # 8 / 0.01 = 800 steps, stride 100 -> 9 rows + header
        with open(out, encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 10

    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["run", "--preset", "nope"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_unknown_key_is_usage_error(self, capsys):
        assert main(["run", "--set", "bogus_key=1"]) == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("omega0_T=abc", "error: omega0_T expects a number, got 'abc'\n"),
            ("foo", "error: --set expects key=value, got 'foo'\n"),
        ],
    )
    def test_malformed_override_is_usage_error(self, setting, message, capsys):
        assert main(["run", "--set", setting]) == 2
        assert capsys.readouterr().err == message

    def test_integration_failure_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--out",
                str(tmp_path / "x.csv"),
                "--set",
                "dt_over_T=1.0",
                "--set",
                "omega0_T=500",
                "--set",
                "stride=1",
            ]
        )
        assert code == 3

    def test_non_finite_run_is_integration_failure(self, tmp_path, capsys):
        # the pulses overflow within the first steps and the state turns NaN
        for preset in ("fig2_tqd", "fig2f_dissipative_tqd"):
            code = main(
                [
                    "run",
                    "--preset",
                    preset,
                    "--set",
                    "dt_over_T=0.5",
                    "--set",
                    "stride=16",
                    "--set",
                    "omega0_T=1e200",
                    "--out",
                    str(tmp_path / "nan.csv"),
                ]
            )
            captured = capsys.readouterr()
            assert code == 3
            assert "nan" not in captured.out
            # the one error line, and no numpy warning before it
            assert captured.err.startswith("error: ")
            assert "drifted" in captured.err
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("n_max", [1, 3])
    def test_negative_eigenvalue_is_integration_failure(self, n_max, tmp_path, capsys):
        # at dt = 0.05 T the trace holds but rho loses positivity at t = -0.5 T
        out = tmp_path / "negative.csv"
        argv = ["run", "--preset", "fig2f_dissipative_tqd", "--set", "dt_over_T=0.05"]
        code = main(argv + ["--set", f"n_max={n_max}", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: density matrix developed negative eigenvalue -2.505e-06 at t=-0.5; "
            "reduce dt\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting",
        [
            "dt_over_T=nan",
            "t_end_over_T=inf",
            "t_start_over_T=-inf",
            "omega0_T=nan",
            "tau_p_over_T=nan",
            "tau_s_over_T=inf",
            "gamma_T=nan",
            "kappa_T=inf",
            "delta_T=inf",
            "delta_m_T=nan",
        ],
    )
    def test_non_finite_value_is_usage_error(self, setting, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        argv = ["run", "--preset", "fig2f_dissipative_tqd", "--set", setting, "--out", out]
        assert main(argv) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_scenario_that_disagrees_with_preset_is_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        cfg_file = tmp_path / "job.cfg"
        cfg_file.write_text("scenario=fig2_stirap\n", encoding="utf-8")
        for source in (["--set", "scenario=fig2_stirap"], ["--config", str(cfg_file)]):
            assert main(["run", "--preset", "fig2_tqd", *source, "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: scenario=fig2_stirap disagrees with --preset fig2_tqd")
            assert err.count("\n") == 1
            assert not os.path.exists(out)

    @pytest.mark.parametrize("preset, drive", [("fig2_tqd", "tqd"), ("custom", "stirap")])
    def test_scenario_that_agrees_with_preset_runs_it(self, preset, drive, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        argv = ["run", "--preset", preset, "--set", f"scenario={preset}", "--out", out]
        assert main(argv + ["--set", "dt_over_T=0.01"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert f"scenario={preset}" in printed and f"drive={drive}" in printed

    def test_n_max_above_limit_is_usage_error_before_allocating(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        argv = ["run", "--preset", "fig2f_dissipative_tqd", "--set", "n_max=11", "--out", out]
        tracemalloc.start()
        try:
            code = main(argv)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_max must be in 1..10") and err.count("\n") == 1
        assert peak < 1e6  # bytes; the real Liouvillian at n_max = 11 is about 54 MB
        assert not os.path.exists(out)

    def test_too_many_steps_is_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        argv = ["run", "--preset", "fig2_tqd", "--set", "dt_over_T=1e-300", "--out", out]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: 8e+300 steps")
        assert not os.path.exists(out)

    def test_sweep_rejects_non_integer_values_of_integer_fields(self, tmp_path, capsys):
        out = str(tmp_path / "n_max.csv")
        # parsed as --set parses them: "2.0" is not an integer either
        for values in ("1.5,2.9", "2.0"):
            argv = ["sweep", "--param", "n_max", "--values", values, "--out", out]
            assert main(argv) == 2
            assert "n_max" in capsys.readouterr().err
            assert not os.path.exists(out)

    def test_sweep_rejects_none_values(self, tmp_path, capsys):
        out = str(tmp_path / "gamma.csv")
        argv = ["sweep", "--preset", "fig2f_dissipative_tqd", "--param", "gamma_T"]
        assert main(argv + ["--values", "1,none", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: gamma_T expects a number")
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "preset,parameter,values,message",
        [
            ("fig2_stirap", "omega0_T", "1,2,nan", "pulse parameters must be finite"),
            ("fig2_stirap", "n_max", "1,11", "n_max must be in 1..10"),
            ("fig2_stirap", "stride", "10,0", "stride must be at least 1"),
            (
                "fig2_stirap",
                "dt_over_T",
                "1e-3,0.3",
                "window [-4.0, 4.0] is not an integer number of steps",
            ),
            ("fig3_full", "delta_m_T", "18,36,0", "delta_m must be positive for physical pulses"),
        ],
    )
    def test_sweep_rejects_an_out_of_domain_value_before_any_run(
        self, preset, parameter, values, message, tmp_path, capsys, monkeypatch
    ):
        runs = []
        real_propagate = scenarios.propagate

        def counted(model, psi0, grid):
            runs.append(grid)
            return real_propagate(model, psi0, grid)

        monkeypatch.setattr(scenarios, "propagate", counted)
        out = str(tmp_path / "sweep.csv")
        argv = ["sweep", "--preset", preset, "--param", parameter, "--values", values]
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert runs == []
        assert not os.path.exists(out)

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--preset",
                "fig2_stirap",
                "--set",
                "dt_over_T=0.01",
                "--out",
                str(tmp_path / "missing_dir" / "x.csv"),
            ]
        )
        assert code == 4

    def test_sweep_command(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        code = main(
            [
                "sweep",
                "--preset",
                "fig2_stirap",
                "--param",
                "omega0_T",
                "--values",
                "1,2",
                "--set",
                "dt_over_T=0.01",
                "--out",
                out,
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "rows=2" in stdout
        with open(out, encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 3
