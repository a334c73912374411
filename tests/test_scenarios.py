import numbers
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

import cavityfock
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
from cavityfock.scenarios import CSV_COLUMNS, FIELD_KINDS, SWEEP_COLUMNS


def _read_csv(path):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in handle]
    return header, rows


def _column(header, rows, name):
    i = header.index(name)
    return [row[i] for row in rows]


# Each printed figure and the CSV column that it reduces, in printed order
_REDUCED = {
    "final_p_g1_0": "p_g1_0",
    "final_p_e_0": "p_e_0",
    "final_p_g2_1": "p_g2_1",
    "final_p_g2_0": "p_g2_0",
    "final_p_em_0": "p_em_0",
    "max_p_e_0": "p_e_0",
    "max_p_em_0": "p_em_0",
    "final_n": "n_mean",
    "final_q": "mandel_q",
    "norm_or_trace_drift": "norm_or_trace",
}


class TestPresets:
    def test_known_names_resolve(self):
        cfg = resolve_preset("fig2_stirap")
        assert cfg.model == "effective" and cfg.drive == "stirap"
        assert cfg.omega0_T == 2.0 and cfg.delta_T == 1.0
        assert cfg.tau_p_over_T == 0.5 and cfg.tau_s_over_T == 0.5
        assert cfg.gamma_T == 0.0 and cfg.kappa_T == 0.0

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

    def test_a_name_that_is_not_a_string_is_an_unknown_preset(self):
        with pytest.raises(ConfigError, match=r"unknown preset \[\]"):
            resolve_preset([])


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

    @pytest.mark.parametrize("stride", [7, 10])
    @pytest.mark.parametrize("n_max", [1, 3])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_summary_matches_last_row(self, name, n_max, stride, tmp_path):
        """Every printed figure is, as text, the CSV's last cell of its
        column (final_*) or "%.16e" of the column's maximum (max_*); the
        drift is the largest |x - 1| over the norm_or_trace cells.  The
        final populations are the trajectory's last row, bit for bit."""
        out = str(tmp_path / "t.csv")
        cfg = replace(resolve_preset(name), n_max=n_max, stride=stride)
        trajectory, summary = simulate(cfg)
        scenarios.write_trajectory_csv(trajectory, out)
        printed = summary.figures()
        header, rows = _read_csv(out)
        reduced = [(name, column) for name, (column, _) in scenarios._FIGURES.items()]
        assert reduced == list(_REDUCED.items())
        for figure, column in _REDUCED.items():
            cells = _column(header, rows, column)
            values = [float(cell) for cell in cells if cell]
            if figure == "norm_or_trace_drift":
                expected = "%.16e" % max(abs(value - 1.0) for value in values)
            elif figure.startswith("final_"):
                expected = cells[-1]
            else:
                assert figure.startswith("max_")
                expected = "%.16e" % max(values) if values else ""
            assert printed[figure] == expected, figure
        last = rows[-1]
        assert float(last[header.index("p_g2_1")]) == summary.final_populations[("g2", 1)]
        assert last[header.index("n_mean")] == printed["final_n"]
        assert last[header.index("mandel_q")] == printed["final_q"]
        final = trajectory.populations[-1].tolist()
        assert list(summary.final_populations) == trajectory.basis.labels()
        for label, value in summary.final_populations.items():
            assert value.hex() == final[trajectory.basis.index(*label)].hex(), label

    def test_sweep_columns(self):
        assert SWEEP_COLUMNS == ("parameter", "value", *_REDUCED)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_no_run_lifts_a_state(self, name, tmp_path, capsys, monkeypatch):
        """The summary reads its final populations from the recorded ones:
        no run, at any stride, and no sweep lifts a state."""

        def refuse(self, coordinates):
            raise AssertionError("a state was lifted")

        monkeypatch.setattr(cavityfock.dynamics.Trajectory, "_lifted", refuse)
        for stride in (1, 10):
            argv = ["run", "--preset", name, "--set", f"stride={stride}"]
            assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 0
        argv = ["sweep", "--preset", name, "--param", "omega0_T", "--values", "1,3"]
        assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_summary_and_csv_lift_no_states(self, tmp_path):
        sim = replace(resolve_preset("fig2f_dissipative_tqd"), stride=1)
        trajectory, _summary = simulate(sim)
        scenarios.write_trajectory_csv(trajectory, str(tmp_path / "d.csv"))
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

    @pytest.mark.parametrize(
        "field", [name for name, (kind, _) in FIELD_KINDS.items() if kind is numbers.Real]
    )
    @pytest.mark.parametrize("value", [Fraction(1, 2), 10**400], ids=["Fraction", "10**400"])
    def test_float_fields_take_no_fraction_nor_an_int_past_the_float_range(
        self, field, value, monkeypatch
    ):
        built = []
        monkeypatch.setattr(scenarios, "model_config", lambda sim: built.append(sim))
        sim = replace(resolve_preset("fig2_tqd"), **{field: value})
        with pytest.raises(ConfigError, match=f"^{field} expects a number, got "):
            simulate(sim)
        assert built == []

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_conserves_norm_or_trace(self, name):
        _trajectory, summary = simulate(resolve_preset(name))
        assert summary.figures_of_merit["norm_or_trace_drift"] <= 1e-8

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

    def test_zero_rate_row_is_the_lossless_run(self, tmp_path):
        # a rate of 0 is no loss: the Schroedinger equation, as in fig2_tqd
        out = str(tmp_path / "kappa.csv")
        sweep(resolve_preset("fig2_tqd"), "kappa_T", [0.0, 0.05], out)
        _header, rows = _read_csv(out)
        figures = simulate(resolve_preset("fig2_tqd"))[1].figures()
        assert rows[0][2:] == [figures[name] for name in SWEEP_COLUMNS[2:]]
        assert rows[1][2:] != rows[0][2:]


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

    def test_text_that_is_not_utf8_raises(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"scenario=fig2_tqd\n# \xc3\xa9 is UTF-8\nomega0_T=\xff\n")
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: not UTF-8 text"):
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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("source", ["preset", "set", "config"])
    def test_empty_preset_is_usage_error(self, source, command, tmp_path, capsys, monkeypatch):
        # an empty name is a name given, not the custom defaults
        monkeypatch.chdir(tmp_path)
        (tmp_path / "job.cfg").write_text("scenario=\n", encoding="utf-8")
        given = {
            "preset": ["--preset", ""],
            "set": ["--set", "scenario="],
            "config": ["--config", "job.cfg"],
        }[source]
        sweeps = ["--param", "omega0_T", "--values", "2"] if command == "sweep" else []
        assert main([command, *given, *sweeps, "--out", "x.csv"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown preset ''; ")
        assert sorted(os.listdir(tmp_path)) == ["job.cfg"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_config_that_is_not_utf8_is_usage_error(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_bytes(b"\xff\n")
        sweeps = ["--param", "omega0_T", "--values", "2"] if command == "sweep" else []
        assert main([command, "--config", "bad.cfg", *sweeps, "--out", "x.csv"]) == 2
        message = "error: bad.cfg: not UTF-8 text (invalid start byte)\n"
        assert capsys.readouterr().err == message
        assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]

    def test_unknown_key_is_usage_error(self, capsys):
        assert main(["run", "--set", "bogus_key=1"]) == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("omega0_T=abc", "error: omega0_T expects a number, got 'abc'\n"),
            ("gamma_T=none", "error: gamma_T expects a number, got 'none'\n"),
            ("foo", "error: --set expects key=value, got 'foo'\n"),
        ],
    )
    def test_malformed_override_is_usage_error(self, setting, message, capsys):
        assert main(["run", "--set", setting]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("source", ["config", "set"])
    @pytest.mark.parametrize(
        "entries, message",
        [
            (["foo"], "{where} expects key=value, got 'foo'"),
            (["stride=10", "stride=20"], "{where}: duplicate key 'stride'"),
            ([" omega0_T = abc "], "omega0_T expects a number, got 'abc'"),
            (["model=a=b"], "unknown model 'a=b'"),
        ],
        ids=["no_equals", "repeated_key", "spaces", "value_with_equals"],
    )
    def test_config_lines_and_set_items_are_read_alike(
        self, source, entries, message, tmp_path, capsys, monkeypatch
    ):
        # one reader takes both: a file line is named by <path>:<line>, a --set item by --set
        monkeypatch.chdir(tmp_path)
        (tmp_path / "job.cfg").write_text("".join(f"{e}\n" for e in entries), encoding="utf-8")
        if source == "config":
            given, where = ["--config", "job.cfg"], f"job.cfg:{len(entries)}"
        else:
            given, where = [arg for e in entries for arg in ("--set", e)], "--set"
        assert main(["run", "--preset", "fig2_tqd", *given, "--out", "x.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(where=where)}\n"
        assert sorted(os.listdir(tmp_path)) == ["job.cfg"]

    @pytest.mark.parametrize("dt", ["5e-324", "1e-320"])
    def test_a_step_too_small_to_count_is_too_many_steps(self, dt, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["run", "--preset", "fig2_tqd", "--set", f"dt_over_T={dt}", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: inf steps of dt={float(dt)} are too many to resolve a fractional step\n"
        )
        assert not out.exists()

    def test_repeated_set_key_is_usage_error(self, tmp_path, capsys):
        # as a repeated key of a configuration file is; --set may still
        # override a file's key (test_config_file_with_flag_override)
        out = tmp_path / "twice.csv"
        sets = ["--set", "stride=100", "--set", "stride=200"]
        assert main(["run", "--preset", "fig2_tqd", *sets, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --set: duplicate key 'stride'\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["set", "config"])
    def test_sweep_rejects_output_path(self, source, tmp_path, capsys, monkeypatch):
        # a sweep writes its table to --out; an output_path would be ignored
        monkeypatch.chdir(tmp_path)
        (tmp_path / "job.cfg").write_text("output_path=mine.csv\n", encoding="utf-8")
        given = ["--set", "output_path=mine.csv"] if source == "set" else ["--config", "job.cfg"]
        argv = ["sweep", "--preset", "fig2_stirap", "--param", "omega0_T", "--values", "2"]
        assert main(argv + given) == 2
        assert "output_path" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["job.cfg"]

    def test_lossy_full_model_runs(self, tmp_path, capsys):
        out = tmp_path / "lossy.csv"
        sets = ["--set", "gamma_T=5", "--set", "kappa_T=0.05"]
        assert main(["run", "--preset", "fig3_full", *sets, "--out", str(out)]) == 0
        summary = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert 0.81 < float(summary["final_p_g2_1"]) < 0.82
        assert float(summary["final_p_g2_0"]) > 0.1  # the photon leaks, the atom decays

    def test_zero_rate_runs_the_closed_full_model(self, tmp_path, capsys):
        outputs = []
        for sets in ([], ["--set", "gamma_T=0", "--set", "kappa_T=0"]):
            out = tmp_path / f"full{len(sets)}.csv"
            assert main(["run", "--preset", "fig3_full", *sets, "--out", str(out)]) == 0
            printed = capsys.readouterr().out.splitlines()
            summary = [line for line in printed if not line.startswith(("wall_time_s=", "output_path="))]
            outputs.append((out.read_bytes(), summary))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("preset", ["fig2_tqd", "fig3_full"])
    def test_pulses_beyond_overflow_run_with_finite_controls(self, preset, tmp_path, capsys):
        # tau_p + tau_s overflows; the pump never meets the cavity pulse
        out = tmp_path / "far.csv"
        argv = ["run", "--preset", preset, "--set", "tau_p_over_T=1e308", "--out", str(out)]
        assert main(argv + ["--set", "dt_over_T=0.01"]) == 0
        assert "final_p_g1_0=1.0000000000000000e+00" in capsys.readouterr().out.splitlines()
        header, rows = _read_csv(out)
        for name in ("omega_r_T", "omega1_T", "gm_T", "omegam_T"):
            assert {cell for cell in _column(header, rows, name)} <= {"", "0.0000000000000000e+00"}

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

    def test_drift_prints_a_readable_number_and_names_the_step(self, tmp_path, capsys):
        # gamma dt = 1000 is far outside RK4's stability region: the trace
        # blows up within the first recorded stride
        out = tmp_path / "unstable.csv"
        argv = ["run", "--preset", "fig2f_dissipative_tqd", "--set", "gamma_T=1e6"]
        assert main(argv + ["--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"error: trace drifted to -?\d\.\d{6}e[+-]\d{2,3} at step 10, t=-3\.99; reduce dt\n",
            captured.err,
        ), captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, settings, message",
        [
            ("fig2_stirap", ["delta_T=1e8"], "norm drifted to inf at step 10, t=-3.99"),
            (
                "fig2_tqd",
                ["omega0_T=1e8", "stride=1"],
                "norm drifted to 1.000022e+00 at step 303, t=-3.697",
            ),
            (
                "fig2_stirap",
                ["omega0_T=1000", "kappa_T=40", "dt_over_T=0.01"],
                "trace drifted to 2.048000e+03 at step 240, t=-1.6",
            ),
            (
                "fig2f_dissipative_tqd",
                ["kappa_T=1.7e308", "n_max=3"],
                "trace drifted to nan at step 10, t=-3.99",
            ),
        ],
        ids=["square", "square_and_complex_state", "trace_sum", "decay_terms"],
    )
    def test_overflow_is_integration_failure_without_warnings(
        self, preset, settings, message, tmp_path, capsys
    ):
        """A run whose numbers overflow ends in the one error line: no numpy
        warning comes first, which the test settings would raise instead of
        the IntegrationError."""
        argv = ["run", "--preset", preset, "--out", str(tmp_path / "o.csv")]
        assert main(argv + [arg for setting in settings for arg in ("--set", setting)]) == 3
        assert capsys.readouterr().err == f"error: {message}; reduce dt\n"
        assert not (tmp_path / "o.csv").exists()

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
            "error: density matrix developed negative eigenvalue -2.505e-06 at step 70, t=-0.5; "
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

    @pytest.mark.parametrize("values", ["", "1,,2", "1,"])
    def test_sweep_rejects_an_empty_value(self, values, tmp_path, capsys):
        # an empty --values is one empty item, not an empty list
        out = tmp_path / "empty.csv"
        argv = ["sweep", "--preset", "fig2_stirap", "--param", "omega0_T", "--values", values]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: omega0_T expects a number, got ''\n"
        assert not out.exists()

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

    def test_a_stride_past_int64_records_the_two_ends(self, tmp_path, capsys):
        # as any stride past the grid does, and with the same bytes
        outputs = []
        for stride in ("1000000000", "9223372036854775808"):
            out = tmp_path / f"{stride}.csv"
            argv = ["run", "--preset", "fig2_tqd", "--set", f"stride={stride}"]
            assert main(argv + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 3

    def test_sweep_of_a_stride_past_int64(self, tmp_path, capsys):
        # an integer field's value is written as its digits, past the float range too
        out = tmp_path / "stride.csv"
        values = ["1000000000", "9223372036854775808", "9223372036854775809", "1" + "0" * 400]
        argv = ["sweep", "--preset", "fig2_stirap", "--param", "stride"]
        assert main(argv + ["--values", ",".join(values), "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert _column(header, rows, "value") == values
        assert all(row[2:] == rows[0][2:] for row in rows)

    def test_repeated_calls_give_what_fresh_processes_give(self, tmp_path, capsys, monkeypatch):
        # one process may call main many times: no call's arguments reach the next
        calls = [
            ["run", "--preset", "fig2_tqd", "--set", "dt_over_T=0.01", "--out", "a.csv"],
            ["run", "--preset", "fig2_tqd", "--set", "dt_over_T=0.3", "--out", "b.csv"],
            ["sweep", "--preset", "fig2_stirap", "--param", "omega0_T", "--values", "1,2"]
            + ["--set", "dt_over_T=0.01", "--out", "c.csv"],
            ["run", "--preset", "fig2_tqd", "--set", "stride=7", "--out", "d.csv"],
        ]

        def outputs(directory, codes, printed):
            files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
            timeless = [
                [line for line in out.splitlines() if not line.startswith("wall_time_s=")]
                for out in printed
            ]
            return codes, timeless, files

        fresh = tmp_path / "fresh"
        fresh.mkdir()
        source = os.path.dirname(os.path.dirname(cavityfock.__file__))
        env = {**os.environ, "PYTHONPATH": source}
        finished = [
            subprocess.run(
                [sys.executable, "-m", "cavityfock.cli", *argv],
                cwd=fresh, env=env, capture_output=True, text=True, timeout=120,
            )
            for argv in calls
        ]
        expected = outputs(
            fresh, [p.returncode for p in finished], [p.stdout + p.stderr for p in finished]
        )
        assert expected[0] == [0, 2, 0, 0]
        same = tmp_path / "same"
        same.mkdir()
        monkeypatch.chdir(same)
        codes, printed = [], []
        for argv in calls:
            codes.append(main(argv))
            captured = capsys.readouterr()
            printed.append(captured.out + captured.err)
        assert outputs(same, codes, printed) == expected

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["sweep", "--param", "omega0_T", "--values", "1,2"]],
        ids=["run", "sweep"],
    )
    @pytest.mark.parametrize(
        "where, error",
        [
            ("missing_dir/x.csv", "[Errno 2] No such file or directory"),
            ("file/x.csv", "[Errno 20] Not a directory"),
            ("file/sub/x.csv", "[Errno 20] Not a directory"),
            ("directory", "[Errno 21] Is a directory"),
            ("", "[Errno 2] No such file or directory"),
        ],
        ids=["missing", "not_a_directory", "below_a_file", "a_directory", "empty"],
    )
    def test_unwritable_output_fails_before_any_simulation(
        self, argv, where, error, tmp_path, capsys, monkeypatch
    ):
        """The output's directory is checked before the first simulation,
        with the error that opening the file would raise: exit 4, one line
        of stderr, nothing printed and nothing written.  An empty --out is
        the empty path, not the default file name, run from ``tmp_path`` so
        that a default file would show there."""

        def simulated(*args):
            raise AssertionError("simulated before the output was checked")

        monkeypatch.setattr(scenarios, "_simulate", simulated)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        (tmp_path / "directory").mkdir()
        out = str(tmp_path / where) if where else ""
        assert main([*argv, "--preset", "fig2_tqd", "--out", out]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}: {out!r}\n"
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["directory", "file"]
        assert not os.listdir(tmp_path / "directory")

    @pytest.mark.parametrize("source", ["set", "config"])
    def test_empty_output_path_fails_before_any_simulation(
        self, source, tmp_path, capsys, monkeypatch
    ):
        """An empty output_path, from --set or a config file, is the empty
        path, which open() rejects: the run exits 4 before simulating."""

        def simulated(*args):
            raise AssertionError("simulated before the output was checked")

        monkeypatch.setattr(scenarios, "_simulate", simulated)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "job.cfg").write_text("output_path=\n", encoding="utf-8")
        given = ["--set", "output_path="] if source == "set" else ["--config", "job.cfg"]
        assert main(["run", "--preset", "fig2_tqd", *given]) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["job.cfg"]
        with pytest.raises(FileNotFoundError):
            run(replace(resolve_preset("fig2_tqd"), output_path=""))

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["sweep", "--param", "omega0_T", "--values", "1,2"]],
        ids=["run", "sweep"],
    )
    def test_configuration_is_checked_before_the_output(self, argv, tmp_path, capsys):
        """A bad configuration and a missing output directory: both commands
        report the configuration, exit 2."""
        out = str(tmp_path / "missing_dir" / "x.csv")
        bad = ["--set", "dt_over_T=5e-324"]
        assert main([*argv, "--preset", "fig2_tqd", *bad, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: inf steps of dt=5e-324 are too many")
        assert captured.out == ""

    @staticmethod
    def owner_access(path, mode):
        """os.access by the owner's permission bits, as for a user other
        than root, who may write anywhere."""
        need = (stat.S_IWUSR if mode & os.W_OK else 0) | (stat.S_IXUSR if mode & os.X_OK else 0)
        return os.stat(path).st_mode & need == need

    def test_output_path_is_checked_by_its_own_permissions(self, tmp_path, monkeypatch):
        """An existing file is checked itself, and a new one by its
        directory, as opening them for writing is: a writable file in a
        read-only directory and os.devnull pass, a new file in that
        directory and a read-only file do not."""
        monkeypatch.setattr(scenarios.os, "access", self.owner_access)
        (tmp_path / "shut").mkdir()
        (tmp_path / "shut" / "open.csv").write_text("")
        (tmp_path / "read_only.csv").write_text("")
        (tmp_path / "read_only.csv").chmod(0o444)
        (tmp_path / "shut").chmod(0o555)
        try:
            scenarios._check_output(str(tmp_path / "shut" / "open.csv"))
            scenarios._check_output(os.devnull)
            for where in ("shut/new.csv", "read_only.csv"):
                out = str(tmp_path / where)
                with pytest.raises(PermissionError) as error:
                    scenarios._check_output(out)
                assert str(error.value) == f"[Errno 13] Permission denied: {out!r}"
            assert sorted(os.listdir(tmp_path / "shut")) == ["open.csv"]
        finally:
            (tmp_path / "shut").chmod(0o755)

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
