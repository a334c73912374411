"""Self-tests of the benchmark: span arithmetic, the output checker, and inputs."""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import inputs  # noqa: E402
import setup_probe  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

HEADER = (
    "t_over_T,p_g1_0,p_e_0,p_g2_1,p_g2_0,p_em_0,dark_overlap,n_mean,mandel_q,"
    "norm_or_trace,omega_r_T,g_T,omega1_T,gm_T,omegam_T"
)
REFERENCE = {"p_g1_0": 0.25, "p_e_0": 0.0, "p_g2_1": 0.75, "p_g2_0": 0.0}


def test_self_time_of_nested_spans():
    # root [0, 10] calls a [1, 4], which calls a1 [2, 3]; root then calls b [5, 9]
    own = spans.self_times([0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0])
    assert own == pytest.approx([3, 2, 1, 4])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [1, 5] and [3, 7] overlap; [8, 12] outlives its parent [0, 10]
    own = spans.self_times([0, 1, 3, 8], [10, 5, 7, 12], [-1, 0, 0, 0])
    assert own == pytest.approx([10 - 6 - 2, 4, 4, 4])


def test_tracer_links_spans_to_their_callers():
    tracer = spans.Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(1000)))
    outer = tracer.wrap("m.outer", lambda: inner() + inner())
    outer()
    assert list(tracer.parents) == [-1, 0, 0]
    totals = spans.totals_by_name(tracer)
    assert totals["m.outer"][1] == 1 and totals["m.inner"][1] == 2
    whole = tracer.ends[0] - tracer.starts[0]
    assert sum(s for s, _ in totals.values()) == pytest.approx(whole)


def test_clock_rescales_each_stretch_by_the_probes_around_it(monkeypatch):
    # program time runs 0 -> 1 s, then 1 -> 3 s; the probe takes 2, 2, then 4 ms
    monkeypatch.setattr(speed.time, "perf_counter", iter([0.0, 1.0, 1.0, 3.0, 3.0]).__next__)
    clock = speed.Clock(iter([2e-3, 2e-3, 4e-3]).__next__)
    clock.start()
    clock.mark()
    clock.mark()
    assert clock.wall == 3.0
    k = speed.SENSITIVITY
    assert clock.normalized == pytest.approx(1.0 * 0.5**k + 2.0 * (1 / 3) ** k)


def _write(path, rows):
    path.write_text("\n".join([HEADER, *(",".join(row) for row in rows)]) + "\n")
    return str(path)


def _row(t, p_g2_1, norm="1.0"):
    p_g1_0 = f"{1.0 - float(p_g2_1):.17g}"
    return [t, p_g1_0, "0.0", p_g2_1, "0.0", "", "", p_g2_1, "", norm, "", "", "", "", ""]


def test_checker_accepts_a_good_trajectory(tmp_path):
    path = _write(tmp_path / "good.csv", [_row("-4", "0.0"), _row("4", "0.75")])
    outcome = checker.check_trajectory(path, "effective", 2, REFERENCE)
    assert outcome.ok, outcome.failures
    assert outcome.dev == 0.0


def test_checker_flags_an_injected_nan(tmp_path):
    path = _write(tmp_path / "nan.csv", [_row("-4", "0.0"), _row("4", "nan")])
    assert not checker.check_trajectory(path, "effective", 2, REFERENCE).ok
    path = _write(tmp_path / "nan_norm.csv", [_row("-4", "0.0", norm="nan"), _row("4", "0.75")])
    assert not checker.check_trajectory(path, "effective", 2, None).ok


def test_checker_flags_a_population_outside_the_reference_tolerance(tmp_path):
    path = _write(tmp_path / "off.csv", [_row("-4", "0.0"), _row("4", "0.75001")])
    outcome = checker.check_trajectory(path, "effective", 2, REFERENCE)
    assert not outcome.ok
    assert any("p_g2_1" in failure for failure in outcome.failures)


def test_checker_flags_a_nan_sweep_row(tmp_path):
    header = "parameter,value,final_p_g1_0,final_p_e_0,final_p_g2_1,final_p_g2_0,norm_or_trace_drift"
    path = tmp_path / "sweep.csv"
    path.write_text(
        f"{header}\nomega0_T,2.0,0.25,0.0,0.75,0.0,0.0\nomega0_T,3.0,nan,nan,nan,nan,0.0\n"
    )
    first, second = checker.check_sweep(str(path), [2.0, 3.0], [REFERENCE, None])
    assert first.ok and not second.ok


def test_checker_flags_a_printed_nan():
    assert checker.check_summary("scenario=x\nfinal_p_g2_1=nan\nwall_time_s=0.1")
    assert not checker.check_summary("scenario=x\nfinal_p_g2_1=0.5\nfinal_q=")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_checker_catches_a_nan_run_that_exits_as_success(tmp_path, capsys):
    # A huge pulse area overflows the integrator to NaN; the program may exit 0.
    setup_probe.add_source_path()
    from cavityfock import cli

    path = str(tmp_path / "nan.csv")
    code = cli.main(
        ["run", "--preset", "fig2_tqd", "--set", "dt_over_T=0.5", "--set", "stride=16",
         "--set", "omega0_T=1e200", "--out", path]
    )
    printed = capsys.readouterr().out
    if code == 0:
        assert not checker.check_trajectory(path, "effective", 2, None).ok
        assert checker.check_summary(printed)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload):
    assert inputs.jobs(workload, 7) == inputs.jobs(workload, 7)
    seeds = {tuple(inputs.jobs(workload, seed)) for seed in range(10)}
    assert len(seeds) > 1


def test_every_input_has_a_stored_reference():
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as handle:
        stored = json.load(handle)["final_populations"]
    assert set(inputs.reference_specs()) == set(stored)
    for workload in inputs.WORKLOADS:
        for seed in range(5):
            for job in inputs.jobs(workload, seed):
                assert set(job.ref_keys) <= set(stored)
