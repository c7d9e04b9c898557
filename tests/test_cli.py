import json
import re
from pathlib import Path

import pytest

from ltsheat import SolveMode, build_composite_grid, manufactured_problem, march
from ltsheat.cli import (
    EXIT_CONFIG,
    EXIT_ERROR,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    load_run_config,
    main,
    parse_config_file,
    run_compare,
    run_convergence,
    run_experiment,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUMP_CFG = CONFIGS / "bump.cfg"


def write_cfg(tmp_path, body, name="test.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


MINIMAL = """
grid.interface_x = 0.25
grid.n_cells_fine = 25
grid.n_cells_coarse = 15
grid.dt_fine = 0.002
grid.dt_coarse = 0.02
grid.t_end = 0.1
"""


def test_bundled_config_runs(tmp_path):
    out = tmp_path / "out"
    code = run_experiment(BUMP_CFG, {"output_dir": str(out)})
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert 3.0 <= summary["mean_iterations"] <= 9.0
    assert summary["all_converged"] is True
    assert summary["variant"] == "is2-fine"
    assert summary["final_l2_error"] > 0.0
    space = (out / "error_space.csv").read_text().splitlines()
    assert space[0] == "x,error"
    assert len(space) == 1 + 40
    times = (out / "error_time.csv").read_text().splitlines()
    assert times[0] == "t,l2_error"
    assert len(times) == 1 + 6


def test_bad_time_step_ratio_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL.replace("grid.dt_fine = 0.002", "grid.dt_fine = 0.008") + "output_dir = " + str(tmp_path / "o") + "\n")
    code = run_experiment(cfg)
    assert code == EXIT_CONFIG
    assert "dt_coarse / dt_fine" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # no partial files


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL + "grid.dt_medium = 0.01\n")
    assert run_experiment(cfg) == EXIT_CONFIG
    assert "grid.dt_medium" in capsys.readouterr().err


def test_nan_cell_width_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL + "output_dir = " + str(tmp_path / "o") + "\n")
    code = run_experiment(cfg, {"grid.n_cells_fine": "3", "grid.widths_fine": "0.2, nan, 0.1"})
    assert code == EXIT_CONFIG
    assert "widths_fine entries must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_zero_problem_outputs_zero_errors(tmp_path):
    out = tmp_path / "zero"
    cfg = write_cfg(tmp_path, MINIMAL + f"problem = zero\nboundary_mode = homogeneous\noutput_dir = {out}\n")
    assert run_experiment(cfg) == EXIT_OK
    rows = (out / "error_space.csv").read_text().splitlines()[1:]
    assert all(float(row.split(",")[1]) == 0.0 for row in rows)
    rows = (out / "error_time.csv").read_text().splitlines()[1:]
    assert all(float(row.split(",")[1]) == 0.0 for row in rows)


def test_custom_coefficients_problem(tmp_path):
    out = tmp_path / "custom"
    cfg = write_cfg(
        tmp_path,
        MINIMAL
        + "problem = custom-coefficients\nboundary_mode = homogeneous\n"
        + "problem.source_coeffs = 1.0, -0.5\nproblem.initial_coeffs = 0.0, 1.0\n"
        + f"output_dir = {out}\n",
    )
    assert run_experiment(cfg) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_l2_error"] is None
    assert summary["final_l2_norm"] > 0.0
    assert (out / "error_space.csv").read_text() == "x,error\n"


@pytest.mark.parametrize(
    "key, value",
    [("problem.source_coeffs", "nan, 1"), ("problem.source_coeffs", "1e400"), ("problem.initial_coeffs", "0, -inf")],
)
def test_non_finite_problem_coefficient_is_config_error(tmp_path, capsys, key, value):
    out = tmp_path / "o"
    cfg = write_cfg(
        tmp_path,
        MINIMAL + "problem = custom-coefficients\nboundary_mode = homogeneous\n" + f"{key} = {value}\noutput_dir = {out}\n",
    )
    assert run_experiment(cfg) == EXIT_CONFIG
    assert f"configuration error: config key {key!r} entries must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_summary_value_that_overflows_is_solver_error(tmp_path, capsys):
    # finite coefficients whose solution's L2 norm overflows: summary.json
    # cannot hold it, so nothing is written
    out = tmp_path / "o"
    cfg = write_cfg(
        tmp_path,
        "grid.domain_lo = 0\ngrid.domain_hi = 1\ngrid.interface_x = 0.4\n"
        + "grid.n_cells_fine = 5\ngrid.n_cells_coarse = 3\n"
        + "grid.dt_fine = 0.01\ngrid.dt_coarse = 0.02\ngrid.t_end = 0.04\n"
        + "problem = custom-coefficients\nboundary_mode = homogeneous\n"
        + f"problem.source_coeffs = 1e300, 1e300\nmode.type = single_iteration\noutput_dir = {out}\n",
    )
    assert run_experiment(cfg) == EXIT_ERROR
    assert "solver error: summary values are not finite: final_l2_norm" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_solver_failure_in_a_march_names_variant_and_window(tmp_path, capsys):
    # a source that overflows fails the first direct solve of the first window
    cfg = write_cfg(
        tmp_path,
        MINIMAL
        + "problem = custom-coefficients\nboundary_mode = homogeneous\n"
        + f"problem.source_coeffs = 1e308, 1e308\noutput_dir = {tmp_path / 'o'}\n",
    )
    assert main(["run", str(cfg)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "solver error: is2-fine, window 1 of 5: direct solve residual exceeds the acceptance bound" in err


def test_datum_that_overflows_fails_in_its_own_window(tmp_path, capsys):
    # dt_coarse / h_coarse^2 = 0.004 gives is1-coarse a contraction of -1.5 per
    # sweep: within 2000 sweeps window 1's datum overflows, and the error
    # names that window, not the next one that would start from its cells
    cfg = write_cfg(
        tmp_path,
        BUMP_CFG.read_text()
        .replace("grid.dt_fine = 0.002", "grid.dt_fine = 1e-6")
        .replace("grid.dt_coarse = 0.02", "grid.dt_coarse = 1e-5")
        .replace("grid.t_end = 0.1", "grid.t_end = 1e-4")
        .replace("output_dir = out/bump", f"output_dir = {tmp_path / 'o'}"),
    )
    assert main(["run", str(cfg), "--variant", "is1-coarse", "--max-iters", "2000"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "solver error: is1-coarse, window 1 of 10: Dirichlet residual is not finite after" in err
    assert "(predicted contraction -1.5)" in err
    # with fewer sweeps than it takes to overflow, the window ends unconverged
    assert main(["run", str(cfg), "--variant", "is1-coarse", "--max-iters", "100"]) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert "corrector did not converge (is1-coarse): window 1 of 10 after 100 sweeps" in err


def test_custom_problem_requires_homogeneous_boundary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL + "problem = custom-coefficients\n")
    assert run_experiment(cfg) == EXIT_CONFIG
    assert "boundary_mode" in capsys.readouterr().err


def test_outputs_are_byte_identical_across_runs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_experiment(BUMP_CFG, {"output_dir": str(out_a)}) == EXIT_OK
    assert run_experiment(BUMP_CFG, {"output_dir": str(out_b)}) == EXIT_OK
    for name in ("summary.json", "error_space.csv", "error_time.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_compare_outputs(tmp_path):
    out = tmp_path / "cmp"
    assert run_compare(BUMP_CFG, {"output_dir": str(out)}) == EXIT_OK
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "method,final_l2_error,mean_iterations,max_conservativity_defect"
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    assert set(rows) == {
        "is1-fine",
        "is1-coarse",
        "is2-fine",
        "is2-coarse",
        "uniform-fine",
        "uniform-coarse",
        "is2-fine-single-iteration",
    }
    coarse_err = float(rows["uniform-coarse"][0])
    for method in ("is1-fine", "is1-coarse", "is2-fine", "is2-coarse"):
        assert float(rows[method][0]) < coarse_err
    assert float(rows["is2-fine-single-iteration"][2]) <= 1e-12
    assert float(rows["uniform-fine"][1]) == 1.0


def test_convergence_ladder(tmp_path):
    out = tmp_path / "conv"
    assert run_convergence(BUMP_CFG, {"output_dir": str(out), "convergence.levels": "2"}) == EXIT_OK
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "level,h,dt,l2_error,h1_error,observed_order_l2,observed_order_h1"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[5] == "" and first[6] == ""  # no orders for the first level
    second = lines[2].split(",")
    assert float(second[5]) > 0.8


def test_convergence_single_level(tmp_path):
    out = tmp_path / "conv1"
    assert run_convergence(BUMP_CFG, {"output_dir": str(out), "convergence.levels": "1"}) == EXIT_OK
    lines = (out / "convergence.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",,")


def test_convergence_rejects_problem_without_exact(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL + "problem = custom-coefficients\nboundary_mode = homogeneous\n")
    assert run_convergence(cfg) == EXIT_CONFIG
    assert "exact solution" in capsys.readouterr().err


def test_convergence_zero_problem_all_orders_undefined(tmp_path):
    out = tmp_path / "zeroconv"
    cfg = write_cfg(
        tmp_path,
        MINIMAL + f"problem = zero\nboundary_mode = homogeneous\noutput_dir = {out}\n",
    )
    assert run_convergence(cfg, {"convergence.levels": "2"}) == EXIT_OK
    lines = (out / "convergence.csv").read_text().splitlines()
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[3]) == 0.0 and float(parts[4]) == 0.0
        assert parts[5] == "" and parts[6] == ""


NONCONVERGED = re.compile(
    r"corrector did not converge \((?P<label>[^)]*)\): "
    r"window (?P<window>\d+) of 5 after (?P<sweeps>\d+) sweeps, "
    r"Dirichlet residual last (?P<last>\S+), first (?P<first>\S+), "
    r"last/previous (?P<ratio>\S+) \(predicted contraction (?P<predicted>\S+)\)$"
)


def test_nonconvergence_exit_code(tmp_path, capsys):
    out = tmp_path / "nc"
    code = run_experiment(BUMP_CFG, {"output_dir": str(out), "mode.max_iters": "1", "mode.eps": "1e-12"})
    assert code == EXIT_NO_CONVERGENCE
    assert (out / "summary.json").exists()  # outputs still written, flagged
    config = load_run_config(parse_config_file(BUMP_CFG))
    grid = build_composite_grid(config.grid)
    _, report = march(grid, config.variant, SolveMode.converged(1e-12, 2), manufactured_problem())
    first = report.windows[0].dirichlet_residuals
    found = NONCONVERGED.match(capsys.readouterr().err.strip())
    assert found["label"] == "is2-fine" and found["window"] == "1" and found["sweeps"] == "1"
    assert float(found["last"]) == float(found["first"]) == pytest.approx(first[0], rel=1e-3)
    assert found["ratio"] == "n/a" and found["predicted"] == "n/a"  # no second sweep, no gain
    # the ladder says the same, with its level
    levels = {"convergence.levels": "1", "mode.max_iters": "2", "mode.eps": "1e-12", "output_dir": str(out)}
    assert run_convergence(BUMP_CFG, levels) == EXIT_NO_CONVERGENCE
    found = NONCONVERGED.match(capsys.readouterr().err.strip())
    assert found["label"] == "is2-fine, ladder level 0" and found["window"] == "1" and found["sweeps"] == "2"
    assert (float(found["last"]), float(found["first"])) == pytest.approx((first[1], first[0]), rel=1e-3)
    assert float(found["ratio"]) == pytest.approx(first[1] / first[0], rel=1e-2)
    assert float(found["predicted"]) == pytest.approx(report.contraction, rel=1e-2)
    assert float(found["predicted"]) == pytest.approx(float(found["ratio"]), rel=1e-2)


def test_single_iteration_mode_exits_zero(tmp_path):
    out = tmp_path / "si"
    code = run_experiment(BUMP_CFG, {"output_dir": str(out), "mode.type": "single_iteration"})
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == [1, 1, 1, 1, 1]
    assert summary["all_converged"] is False


def test_main_flag_overrides(tmp_path):
    out = tmp_path / "flags"
    code = main(
        [
            "run",
            str(BUMP_CFG),
            "--variant",
            "is1-coarse",
            "--mode",
            "converged",
            "--eps",
            "1e-4",
            "--max-iters",
            "50",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["variant"] == "is1-coarse"
    assert summary["eps"] == 1e-4
    assert summary["max_iters"] == 50


def test_main_rejects_bad_variant(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(BUMP_CFG), "--variant", "is9-fine"])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: variant must be one of")
    for name in ("is1-fine", "is1-coarse", "is2-fine", "is2-coarse", "'is9-fine'"):
        assert name in err


@pytest.mark.parametrize(
    "replace, message",
    [
        ({"grid.dt_fine = 0.002": "grid.dt_fine = 1e-320"}, "dt_coarse / dt_fine = inf is not a positive integer"),
        (
            {"grid.dt_fine = 0.002": "grid.dt_fine = 1e-320", "grid.dt_coarse = 0.02": "grid.dt_coarse = 1e-320"},
            "t_end / dt_coarse = inf is not a positive integer",
        ),
        ({"grid.domain_hi = 1.0": "grid.domain_hi = inf"}, "domain_hi must be finite"),
        ({"grid.domain_lo = 0.0": "grid.domain_lo = -inf"}, "domain_lo must be finite"),
        ({"grid.t_end = 0.1": "grid.t_end = 1e300"}, "the fine trajectory has (levels * n_windows + 1) * n_cells = (10 * "),
        (
            {"grid.n_cells_fine = 25": f"grid.n_cells_fine = {10**19}"},
            f"the fine trajectory has (levels * n_windows + 1) * n_cells = (10 * 5 + 1) * {10**19} = {51 * 10**19} values",
        ),
    ],
    ids=["dt-ratio", "window-count", "domain-hi", "domain-lo", "oversized-horizon", "oversized-mesh"],
)
def test_non_finite_grid_input_is_config_error(tmp_path, capsys, replace, message):
    # `ltsheat run` on the bundled config with one overflowing or infinite grid value
    body = BUMP_CFG.read_text()
    for old, new in replace.items():
        assert old in body
        body = body.replace(old, new)
    out = tmp_path / "o"
    assert main(["run", str(write_cfg(tmp_path, body)), "--out", str(out)]) == EXIT_CONFIG
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "converge", "compare"])
@pytest.mark.parametrize("below_file", [False, True], ids=["file", "below-file"])
def test_unusable_output_dir_is_config_error(tmp_path, capsys, command, below_file):
    # checked before any march, so the error comes first and nothing is made
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "sub" / "dir" if below_file else blocker
    assert main([command, str(BUMP_CFG), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: output_dir {str(out)!r} ")
    assert err.rstrip().endswith(f"{str(blocker)!r} is not a directory" if below_file else "is not a directory")
    assert blocker.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == [blocker]


def test_parse_config_syntax_errors(tmp_path):
    path = write_cfg(tmp_path, "grid.t_end 0.1\n")
    with pytest.raises(Exception, match="key = value"):
        parse_config_file(path)


def test_missing_required_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "grid.interface_x = 0.25\n")
    assert run_experiment(cfg) == EXIT_CONFIG
    assert "grid.n_cells_fine" in capsys.readouterr().err


def test_load_run_config_defaults():
    pairs = parse_config_file(BUMP_CFG)
    config = load_run_config(pairs)
    assert config.variant.name == "is2-fine"
    assert config.mode.kind == "converged"
    assert config.levels == 4
    assert config.grid.domain_lo == 0.0
