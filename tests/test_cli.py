import ast
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ltsheat
from ltsheat import SolveMode, build_composite_grid, manufactured_problem, march
from ltsheat.cli import (
    _KEYS,
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
import ltsheat.cli
from ltsheat.errors import SolverError
from ltsheat.scheme import VARIANTS
from ltsheat.solver import MODE_KINDS

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
    assert summary["boundary_mode"] == "exact"
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


def test_unknown_override_key_is_config_error(tmp_path, capsys):
    # an override is not silently ignored either
    out = tmp_path / "o"
    assert run_experiment(BUMP_CFG, {"mode.esp": "1e-3", "output_dir": str(out)}) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: unknown config key 'mode.esp'\n"
    assert not out.exists()


def test_key_given_twice_is_config_error(tmp_path, capsys):
    # the second value does not silently win
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, MINIMAL + f"output_dir = {out}\ngrid.dt_fine = 0.004\n")
    assert run_experiment(cfg) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {cfg}:9: config key 'grid.dt_fine' given twice\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("output_dir", "", "has no value"),
        ("problem.source_coeffs", "", "has no value"),
        ("problem.source_coeffs", " , ", "is not a comma list of numbers"),
        ("problem.source_coeffs", "1,,2", "is not a comma list of numbers"),
        ("problem.source_coeffs", "1, 2,", "is not a comma list of numbers"),
        ("grid.widths_fine", " 0.01, , 0.24", "is not a comma list of numbers"),
        ("grid.widths_fine", "0.25,", "is not a comma list of numbers"),
    ],
    ids=[
        "output-dir", "source-coeffs", "source-coeffs-comma", "source-coeffs-inner-empty",
        "source-coeffs-trailing-comma", "widths-fine-inner-empty", "widths-fine-trailing-comma",
    ],
)
def test_empty_value_is_config_error(tmp_path, capsys, monkeypatch, key, value, message):
    # not the working directory, nor a zero source, nor a list read past an
    # empty entry: nothing runs and nothing is written
    monkeypatch.chdir(tmp_path)
    body = MINIMAL + "problem = custom-coefficients\n"
    body += "" if key == "output_dir" else f"output_dir = {tmp_path / 'o'}\n"
    cfg = write_cfg(tmp_path, body + f"{key} ={value}\n")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: config key {key!r} {message}\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    named = [key for row in rows for key in re.findall(r"`([^`]+)`", row)]
    assert sorted(named) == sorted(_KEYS)
    assert len(_KEYS) == 20
    # the mode row lists the solve modes before its first ';', and no other
    (mode_row,) = (line for line in table.splitlines() if line.startswith("| `mode.type` |"))
    assert tuple(re.findall(r"`([^`]+)`", mode_row.split("|")[2].split(";")[0])) == MODE_KINDS


def _names_imported_from_ltsheat(source):
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "ltsheat"
        for alias in node.names
    }


def test_package_exports_what_its_callers_read():
    # The package namespace is what the scripts, the README examples, the
    # acceptance suite and the benchmark read from it, plus the errors that
    # public functions raise and the variant type every march takes; all
    # else is imported from its submodule, so the surface cannot grow unseen.
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    sources = [path.read_text() for path in sorted((root / "scripts").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    sources.append((root / "tests" / "test_acceptance.py").read_text())
    read = set().union(*map(_names_imported_from_ltsheat, sources))
    submodules = {info.name for info in pkgutil.iter_modules(ltsheat.__path__)}
    read |= set(re.findall(r"\blts\.(\w+)", (root / "perfbench" / "worker.py").read_text())) - submodules
    assert len(set(ltsheat.__all__)) == len(ltsheat.__all__)
    assert set(ltsheat.__all__) == read | {"ConfigurationError", "DimensionError", "SolverError", "Variant"}
    assert all(hasattr(ltsheat, name) for name in ltsheat.__all__)


def test_nan_cell_width_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL + "output_dir = " + str(tmp_path / "o") + "\n")
    code = run_experiment(cfg, {"grid.n_cells_fine": "3", "grid.widths_fine": "0.2, nan, 0.1"})
    assert code == EXIT_CONFIG
    assert "widths_fine entries must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_zero_problem_outputs_zero_errors(tmp_path):
    out = tmp_path / "zero"
    cfg = write_cfg(tmp_path, MINIMAL + f"problem = zero\noutput_dir = {out}\n")
    assert run_experiment(cfg) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["boundary_mode"] == "exact"
    rows = (out / "error_space.csv").read_text().splitlines()[1:]
    assert all(float(row.split(",")[1]) == 0.0 for row in rows)
    rows = (out / "error_time.csv").read_text().splitlines()[1:]
    assert all(float(row.split(",")[1]) == 0.0 for row in rows)


def test_custom_coefficients_problem(tmp_path):
    out = tmp_path / "custom"
    cfg = write_cfg(
        tmp_path,
        MINIMAL
        + "problem = custom-coefficients\n"
        + "problem.source_coeffs = 1.0, -0.5\nproblem.initial_coeffs = 0.0, 1.0\n"
        + f"output_dir = {out}\n",
    )
    assert run_experiment(cfg) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["boundary_mode"] == "homogeneous"
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
        MINIMAL + "problem = custom-coefficients\n" + f"{key} = {value}\noutput_dir = {out}\n",
    )
    assert run_experiment(cfg) == EXIT_CONFIG
    assert f"configuration error: config key {key!r} entries must be finite" in capsys.readouterr().err
    assert not out.exists()


#: the CLI in a child whose address space is limited to 1 GiB, so an
#: allocation past it fails there whatever the machine's overcommit policy
_ADDRESS_LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from ltsheat.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_run_too_large_for_memory_is_one_configuration_error_line(tmp_path):
    # 10^6 fine cells over 10^5 windows pass the grid's size check, but the
    # march's fine trajectory alone needs 7.28 TiB
    body = (
        MINIMAL.replace("n_cells_fine = 25", "n_cells_fine = 1000000")
        .replace("dt_fine = 0.002", "dt_fine = 1e-6")
        .replace("dt_coarse = 0.02", "dt_coarse = 1e-5")
        .replace("t_end = 0.1", "t_end = 1")
    )
    cfg = write_cfg(tmp_path, body + f"output_dir = {tmp_path / 'o'}\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    child = subprocess.run(
        [sys.executable, "-c", _ADDRESS_LIMITED_CLI, "run", str(cfg)], env=env, timeout=120, capture_output=True, text=True
    )
    assert child.returncode == EXIT_CONFIG, child.stderr
    assert child.stderr.startswith("configuration error: the run does not fit in memory: Unable to allocate")
    assert child.stderr.count("\n") == 1 and child.stdout == ""
    assert not (tmp_path / "o").exists()


def test_summary_value_that_overflows_is_solver_error(tmp_path, capsys):
    # finite coefficients whose solution's L2 norm overflows: summary.json
    # cannot hold it, so nothing is written
    out = tmp_path / "o"
    cfg = write_cfg(
        tmp_path,
        "grid.domain_lo = 0\ngrid.domain_hi = 1\ngrid.interface_x = 0.4\n"
        + "grid.n_cells_fine = 5\ngrid.n_cells_coarse = 3\n"
        + "grid.dt_fine = 0.01\ngrid.dt_coarse = 0.02\ngrid.t_end = 0.04\n"
        + "problem = custom-coefficients\n"
        + f"problem.source_coeffs = 1e300, 1e300\nmode.type = single_iteration\noutput_dir = {out}\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print before the error line
        assert run_experiment(cfg) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("solver error: summary values are not finite: final_l2_norm")
    assert not out.exists()


#: how each command's solver error line names the march that failed: by its
#: variant and window, after the ladder level in ``converge``
_FAILED_MARCH = {
    "run": "is2-fine, window 1 of 5",
    "converge": "ladder level 0: is2-fine, window 1 of 5",
    "compare": "is1-fine, window 1 of 5",
}


@pytest.mark.parametrize("command", ["run", "converge", "compare"])
def test_solver_failure_in_a_march_names_variant_and_window(tmp_path, capsys, command):
    # on a domain of length 1e300 the manufactured source is NaN, so the first
    # direct solve's right-hand side is not finite, in the first window
    body = BUMP_CFG.read_text().replace("grid.domain_hi = 1.0", "grid.domain_hi = 1e300")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print before the error line
        assert main([command, str(write_cfg(tmp_path, body)), "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"solver error: {_FAILED_MARCH[command]}: direct solve right-hand side is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, failing, prefix",
    [
        ("compare", 2, ""),
        ("compare", 5, "uniform-coarse: "),
        ("compare", 6, "is2-fine-single-iteration: "),
        ("converge", 2, "ladder level 2: "),
    ],
)
def test_solver_error_names_the_run_that_failed(tmp_path, capsys, monkeypatch, command, failing, prefix):
    # four of compare's seven marches run is2-fine, so the variant and window
    # alone do not say which one failed; the method is2-fine needs no prefix
    marches, real = [], ltsheat.cli.march

    def failing_march(grid, variant, mode, problem):
        marches.append(variant.name)
        if len(marches) == failing + 1:
            raise SolverError(f"{variant.name}, window 3 of 5: direct solve residual exceeds the acceptance bound")
        return real(grid, variant, mode, problem)

    monkeypatch.setattr(ltsheat.cli, "march", failing_march)
    out = tmp_path / "o"
    assert main([command, str(BUMP_CFG), "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"solver error: {prefix}is2-fine, window 3 of 5: direct solve residual exceeds the acceptance bound\n"
    assert len(marches) == failing + 1 and not out.exists()


def _steep_gain_cfg(tmp_path):
    # dt_coarse / h_coarse^2 = 0.004 gives is1-coarse an interface gain of
    # -4.55: a damping fixed at 0.45 would give a contraction of -1.5 per
    # sweep, and the datum would overflow within 2000 sweeps
    return write_cfg(
        tmp_path,
        BUMP_CFG.read_text()
        .replace("grid.dt_fine = 0.002", "grid.dt_fine = 1e-6")
        .replace("grid.dt_coarse = 0.02", "grid.dt_coarse = 1e-5")
        .replace("grid.t_end = 0.1", "grid.t_end = 1e-4")
        .replace("output_dir = out/bump", f"output_dir = {tmp_path / 'o'}"),
    )


@pytest.mark.parametrize("variant", [v.name for v in VARIANTS])
def test_steep_gain_config_converges_for_every_variant(tmp_path, variant):
    # the damping chosen from the gain makes the contraction 0 where the
    # fixed one made it -1.5, so the config that overflowed converges
    assert main(["run", str(_steep_gain_cfg(tmp_path)), "--variant", variant]) == EXIT_OK


def test_residual_at_its_roundoff_floor_ends_the_window(tmp_path, capsys):
    # a datum near 1e147 has a roundoff floor near 1e131, far above eps: the
    # residual falls by the predicted 0.233 per sweep down to it, then stays,
    # and the window ends there, not after max_iters sweeps
    body = MINIMAL + "problem = custom-coefficients\nproblem.source_coeffs = 1e150, 1e150\n"
    cfg = write_cfg(tmp_path, body + f"output_dir = {tmp_path / 'o'}\n")
    assert run_experiment(cfg) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err.strip()
    stalled = "; the residual stopped falling at the datum's roundoff, above eps 1e-05"
    assert err.endswith(stalled)
    found = NONCONVERGED.match(err.removesuffix(stalled))
    assert found["label"] == "is2-fine" and found["window"] == "1" and found["predicted"] == "0.233"
    assert (found["gain"], found["theta"]) == ("-0.705", "0.45")
    assert float(found["ratio"]) >= 1.0
    # 0.233^24 ~ 1.6e-15: the fall from 5e147 takes about 24 sweeps
    assert int(found["sweeps"]) <= 30
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["all_converged"] is False and summary["iterations"][0] == int(found["sweeps"])


@pytest.mark.parametrize("command", ["run", "converge", "compare"])
@pytest.mark.parametrize("problem, value", [("manufactured", "exact"), ("custom-coefficients", "homogeneous")])
def test_boundary_mode_key_is_unknown(tmp_path, capsys, monkeypatch, command, problem, value):
    # the problem decides the boundary data; an older config that still names
    # the key fails as any unknown key does, and writes nothing
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, MINIMAL + f"problem = {problem}\nboundary_mode = {value}\n")
    assert main([command, str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {cfg}:9: unknown config key 'boundary_mode'\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "problem, key", [("manufactured", "problem.source_coeffs"), ("zero", "problem.initial_coeffs")]
)
def test_coefficients_of_another_problem_are_config_error(tmp_path, capsys, problem, key):
    # only the custom-coefficients problem reads them; elsewhere they are not
    # silently dropped
    out = tmp_path / "o"
    assert run_experiment(BUMP_CFG, {"problem": problem, key: "5.0, 7.0", "output_dir": str(out)}) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"configuration error: config key {key!r} is only for problem 'custom-coefficients', not {problem!r}\n"
    assert not out.exists()


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
    cfg = write_cfg(tmp_path, MINIMAL + "problem = custom-coefficients\n")
    assert run_convergence(cfg) == EXIT_CONFIG
    assert "exact solution" in capsys.readouterr().err


def test_convergence_on_a_shifted_domain(tmp_path):
    # the manufactured boundary data are the exact solution at the domain's
    # own ends, not at x = 0 and x = 1
    out = tmp_path / "shifted"
    body = MINIMAL.replace("grid.n_cells_fine = 25", "grid.n_cells_fine = 75")
    cfg = write_cfg(tmp_path, body + f"grid.domain_lo = -0.5\nconvergence.levels = 3\noutput_dir = {out}\n")
    assert run_convergence(cfg) == EXIT_OK
    rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[1:]]
    assert [float(row[5]) >= 0.9 for row in rows[1:]] == [True, True]


def test_convergence_zero_problem_all_orders_undefined(tmp_path):
    out = tmp_path / "zeroconv"
    cfg = write_cfg(
        tmp_path,
        MINIMAL + f"problem = zero\noutput_dir = {out}\n",
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
    r"last/previous (?P<ratio>\S+) \(interface gain g = (?P<gain>[^,]+), damping theta = (?P<theta>[^,]+), "
    r"contraction rho = (?P<predicted>[^)]+)\)$"
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
    assert found["ratio"] == found["gain"] == found["theta"] == found["predicted"] == "n/a"  # no second sweep
    # the ladder says the same, with its level
    levels = {"convergence.levels": "1", "mode.max_iters": "2", "mode.eps": "1e-12", "output_dir": str(out)}
    assert run_convergence(BUMP_CFG, levels) == EXIT_NO_CONVERGENCE
    found = NONCONVERGED.match(capsys.readouterr().err.strip())
    assert found["label"] == "is2-fine, ladder level 0" and found["window"] == "1" and found["sweeps"] == "2"
    assert (float(found["last"]), float(found["first"])) == pytest.approx((first[1], first[0]), rel=1e-3)
    assert float(found["ratio"]) == pytest.approx(first[1] / first[0], rel=1e-2)
    assert float(found["gain"]) == pytest.approx(report.gain, rel=1e-2) and found["theta"] == "0.45"
    assert float(found["predicted"]) == pytest.approx(report.contraction, rel=1e-2)
    assert float(found["predicted"]) == pytest.approx(float(found["ratio"]), rel=1e-2)


def test_removed_predictor_only_mode_is_config_error(tmp_path, capsys):
    # no alias is kept: the config key and the flag both refuse it
    body = BUMP_CFG.read_text()
    assert "mode.type = converged" in body
    cfg = write_cfg(tmp_path, body.replace("mode.type = converged", "mode.type = predictor_only"))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: config key 'mode.type' must be one of ('converged', 'single_iteration'),"
        " got 'predictor_only'\n"
    )
    with pytest.raises(SystemExit) as exc:
        main(["run", str(BUMP_CFG), "--mode", "predictor_only", "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'predictor_only'" in capsys.readouterr().err
    assert not out.exists()


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
        # a step matrix entry that overflows: a mass h / dt, or 2 / h of a half cell
        (
            {"grid.domain_lo = 0.0": "grid.domain_lo = -1e308", "grid.domain_hi = 1.0": "grid.domain_hi = 1e308"},
            "the fine step matrix is not finite: h / dt, 2 / h or 1 / (center distance) overflows "
            "(h from 4e+306 to 4e+306, dt = 0.002)",
        ),
        (
            {"grid.interface_x = 0.25": "grid.interface_x = 1e-310"},
            "the fine step matrix is not finite: h / dt, 2 / h or 1 / (center distance) overflows "
            "(h from 4e-312 to 4e-312, dt = 0.002)",
        ),
        (
            {
                "grid.domain_hi = 1.0": "grid.domain_hi = 1e306",
                "grid.dt_fine = 0.002": "grid.dt_fine = 2e-6",
                "grid.dt_coarse = 0.02": "grid.dt_coarse = 2e-5",
                "grid.t_end = 0.1": "grid.t_end = 1e-4",
            },
            "the coarse step matrix is not finite: h / dt, 2 / h or 1 / (center distance) overflows "
            "(h from 6.666666666666667e+304 to 6.666666666666667e+304, dt = 2e-05)",
        ),
    ],
    ids=[
        "dt-ratio", "window-count", "domain-hi", "domain-lo", "oversized-horizon", "oversized-mesh",
        "mass-overflows", "half-cell-overflows", "coarse-mass-overflows",
    ],
)
def test_non_finite_grid_input_is_config_error(tmp_path, capsys, replace, message):
    # `ltsheat run` on the bundled config, with the zero problem, and one
    # overflowing or infinite grid value: one line, and nothing is written
    body = BUMP_CFG.read_text().replace("problem = manufactured", "problem = zero")
    for old, new in replace.items():
        assert old in body
        body = body.replace(old, new)
    out = tmp_path / "o"
    assert main(["run", str(write_cfg(tmp_path, body)), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1, err
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


@pytest.mark.parametrize(
    "name, message",
    [("a" * 300, "cannot be used"), ("new/" + "a" * 300, "cannot be made"), ("o\0x", "holds a NUL byte")],
    ids=["name-too-long", "name-too-long-below-a-new-directory", "nul-byte"],
)
def test_output_dir_that_cannot_be_named_is_config_error(tmp_path, capsys, name, message):
    # rejected before the march, so nothing is made, not even a parent directory
    out = f"{tmp_path}/{name}"
    cfg = write_cfg(tmp_path, BUMP_CFG.read_text().replace("output_dir = out/bump", f"output_dir = {out}"))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: output_dir {out!r} {message}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# caf\u00e9, Latin-1 encoded\n".encode("latin-1") + MINIMAL.encode())
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: cannot read config {cfg}: ")
    assert not (tmp_path / "o").exists()


def test_config_with_a_byte_order_mark_is_read(tmp_path):
    # an editor's UTF-8 byte-order mark is not part of the first line
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + BUMP_CFG.read_bytes())
    assert parse_config_file(bom) == parse_config_file(BUMP_CFG)
    for name, cfg in (("plain", BUMP_CFG), ("bom", bom)):
        assert main(["run", str(cfg), "--out", str(tmp_path / name)]) == EXIT_OK
    assert (tmp_path / "bom" / "summary.json").read_bytes() == (tmp_path / "plain" / "summary.json").read_bytes()


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
