"""Acceptance suite: every criterion asserted at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  The reference setup is the bump problem on the composite grid
with fine subdomain [0, 0.25] (dx = 0.01, dt = 0.002) and coarse subdomain
[0.25, 1] (dx = 0.05, dt = 0.02), horizon 0.1, stopping tolerance 1e-5.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from ltsheat import (
    GridConfig,
    Problem,
    SolveMode,
    WindowLayout,
    assemble_monolithic_window,
    build_composite_grid,
    discrete_norms,
    error_report,
    inject_coarse_to_fine,
    interface_pairing,
    manufactured_problem,
    march,
    observed_order,
    precompute_window_inputs,
    project_fine_to_coarse,
    solve_linear,
    solve_window,
    solve_window_monolithic,
    subdomain_l2_error,
    zero_problem,
)
from ltsheat.scheme import VARIANTS, Variant
from tests.conftest import BUMP_CONFIG, random_smooth_problem


def report(criterion: str, passed: bool, details: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({details})")


@pytest.fixture(scope="module")
def bump_problem_acc():
    return manufactured_problem()


@pytest.fixture(scope="module")
def reference_runs(bump_problem_acc):
    """Converged and single-iteration runs of all variants on the reference
    grid, plus the two uniform-time-step baselines."""
    grid = build_composite_grid(BUMP_CONFIG)
    runs = {}
    for variant in VARIANTS:
        runs[(variant.name, "converged")] = march(
            grid, variant, SolveMode.converged(1e-5, 100), bump_problem_acc
        )
        runs[(variant.name, "single_iteration")] = march(
            grid, variant, SolveMode.single_iteration(), bump_problem_acc
        )
    baselines = {}
    for label, dt in (("uniform-fine", 0.002), ("uniform-coarse", 0.02)):
        uniform_grid = build_composite_grid(replace(BUMP_CONFIG, dt_fine=dt, dt_coarse=dt))
        baselines[label] = march(
            uniform_grid, Variant("is2", "fine"), SolveMode.converged(1e-5, 100), bump_problem_acc
        )
    return grid, runs, baselines


def test_criterion_1_reproduction(bump_problem_acc):
    grid = build_composite_grid(BUMP_CONFIG)
    t0 = time.perf_counter()
    _, rep_fine = march(grid, Variant("is2", "fine"), SolveMode.converged(1e-5, 100), bump_problem_acc)
    _, rep_coarse = march(grid, Variant("is2", "coarse"), SolveMode.converged(1e-5, 100), bump_problem_acc)
    elapsed = time.perf_counter() - t0
    mean_fine = rep_fine.mean_iterations
    mean_coarse = rep_coarse.mean_iterations
    ok = 3.0 <= mean_fine <= 9.0 and 5.0 <= mean_coarse <= 11.0 and elapsed < 1.0
    report(
        "criterion 1 (reproduction)",
        ok,
        f"mean iterations fine-master {mean_fine:.2f} in [3,9], "
        f"coarse-master {mean_coarse:.2f} in [5,11], runtime {elapsed:.3f}s < 1s",
    )
    assert rep_fine.all_converged and rep_coarse.all_converged
    assert 3.0 <= mean_fine <= 9.0
    assert 5.0 <= mean_coarse <= 11.0
    assert elapsed < 1.0


def test_criterion_2_accuracy_ordering(reference_runs, bump_problem_acc):
    grid, runs, baselines = reference_runs
    coarse_error = error_report(baselines["uniform-coarse"][0], bump_problem_acc).l2_final
    variant_errors = {
        name: error_report(runs[(name, "converged")][0], bump_problem_acc).l2_final
        for name in ("is1-fine", "is1-coarse", "is2-fine", "is2-coarse")
    }
    fine_zone_lts = subdomain_l2_error(runs[("is2-fine", "converged")][0], bump_problem_acc, "fine")
    fine_zone_ref = subdomain_l2_error(baselines["uniform-fine"][0], bump_problem_acc, "fine")
    ratio = fine_zone_lts / fine_zone_ref
    ok = all(err < coarse_error for err in variant_errors.values()) and ratio <= 2.0
    report(
        "criterion 2 (accuracy ordering)",
        ok,
        f"variant L2 errors {[f'{e:.3e}' for e in variant_errors.values()]} all < "
        f"uniform-coarse {coarse_error:.3e}; fine-zone ratio {ratio:.2f} <= 2",
    )
    for name, err in variant_errors.items():
        assert err < coarse_error, name
    assert ratio <= 2.0


def test_criterion_3_conservativity(reference_runs):
    grid, runs, _ = reference_runs
    worst = 0.0
    for (name, mode), (_, rep) in runs.items():
        for window in rep.windows:
            bound = 1e-12 * max(1.0, window.flux_scale)
            worst = max(worst, window.conservativity_defect / bound)
            assert window.conservativity_defect <= bound, (name, mode)
    report(
        "criterion 3 (conservativity)",
        True,
        f"all variants, converged and single-iteration: worst defect/bound {worst:.2e}",
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    cases = 0
    for trial in range(16):
        n1 = int(rng.integers(4, 9))
        n2 = int(rng.integers(4, 9))
        ratio = int(rng.choice([1, 2, 3]))
        dt_coarse = float(rng.uniform(0.01, 0.08))
        cfg = GridConfig(
            0.0, 1.0, float(rng.uniform(0.3, 0.7)), n1, n2, dt_coarse / ratio, dt_coarse, dt_coarse
        )
        grid = build_composite_grid(cfg)
        problem = random_smooth_problem(rng)
        p0f = problem.p0(grid.centers_fine)
        p0c = problem.p0(grid.centers_coarse)
        variant = VARIANTS[trial % 4]
        inputs = precompute_window_inputs(grid, 1, problem)
        state, rep = solve_window(grid, p0f, p0c, variant, SolveMode.converged(1e-12, 400), inputs)
        assert rep.converged, (trial, variant.name)
        mono = solve_window_monolithic(grid, 1, p0f, p0c, variant, problem)
        lay = WindowLayout(grid, variant)
        err = max(
            np.max(np.abs(state.fine.cells - mono[: ratio * n1].reshape(ratio, n1))),
            np.max(np.abs(state.coarse.cells - mono[ratio * n1 : ratio * n1 + n2])),
        )
        if lay.has_interface_unknowns:
            pe_f = mono[[lay.iface_fine(k) for k in range(1, ratio + 1)]]
            err = max(
                err,
                np.max(np.abs(state.fine.pressure - pe_f)),
                abs(float(state.coarse.pressure[0]) - mono[lay.iface_coarse()]),
            )
        worst = max(worst, err)
        cases += 1
        assert err <= 1e-8, (trial, variant.name, err)
    report(
        "criterion 4 (oracle equivalence)",
        True,
        f"{cases} random window solves, all four variants: worst |iterative - monolithic| {worst:.2e} <= 1e-8",
    )


@pytest.fixture(scope="module")
def refinement_ladders(bump_problem_acc):
    """(l2, h1_global) refinement ladders for all four variants plus the total
    wall-clock time of the study."""
    t0 = time.perf_counter()
    ladders = {}
    for variant in VARIANTS:
        rows = []
        for level in range(4):
            s = 2**level
            cfg = replace(
                BUMP_CONFIG,
                n_cells_fine=25 * s,
                n_cells_coarse=15 * s,
                dt_fine=0.002 / s,
                dt_coarse=0.02 / s,
            )
            grid = build_composite_grid(cfg)
            trajectory, rep = march(grid, variant, SolveMode.converged(1e-5, 100), bump_problem_acc)
            assert rep.all_converged
            series = error_report(trajectory, bump_problem_acc)
            rows.append((0.05 / s, 0.02 / s, series.l2_final, series.h1_global))
        ladders[variant.name] = rows
    elapsed = time.perf_counter() - t0
    return ladders, elapsed


def test_criterion_5_runtime(refinement_ladders):
    _, elapsed = refinement_ladders
    report("criterion 5 (order study runtime)", elapsed < 30.0, f"{elapsed:.1f}s < 30s")
    assert elapsed < 30.0


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_criterion_5_order_of_accuracy(refinement_ladders, variant):
    # The coarse-master variants hand the fine side Dirichlet data that is
    # frozen within each coarse window; the induced O(dt_coarse) interface
    # mismatch drives an error boundary layer of width ~sqrt(dt_coarse) whose
    # time-summed H1 seminorm scales like dt^(3/4), so their observed H1
    # orders sit below the 0.8 threshold asserted here: is1-coarse near 0.75
    # (0.79, 0.76, 0.76), is2-coarse far lower on this ladder (0.57, 0.59,
    # 0.63) and rising toward 0.75 only on finer levels.
    ladders, _ = refinement_ladders
    rows = ladders[variant.name]
    orders_l2 = observed_order([(h, dt, l2) for h, dt, l2, _ in rows])
    orders_h1 = observed_order([(h, dt, h1) for h, dt, _, h1 in rows])
    ok = all(o is not None and o >= 0.8 for o in orders_l2 + orders_h1)
    report(
        f"criterion 5 (order of accuracy, {variant.name})",
        ok,
        f"L2 orders {[f'{o:.2f}' for o in orders_l2]}, H1 orders {[f'{o:.2f}' for o in orders_h1]}, all >= 0.8",
    )
    for o in orders_l2:
        assert o is not None and o >= 0.8, f"L2 orders {orders_l2}"
    for o in orders_h1:
        assert o is not None and o >= 0.8, f"H1 orders {orders_h1}"


def test_criterion_6_energy_stability():
    rng = np.random.default_rng(11)
    grid = build_composite_grid(GridConfig(0.0, 1.0, 0.25, 12, 9, 0.005, 0.02, 0.1))

    def zero_t(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    worst_margin = np.inf
    for trial in range(20):
        coeffs = rng.uniform(-1.0, 1.0, size=4)

        def p0(x, c=coeffs):
            x = np.asarray(x, dtype=float)
            return sum(c[j] * np.sin((j + 1) * np.pi * x) for j in range(4))

        problem = Problem(
            source=lambda x, t: np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape),
            p0=p0,
            g_lo=zero_t,
            g_hi=zero_t,
        )
        variant = VARIANTS[trial % 4]
        trajectory, rep = march(grid, variant, SolveMode.converged(1e-12, 300), problem)
        assert rep.all_converged
        h1_sum = 0.0
        for w in range(1, grid.n_windows + 1):
            for k in range(1, grid.ratio + 1):
                _, h1 = discrete_norms(
                    trajectory.fine[trajectory.fine_level(w, k)],
                    grid.widths_fine,
                    (0.0, None),
                    (None, trajectory.fine_face_pressure[w - 1, k - 1]),
                )
                h1_sum += grid.dt_fine * h1 * h1
            _, h1 = discrete_norms(
                trajectory.coarse[w],
                grid.widths_coarse,
                (None, 0.0),
                (trajectory.coarse_face_pressure[w - 1], None),
            )
            h1_sum += grid.dt_coarse * h1 * h1
        l2_final = float(
            np.sum(trajectory.fine[-1] ** 2 * grid.widths_fine)
            + np.sum(trajectory.coarse[-1] ** 2 * grid.widths_coarse)
        )
        l2_initial = float(
            np.sum(trajectory.fine[0] ** 2 * grid.widths_fine)
            + np.sum(trajectory.coarse[0] ** 2 * grid.widths_coarse)
        )
        scale = max(1.0, 2.0 * l2_initial)
        margin = 2.0 * l2_initial + 1e-10 * scale - (h1_sum + 2.0 * l2_final)
        worst_margin = min(worst_margin, margin)
        assert h1_sum + 2.0 * l2_final <= 2.0 * l2_initial + 1e-10 * scale, (trial, variant.name)
    report(
        "criterion 6 (energy stability)",
        True,
        f"20 random initial states across all variants: worst margin {worst_margin:.3e} >= 0",
    )


def test_criterion_7_well_posedness(bump_problem_acc):
    grid = build_composite_grid(BUMP_CONFIG)
    problem = zero_problem()
    worst = 0.0
    for variant in VARIANTS:
        trajectory, _ = march(grid, variant, SolveMode.converged(1e-5, 100), problem)
        worst = max(worst, np.max(np.abs(trajectory.fine)), np.max(np.abs(trajectory.coarse)))
        assert worst <= 1e-13
    # monolithic window matrices factor without singularity
    p0f = bump_problem_acc.p0(grid.centers_fine)
    p0c = bump_problem_acc.p0(grid.centers_coarse)
    inputs = precompute_window_inputs(grid, 1, bump_problem_acc)
    for variant in VARIANTS:
        system = assemble_monolithic_window(grid, p0f, p0c, variant, inputs)
        x = solve_linear(system)  # raises SolverError on singular or inaccurate factors
        assert np.all(np.isfinite(x))
    report(
        "criterion 7 (well-posedness)",
        True,
        f"zero data gives |p| <= {worst:.1e} (tol 1e-13); all four monolithic matrices factor",
    )


def test_criterion_8_projection_algebra():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for trial in range(1000):
        ratio = int(rng.choice([1, 2, 3, 10]))
        dt1 = float(rng.uniform(1e-4, 0.5))
        u1 = rng.uniform(-1.0, 1.0, ratio)
        u2 = float(rng.uniform(-1.0, 1.0))
        lhs = interface_pairing(inject_coarse_to_fine(u2, ratio), u1, dt1, 1.0)
        rhs = interface_pairing(np.array([u2]), np.array([project_fine_to_coarse(u1, ratio)]), dt1 * ratio, 1.0)
        scale = max(
            abs(lhs),
            abs(rhs),
            dt1 * float(np.sum(np.abs(u2 * u1))),
            1e-300,
        )
        worst = max(worst, abs(lhs - rhs) / scale)
        assert abs(lhs - rhs) <= 1e-14 * scale
    report(
        "criterion 8 (projection algebra)",
        True,
        f"1000 random trace pairs, K in {{1,2,3,10}}: worst relative defect {worst:.2e} <= 1e-14",
    )
