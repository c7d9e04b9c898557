"""The tracked outputs under out/ regenerate byte for byte: the bump
experiment and method comparison, and the refinement study of each coupling
variant, written to a temporary directory and compared file by file."""

from pathlib import Path

import pytest

from ltsheat.cli import EXIT_OK, run_compare, run_convergence, run_experiment

ROOT = Path(__file__).resolve().parent.parent
BUMP_CFG = ROOT / "configs" / "bump.cfg"
GOLDEN = ROOT / "out"


def assert_same_bytes(produced: Path, names: tuple[str, ...]) -> None:
    for name in names:
        golden = GOLDEN / produced.name / name
        assert (produced / name).read_bytes() == golden.read_bytes(), f"{produced.name}/{name}"


def test_bump_experiment_and_comparison(tmp_path):
    out = tmp_path / "bump"
    assert run_experiment(BUMP_CFG, {"output_dir": str(out)}) == EXIT_OK
    assert run_compare(BUMP_CFG, {"output_dir": str(out)}) == EXIT_OK
    assert_same_bytes(out, ("summary.json", "error_space.csv", "error_time.csv", "compare.csv"))


@pytest.mark.parametrize("variant", ["is1-fine", "is1-coarse", "is2-fine", "is2-coarse"])
def test_convergence_study(tmp_path, variant):
    scheme, master = variant.split("-")
    out = tmp_path / f"convergence-{variant}"
    overrides = {
        "variant.interface_scheme": scheme,
        "variant.master": master,
        "output_dir": str(out),
    }
    assert run_convergence(BUMP_CFG, overrides) == EXIT_OK
    assert_same_bytes(out, ("convergence.csv",))
