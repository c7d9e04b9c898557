"""The tracked outputs under out/ regenerate byte for byte: the bump
experiment and method comparison, and the refinement study of each coupling
variant, written to a temporary directory and compared file by file.

When bytes differ the failure names the file and its largest numeric delta:
relative for every value, except conservativity defects, which are roundoff
by construction, and signed errors p - p_exact, which cross zero where a
relative delta means nothing; these two get the absolute delta."""

import json
from pathlib import Path

import pytest

from ltsheat.cli import EXIT_OK, run_compare, run_convergence, run_experiment

ROOT = Path(__file__).resolve().parent.parent
BUMP_CFG = ROOT / "configs" / "bump.cfg"
GOLDEN = ROOT / "out"


def _fields(path: Path) -> dict[str, object]:
    """Every value of an output file by label: CSV cells as column[row],
    JSON leaves by key path.  Numbers become floats, other cells stay text."""
    text = path.read_text()
    if path.suffix == ".json":
        found: dict[str, object] = {}

        def walk(node, label):
            items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
            if items is None:
                found[label] = float(node) if type(node) in (int, float) else node
            else:
                for key, child in items:
                    walk(child, f"{label}/{key}" if label else str(key))

        walk(json.loads(text), "")
        return found
    header, *rows = [line.split(",") for line in text.splitlines()]
    found = {}
    for n, row in enumerate(rows):
        for column, cell in zip(header, row):
            try:
                found[f"{column}[{n}]"] = float(cell)
            except ValueError:
                found[f"{column}[{n}]"] = cell
    return found


def _absolute_kind(label: str) -> str | None:
    """The kind of a value whose delta is reported absolute, else None."""
    if "conservativity_defect" in label:
        return "conservativity-defect"
    if label.startswith("error["):  # the signed error column of error_space.csv
        return "signed-error"
    return None


def delta_report(produced: Path, golden: Path) -> str:
    """The largest relative delta of the file's values, and the largest
    absolute delta of its conservativity defects and of its signed errors."""
    new, old = _fields(produced), _fields(golden)
    if new.keys() != old.keys():
        return "layout differs"
    numeric = [k for k in new if isinstance(new[k], float) and isinstance(old[k], float)]
    text = [k for k in new if k not in numeric and new[k] != old[k]]
    if text:
        return f"non-numeric values differ: {text[:3]}"
    by_kind: dict[str | None, list[str]] = {None: []}
    for k in numeric:
        by_kind.setdefault(_absolute_kind(k), []).append(k)
    rel, at = max(
        ((abs(new[k] - old[k]) / max(abs(old[k]), 1e-300), k) for k in by_kind.pop(None)),
        default=(0.0, "-"),
    )
    report = f"largest relative delta {rel:.3g} at {at}"
    for kind, labels in by_kind.items():
        absolute, at = max((abs(new[k] - old[k]), k) for k in labels)
        report += f"; largest {kind} delta {absolute:.3g} (absolute) at {at}"
    return report


def assert_same_bytes(produced: Path, names: tuple[str, ...]) -> None:
    for name in names:
        new, golden = produced / name, GOLDEN / produced.name / name
        assert new.read_bytes() == golden.read_bytes(), f"{produced.name}/{name}: {delta_report(new, golden)}"


def test_delta_report_names_the_largest_deltas(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("method,l2,max_conservativity_defect\na,1.0,0\nb,2.0,1e-17\n")
    new.write_text("method,l2,max_conservativity_defect\na,1.0,2e-17\nb,2.000002,1e-17\n")
    assert delta_report(new, old) == (
        "largest relative delta 1e-06 at l2[1]; "
        "largest conservativity-defect delta 2e-17 (absolute) at max_conservativity_defect[0]"
    )
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"grid": {"dt": 0.5}, "iterations": [3, 4], "variant": "x"}))
    new.write_text(json.dumps({"grid": {"dt": 0.5}, "iterations": [3, 5], "variant": "x"}))
    assert delta_report(new, old) == "largest relative delta 0.25 at iterations/1"
    new.write_text(json.dumps({"grid": {"dt": 0.5}, "iterations": [3, 4], "variant": "y"}))
    assert delta_report(new, old) == "non-numeric values differ: ['variant']"
    # a signed error near its zero crossing: a roundoff move, not a 2.5e-12 relative one
    old, new = tmp_path / "old_space.csv", tmp_path / "new_space.csv"
    old.write_text("x,error\n0.145,-0.0125\n0.155,0.00053\n")
    new.write_text("x,error\n0.145,-0.0125\n0.155,0.00053000000000133\n")
    assert delta_report(new, old) == (
        "largest relative delta 0 at x[1]; largest signed-error delta 1.33e-15 (absolute) at error[1]"
    )


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
