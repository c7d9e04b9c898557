"""The tracked outputs under out/ regenerate byte for byte: the bump
experiment and method comparison, and the refinement study of each coupling
variant, written to a temporary directory and compared file by file.

When bytes differ the failure names the file and its largest numeric delta:
relative for every value, except conservativity defects, which are roundoff
by construction, and signed errors p - p_exact, which cross zero where a
relative delta means nothing; these two get the absolute delta.  It also
names the numpy and scipy builds recorded in out/PROVENANCE.json next to the
running ones, since the bytes depend on numpy's vectorized ``exp``, which
differs between versions and CPU dispatch targets, and on the LAPACK and
BLAS that scipy's wrappers call for every step solve.  After regenerating
out/, record the running build with
``PYTHONPATH=src python tests/test_golden.py``."""

import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ltsheat.cli import EXIT_OK, run_compare, run_convergence, run_experiment
from ltsheat.scheme import VARIANTS

ROOT = Path(__file__).resolve().parent.parent
BUMP_CFG = ROOT / "configs" / "bump.cfg"
GOLDEN = ROOT / "out"
PROVENANCE = GOLDEN / "PROVENANCE.json"


def running_build() -> dict[str, object]:
    """numpy's version, scipy's version (read from its metadata, which does
    not import scipy), the CPU targets numpy's loops were compiled for (the
    baseline and the dispatched ones), and the CPU features found here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "cpu_baseline": list(umath.__cpu_baseline__),
        "cpu_dispatch": list(umath.__cpu_dispatch__),
        "cpu_features": sorted(name for name, found in umath.__cpu_features__.items() if found),
    }


def build_note(recorded: dict[str, object], running: dict[str, object]) -> str:
    """The recorded and the running numpy and scipy build; CPU features as
    the ones found by only one of the two."""
    keys = ("numpy", "scipy", "cpu_baseline", "cpu_dispatch")
    notes = [f"{key} recorded {recorded[key]}, running {running[key]}" for key in keys]
    was, now = set(recorded["cpu_features"]), set(running["cpu_features"])
    notes.append(f"cpu_features recorded only {sorted(was - now)}, running only {sorted(now - was)}")
    return "; ".join(notes)


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


def largest_deltas(produced: Path, golden: Path) -> dict[str, tuple[float, str]] | str:
    """Per kind of value, the largest delta of the file's values and its
    label: "relative" for every value but the conservativity defects and the
    signed errors, whose deltas are absolute.  A text naming the difference
    instead when the layouts or non-numeric values differ."""
    new, old = _fields(produced), _fields(golden)
    if new.keys() != old.keys():
        return "layout differs"
    numeric = [k for k in new if isinstance(new[k], float) and isinstance(old[k], float)]
    text = [k for k in new if k not in numeric and new[k] != old[k]]
    if text:
        return f"non-numeric values differ: {text[:3]}"
    by_kind: dict[str, list[str]] = {"relative": []}
    for k in numeric:
        by_kind.setdefault(_absolute_kind(k) or "relative", []).append(k)
    deltas = {
        kind: max(((abs(new[k] - old[k]), k) for k in labels), default=(0.0, "-")) for kind, labels in by_kind.items()
    }
    deltas["relative"] = max(
        ((abs(new[k] - old[k]) / max(abs(old[k]), 1e-300), k) for k in by_kind["relative"]),
        default=(0.0, "-"),
    )
    return deltas


def delta_report(produced: Path, golden: Path) -> str:
    """The largest relative delta of the file's values, and the largest
    absolute delta of its conservativity defects and of its signed errors."""
    deltas = largest_deltas(produced, golden)
    if isinstance(deltas, str):
        return deltas
    rel, at = deltas.pop("relative")
    report = f"largest relative delta {rel:.3g} at {at}"
    for kind, (absolute, at) in deltas.items():
        report += f"; largest {kind} delta {absolute:.3g} (absolute) at {at}"
    return report


def assert_same_bytes(produced: Path, names: tuple[str, ...]) -> None:
    for name in names:
        new, golden = produced / name, GOLDEN / produced.name / name
        if new.read_bytes() != golden.read_bytes():
            note = build_note(json.loads(PROVENANCE.read_text()), running_build())
            pytest.fail(f"{produced.name}/{name}: {delta_report(new, golden)}; {note}")


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


#: the golden files of each output directory under out/
BUMP_FILES = ("summary.json", "error_space.csv", "error_time.csv", "compare.csv")
CONVERGENCE_FILES = ("convergence.csv",)


def write_bump(out: Path) -> None:
    assert run_experiment(BUMP_CFG, {"output_dir": str(out)}) == EXIT_OK
    assert run_compare(BUMP_CFG, {"output_dir": str(out)}) == EXIT_OK


def write_convergence(out: Path, variant) -> None:
    overrides = {
        "variant.interface_scheme": variant.interface_scheme,
        "variant.master": variant.master,
        "output_dir": str(out),
    }
    assert run_convergence(BUMP_CFG, overrides) == EXIT_OK


def regenerate(root: Path) -> None:
    """Every golden output directory, written under ``root``."""
    write_bump(root / "bump")
    for variant in VARIANTS:
        write_convergence(root / f"convergence-{variant.name}", variant)


def test_bump_experiment_and_comparison(tmp_path):
    out = tmp_path / "bump"
    write_bump(out)
    assert_same_bytes(out, BUMP_FILES)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_convergence_study(tmp_path, variant):
    out = tmp_path / f"convergence-{variant.name}"
    write_convergence(out, variant)
    assert_same_bytes(out, CONVERGENCE_FILES)


#: numpy's AVX-512 dispatch targets, among them its float64 ``exp``
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

#: bounds on the largest deltas of each kind when the AVX-512 loops are off,
#: about ten times the largest measured with numpy 2.4.6: relative 3.2e-15
#: (bump/compare.csv final_l2_error; 8.3e-16 at summary.json final_l2_error),
#: signed error 1.3e-15, conservativity defect 2.8e-17, and relative
#: 4.48e-13 in the refinement studies (is1-coarse observed_order_l2[3]),
#: whose observed orders amplify the moves of their errors
OTHER_CPU_PATH_BOUNDS = {
    "bump": {"relative": 3e-14, "signed-error": 1e-14, "conservativity-defect": 3e-16},
    "convergence": {"relative": 5e-12},
}

_REGENERATE = """
import json, sys
from pathlib import Path
from tests.test_golden import AVX512_TARGETS, running_build, regenerate
regenerate(Path(sys.argv[1]))
print(json.dumps([target in running_build()["cpu_features"] for target in AVX512_TARGETS]))
"""


def test_golden_outputs_stay_close_on_the_cpu_path_without_avx512(tmp_path):
    # The golden bytes hold on this machine's CPU path only: numpy's float64
    # exp picks its code by CPU.  A fresh interpreter with the AVX-512 loops
    # switched off, the nearest stand-in for a CPU without them, regenerates
    # every golden file; its values must stay within roundoff of the golden.
    build = running_build()
    targets = [t for t in AVX512_TARGETS if t in build["cpu_dispatch"] and t in build["cpu_features"]]
    if not targets:
        pytest.skip(
            f"numpy {build['numpy']} runs none of {', '.join(AVX512_TARGETS)} here (dispatch "
            f"{build['cpu_dispatch']}), so there is no AVX-512 path to switch off"
        )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(targets)
    run = subprocess.run(
        [sys.executable, "-c", _REGENERATE, str(tmp_path)], cwd=ROOT, env=env, timeout=120, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [False] * len(AVX512_TARGETS)  # the switch took effect
    for directory in sorted(path.name for path in GOLDEN.iterdir() if path.is_dir()):
        kind = directory.split("-")[0]
        for name in BUMP_FILES if kind == "bump" else CONVERGENCE_FILES:
            deltas = largest_deltas(tmp_path / directory / name, GOLDEN / directory / name)
            assert not isinstance(deltas, str), f"{directory}/{name}: {deltas}"
            for delta_kind, (delta, at) in deltas.items():
                bound = OTHER_CPU_PATH_BOUNDS[kind][delta_kind]
                assert delta <= bound, f"{directory}/{name}: {delta_kind} delta {delta:.3g} at {at} > {bound:g}"


def test_build_note_names_the_recorded_and_the_running_build():
    recorded = json.loads(PROVENANCE.read_text())
    assert recorded.keys() == running_build().keys()
    running = dict(recorded, numpy="9.9", scipy="8.8", cpu_features=recorded["cpu_features"][1:] + ["NEW"])
    note = build_note(recorded, running)
    assert f"numpy recorded {recorded['numpy']}, running 9.9" in note
    assert f"scipy recorded {recorded['scipy']}, running 8.8" in note
    assert f"cpu_features recorded only {recorded['cpu_features'][:1]}, running only ['NEW']" in note


if __name__ == "__main__":
    PROVENANCE.write_text(json.dumps(running_build(), indent=2) + "\n")
