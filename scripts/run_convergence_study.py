#!/usr/bin/env python3
"""Factor-2 refinement study of all four coupling variants starting from the
bundled bump configuration.  Writes out/convergence-<variant>/convergence.csv
and prints the observed-order columns."""

import sys
from pathlib import Path

from ltsheat.cli import run_convergence
from ltsheat import VARIANTS

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "bump.cfg"

if __name__ == "__main__":
    worst = 0
    for variant in VARIANTS:
        out = Path("out") / f"convergence-{variant.name}"
        code = run_convergence(
            CONFIG,
            {
                "variant.interface_scheme": variant.interface_scheme,
                "variant.master": variant.master,
                "output_dir": str(out),
            },
        )
        worst = max(worst, code)
        if code == 0:
            print(f"== {variant.name}")
            print((out / "convergence.csv").read_text().rstrip())
    sys.exit(worst)
