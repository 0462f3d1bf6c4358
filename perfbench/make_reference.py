"""Regenerate perfbench/reference.json, the quality values of the default seed.

    python3 perfbench/make_reference.py

For every workload this runs the panel iterations of seed 0 (untimed, all
output checks required to pass) and records macro_mse and total_objective
per iteration. A benchmark run with that seed checks its panel against these
values within `rtol`, which is loose enough for BLAS reassociation and tight
enough to catch a changed algorithm. Regenerate only with a change that is
meant to alter results; a performance change must reproduce them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import OUT, ROOT, envinfo  # noqa: E402

SEED = 0
RTOL = 1e-3


def main() -> int:
    envinfo.cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import workloads

    found = {}
    for wl in workloads.WORKLOADS.values():
        found[wl.name] = []
        for index in range(wl.panel):
            cfg = wl.run_config(workloads.problem_seed(SEED, index))
            workdir = OUT / "work" / f"{wl.name}-reference"
            raw = wl.iterate(cfg, workdir, workloads.StageClock())
            outcome = wl.outcome(cfg, workdir, raw)
            bad = [c for c in outcome.checks if not c.ok]
            if bad:
                print(f"{wl.name}[{index}]: failed checks {bad}", file=sys.stderr)
                return 1
            found[wl.name].append(
                {"macro_mse": outcome.macro_mse, "total_objective": outcome.total_objective}
            )
            print(wl.name, index, found[wl.name][-1], flush=True)
    reference = {"seed": SEED, "rtol": RTOL, "workloads": found}
    path = ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
