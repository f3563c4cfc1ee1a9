"""Regenerate the golden cell digests under ``perfbench/golden/``.

    python3 perfbench/golden.py [--workload NAME ...]

Every cell a run of each workload can reach is solved in-process by the
sequential engine and its record digest stored: the grids' fixed cold
rows, and ``serve_mixed``'s warm cells and the heads of its cold lists
(with generous headroom for faster hosts).  None depends on the seed.
As ``grid_batched`` runs the lockstep engine, its golden file pins that
engine to the sequential one.  Only rerun this when a change is meant to
move the science; the diff of the golden file then shows which cells moved.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

#: cells covered of each serve cold list (a run reaches about 30)
GOLDEN_COLD_CELLS = 150


def grid_digests(workload: str) -> dict:
    from repro.experiments import run_experiment

    state = workloads.setup_grid(workload, checks.DEFAULT_SEED)
    result = run_experiment(state.suite, state.formats, state.config, workers=1)
    return {
        checks.cell_id(r.matrix, r.format): checks.cell_digest(dataclasses.asdict(r))
        for r in result.records
    }


def serve_digests() -> dict:
    from repro.experiments import run_experiment
    from repro.serve import apply_config_overrides

    suite = workloads.serve_suite()
    by_name = {tm.name: tm for tm in suite}
    warm, cold_lists = workloads.serve_cells(suite)
    cells = warm + [c for cold in cold_lists for c in cold[:GOLDEN_COLD_CELLS]]
    groups: dict = {}
    for cell in cells:
        groups.setdefault(cell.solver_seed, {}).setdefault(cell.matrix, set()).add(cell.format)
    digests = {}
    for solver_seed, members in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        config = apply_config_overrides(workloads._config(), {} if solver_seed is None
                                        else {"seed": solver_seed})
        formats = sorted({f for fmts in members.values() for f in fmts})
        names = sorted(members)
        result = run_experiment([by_name[n] for n in names], formats, config, workers=1)
        for r in result.records:
            if r.format in members[r.matrix]:
                cid = checks.cell_id(r.matrix, r.format, solver_seed)
                digests[cid] = checks.cell_digest(dataclasses.asdict(r))
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in args.workload:
        document = {"workload": workload, "digest_fields": list(checks.DIGEST_FIELDS)}
        if workload == "serve_mixed":
            document["cells"] = serve_digests()
        else:
            document["cells"] = grid_digests(workload)
        print(f"{workload}: done", flush=True)
        path = checks.GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
