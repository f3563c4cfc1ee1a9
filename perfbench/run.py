"""Benchmark entry point.

    python3 perfbench/run.py --workload grid_cold --seed 0 --seconds 15 --trace 0

Runs one workload (see ``workloads.py``) from the root of a checkout and
prints, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` the per-layer ones
(a separate, fixed-work run with the layer wrappers of ``tracer.py``).
The line before it is the run's provenance; a human summary goes to stderr.
``--seconds`` is the length of ``serve_mixed``'s mixed request phase; the
grids' cold phases are fixed work, 12-25 s on a 2-core Xeon host.

Every end-to-end time is reported at the nominal host speed: the workload
probes a fixed reference workload between its timed units, and each wall
time is rescaled by the median probe of the phase that measured it, raised
to the metric's sensitivity (``hostspeed.py``).  The raw wall figures and the host speed of each phase
are in the stderr notes.

``setup_s`` is the time from the start of this script to the first timed
operation: imports, input generation, rounding-table build and, for
``serve_mixed``, the store pre-population and replica start.  Set-up runs
three times -- here and, after the measurement, in two fresh
``--setup-only`` processes -- and the median is reported.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def metric_specs(traced: bool) -> list:
    """The metrics a run reports, with their units, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if traced else "end_to_end"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, tear down, print the set-up time (internal)")
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    if workload == "serve_mixed":
        return workloads.setup_serve(seed)
    return workloads.setup_grid(workload, seed)


def extra_setups(args) -> list:
    """Set-up times of fresh processes (imports included)."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    state = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        state.teardown()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    correct = True
    try:
        if args.workload == "serve_mixed":
            result = workloads.run_serve(state, args.seconds, traced=bool(args.trace))
        elif args.trace:
            result = workloads.trace_grid(state)
        else:
            result = workloads.run_grid(state)
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
        result = {"attempted": 1, "failed": 1, "metrics": {}, "notes": {}}
    finally:
        state.teardown()

    metrics = result["metrics"]
    specs = metric_specs(bool(args.trace))
    names = [m["name"] for m in specs]
    if args.trace:
        # layers a workload does not run read 0: the service's layers on the
        # grids; on serve_mixed the solver layers and trace.coverage (only
        # the library replay is traced in-process; the replica's own layers
        # run in another process)
        serve = args.workload == "serve_mixed"
        for name in names:
            if serve or name.startswith("serve."):
                metrics.setdefault(name, 0.0)
    else:
        setups = [setup_s] + extra_setups(args)
        metrics["setup_s"] = statistics.median(setups)
        result["notes"]["setup_runs_s"] = setups
        if correct:
            # each metric at the host speed of its phase; set-up at that of
            # the whole run, as the fresh set-ups follow the measurement
            phases = result["probes"]
            every = [p for probes in phases.values() for p in probes]
            result["notes"]["raw"] = dict(metrics)
            result["notes"]["host_speed"] = {
                phase: hostspeed.speed(probes) for phase, probes in phases.items()
            }
            sensitivity = result.get("sensitivity", {})
            metrics = {
                m["name"]: hostspeed.rescale(
                    metrics[m["name"]], m["unit"],
                    phases[result["phase_of"][m["name"]]] if m["name"] != "setup_s" else every,
                    sensitivity.get(m["name"], 1.0),
                )
                for m in specs
            }
    if correct:
        missing = [n for n in names if n not in metrics]
        if missing:
            raise SystemExit(f"workload did not measure {missing}")
    report = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
              for m in specs}

    notes = result.get("notes", {})
    print(json.dumps({k: v for k, v in notes.items() if k != "breakdown"}, default=str),
          file=sys.stderr)
    for phase, parts in notes.get("breakdown", {}).items():
        print(f"{phase}: " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in parts.items()),
              file=sys.stderr)
    print(json.dumps({"provenance": checks.provenance(args.seed, args.workload)}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": report,
    }))
    try:
        workloads.TMP.rmdir()  # only when empty: another run may share it
    except OSError:
        pass
    return 0 if correct else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print("no program to measure: src/repro is missing", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import checks  # noqa: E402
    import hostspeed  # noqa: E402
    import workloads  # noqa: E402

    raise SystemExit(main())
