"""The benchmark's three workloads.

The matrix suites are fixed (suite seed 0), as the paper's collections are.
The grids' cold phases are fixed work too: the first :data:`COLD_ROWS`
matrices of the suite with the default solver starting vector, so every
commit solves the same cells.  ``--seed`` draws only the grids' warm lookup
sequences (a lockstep batch costs 3-7 s depending on the starting vector
and a 14-format row 6-16 s, so seeded starting vectors would spread
``cells_per_s`` over 10 seeds by 0.32 of its median).  ``serve_mixed`` runs
its request phase for ``--seconds`` and solves about a hundred cold cells,
so there ``--seed`` draws the cold cells' solver seeds as well as both
request sequences.

Every timed unit -- a cold cell, a lockstep row, a block of warm replays
or lookups, a slice of the serve phase -- is followed by a host-speed probe
(``hostspeed.py``); a workload returns raw wall figures, its probes by
phase and the phase of each metric, and ``run.py`` rescales them.

``grid_cold``
    The SuiteSparse-like ``general`` suite of Figure 1 (n 24-40) x all 14
    paper formats, solved cell by cell by the sequential engine
    (``workers=1``) into a ``LocalDirBackend`` store (a matrix's first cell
    also solves its reference); then those matrices are replayed fully
    warm and looked up cell by cell.
``grid_batched``
    Graph Laplacians (n 24-40) interleaved from the four Network-Repository
    classes x the 8 narrow formats, solved row by row through
    ``run_experiment(..., batch_formats=True)``: the only workload that runs
    ``BatchedContext`` and the lockstep engine, and never the 32/64-bit
    paths.  Paper Figures 2-5.
``serve_mixed``
    The CLI ``serve`` replica as a subprocess with one solver worker, over a
    store that set-up fills with the 16-bit half of a 4-matrix (n 16-24)
    narrow-format grid; replica and benchmark on one CPU.  Two closed-loop
    clients first ask for warm cells only, then walk seeded request
    sequences in :data:`SERVE_SLICES` time slices: ~90% warm cells, ~10%
    cold cells, and every other cold cell is shared by both clients so
    some requests coalesce.  The cold cells are the grid's 8-bit
    half and 16-bit cells under solver-seed overrides, which the service
    accepts per request.

The program only sees the generated suites, configs and requests.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import pathlib
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from checks import CheckFailed, cell_digest, cell_id, check_golden, check_records
from checks import check_references, load_golden, record_bytes
from hostspeed import SpeedClock, speed
from tracer import PHASES, Tracer, calibrate

ROOT = pathlib.Path(__file__).resolve().parent.parent
TMP = ROOT / ".perfbench_tmp"
_perf = time.perf_counter

WORKLOADS = ("grid_cold", "grid_batched", "serve_mixed")
RESTARTS = 25
SUITE_SEED = 0
GRAPH_CLASSES = ("biological", "infrastructure", "social", "miscellaneous")
#: leading matrices of the suite a grid run solves cold, replays warm and
#: looks up cell by cell (the traced run solves them once untraced, once
#: traced)
COLD_ROWS = {"grid_cold": 1, "grid_batched": 4}
#: library warm measurements come in blocks of about 0.1 s, each followed
#: by a host-speed probe, after one untimed block; a block reports its
#: median call, the run the median block
WARM_BLOCKS = 30
REPLAYS = 40  # per block
LOOKUPS = 300  # per block

SERVE_MATRICES = 4
SERVE_SIZES = (16, 24)
COLD_SHARE = 0.1
#: solver-seed overrides that mint fresh cold cells
SERVE_SEED_OVERRIDES = 40
OVERRIDE_RUN = 8
#: the request phase runs in slices; both clients finish their request in
#: flight at the end of a slice, and a host-speed probe runs while the
#: replica is idle
SERVE_SLICES = 10
#: length of the warm-only request phase (in :data:`WARM_BLOCKS` slices,
#: after an untimed one)
WARM_SERVE_S = 4.0
#: host-speed sensitivity of the served figures: in two sets of 10 runs
#: taken while the shared host changed speed fast, their log-log slope on
#: the probe time was 0.43-0.88 (the in-process replays' 0.78-1.0); over
#: three sets 0.7 gave the smallest worst spread (0.19, 0.24 at 1.0), and
#: on a fourth 0.04/0.14 on cells_per_s/cold_cell_ms (0.11/0.20 at 1.0)
SERVED_SENSITIVITY = 0.7


def _config():
    from repro.experiments import ExperimentConfig

    return ExperimentConfig(restarts=RESTARTS)


def _formats(widths):
    from repro.arithmetic.registry import PAPER_FORMATS

    return [name for width in widths for name in PAPER_FORMATS[width]]


def _ms(values, q):
    return 1e3 * float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def _block_ms(blocks, q):
    """Median over blocks of each block's ``q``-th percentile, in ms."""
    return statistics.median(_ms(block, q) for block in blocks if block)


def _timed_blocks(clock: SpeedClock, fn, *args) -> list:
    """An untimed call of ``fn(*args)`` to warm up, then
    :data:`WARM_BLOCKS` calls, each returning a list of wall times and each
    followed by a probe."""
    fn(*args)
    blocks = []
    for _ in range(WARM_BLOCKS):
        blocks.append(fn(*args))
        clock.probe()
    return blocks


def _fresh_dir(name: str) -> pathlib.Path:
    path = TMP / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _pin_to_one_cpu() -> None:
    """Run this process, and the threads and processes it starts (the
    replica and its solver worker), on one CPU.

    The probes then run where the measured work runs: with the replica on
    two CPUs, its speed and that of the benchmark process's probes did not
    follow each other (the served cold p50 spread 0.06 over 5 runs raw and
    0.35 rescaled), and a warm request crossed CPUs twice.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# ---------------------------------------------------------------------------
# grid workloads


def grid_suite(workload: str):
    from repro.datasets import get_suite

    if workload == "grid_cold":
        return get_suite(
            "general", count=COLD_ROWS[workload], size_range=(24, 40), seed=SUITE_SEED
        )
    per_class = [
        get_suite(name, scale=0.01, size_range=(24, 40), seed=SUITE_SEED)
        for name in GRAPH_CLASSES
    ]
    suite = []
    for i in range(max(map(len, per_class))):
        suite.extend(members[i] for members in per_class if i < len(members))
    return suite[: COLD_ROWS[workload]]


def grid_formats(workload: str):
    return _formats((8, 16, 32, 64) if workload == "grid_cold" else (8, 16))


@dataclasses.dataclass
class GridState:
    workload: str
    seed: int
    suite: list
    formats: list
    batch: bool
    config: object

    def teardown(self):
        pass


def setup_grid(workload: str, seed: int) -> GridState:
    from repro.arithmetic.registry import preload_tables

    _pin_to_one_cpu()
    formats = grid_formats(workload)
    preload_tables(formats)
    return GridState(
        workload, seed, grid_suite(workload), formats, workload == "grid_batched", _config()
    )


@dataclasses.dataclass
class Row:
    """One matrix of the grid: all its formats."""

    matrix: object
    records: list
    reference: object
    seconds: float  # wall, less the host-speed probes inside
    probe_seconds: float  # the probes inside


def _solve_rows(state: GridState, store, clock: SpeedClock) -> list:
    """Solve the suite matrix after matrix: the sequential engine one cell
    per call, the lockstep engine one row per call, each call followed by a
    host-speed probe."""
    from repro.experiments import run_experiment

    units = [state.formats] if state.batch else [[fmt] for fmt in state.formats]
    rows: list[Row] = []
    for tm in state.suite:
        records, reference, wall, inner = [], None, 0.0, 0.0
        for formats in units:
            result, seconds, probe_seconds = clock.timed(
                run_experiment, [tm], formats, state.config, workers=1, store=store,
                batch_formats=state.batch,
            )
            records.extend(result.records)
            reference = reference or result.references[0]
            wall += seconds
            inner += probe_seconds
        rows.append(Row(tm, records, reference, wall, inner))
    return rows


def _row_digests(rows) -> dict:
    return {
        cell_id(r.matrix, r.format): cell_digest(dataclasses.asdict(r))
        for row in rows
        for r in row.records
    }


def _check_rows(state: GridState, rows) -> tuple[int, int, dict]:
    """Record and reference checks plus golden digests of solved rows,
    every one of which the golden file must cover; returns (cells, crashed
    cells, digests)."""
    records = [r for row in rows for r in row.records]
    failed = check_records(records)
    check_references(
        [row.matrix for row in rows], [row.reference for row in rows], state.config.nev_total
    )
    for row in rows:
        # the per-cell wall times the engine records fit in the row's wall
        gross = row.seconds + row.probe_seconds
        if sum(r.solve_seconds for r in row.records) > gross * 1.01 + 1e-3:
            raise CheckFailed(f"cell times of {row.matrix.name} exceed the row's wall time")
    digests = _row_digests(rows)
    if check_golden(load_golden(state.workload), digests) != len(digests):
        raise CheckFailed("the golden file does not cover every solved cell")
    return len(records), failed, digests


def _replay(state: GridState, store, rows, count: int) -> list:
    """Fully cached replays of ``rows``; checks nothing executes and every
    replayed record is byte-identical to the stored object."""
    from repro.experiments import matrix_fingerprint, run_experiment, task_key

    suite = [row.matrix for row in rows]
    times = []
    result = None
    for _ in range(count):
        t0 = _perf()
        result = run_experiment(
            suite, state.formats, state.config, workers=1, store=store, batch_formats=state.batch
        )
        times.append(_perf() - t0)
        if result.report.executed or result.report.cached != len(suite) * len(state.formats):
            raise CheckFailed("warm replay executed a solver")
    fingerprints = {tm.name: matrix_fingerprint(tm) for tm in suite}
    solved = {(r.matrix, r.format): r for row in rows for r in row.records}
    for record in result.records:
        stored = store.get(task_key(state.config, record.format, fingerprints[record.matrix]))
        expected = record_bytes(stored["record"])
        if record_bytes(record) != expected:
            raise CheckFailed(f"replayed {record.matrix}/{record.format} differs from the store")
        if record_bytes(solved[(record.matrix, record.format)]) != expected:
            raise CheckFailed(f"stored {record.matrix}/{record.format} differs from the solve")
    return times


def _lookups(state: GridState, store, rows, count: int, rng) -> list:
    """Single-cell warm lookups through the library, seeded order."""
    from repro.experiments import run_experiment

    cells = [(row.matrix, fmt) for row in rows for fmt in state.formats]
    times = []
    for _ in range(count):
        tm, fmt = rng.choice(cells)
        t0 = _perf()
        result = run_experiment([tm], [fmt], state.config, workers=1, store=store)
        times.append(_perf() - t0)
        if result.report.executed:
            raise CheckFailed("warm lookup executed a solver")
    return times


def run_grid(state: GridState) -> dict:
    from repro.experiments import ResultStore

    clock = SpeedClock()
    store = ResultStore(_fresh_dir(state.workload))
    try:
        clock.phase("cold")
        rows = _solve_rows(state, store, clock)
        cells, failed, _ = _check_rows(state, rows)
        gc.collect()
        rng = random.Random(state.seed * 7919 + 1)
        clock.phase("replay")
        replays = _timed_blocks(clock, _replay, state, store, rows, REPLAYS)
        clock.phase("lookup")
        lookups = _timed_blocks(clock, _lookups, state, store, rows, LOOKUPS, rng)
    finally:
        shutil.rmtree(store.root, ignore_errors=True)
    wall = sum(row.seconds for row in rows)
    return {
        "attempted": cells + WARM_BLOCKS * LOOKUPS,
        "failed": failed,
        "probes": clock.probes,
        "phase_of": {"cells_per_s": "cold", "cold_cell_ms": "cold",
                     "warm_replay_ms": "replay", "warm_cell_ms": "lookup"},
        "metrics": {
            "cells_per_s": (cells - failed) / wall,
            "warm_replay_ms": _block_ms(replays, 50),
            "warm_cell_ms": _block_ms(lookups, 50),
            # the cold time shared by the cells: the lockstep engine solves
            # a row's formats together, so a batched cell has no latency of
            # its own
            "cold_cell_ms": 1e3 * wall / cells,
        },
        "notes": {"matrices": len(rows), "cells": cells, "golden_cells": cells,
                  "row_seconds": [round(row.seconds, 3) for row in rows],
                  "lookups": WARM_BLOCKS * LOOKUPS, "replays": WARM_BLOCKS * REPLAYS},
    }


def trace_grid(state: GridState) -> dict:
    """The cold rows solved untraced, then again traced, on fresh stores."""
    from repro.experiments import ResultStore

    # no probes inside the solves: they would land in the layers' spans
    clock = SpeedClock(inner=False)
    clock.phase("plain")
    plain_store = ResultStore(_fresh_dir(state.workload + "-plain"))
    try:
        plain_rows = _solve_rows(state, plain_store, clock)
    finally:
        shutil.rmtree(plain_store.root, ignore_errors=True)

    calibration = calibrate()
    traced_store = ResultStore(_fresh_dir(state.workload + "-traced"))
    clock.phase("traced")
    tracer = Tracer().install()
    try:
        traced_rows = _solve_rows(state, traced_store, clock)
        t0 = _perf()
        _replay(state, traced_store, traced_rows, 3)
        replay_wall = _perf() - t0
    finally:
        tracer.uninstall()
        shutil.rmtree(traced_store.root, ignore_errors=True)

    cells, failed, digests = _check_rows(state, traced_rows)
    if _row_digests(plain_rows) != digests:
        raise CheckFailed("traced and untraced solves differ")
    metrics = tracer.layer_metrics()
    for key in [k for k in metrics if k.startswith("arithmetic.round.us_per_call.")]:
        if metrics[key]:
            metrics[key] = max(metrics[key] - calibration["trace.wrapper_self_us"], 0.0)
    metrics.update(calibration)
    traced_wall = sum(row.seconds for row in traced_rows)
    coverage = tracer.self_seconds() / (traced_wall + replay_wall)
    metrics["trace.coverage"] = coverage
    # both walls at the nominal host speed of their own solves
    metrics["trace.overhead"] = (
        traced_wall * speed(clock.probes["traced"])
        / (sum(row.seconds for row in plain_rows) * speed(clock.probes["plain"]))
    )
    breakdown = {p: tracer.phase_breakdown(p) for p in PHASES if tracer.inclusive.get(p)}
    if coverage < 0.95:
        raise CheckFailed(f"trace.coverage {coverage:.3f} < 0.95: time outside every layer")
    return {
        "attempted": cells,
        "failed": failed,
        "metrics": metrics,
        "notes": {"matrices": len(traced_rows), "golden_cells": cells, "breakdown": breakdown,
                  "phase_seconds": dict(tracer.inclusive)},
    }


# ---------------------------------------------------------------------------
# serve workload


@dataclasses.dataclass
class Cell:
    matrix: str
    format: str
    solver_seed: object = None  # None: the served config unchanged

    @property
    def overrides(self):
        return None if self.solver_seed is None else {"seed": self.solver_seed}


def serve_suite():
    from repro.datasets import get_suite

    return get_suite(
        "general", count=SERVE_MATRICES, size_range=SERVE_SIZES, seed=SUITE_SEED
    )


def serve_cells(suite):
    """The warm cells (pre-populated) and three cold-cell lists: one
    shared by both clients and one private to each.

    The grid is ``suite`` x the 8 narrow formats; its 16-bit half is warm.
    Cold cells come in groups, one matrix per group so its reference solve
    is shared: the grid's 8-bit half, one group after every
    :data:`OVERRIDE_RUN` groups of 16-bit cells under a solver-seed override.
    The lists do not depend on ``--seed``: a cold cell's cost depends on its
    solver seed, and seeded lists spread ``cells_per_s`` over 5 runs by 0.27
    of its median.
    """
    rng = random.Random(SUITE_SEED * 104729 + 11)
    warm = [Cell(tm.name, fmt) for tm in suite for fmt in _formats((16,))]
    base = []
    for tm in suite:
        formats = _formats((8,))
        rng.shuffle(formats)
        base.append([Cell(tm.name, fmt) for fmt in formats])
    overrides = []
    for solver_seed in range(1, 1 + SERVE_SEED_OVERRIDES):
        order = list(suite)
        rng.shuffle(order)
        for tm in order:
            formats = _formats((16,))
            rng.shuffle(formats)
            overrides.append([Cell(tm.name, fmt, solver_seed) for fmt in formats])
    groups = []
    for i, group in enumerate(overrides):
        if i % OVERRIDE_RUN == 0 and i // OVERRIDE_RUN < len(base):
            groups.append(base[i // OVERRIDE_RUN])
        groups.append(group)
    lists = ([], [], [])
    for i, group in enumerate(groups):
        lists[i % 3].extend(group)
    return warm, lists


@dataclasses.dataclass
class ServeState:
    seed: int
    suite: list
    warm: list
    cold_lists: tuple
    config: object
    store: object
    process: object
    url: str

    def teardown(self):
        stop_server(self.process)
        shutil.rmtree(self.store.root.parent, ignore_errors=True)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(store_root, log_path):
    from repro.serve import ServeClient, ServeError

    port = _free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_STORE", None)
    command = [
        sys.executable, "-m", "repro.experiments.cli", "serve",
        "--host", "127.0.0.1", "--port", str(port), "--store", str(store_root),
        "--workers", "1", "--suite", "general", "--matrices", str(SERVE_MATRICES),
        "--min-size", str(SERVE_SIZES[0]), "--max-size", str(SERVE_SIZES[1]),
        "--seed", str(SUITE_SEED), "--widths", "8", "16", "--restarts", str(RESTARTS),
    ]
    with open(log_path, "wb") as log:
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    url = f"http://127.0.0.1:{port}"
    client = ServeClient(url, timeout=2)
    deadline = _perf() + 60
    while True:
        try:
            client.healthz()
            return process, url
        except (OSError, ServeError):
            pass
        if process.poll() is not None or _perf() > deadline:
            stop_server(process)
            raise RuntimeError(f"serve replica did not come up; see {log_path}")
        time.sleep(0.02)


def stop_server(process) -> None:
    """SIGTERM the replica, wait, then kill whatever is left of its process
    group (the forked solver worker) and wait until the group is gone."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()
    deadline = _perf() + 5
    try:
        while _perf() < deadline:
            os.killpg(process.pid, 0)
            time.sleep(0.02)
    except (ProcessLookupError, PermissionError):
        pass


def setup_serve(seed: int) -> ServeState:
    from repro.experiments import ResultStore, run_experiment

    _pin_to_one_cpu()
    suite = serve_suite()
    warm, cold_lists = serve_cells(suite)
    config = _config()
    root = _fresh_dir("serve")
    store = ResultStore(root / "store")
    run_experiment(suite, _formats((16,)), config, workers=1, store=store)
    process, url = start_server(store.root, root / "serve.log")
    return ServeState(seed, suite, warm, cold_lists, config, store, process, url)


@dataclasses.dataclass
class Reply:
    cell: Cell
    source: str
    seconds: float
    status: int
    key: str = ""
    body: bytes = b""
    slice: int = 0  # the request-phase slice it was sent in


class Client:
    """One closed-loop client: its seeded request sequence, walked across
    the slices of a phase; ``cold_share`` of its requests are cold."""

    def __init__(self, state: ServeState, client: int, cold_share: float = COLD_SHARE):
        self.rng = random.Random(state.seed * 1_000_003 + client + (0 if cold_share else 2))
        self.cold_share = cold_share
        self.shared, self.private = state.cold_lists[0], state.cold_lists[1 + client]
        self.next_shared = self.next_private = self.colds = 0

    def next_cell(self, state: ServeState) -> Cell:
        if self.cold_share and self.rng.random() < self.cold_share:
            self.colds += 1
            if self.colds % 2:
                self.next_shared += 1
                return self.shared[self.next_shared - 1]
            self.next_private += 1
            return self.private[self.next_private - 1]
        return self.rng.choice(state.warm)

    def loop(self, state: ServeState, deadline: float, replies: list, errors: list):
        from repro.serve import ServeClient, ServeError

        api = ServeClient(state.url, timeout=120, max_retries=0)
        try:
            while _perf() < deadline:
                cell = self.next_cell(state)
                t0 = _perf()
                try:
                    body, headers = api.cell(
                        cell.matrix, cell.format, config=cell.overrides, raw=True
                    )
                except ServeError as exc:
                    replies.append(Reply(cell, "error", _perf() - t0, exc.status))
                    continue
                seconds = _perf() - t0
                source = headers.get("x-repro-source", "")
                replies.append(Reply(cell, source, seconds, 200, headers.get("x-repro-key", ""),
                                     body if source == "store" else b""))
        except Exception as exc:  # re-raised by _serve_phase
            errors.append(exc)


def _serve_phase(state: ServeState, seconds: float, clock: SpeedClock,
                 slices: int = SERVE_SLICES, cold_share: float = COLD_SHARE):
    """Both clients for ``seconds`` in ``slices`` slices, each followed by a
    probe; returns the replies and the phase's wall time."""
    clients = [Client(state, c, cold_share) for c in (0, 1)]
    replies: list = []
    errors: list = []
    wall = 0.0
    for index in range(slices):
        batch: list = []
        start = _perf()
        deadline = start + seconds / slices
        threads = [
            threading.Thread(target=client.loop, args=(state, deadline, batch, errors))
            for client in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        wall += _perf() - start
        clock.probe()
        for reply in batch:
            reply.slice = index
        replies.extend(batch)
    return replies, wall


def _server_metrics(state: ServeState) -> dict:
    from repro.serve import ServeClient

    return ServeClient(state.url, timeout=30).metrics()


def _check_serve(state: ServeState, replies) -> tuple[int, dict]:
    """Byte identity of store-sourced bodies, record and reference checks,
    golden digests of every served cell; returns (golden cells checked,
    digests)."""
    from repro.experiments import matrix_fingerprint, reference_key, task_key
    from repro.experiments.store import reference_from_payload
    from repro.serve import apply_config_overrides

    seen: dict = {}
    for reply in replies:
        if reply.source != "store":
            continue
        if reply.key not in seen:
            seen[reply.key] = state.store.path_for(reply.key).read_bytes()
        if reply.body != seen[reply.key]:
            raise CheckFailed(f"served body of {reply.cell} differs from the stored object")
    by_name = {tm.name: tm for tm in state.suite}
    fingerprints = {tm.name: matrix_fingerprint(tm) for tm in state.suite}
    digests, records, references = {}, [], {}
    cells = {(c.matrix, c.format, c.solver_seed): c for c in state.warm}
    cells.update({(r.cell.matrix, r.cell.format, r.cell.solver_seed): r.cell for r in replies})
    for cell in cells.values():
        config = apply_config_overrides(state.config, cell.overrides or {})
        payload = state.store.get(task_key(config, cell.format, fingerprints[cell.matrix]))
        if payload is None:
            continue  # requested only by a reply that failed
        records.append(payload["record"])
        digests[cell_id(cell.matrix, cell.format, cell.solver_seed)] = cell_digest(
            payload["record"]
        )
        ref_id = (cell.matrix, cell.solver_seed)
        if ref_id not in references:
            ref = state.store.get(reference_key(config, fingerprints[cell.matrix]))
            if ref is None:
                raise CheckFailed(f"no reference stored for {cell}")
            references[ref_id] = reference_from_payload(ref)
    check_records(records)
    ids = sorted(references, key=repr)
    check_references(
        [by_name[m] for m, _ in ids], [references[i] for i in ids], state.config.nev_total
    )
    golden = check_golden(load_golden("serve_mixed"), digests)
    return golden, digests


def _warm_replay_serve(state: ServeState) -> list:
    """Fully cached library replays of the pre-filled grid."""
    from repro.experiments import run_experiment

    formats = _formats((16,))
    times = []
    for _ in range(REPLAYS):
        t0 = _perf()
        result = run_experiment(state.suite, formats, state.config, workers=1, store=state.store)
        times.append(_perf() - t0)
        if result.report.executed:
            raise CheckFailed("warm replay of the served store executed a solver")
    return times


def run_serve(state: ServeState, seconds: float, traced: bool = False) -> dict:
    clock = SpeedClock()
    # the library replay of the pre-filled grid runs first, against the idle
    # replica's store, so it is not timed inside the clients' aftermath
    gc.collect()
    clock.phase("replay")
    replays = _timed_blocks(clock, _warm_replay_serve, state)
    if traced:
        # the replay again under the layer wrappers: the store reads and
        # planning the replica runs for a warm request, traced in-process
        clock.phase("traced")
        tracer = Tracer().install()
        try:
            traced_replays = _timed_blocks(clock, _warm_replay_serve, state)
        finally:
            tracer.uninstall()
    # warm-only slices first: the warm latency of the store path, not of
    # its contention with a cold solve (in the mixed phase the clients
    # spend ~95% of their time on cold cells, and the warm p50 there moved
    # by 0.17 of its value between runs with how often a solve was running)
    clock.phase("warm")
    _serve_phase(state, WARM_SERVE_S / WARM_BLOCKS, clock, 1, cold_share=0.0)  # warm-up
    warm_only, _ = _serve_phase(state, WARM_SERVE_S, clock, WARM_BLOCKS, cold_share=0.0)
    clock.phase("serve")
    replies, wall = _serve_phase(state, seconds, clock)
    snapshot = _server_metrics(state)
    stop_server(state.process)
    golden, _ = _check_serve(state, warm_only + replies)
    if any(r.status != 200 or r.source != "store" for r in warm_only):
        raise CheckFailed("a warm-only request was not answered from the store")

    ok = [r for r in replies if r.status == 200]
    warm = [r for r in ok if r.source == "store"]
    cold = [r for r in ok if r.source in ("computed", "coalesced")]
    computed = sum(1 for r in ok if r.source == "computed")
    failed = len(replies) - len(ok)

    result = {"attempted": len(warm_only) + len(replies), "failed": failed,
              "probes": clock.probes,
              "phase_of": {"cells_per_s": "serve", "warm_cell_ms": "warm",
                           "cold_cell_ms": "serve", "warm_replay_ms": "replay"},
              "sensitivity": {name: SERVED_SENSITIVITY
                              for name in ("cells_per_s", "warm_cell_ms", "cold_cell_ms")}}
    notes = {"warm_only": len(warm_only), "requests": len(replies), "warm": len(warm),
             "cold": len(cold),
             "computed": computed, "wall_s": wall, "golden_cells": golden,
             "failed_share": failed / max(len(replies), 1)}
    if not traced:
        # warm p50 is a median over the warm slices' p50s; cold replies
        # are few per slice, so cold p50 pools them
        warm_blocks = [[] for _ in range(WARM_BLOCKS)]
        for r in warm_only:
            warm_blocks[r.slice].append(r.seconds)
        result["metrics"] = {
            "cells_per_s": computed / wall,
            "warm_replay_ms": _block_ms(replays, 50),
            "warm_cell_ms": _block_ms(warm_blocks, 50),
            "cold_cell_ms": _ms([r.seconds for r in cold], 50),
        }
        result["notes"] = notes
        return result

    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    def counter(prefix):
        return sum(v for k, v in counters.items() if k == prefix or k.startswith(prefix + "{"))

    server_seconds = sum(
        h["sum"] for k, h in histograms.items()
        if k.startswith("serve.request_seconds{")
        and k.split("source=", 1)[1].rstrip("}") in ("store", "computed", "coalesced")
    )
    by_source = {s: [r.seconds for r in ok if r.source == s]
                 for s in ("store", "computed", "coalesced")}
    metrics = tracer.layer_metrics()
    metrics.update({
        "serve.store.p50_ms": _ms(by_source["store"], 50),
        "serve.store.p90_ms": _ms(by_source["store"], 90),
        "serve.cold.p90_ms": _ms([r.seconds for r in cold], 90),
        "serve.computed.p50_ms": _ms(by_source["computed"], 50),
        "serve.coalesced.p50_ms": _ms(by_source["coalesced"], 50),
        "serve.solves": counter("serve.solves"),
        "serve.rejected": counter("serve.rejected"),
        "serve.coalesced_share": len(by_source["coalesced"]) / max(len(cold), 1),
        "serve.server_share": server_seconds / sum(r.seconds for r in replies),
        "serve.served_rps": len(ok) / wall,
        "trace.overhead": (
            _block_ms(traced_replays, 50) * speed(clock.probes["traced"])
            / (_block_ms(replays, 50) * speed(clock.probes["replay"]))
        ),
    })
    result["metrics"] = metrics
    result["notes"] = notes
    return result
