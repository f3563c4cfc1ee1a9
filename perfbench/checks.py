"""Output checks and provenance of the benchmark.

Every check raises :class:`CheckFailed`; the benchmark then reports
``"correct": false`` and exits non-zero.  Nothing here is a metric.

* :func:`cell_digest` -- the digest of one run record's science (status,
  errors, restarts, matvecs, rounded-op tally), compared against the golden
  files committed under ``perfbench/golden/``: every cell a run solves, on
  any seed (the seed draws request and lookup sequences, not cells);
* :func:`check_references` -- every reference solve agrees with a dense
  ``numpy.linalg.eigvalsh`` oracle (any seed);
* :func:`check_records` -- statuses are known, evaluated cells carry finite
  errors;
* :func:`record_bytes` -- the canonical bytes a replayed record must match.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import platform
import subprocess

import numpy as np

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
#: seed the benchmark runs when none is given
DEFAULT_SEED = 0

DIGEST_FIELDS = (
    "status",
    "eigenvalue_relative_error",
    "eigenvector_relative_error",
    "eigenvalue_absolute_error",
    "eigenvector_absolute_error",
    "restarts",
    "matvecs",
    "rounded_ops",
)
_STATUSES = ("ok", "reference_failed", "no_convergence", "range_exceeded")


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _exact(value):
    if isinstance(value, float):
        return float(value).hex()
    return value


def cell_digest(record: dict) -> str:
    """Digest of one record body (a ``RunRecord`` as a dict)."""
    fields = [_exact(record[name]) for name in DIGEST_FIELDS]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:20]


def cell_id(matrix: str, fmt: str, solver_seed=None) -> str:
    return f"{matrix}|{fmt}" if solver_seed is None else f"{matrix}|{fmt}|seed={solver_seed}"


def record_bytes(record) -> bytes:
    """Canonical bytes of a record object or record dict."""
    body = dataclasses.asdict(record) if dataclasses.is_dataclass(record) else record
    return json.dumps(body).encode()


def load_golden(workload: str):
    """``cell id -> digest`` for this workload, or ``None``.  The cells a
    workload solves do not depend on the seed."""
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["cells"]


def check_golden(golden, digests: dict) -> int:
    """Compare computed digests against the golden ones; returns how many
    cells were checked.  Cells beyond the golden file's coverage are not
    checked (a serve run on a faster host gets further down its cold
    lists)."""
    if golden is None:
        return 0
    checked = 0
    bad = []
    for cid, digest in digests.items():
        if cid in golden:
            checked += 1
            if golden[cid] != digest:
                bad.append(cid)
    if bad:
        raise CheckFailed(f"{len(bad)} cells differ from the golden digests: {bad[:5]}")
    if not checked and digests:
        raise CheckFailed("no computed cell is covered by the golden file")
    return checked


def check_records(records) -> int:
    """Known statuses and finite errors; returns the crashed-cell count."""
    failed = 0
    for record in records:
        body = dataclasses.asdict(record) if dataclasses.is_dataclass(record) else record
        status = body["status"]
        if status == "failed":
            failed += 1
            continue
        if status not in _STATUSES:
            raise CheckFailed(f"unknown status {status!r} for {body['matrix']}/{body['format']}")
        if status == "ok":
            errors = [body["eigenvalue_relative_error"], body["eigenvector_relative_error"]]
            if not all(math.isfinite(e) and e >= 0.0 for e in errors):
                raise CheckFailed(f"non-finite errors on an ok cell {body['matrix']}/{body['format']}")
        if body["matvecs"] < 0 or body["restarts"] < 0:
            raise CheckFailed("negative solver counts")
    return failed


def check_references(matrices, references, nev: int) -> None:
    """The reference eigenvalues match a dense float64 oracle."""
    for tm, ref in zip(matrices, references):
        if not ref.converged:
            raise CheckFailed(f"reference solve of {tm.name} did not converge")
        dense = np.zeros(tm.matrix.shape)
        m = tm.matrix
        for i in range(m.shape[0]):
            lo, hi = m.indptr[i], m.indptr[i + 1]
            dense[i, m.indices[lo:hi]] = m.data[lo:hi]
        exact = np.linalg.eigvalsh(dense)
        k = min(nev, len(exact))
        got = np.asarray(ref.eigenvalues, dtype=np.float64)
        tol = 1e-9 * max(np.max(np.abs(exact)), 1e-300)
        # the k largest magnitudes agree, and every computed value is an
        # eigenvalue (magnitudes first: a +-a tie may split either way)
        top = np.sort(np.abs(exact))[::-1][:k]
        if got.shape != (k,) or np.max(np.abs(np.sort(np.abs(got))[::-1] - top)) > tol:
            raise CheckFailed(f"reference eigenvalues of {tm.name} disagree with the oracle")
        if np.max(np.min(np.abs(got[:, None] - exact[None, :]), axis=1)) > tol:
            raise CheckFailed(f"reference of {tm.name} holds a value that is no eigenvalue")


def provenance(seed: int, workload: str) -> dict:
    """Where and on what a result was measured."""
    root = pathlib.Path(__file__).resolve().parent.parent
    rev = dirty = None
    # look for a repository at the checkout root only, never above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
        if rev:
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=root, env=env, capture_output=True, text=True, timeout=10,
            ).stdout
            dirty = bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    # a content digest of the program stands in for the revision outside git
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    cpu = None
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or None
    from repro.arithmetic.bitkernels import extended_layout_supported

    return {
        "workload": workload,
        "seed": seed,
        "git_rev": rev,
        "git_dirty": dirty,
        "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        # the workloads pin themselves to one CPU
        "cpus_used": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "extended_layout_supported": bool(extended_layout_supported()),
    }
