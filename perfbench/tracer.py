"""Layer attribution for the traced benchmark run.

The tracer wraps the public functions of each ``repro`` layer from the
outside -- nothing under ``src/`` knows it exists -- and keeps a stack of
open spans.  A span's *self time* is its duration minus the time its child
spans cover, so the self times of all layers add up to the time spent
inside any wrapped call; ``trace.coverage`` divides that sum by the
workload's wall time.

Wrapped, by layer:

* ``arithmetic.round``   -- ``round``/``round_scalar`` of the context classes,
  bucketed by the format's bit width and by the element count at the call;
* ``arithmetic.op``      -- the public context ops (and the scalar twins
  the operator API calls), minus their rounding;
* ``arithmetic.farray``  -- ``FArray``/``FScalar`` operators minus the ops;
* ``arithmetic.batched`` -- ``BatchedContext`` (and ``BatchedFArray``) ops;
* ``linalg.reduce`` / ``linalg.ql`` / ``linalg.lockstep`` -- Householder
  reduction, implicit QL, and the lockstep eigensolver, at their call sites;
* ``core.arnoldi`` / ``core.solve`` / ``core.batched`` -- Arnoldi expansion,
  ``partialschur`` and ``batched_partialschur``;
* ``experiments.*`` -- the per-matrix cell pipeline, planning, store reads
  and writes, and reference solves (a reference solve is one opaque span:
  nothing inside it is attributed to the lower layers).

A call into a layer that is already the innermost open span (a round
calling round, an op calling an op) is passed straight through, so every
count is one outermost call of that layer.
"""

from __future__ import annotations

import time

_perf = time.perf_counter

ROUND = "arithmetic.round"
OP = "arithmetic.op"
FARRAY = "arithmetic.farray"
BATCHED = "arithmetic.batched"
REDUCE = "linalg.reduce"
QL = "linalg.ql"
LOCKSTEP = "linalg.lockstep"
ARNOLDI = "core.arnoldi"
SOLVE = "core.solve"
CORE_BATCHED = "core.batched"
REFERENCE = "experiments.reference"
CELL = "experiments.cell"
PLAN = "experiments.plan"
PUT = "experiments.store.put"
GET = "experiments.store.get"

#: phases whose nested self times are broken down (rounding / op / wrapper)
PHASES = (REDUCE, QL, ARNOLDI, LOCKSTEP)
#: element-count buckets of the rounding calls: (upper bound, label)
SIZE_BUCKETS = ((1, "n1"), (8, "n2-8"), (32, "n9-32"), (128, "n33-128"), (None, "n129-up"))

_CONTEXT_OPS = (
    "add", "sub", "mul", "div", "sqrt", "neg", "abs", "hypot", "reduce_sum",
    "dot", "norm2", "norm2_naive", "axpy", "scale", "gemv", "gemv_t", "gemm",
    "spmv", "_scalar_add", "_scalar_sub", "_scalar_mul", "_scalar_div",
    "_scalar_sqrt",
)
_FARRAY_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__abs__", "__pow__",
    "__iadd__", "__isub__", "__imul__", "__itruediv__", "__matmul__",
    "__rmatmul__", "sqrt", "dot", "norm2", "axpy", "sum", "hypot", "copysign",
)
_BATCHED_OPS = (
    "round", "add", "sub", "mul", "div", "sqrt", "neg", "abs", "hypot",
    "reduce_last_inplace", "dot", "norm2", "gemv", "gemv_t", "gemm", "spmv",
)


def _bucket(n: int) -> str:
    for bound, label in SIZE_BUCKETS:
        if bound is None or n <= bound:
            return label
    raise AssertionError("unreachable")


class Tracer:
    """Span stack plus per-phase self-time tables.

    ``tables`` maps a phase name (or ``None`` outside every phase) to a dict
    ``account key -> [self seconds, calls]``; the account key is the layer
    name, or ``(ROUND, bits, bucket)`` for rounding calls.
    """

    def __init__(self):
        self.layers: list = [None]
        self.child: list = [0.0]
        self.tables: dict = {None: {}}
        self.cur: dict = self.tables[None]
        self.inclusive: dict = {}
        self.counts = {"core.restarts": 0, "core.matvecs": 0, "store.put.bytes": 0,
                       "store.get.hits": 0}
        self._patches: list = []

    # -- accounting -------------------------------------------------------

    def _account(self, key, seconds: float) -> None:
        rec = self.cur.get(key)
        if rec is None:
            self.cur[key] = [seconds, 1]
        else:
            rec[0] += seconds
            rec[1] += 1

    def totals(self) -> dict:
        """``account key -> [self seconds, calls]`` summed over phases."""
        out: dict = {}
        for table in self.tables.values():
            for key, (seconds, calls) in table.items():
                rec = out.setdefault(key, [0.0, 0])
                rec[0] += seconds
                rec[1] += calls
        return out

    def self_seconds(self) -> float:
        return sum(rec[0] for rec in self.totals().values())

    # -- wrapper factories ------------------------------------------------

    def wrap(self, fn, layer, key_fn=None, phase=False, on_result=None):
        """A wrapper timing ``fn`` as one span of ``layer``.

        ``key_fn(args)`` picks the account key (default: the layer),
        ``phase`` makes nested self times land in this layer's table, and
        ``on_result(args, kwargs, result)`` sees each return value.
        """
        layers, child, tracer = self.layers, self.child, self
        table = self.tables.setdefault(layer, {}) if phase else None

        def wrapper(*args, **kwargs):
            top = layers[-1]
            if top is layer or top is REFERENCE:
                return fn(*args, **kwargs)
            key = layer if key_fn is None else key_fn(args)
            layers.append(layer)
            child.append(0.0)
            if phase:
                outer = tracer.cur
                tracer.cur = table
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                layers.pop()
                inner = child.pop()
                child[-1] += dt
                tracer._account(key, dt - inner)
                if phase:
                    tracer.cur = outer
                    tracer.inclusive[layer] = tracer.inclusive.get(layer, 0.0) + dt
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, name, layer, **options) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(original, layer, **options))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every layer of the ``repro`` package (see module docstring)."""
        from repro.arithmetic import batched, context, farray
        from repro.core import krylov_schur, lockstep as core_lockstep
        from repro.experiments import runner, store
        from repro.linalg import tridiagonal

        def round_key(args):
            values = args[1]
            return (ROUND, args[0].bits, _bucket(getattr(values, "size", 1)))

        def scalar_round_key(args):
            return (ROUND, args[0].bits, "n1")

        for cls in (context.ComputeContext, context.NativeContext,
                    context.ReferenceContext, context.EmulatedContext):
            if "round" in cls.__dict__:
                self.patch(cls, "round", ROUND, key_fn=round_key)
            if "round_scalar" in cls.__dict__:
                self.patch(cls, "round_scalar", ROUND, key_fn=scalar_round_key)
            for name in _CONTEXT_OPS:
                if name in cls.__dict__:
                    self.patch(cls, name, OP)
        for cls in (farray.FArray, farray.FScalar):
            for name in _FARRAY_OPS:
                if name in cls.__dict__:
                    self.patch(cls, name, FARRAY)
        for name in _BATCHED_OPS:
            if name in batched.BatchedContext.__dict__:
                self.patch(batched.BatchedContext, name, BATCHED)
        for name in _FARRAY_OPS:
            if name in batched.BatchedFArray.__dict__:
                self.patch(batched.BatchedFArray, name, BATCHED)

        self.patch(tridiagonal, "tridiagonalize", REDUCE, phase=True)
        self.patch(tridiagonal, "tridiagonal_eigen", QL, phase=True)
        self.patch(core_lockstep, "lockstep_symmetric_eigen", LOCKSTEP, phase=True)
        self.patch(krylov_schur, "arnoldi_expand", ARNOLDI, phase=True)

        counts = self.counts

        def count_solve(_args, _kwargs, result):
            for res in result if isinstance(result, list) else (result,):
                counts["core.restarts"] += int(res.restarts)
                counts["core.matvecs"] += int(res.matvecs)

        solve = self.wrap(runner.partialschur, SOLVE, on_result=count_solve)
        reference = self.wrap(runner.partialschur, REFERENCE)

        def partialschur(*args, **kwargs):
            ctx = kwargs.get("ctx")
            if ctx is not None and getattr(ctx, "name", None) == "reference":
                return reference(*args, **kwargs)
            return solve(*args, **kwargs)

        self._patches.append((runner, "partialschur", runner.partialschur))
        runner.partialschur = partialschur
        self.patch(core_lockstep, "batched_partialschur", CORE_BATCHED,
                   on_result=count_solve)
        self.patch(store, "run_matrix_experiment", CELL)
        self.patch(store, "plan_experiment", PLAN)

        def count_put(args, _kwargs, _result):
            counts["store.put.bytes"] += args[0].backend.entry_nbytes(args[1])

        def count_get(_args, _kwargs, result):
            if result is not None:
                counts["store.get.hits"] += 1

        self.patch(store.ResultStore, "put", PUT, on_result=count_put)
        self.patch(store.ResultStore, "get", GET, on_result=count_get)
        return self

    # -- reporting --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer figures of everything traced so far (plain floats)."""
        totals = self.totals()
        out: dict = {}

        def layer(name):
            return totals.get(name, [0.0, 0])

        rounds = {k: v for k, v in totals.items() if isinstance(k, tuple)}
        out["arithmetic.round.calls"] = sum(v[1] for v in rounds.values())
        out["arithmetic.round.self_s"] = sum(v[0] for v in rounds.values())
        for bits in (8, 16, 32, 64):
            out[f"arithmetic.round.self_s.w{bits}"] = sum(
                v[0] for k, v in rounds.items() if k[1] == bits
            )
        for _, label in SIZE_BUCKETS:
            seconds = sum(v[0] for k, v in rounds.items() if k[2] == label)
            calls = sum(v[1] for k, v in rounds.items() if k[2] == label)
            out[f"arithmetic.round.us_per_call.{label}"] = (
                1e6 * seconds / calls if calls else 0.0
            )
        out["arithmetic.op.calls"], out["arithmetic.op.self_s"] = layer(OP)[1], layer(OP)[0]
        out["arithmetic.farray.self_s"] = layer(FARRAY)[0]
        out["arithmetic.batched.self_s"] = layer(BATCHED)[0]
        for name in (REDUCE, QL, ARNOLDI, SOLVE):
            out[f"{name}.calls"] = layer(name)[1]
            out[f"{name}.self_s"] = layer(name)[0]
        for name in (REDUCE, QL, ARNOLDI):
            out[f"{name}.round_share"] = self.phase_breakdown(name)["rounding"]
        out["linalg.lockstep.self_s"] = layer(LOCKSTEP)[0]
        out["core.batched.self_s"] = layer(CORE_BATCHED)[0]
        out["core.restarts"] = self.counts["core.restarts"]
        out["core.matvecs"] = self.counts["core.matvecs"]
        out["experiments.reference.self_s"] = layer(REFERENCE)[0]
        out["experiments.cell.self_s"] = layer(CELL)[0]
        out["experiments.plan.self_s"] = layer(PLAN)[0]
        out["experiments.store.put.calls"] = layer(PUT)[1]
        out["experiments.store.put.self_s"] = layer(PUT)[0]
        out["experiments.store.put.bytes"] = self.counts["store.put.bytes"]
        gets = layer(GET)[1]
        out["experiments.store.get.calls"] = gets
        out["experiments.store.get.self_s"] = layer(GET)[0]
        out["experiments.store.get.hit_ratio"] = (
            self.counts["store.get.hits"] / gets if gets else 0.0
        )
        return out

    def phase_breakdown(self, phase: str) -> dict:
        """Shares of a phase's inclusive time: rounding, op, wrapper, batched
        ops and the phase's own code ("other")."""
        total = self.inclusive.get(phase, 0.0)
        table = self.tables.get(phase, {})
        parts = {"rounding": 0.0, "op": 0.0, "farray": 0.0, "batched": 0.0, "other": 0.0}
        names = {OP: "op", FARRAY: "farray", BATCHED: "batched"}
        for key, (seconds, _calls) in table.items():
            if isinstance(key, tuple):
                parts["rounding"] += seconds
            else:
                parts[names.get(key, "other")] += seconds
        return {k: (v / total if total else 0.0) for k, v in parts.items()}


def calibrate(calls: int = 200_000) -> dict:
    """Cost of the wrapper itself, from an empty wrapped call.

    ``wrapper_us`` is what the caller pays per wrapped call beyond the bare
    call; ``wrapper_self_us`` is the self time an empty function reports,
    which is subtracted from the per-call rounding figures.
    """
    def empty(*_args):
        return None

    best_bare = best_wrapped = best_self = float("inf")
    for _ in range(3):
        tracer = Tracer()
        wrapped = tracer.wrap(empty, ROUND)
        t0 = _perf()
        for _ in range(calls):
            empty(None)
        bare = _perf() - t0
        t0 = _perf()
        for _ in range(calls):
            wrapped(None)
        total = _perf() - t0
        best_bare = min(best_bare, bare)
        best_wrapped = min(best_wrapped, total)
        best_self = min(best_self, tracer.totals()[ROUND][0])
    return {
        "trace.wrapper_us": 1e6 * max(best_wrapped - best_bare, 0.0) / calls,
        "trace.wrapper_self_us": 1e6 * best_self / calls,
    }
