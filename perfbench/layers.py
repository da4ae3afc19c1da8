"""Per-layer attribution for the traced run.

A :class:`LayerClock` replaces selected public functions and methods of
the library with thin timing wrappers, so a traced run can say where its
host time went without any instrumentation inside ``src/``.  Every wrapper
charges its *self time* (its own wall time minus that of wrapped calls it
made) to one layer name.  A call is counted only at the outermost frame
of its layer, so a wrapped function that delegates to another one of the
same layer counts once.  Optional hooks add derived counters (bytes,
widths) from a call's arguments, read before the call runs.

Two target sets exist: :data:`IN_PROCESS` for the benchmark process
(simulator, solvers, sweep executor, real runtime) and :data:`DAEMON`
for a ``repro serve`` child started through ``serve_child.py``.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

BYTES_PER_VALUE = 8


def _matvec_bytes(args: tuple) -> Dict[str, float]:
    # Computed, not measured: one read of every stored diagonal entry and
    # of the matching x entry, one write per output row.
    matrix = args[0]
    n_diag = len(getattr(matrix, "offsets", ())) or 1
    if len(args) >= 3:
        rows = int(args[2]) - int(args[1])
    else:
        rows = int(getattr(matrix, "n", 0))
    return {"linalg.matvec_bytes": BYTES_PER_VALUE * rows * (2 * n_diag + 1)}


def _send_bytes(args: tuple) -> Dict[str, float]:
    return {"simgrid.comm.bytes": float(getattr(args[1], "size", 0.0))}


def _stacked_width(args: tuple) -> Dict[str, float]:
    return {"simgrid.batch.members": float(len(args[0]))}


def _pending_members(args: tuple) -> Dict[str, float]:
    # The members of a stacked call that need a Newton solve: a single
    # solver is delegated to ``iterate``, and a member whose halo and
    # state are unchanged re-emits its cached iteration.
    solvers = args[0]
    if len(solvers) < 2:
        return {}
    pending = sum(
        1 for s in solvers
        if (s._halo_rev, s._state_rev) != s._cache_key or s._cache_li is None
    )
    return {"simgrid.batch.pending_members": float(pending)}


def _distinct_solves(args: tuple) -> Dict[str, float]:
    return {"simgrid.batch.distinct_solves": float(len(args[0]))}


#: (layer, module, attribute path, hook) for the benchmark process.
IN_PROCESS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("api.run", "repro.api.backends", "SimulatedBackend.run", None),
    ("api.run", "repro.api.backends", "SimulatedBackend.run_many", None),
    ("api.run", "repro.api.backends", "ThreadedBackend.run", None),
    ("api.run", "repro.api.backends", "ProcessBackend.run", None),
    ("api.build", "repro.api.scenario", "Scenario.build_problem", None),
    ("api.build", "repro.api.scenario", "Scenario.build_environment", None),
    ("api.build", "repro.api.scenario", "Scenario.build_network", None),
    ("api.record", "repro.api.result", "RunResult.to_record", None),
    ("problems.iterate", "repro.problems.sparse_linear", "SparseLinearLocal.iterate", None),
    ("problems.iterate", "repro.problems.sparse_linear",
     "MigratableSparseLinearLocal.iterate", None),
    ("problems.iterate", "repro.problems.chemical", "ChemicalLocal.iterate", None),
    ("problems.iterate", "repro.problems.chemical", "ChemicalLocal.iterate_batch",
     _pending_members),
    ("linalg.matvec", "repro.linalg.sparse", "MultiDiagonalMatrix.matvec", _matvec_bytes),
    ("linalg.matvec", "repro.linalg.sparse", "MultiDiagonalMatrix.row_block_matvec",
     _matvec_bytes),
    ("simgrid.engine", "repro.simgrid.engine", "Engine.run", None),
    ("simgrid.comm", "repro.simgrid.comm", "Transport.send", _send_bytes),
    ("core.convergence", "repro.core.convergence", "LocalConvergenceTracker.update", None),
    ("core.convergence", "repro.core.convergence", "CoordinatorPanel.update", None),
    ("simgrid.batch", "repro.simgrid.batch", "evaluate_stacked", _stacked_width),
    # No public boundary counts deduplicated Newton solves; the private
    # pump receives exactly one generator per distinct solve.
    ("problems.newton", "repro.problems.chemical", "_pump_newton", _distinct_solves),
    ("sweep.overhead", "repro.sweep.executor", "run_sweep", None),
    ("sweep.overhead", "repro.sweep", "run_sweep", None),
    ("sweep.state.record", "repro.sweep.state", "SweepState.record_done", None),
    ("sweep.state.record", "repro.sweep.state", "SweepState.record_failed", None),
    ("sweep.cache.put", "repro.serve.cache", "ResultCache.put", None),
    ("runtime.channels.receive", "repro.runtime.channels", "ChannelHub.receive", None),
]

#: Layers whose wrappers enclose the whole timed region: time that no
#: inner layer claims becomes their self time, so they are reported apart
#: from the layer coverage.
CATCH_ALL = frozenset({"api.run", "sweep.overhead"})

#: Targets inside a ``repro serve`` daemon child.
DAEMON: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("serve.cache.get", "repro.serve.cache", "ResultCache.get", None),
    ("serve.cache.put", "repro.serve.cache", "ResultCache.put", None),
    ("serve.journal.append", "repro.serve.queue", "Journal.append", None),
    ("serve.workers.dispatch", "repro.serve.workers", "WorkerPool.dispatch", None),
    ("serve.workers.poll", "repro.serve.workers", "WorkerPool.poll", None),
    ("serve.queue.push", "repro.serve.queue", "JobQueue.push", None),
    ("serve.queue.pop", "repro.serve.queue", "JobQueue.pop", None),
]


class LayerClock:
    """Self-time and call accounting over wrapped library callables."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _frames(self) -> Tuple[List[float], Dict[str, int]]:
        """This thread's stack of child times and open frames per layer."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.depth = [], defaultdict(int)
        return local.stack, local.depth

    def _wrap(self, layer: str, fn: Callable, hook: Optional[Callable],
              after: Optional[Callable]) -> Callable:
        clock = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            stack, depth = clock._frames()
            outermost = depth[layer] == 0
            derived = hook(args) if hook is not None and outermost else {}
            depth[layer] += 1
            stack.append(0.0)
            started = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1] += elapsed
                with clock._lock:
                    clock.self_s[layer] += elapsed - children
                    if outermost:
                        clock.calls[layer] += 1
                    for name, value in derived.items():
                        clock.extra[name] += value
                    if after is not None:
                        after(clock, args, result)

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def install(self, targets, after: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap every target; one that does not resolve raises ``LookupError``.

        A renamed library function must fail the traced run, not leave
        its layer reading 0.  ``after`` maps an attribute path to an
        extra callback ``(clock, args, result)`` run under the clock's
        lock.
        """
        after = after or {}
        for layer, module_name, path, hook in targets:
            owner: Any = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            if owner is None or not hasattr(owner, parts[-1]):
                self.uninstall()
                raise LookupError(f"layer {layer}: {module_name}.{path} not found")
            raw = inspect.getattr_static(owner, parts[-1])
            fn = getattr(owner, parts[-1])
            wrapped = self._wrap(layer, fn, hook, after.get(path))
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, parts[-1], wrapped)
            self._undo.append((owner, parts[-1], raw))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._undo):
            setattr(owner, name, raw)
        self._undo.clear()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "extra": dict(self.extra),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }

    def total_self_s(self) -> float:
        with self._lock:
            return sum(self.self_s.values())


def install_daemon_clock() -> LayerClock:
    """Wrap the scheduler's queue, dispatch, cache and journal boundaries.

    Besides self times this records each job's queue wait (pop time
    minus the job's ``submitted_mono`` stamp), the queue depth after
    every push, and each job's run time from dispatch to the poll that
    returned its completion.
    """
    clock = LayerClock()
    dispatched: Dict[str, float] = {}

    def after_push(c: LayerClock, args: tuple, _result: Any) -> None:
        c.extra["serve.queue.depth_max"] = max(
            c.extra.get("serve.queue.depth_max", 0.0), float(len(args[0]))
        )

    def after_pop(c: LayerClock, _args: tuple, job: Any) -> None:
        stamp = getattr(job, "submitted_mono", 0.0) if job is not None else 0.0
        if stamp:
            c.samples["serve.queue.wait_s"].append(time.monotonic() - stamp)

    def after_dispatch(_c: LayerClock, args: tuple, _result: Any) -> None:
        dispatched[args[1]] = time.monotonic()

    def after_poll(c: LayerClock, _args: tuple, events: Any) -> None:
        now = time.monotonic()
        for job_id, kind, _payload in events or ():
            started = dispatched.pop(job_id, None)
            if started is not None and kind == "done":
                c.samples["serve.workers.run_s"].append(now - started)

    clock.install(DAEMON, after={
        "JobQueue.push": after_push,
        "JobQueue.pop": after_pop,
        "WorkerPool.dispatch": after_dispatch,
        "WorkerPool.poll": after_poll,
    })
    return clock
