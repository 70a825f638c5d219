"""Persistent worker pool: long-lived solvers with resident warm caches.

What the service actually sells is *residency*.  An in-process
``repro.solve`` pays two setup costs on every call: the O(N^2)
``AnnealProgram`` build (contiguous cast + block decomposition of the
coupling) and the cold ``lambda = 0`` multiplier ramp.  A pool worker
lives across requests and keeps both warm:

- a :class:`ProgramCache` keyed by *coupling content* (shape, dtype,
  SHA-256 of the cast bytes) hands prepared ``AnnealProgram`` objects to
  each request's fresh machine via ``PBitMachine.adopt_program`` —
  a repeat instance skips the decomposition entirely (``warm_hits``),
  a new instance pays it once (``cold_starts``);
- per-solver :class:`repro.runtime.SolverSession` objects cache final
  multipliers per problem fingerprint, so a request that opts in with
  ``warm_start=true`` resumes the learned lambdas of the previous solve
  of that problem family.

Bit-identity contract: by default (``warm_start=false``) a service solve
is **bit-identical** to ``repro.solve`` on the same seed.  The program
cache preserves this because adoption drops the program's solve-resident
spin state (:meth:`AnnealProgram.release_residency`) — the decomposition
is deterministic in the coupling, so a cached program is
indistinguishable from a freshly built one.  ``warm_start=true`` is the
explicit opt-out: it changes the multiplier trajectory on purpose.

Workers come in two modes.  ``mode="process"`` (the daemon default, and
what the ISSUE's "long-lived processes" means) runs each
:class:`WorkerRuntime` in its own long-lived OS process, fed wire-format
dicts over pipes — true parallelism across CPUs, caches resident in the
child.  ``mode="thread"`` runs the runtime inside the dispatcher thread
— zero startup cost, same code path, the right choice for tests and
latency benches on small hosts.  Either way, one dispatcher thread per
worker drains the shared :class:`PriorityJobQueue`, so queue ordering
and backpressure behave identically in both modes.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import sys
import threading
import time
import traceback
import uuid
from collections import OrderedDict

from repro.ising._lockstep import r1_scan_info
from repro.service.codec import CodecError, job_from_wire, report_from_wire
from repro.service.queue import PriorityJobQueue, QueueClosedError, resolve_priority

__all__ = ["JobHandle", "ProgramCache", "ServicePool", "WorkerRuntime"]


class ProgramCache:
    """LRU cache of prepared :class:`AnnealProgram` objects.

    Keys are coupling *content* — ``(n, dtype, sha256(bytes))`` — so two
    requests for the same instance (or the same instance at a different
    dtype / quantization) hit or miss correctly regardless of object
    identity.  ``bind(machine)`` either hands the machine a cached
    program (``warm_hits``) or forces the machine's own build and keeps
    it (``cold_starts``).
    """

    def __init__(self, max_entries: int = 32):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._programs: OrderedDict[tuple, object] = OrderedDict()
        self.warm_hits = 0
        self.cold_starts = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._programs)

    @staticmethod
    def _key(coupling) -> tuple:
        digest = hashlib.sha256(coupling.tobytes()).hexdigest()
        return (coupling.shape[0], coupling.dtype.name, digest)

    def bind(self, machine) -> bool:
        """Attach a resident program to ``machine``; True on a warm hit.

        Machines without the ``adopt_program`` seam (or running the
        serial reference kernel, which never uses a program) pass
        through untouched.
        """
        if not hasattr(machine, "adopt_program"):
            return False
        if getattr(machine, "kernel", None) == "serial":
            return False
        coupling = machine.model.coupling
        key = self._key(coupling)
        program = self._programs.get(key)
        if program is not None:
            machine.adopt_program(program)
            self._programs.move_to_end(key)
            self.warm_hits += 1
            return True
        # Miss: force the build now and keep the program for the next
        # request with this coupling.
        self._programs[key] = machine.program
        self.cold_starts += 1
        while len(self._programs) > self.max_entries:
            self._programs.popitem(last=False)
            self.evictions += 1
        return False


def _freeze(value):
    """A hashable identity for JSON-shaped option values."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class WorkerRuntime:
    """One worker's resident state: program cache + per-solver sessions.

    Lives for the worker's lifetime (thread or process) and executes
    wire-format jobs.  Sessions are keyed by the full pinned solver
    surface (method, backend, replicas, aggregate, config, options), so
    two requests only share a multiplier cache when their solves are
    actually comparable.
    """

    def __init__(self, worker_id: int = 0, *,
                 session_max_entries: int = 1024,
                 program_max_entries: int = 32):
        self.worker_id = worker_id
        self.program_cache = ProgramCache(program_max_entries)
        self._session_max_entries = session_max_entries
        self._sessions: dict[tuple, object] = {}
        self._jobs_done = 0
        self._planned = 0
        self._errors = 0

    def _backend_options_with_cache(self, job) -> dict | None:
        """Merge the resident program cache into the job's backend options.

        Injected only where it can land: SAIM-family methods (the
        ``penalty`` runner owns its backend and rejects options) whose
        resolved backend builder actually declares the ``program_cache``
        knob — introspected, so third-party backends opt in by adding
        the parameter.
        """
        import inspect

        from repro.api import backend_info, method_info

        options = job.backend_options
        if options is not None and "program_cache" in options:
            raise CodecError(
                "backend_options['program_cache'] is service-managed and "
                "cannot be supplied by a request"
            )
        spec = method_info(job.method)
        if not (spec.uses_backend and spec.uses_lambdas):
            return options
        if spec.default_backend is None:
            # Planner-driven methods (``auto``) choose their own backend
            # and kernel knobs per instance — there is no fixed builder
            # to introspect here, and they reject caller-supplied
            # backend_options by contract, so the resident program cache
            # stays out of their way.
            return options
        backend = job.backend if job.backend is not None else spec.default_backend
        builder = backend_info(backend).builder
        if "program_cache" not in inspect.signature(builder).parameters:
            return options
        merged = dict(options) if options else {}
        merged["program_cache"] = self.program_cache
        return merged

    def _session_for(self, job, backend_options):
        from repro.runtime.session import SolverSession

        key = (
            job.method, job.backend, job.num_replicas, job.aggregate,
            _freeze(job.config if not hasattr(job.config, "__dict__")
                    else vars(job.config)),
            _freeze(job.backend_options),
            _freeze(job.method_options),
            _freeze(job.config_overrides),
        )
        session = self._sessions.get(key)
        if session is None:
            session = SolverSession(
                job.method, job.backend, job.config,
                num_replicas=job.num_replicas, aggregate=job.aggregate,
                backend_options=backend_options,
                method_options=job.method_options,
                max_entries=self._session_max_entries,
                **job.config_overrides,
            )
            self._sessions[key] = session
        return session

    def execute(self, payload: dict) -> dict:
        """Run one wire-format job; never raises (errors travel as data)."""
        from repro.runtime.session import problem_fingerprint

        start = time.perf_counter()
        fingerprint = ""
        try:
            job, warm_start = job_from_wire(payload)
            fingerprint = "/".join(str(part) for part in
                                   problem_fingerprint(job.problem))
            if warm_start and job.initial_lambdas is not None:
                raise CodecError(
                    "warm_start and initial_lambdas are mutually exclusive"
                )
            if warm_start and job.restart != "random":
                raise CodecError(
                    "warm_start requires the default restart='random'"
                )
            backend_options = self._backend_options_with_cache(job)
            if job.restart == "random" and job.initial_lambdas is None:
                session = self._session_for(job, backend_options)
                report = session.resolve(
                    job.problem, rng=job.rng, warm_start=warm_start
                )
            else:
                # Off the session path (explicit restart policy or
                # caller-supplied multipliers): call the front door
                # directly, still with the resident program cache.
                from repro.api import solve

                report = solve(
                    job.problem, method=job.method, backend=job.backend,
                    config=job.config, num_replicas=job.num_replicas,
                    aggregate=job.aggregate, restart=job.restart,
                    rng=job.rng, initial_lambdas=job.initial_lambdas,
                    backend_options=backend_options,
                    method_options=job.method_options,
                    **job.config_overrides,
                )
        except Exception as exc:
            self._errors += 1
            return {
                "ok": False,
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                },
                "fingerprint": fingerprint,
                "warm_start": bool(payload.get("warm_start", False))
                if isinstance(payload, dict) else False,
                "solve_seconds": time.perf_counter() - start,
                "stats": self.stats(),
            }
        from repro.service.codec import report_to_wire

        self._jobs_done += 1
        if job.method == "auto":
            self._planned += 1
        return {
            "ok": True,
            "report": report_to_wire(report),
            "fingerprint": fingerprint,
            "warm_start": warm_start,
            "solve_seconds": time.perf_counter() - start,
            "stats": self.stats(),
        }

    def stats(self) -> dict:
        """Snapshot of this worker's resident-cache counters, plus which
        ``R = 1`` p-bit scan its process runs (``r1_scan``: ``"compiled"``
        or ``"numpy: <reason>"``), so a worker that fell back shows."""
        sessions = list(self._sessions.values())
        return {
            "r1_scan": r1_scan_info(),
            "jobs_done": self._jobs_done,
            "planned": self._planned,
            "errors": self._errors,
            "warm_hits": self.program_cache.warm_hits,
            "cold_starts": self.program_cache.cold_starts,
            "program_entries": len(self.program_cache),
            "program_evictions": self.program_cache.evictions,
            "sessions": len(sessions),
            "session_warm_starts":
                sum(s.num_warm_starts for s in sessions),
            "lambda_entries": sum(s.num_cached for s in sessions),
            "lambda_evictions": sum(s.num_evictions for s in sessions),
        }


# ---------------------------------------------------------------------------
# Worker transports: same WorkerRuntime, in-thread or in a child process.
# ---------------------------------------------------------------------------

class _ThreadWorker:
    """Runtime executed directly in the dispatcher thread."""

    mode = "thread"

    def __init__(self, worker_id: int, runtime_kwargs: dict):
        self.runtime = WorkerRuntime(worker_id, **runtime_kwargs)

    def execute(self, payload: dict) -> dict:
        return self.runtime.execute(payload)

    def close(self) -> None:
        pass


def _process_worker_main(worker_id, runtime_kwargs, extra_path,
                         requests, responses):
    # Child entry point.  With the spawn start method the parent's
    # sys.path edits (test harnesses, PYTHONPATH-free dev runs) are not
    # inherited, so they ride along explicitly.
    for entry in extra_path:
        if entry not in sys.path:
            sys.path.append(entry)
    runtime = WorkerRuntime(worker_id, **runtime_kwargs)
    while True:
        item = requests.get()
        if item is None:
            break
        responses.put(runtime.execute(item))


class _ProcessWorker:
    """Runtime resident in a long-lived child process.

    The dispatcher owns this worker exclusively, so the protocol is a
    strict request/response lockstep over a pair of queues; payloads are
    wire-format dicts (JSON-shaped, trivially picklable).
    """

    mode = "process"

    def __init__(self, worker_id: int, runtime_kwargs: dict):
        # Prefer fork (instant start, inherits sys.path) where the
        # platform offers it; fall back to spawn elsewhere.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._requests = context.Queue()
        self._responses = context.Queue()
        self._process = context.Process(
            target=_process_worker_main,
            args=(worker_id, runtime_kwargs, list(sys.path),
                  self._requests, self._responses),
            daemon=True,
        )
        self._process.start()

    def execute(self, payload: dict) -> dict:
        self._requests.put(payload)
        return self._responses.get()

    def close(self) -> None:
        try:
            self._requests.put(None)
            self._process.join(timeout=5.0)
        finally:
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=1.0)


# ---------------------------------------------------------------------------
# The pool.
# ---------------------------------------------------------------------------

class JobHandle:
    """One submitted request: identity, timing, and an awaitable result."""

    def __init__(self, job_id: str, payload: dict, priority: str):
        self.id = job_id
        self.payload = payload
        self.priority = priority
        self.enqueued_at = time.perf_counter()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.worker_id: int | None = None
        self.response: dict | None = None
        self._done = threading.Event()

    @property
    def status(self) -> str:
        """``queued`` → ``running`` → ``done`` | ``failed``."""
        if self._done.is_set():
            return "done" if self.response.get("ok") else "failed"
        return "running" if self.started_at is not None else "queued"

    @property
    def queue_seconds(self) -> float | None:
        """Time spent waiting for a worker."""
        if self.started_at is None:
            return None
        return self.started_at - self.enqueued_at

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes; False on timeout."""
        return self._done.wait(timeout)

    def report(self):
        """The decoded :class:`SolveReport` (raises on failed jobs)."""
        if not self.wait(0):
            raise RuntimeError(f"job {self.id} is still {self.status}")
        if not self.response.get("ok"):
            error = self.response.get("error", {})
            raise RuntimeError(
                f"job {self.id} failed: {error.get('type', 'Error')}: "
                f"{error.get('message', '')}"
            )
        return report_from_wire(self.response["report"])

    def _complete(self, worker_id: int, response: dict) -> None:
        self.worker_id = worker_id
        self.response = response
        self.finished_at = time.perf_counter()
        self._done.set()


class ServicePool:
    """Queue + dispatchers + persistent workers, behind one submit call.

    ``num_workers`` dispatcher threads drain one shared
    :class:`PriorityJobQueue`; each owns a persistent worker (thread- or
    process-resident :class:`WorkerRuntime`).  ``pause()`` /
    ``resume()`` gate the dispatchers — with workers paused, submissions
    queue up against the high-water mark, which is how the backpressure
    tests drive a full queue deterministically.
    """

    def __init__(self, num_workers: int = 1, *, mode: str = "thread",
                 queue_depth: int = 64, session_max_entries: int = 1024,
                 program_max_entries: int = 32, logger=None,
                 completed_cap: int = 512):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        self.num_workers = num_workers
        self.mode = mode
        self.queue = PriorityJobQueue(high_water=queue_depth)
        self.logger = logger
        self._runtime_kwargs = dict(
            session_max_entries=session_max_entries,
            program_max_entries=program_max_entries,
        )
        self._workers: list = []
        self._dispatchers: list[threading.Thread] = []
        self._gate = threading.Event()
        self._gate.set()
        self._handles: OrderedDict[str, JobHandle] = OrderedDict()
        self._handles_lock = threading.Lock()
        self._completed_cap = completed_cap
        self._worker_stats: dict[int, dict] = {}
        self._started = False
        self._started_at: float | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServicePool":
        """Spin up workers and dispatchers (idempotent)."""
        if self._started:
            return self
        worker_cls = _ThreadWorker if self.mode == "thread" else _ProcessWorker
        for worker_id in range(self.num_workers):
            worker = worker_cls(worker_id, self._runtime_kwargs)
            self._workers.append(worker)
            thread = threading.Thread(
                target=self._dispatch_loop, args=(worker_id, worker),
                name=f"repro-dispatch-{worker_id}", daemon=True,
            )
            self._dispatchers.append(thread)
            thread.start()
        self._started = True
        self._started_at = time.perf_counter()
        return self

    def close(self) -> None:
        """Drain-free shutdown: close the queue, stop workers."""
        self.queue.close()
        self._gate.set()  # release paused dispatchers so they can exit
        for thread in self._dispatchers:
            thread.join(timeout=10.0)
        for worker in self._workers:
            worker.close()
        self._workers.clear()
        self._dispatchers.clear()
        self._started = False

    def __enter__(self) -> "ServicePool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def pause(self) -> None:
        """Stop dispatching (queued jobs accumulate; current jobs finish)."""
        self._gate.clear()

    def resume(self) -> None:
        """Resume dispatching."""
        self._gate.set()

    # -- submission --------------------------------------------------------

    def submit(self, payload: dict, *, priority: str = "normal",
               request_id: str | None = None) -> JobHandle:
        """Enqueue a wire-format job; raises ``QueueFullError`` at capacity.

        The payload is validated *before* admission so malformed requests
        are a client error, never a dead queue entry.
        """
        if not self._started:
            raise RuntimeError("pool is not started")
        resolve_priority(priority)  # validate before any side effect
        job_from_wire(payload)      # raises CodecError on a bad payload
        job_id = request_id if request_id else uuid.uuid4().hex[:12]
        handle = JobHandle(job_id, payload, priority)
        with self._handles_lock:
            self._handles[job_id] = handle
        try:
            self.queue.put(handle, priority=priority)
        except Exception:
            with self._handles_lock:
                self._handles.pop(job_id, None)
            self._log_rejected(handle)
            raise
        return handle

    def solve_payload(self, payload: dict, *, priority: str = "normal",
                      timeout: float | None = None) -> JobHandle:
        """Submit and wait: the synchronous POST path."""
        handle = self.submit(payload, priority=priority)
        if not handle.wait(timeout):
            raise TimeoutError(f"job {handle.id} did not finish in {timeout}s")
        return handle

    def handle(self, job_id: str) -> JobHandle | None:
        """Look up a submitted job by id (None when unknown/evicted)."""
        with self._handles_lock:
            return self._handles.get(job_id)

    # -- internals ---------------------------------------------------------

    def _dispatch_loop(self, worker_id: int, worker) -> None:
        while True:
            try:
                handle = self.queue.get(timeout=0.1)
            except TimeoutError:
                continue
            except QueueClosedError:
                return
            # Honor pause() even when the dequeue won the race: the job
            # is held un-executed until resume() (close() also releases
            # the gate so shutdown never strands a held job).
            self._gate.wait()
            handle.started_at = time.perf_counter()
            response = worker.execute(handle.payload)
            self._worker_stats[worker_id] = response.get("stats", {})
            handle._complete(worker_id, response)
            self._log_finished(worker_id, handle, response)
            self._trim_completed()

    def _trim_completed(self) -> None:
        with self._handles_lock:
            if len(self._handles) <= self._completed_cap:
                return
            for job_id in list(self._handles):
                if len(self._handles) <= self._completed_cap:
                    break
                if self._handles[job_id].status in ("done", "failed"):
                    del self._handles[job_id]

    def _log_rejected(self, handle: JobHandle) -> None:
        if self.logger is None:
            return
        self.logger.log(
            event="solve", id=handle.id, status="rejected",
            priority=handle.priority, fingerprint="", worker=None,
            queue_seconds=0.0, solve_seconds=0.0,
            queue_depth=self.queue.depth,
        )

    def _log_finished(self, worker_id: int, handle: JobHandle,
                      response: dict) -> None:
        if self.logger is None:
            return
        stats = response.get("stats", {})
        self.logger.log(
            event="solve", id=handle.id,
            status="ok" if response.get("ok") else "error",
            priority=handle.priority,
            fingerprint=response.get("fingerprint", ""),
            worker=worker_id,
            queue_seconds=round(handle.queue_seconds, 6),
            solve_seconds=round(response.get("solve_seconds", 0.0), 6),
            warm_start=response.get("warm_start", False),
            warm_hits=stats.get("warm_hits", 0),
            cold_starts=stats.get("cold_starts", 0),
        )

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """Pool-wide counters for ``/v1/stats``."""
        queue = self.queue
        workers = []
        jobs_done = 0
        jobs_planned = 0
        for worker_id in range(self.num_workers):
            stats = dict(self._worker_stats.get(worker_id, {}))
            stats["id"] = worker_id
            stats["mode"] = self.mode
            workers.append(stats)
            jobs_done += stats.get("jobs_done", 0)
            jobs_planned += stats.get("planned", 0)
        uptime = (time.perf_counter() - self._started_at
                  if self._started_at is not None else 0.0)
        return {
            "uptime_seconds": uptime,
            "jobs_done": jobs_done,
            "jobs_planned": jobs_planned,
            "jobs_per_second": jobs_done / uptime if uptime > 0 else 0.0,
            "paused": not self._gate.is_set(),
            "queue": {
                "depth": queue.depth,
                "high_water": queue.high_water,
                "enqueued": queue.num_enqueued,
                "dequeued": queue.num_dequeued,
                "rejected": queue.num_rejected,
            },
            "workers": workers,
        }
