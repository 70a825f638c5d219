"""``service-open-loop``: ``repro serve`` driven by an open-loop schedule.

A ``repro serve --workers 2`` subprocess (process workers, the CLI's
default shape) receives n=200, density-0.5 QKP jobs (~220 KB bodies,
each a K=20 x 3 MCS solve) at three fixed rates.  Arrivals are paced: a
step of ``rate x step`` requests is cut into that many equal slots and
each slot's request is due at a seeded point near its middle, so every
seed offers exactly the same load.  Half the requests of each step, at
seeded positions, repeat a small instance pool, so the workers' program
caches can hit; the other half are instances the server has not seen in
this run, so their programs are built cold.

One generator process, two sender threads (``nproc`` here), one
connection each; every request is timed from its due time, so a
generator that falls behind counts against latency.  HTTP 429, 5xx and
timeouts are failures and are never retried.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

import pb_refs
from pb_common import HostSpeed, Result, child_env, median, tail

#: Offered load per step (requests/s), fixed from the seed commit's
#: measured capacity on a 2-CPU x86-64 host: ~23 requests/s with 2
#: workers and the generator sharing the CPUs (22/s met a 400 ms tail,
#: 26/s built a backlog).  The steps stay far below that, where calls
#: (~60-100 ms) rarely overlap: two overlapping solves share the 2 CPUs
#: with the server and the generator, and at 9/s, where a slot is about
#: as long as a call, the share of overlapping requests moved the
#: latency tail by ~25% (IQR over median) between runs.
RATES = (("low", 3.0), ("mid", 4.0), ("high", 5.0))
#: A request is due at ``slot x (k + 0.5 + JITTER x (u - 0.5))``, u
#: uniform: consecutive arrivals are at least ``1 - JITTER`` slots
#: apart (120 ms at 5/s).
JITTER = 0.4
#: A step meets the limit when its latency tail stays below this and its
#: last request completes within this of the step's end (a backlog that
#: grew during the step would push that completion out).
LATENCY_LIMIT_MS = 500.0
SENDERS = 2
WORKERS = 2
HIT_SHARE = 0.5
REQUEST_TIMEOUT_S = 30.0
SPAWN_TIMEOUT_S = 60.0
SETUP_SPAWNS = 3
#: Served reports re-solved in process and compared with ``==``.
CHECK_SAMPLE = 8
#: While a step runs, the yardstick (~6 ms) is sampled at most this
#: often, and only while no request is in flight or due within
#: ``YARDSTICK_CLEARANCE_S``, so it never competes with the service.
YARDSTICK_PERIOD_S = 0.1
YARDSTICK_CLEARANCE_S = 0.02
YARDSTICK_POLL_S = 0.002


def request_config():
    """Table I QKP config cut to 20 iterations x 3 MCS with the paper-size
    multiplier step: the same 60 sweeps as K=3 x 20, but K=3 never
    reaches the feasible region at n=200."""
    from repro import SaimConfig

    config = SaimConfig.qkp_paper().scaled(0.01, 0.003)
    return replace(config, eta=800.0, eta_decay="sqrt", normalize_step=True)


@dataclass
class ServiceSpec:
    """Load shape of the workload (tests shrink it)."""

    size: int = pb_refs.SERVICE_SIZE
    pool: tuple = pb_refs.SERVICE_POOL_INDICES
    fresh: tuple = pb_refs.SERVICE_FRESH_INDICES
    rates: tuple = RATES
    check_sample: int = CHECK_SAMPLE


@dataclass
class Request:
    step: str
    offset: float          # due time after the step start
    index: int             # paper_qkp_instance index
    hit: bool              # drawn from the repeated pool
    seed: int
    body: bytes = b""
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    error: str = ""
    response: dict = field(default_factory=dict)
    response_bytes: int = 0
    scale: float = 1.0     # raw time -> nominal host speed

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error


def schedule(seed: int, seconds: float, spec: ServiceSpec) -> list:
    """The seeded open-loop schedule: one step per rate, each lasting a
    third of ``seconds``, with exactly ``rate x step`` arrivals, one
    jittered about the middle of each of the step's equal slots.

    Paced rather than Poisson: with two connections and two workers,
    Poisson bursts queue in the generator, and which bursts a seed draws
    then sets the latency tail (the generator lag's p90 spread about
    100% of its median across seeds on a 2-CPU host)."""
    rng = np.random.default_rng([seed, 3])
    step = seconds / len(spec.rates)
    fresh = [spec.fresh[int(i)] for i in rng.permutation(len(spec.fresh))]
    requests = []
    for name, rate in spec.rates:
        count = max(1, int(round(rate * step)))
        slot = step / count
        repeats = rng.permutation(count) < round(HIT_SHARE * count)
        for k in range(count):
            offset = slot * (k + 0.5 + JITTER * (rng.random() - 0.5))
            hit = bool(repeats[k]) or not fresh
            index = (spec.pool[int(rng.integers(len(spec.pool)))] if hit
                     else fresh.pop())
            requests.append(Request(name, float(offset), index, hit,
                                    int(rng.integers(2**31))))
    return requests


def encode_bodies(requests, instances) -> None:
    from repro.runtime import SolveJob
    from repro.service.codec import job_to_wire

    config = request_config()
    for request in requests:
        job = SolveJob(problem=instances[request.index], config=config,
                       rng=request.seed)
        request.body = json.dumps(job_to_wire(job)).encode()


# ---------------------------------------------------------------------------
# The server subprocess
# ---------------------------------------------------------------------------

class Server:
    """One ``repro serve`` child; :meth:`stop` ends it and its workers."""

    #: ``repro serve``, with SIGINT mapped to KeyboardInterrupt even when
    #: the bench was started with SIGINT ignored (a background job), so
    #: :meth:`stop` gets the CLI's clean shutdown.
    LAUNCH = ("import signal, sys; "
              "signal.signal(signal.SIGINT, signal.default_int_handler); "
              "from repro.cli import main; sys.exit(main(sys.argv[1:]))")

    def __init__(self, log_path):
        cmd = [sys.executable, "-c", self.LAUNCH, "serve", "--port", "0",
               "--workers", str(WORKERS), "--log", str(log_path)]
        env = child_env()
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        self.port = None

    def wait_healthy(self, timeout: float = SPAWN_TIMEOUT_S) -> None:
        deadline = time.perf_counter() + timeout
        line = self._read_banner(timeout)
        # "repro solver service on http://127.0.0.1:PORT (...)"
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        while time.perf_counter() < deadline:
            try:
                status, _ = self.get("/v1/health")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise TimeoutError("service did not become healthy")

    def _read_banner(self, timeout: float) -> str:
        lines = []
        reader = threading.Thread(
            target=lambda: lines.append(self.process.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(timeout)
        if not lines or "http://" not in lines[0]:
            raise RuntimeError(f"service did not start: {lines!r}")
        return lines[0]

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGINT (clean shutdown closes the workers), then the group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait(timeout=15)
        self.process.stdout.close()


def spawn_healthy(log_path) -> tuple[Server, float]:
    """Start a server; returns it with its spawn-to-healthy seconds."""
    start = time.perf_counter()
    server = Server(log_path)
    try:
        server.wait_healthy()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


# ---------------------------------------------------------------------------
# The open-loop generator
# ---------------------------------------------------------------------------

def _post(port: int, request: Request) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        request.sent = time.perf_counter()
        conn.request("POST", "/v1/solve", request.body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        request.done = time.perf_counter()
        request.status = response.status
        request.response_bytes = len(data)
        if response.status == 200:
            request.response = json.loads(data)
        else:
            request.error = f"HTTP {response.status}"
    except (OSError, http.client.HTTPException, ValueError) as exc:
        request.done = time.perf_counter()
        request.error = f"{type(exc).__name__}: {exc}"
    finally:
        conn.close()


def _idle(requests, now: float) -> bool:
    """No request in flight, none due within the yardstick clearance."""
    return all(r.done or r.due > now + YARDSTICK_CLEARANCE_S
               for r in requests)


def run_step(server: Server, requests, step_seconds: float,
             speed: HostSpeed) -> dict:
    """Offer one step's requests on schedule, sampling the host speed in
    the idle gaps; returns the step's end snapshot."""
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05
    for request in requests:
        request.due = start + request.offset

    def sender():
        while True:
            with lock:
                if cursor[0] >= len(requests):
                    return
                request = requests[cursor[0]]
                cursor[0] += 1
            delay = request.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _post(server.port, request)

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    end = start + step_seconds
    sampled = 0.0
    while (now := time.perf_counter()) < end:
        if now - sampled >= YARDSTICK_PERIOD_S and _idle(requests, now):
            speed.sample()
            sampled = now
        time.sleep(YARDSTICK_POLL_S)
    _, stats = server.get("/v1/stats")
    open_at_end = sum(1 for r in requests
                      if r.due <= end and not (r.done and r.done <= end))
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S * len(requests))
    last = max(r.done for r in requests)
    return {"start": start, "end": end, "last_done": last,
            "queue_depth": stats["queue"]["depth"], "open": open_at_end}


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

def build_instances(requests, spec: ServiceSpec) -> dict:
    from repro import paper_qkp_instance

    return {
        index: paper_qkp_instance(spec.size, pb_refs.QKP_DENSITY, index)
        for index in {r.index for r in requests}
    }


def _check(result: Result, requests, instances, spec, seed):
    """Per-request output checks, one operation each.  A seeded sample of
    the served reports must also equal an in-process ``repro.solve`` on
    the same seed; returns that sample and its (untraced) solve walls."""
    from repro.service.codec import report_from_wire

    served = [k for k, r in enumerate(requests) if r.ok]
    rng = np.random.default_rng([seed, 4])
    picks = set(rng.choice(served, size=min(spec.check_sample, len(served)),
                           replace=False).tolist()) if served else set()
    sample, walls = [], []
    for k, request in enumerate(requests):
        label = f"request {k} ({request.step}, index {request.index})"
        ok = result.check(request.ok, f"{label}: {request.error}")
        if ok:
            report = report_from_wire(request.response["report"])
            instance = instances[request.index]
            if report.best_x is not None:
                ok = result.check(bool(instance.is_feasible(report.best_x)),
                                  f"{label}: best_x violates the instance")
                ok = ok and result.check(
                    report.best_cost == instance.cost(report.best_x),
                    f"{label}: best_cost != recomputed cost")
            if k in picks:
                wall, mine = _resolve([(request, report)], instances)
                ok &= result.check(report == mine[0],
                                   f"{label}: served report != repro.solve")
                sample.append((request, report))
                walls += wall
        result.op(ok)
    return sample, walls


def _resolve(sample, instances):
    """In-process ``repro.solve`` of each sampled request."""
    import repro

    config = request_config()
    walls, reports = [], []
    for request, _ in sample:
        start = time.perf_counter()
        reports.append(repro.solve(instances[request.index], config=config,
                                   rng=request.seed))
        walls.append(time.perf_counter() - start)
    return walls, reports


def run(seed: int, seconds: float, trace: bool,
        spec: ServiceSpec | None = None, references=None, out_dir=None):
    spec = spec or ServiceSpec()
    references = references or pb_refs.load_references()
    result = Result("service-open-loop")
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / f"serve-seed{seed}.log"

    speed, setups = HostSpeed(), []
    server = None
    try:
        for attempt in range(SETUP_SPAWNS):
            speed.sample()
            started = time.perf_counter()
            server, seconds_to_health = spawn_healthy(log_path)
            setups.append((started, seconds_to_health))
            if attempt < SETUP_SPAWNS - 1:
                server.stop()
                server = None
        requests = schedule(seed, seconds, spec)
        instances = build_instances(requests, spec)
        encode_bodies(requests, instances)
        step_seconds = seconds / len(spec.rates)
        steps = {}
        for name, _ in spec.rates:
            steps[name] = run_step(
                server, [r for r in requests if r.step == name], step_seconds,
                speed)
        _, final_stats = server.get("/v1/stats")
    finally:
        if server is not None:
            server.stop()

    sample, walls = _check(result, requests, instances, spec, seed)

    # One factor for the whole run: the yardstick runs in the generator,
    # not beside the worker that solves, so a factor from the few samples
    # nearest each request added their noise to it (measured on a 2-CPU
    # host: 1.5x the latency tail's run-to-run spread of one factor).
    scale = speed.scale()
    for request in requests:
        request.scale = scale
    result.put("setup_s", median([wall * speed.scale_at(started)
                                  for started, wall in setups]), "s",
               f"median of {len(setups)} spawn-to-healthy times")
    result.notes["host.speed"] = (
        f"timings scaled x{speed.scale():.3f} to nominal host speed "
        f"({len(speed.samples)} yardstick samples)")
    ok = [r for r in requests if r.ok]
    if not trace:
        _end_to_end(result, requests, ok, steps, instances, references, spec)
        return result
    _per_layer(result, requests, ok, steps, final_stats, sample, walls,
               instances, out_dir, seed)
    return result


def _latencies_ms(requests):
    # A failed request counts as missing the limit: it is given an
    # infinite latency, so it sorts into the tail.
    return [1e3 * (r.done - r.due) * r.scale if r.ok else float("inf")
            for r in requests]


def _timing_s(request, field_name: str) -> float:
    """A server-side timing field at nominal host speed."""
    return request.response["timing"][field_name] * request.scale


def _end_to_end(result, requests, ok, steps, instances, references, spec):
    from pb_solves import spin_count

    # One front-door call here is one POST, timed by the client from send
    # to response; the worker-side solve alone is service.pool.solve_ms.
    calls = [(r.done - r.sent) * r.scale for r in ok]
    cold = [(r.done - r.sent) * r.scale for r in ok if not r.hit]
    result.put_timing(("solve_s", "solve_tail_s"), calls, "s",
                      what="POST /v1/solve calls")
    result.put("solve_large_s", median(cold or calls), "s",
               f"median of {len(cold)} fresh-instance (cold build) calls")
    spins = {i: spin_count(inst) for i, inst in instances.items()}
    updates = sum(r.response["report"]["total_mcs"] * spins[r.index]
                  for r in ok)
    result.put("spin_updates_per_s", updates / sum(
        _timing_s(r, "solve_seconds") for r in ok), "1/s",
        "per worker-busy second")
    accuracy = []
    for r in requests:
        report = r.response.get("report") if r.ok else None
        profit = (-float(report["best_cost"])
                  if report and report["feasible"] else 0.0)
        accuracy.append(100.0 * profit / references["qkp"][
            pb_refs.qkp_name(spec.size, r.index)])
    result.put("accuracy_pct", float(np.mean(accuracy)), "%",
               f"{len(accuracy)} requests")
    result.put("feasible_pct", 100.0 * sum(
        1 for r in ok if r.response["report"]["feasible"]) / len(requests),
        "%", "requests answered with a feasible solution")
    result.put_timing(("latency_p50_ms", "latency_tail_ms"),
                      _latencies_ms(requests), "ms",
                      what="requests, all rates, from due time")
    passing = []
    for name, rate in spec.rates:
        mine = [r for r in requests if r.step == name]
        snap = steps[name]
        tail_ms, _ = tail(_latencies_ms(mine))
        achieved = len(mine) / (snap["last_done"] - snap["start"])
        drain_ms = 1e3 * (snap["last_done"] - snap["end"])
        meets = (tail_ms <= LATENCY_LIMIT_MS and drain_ms <= LATENCY_LIMIT_MS
                 and all(r.ok for r in mine))
        result.notes[f"step.{name}"] = (
            f"{rate:g}/s offered, {achieved:.2f}/s done, tail "
            f"{tail_ms:.0f} ms, drained {drain_ms:.0f} ms after its end, "
            f"open at end {snap['open']}, queue depth {snap['queue_depth']}, "
            f"{'meets' if meets else 'misses'} limit")
        if meets:
            passing.append(achieved)
    lowest = spec.rates[0][0]
    fallback = len([r for r in requests if r.step == lowest]) / (
        steps[lowest]["last_done"] - steps[lowest]["start"])
    result.put("max_rate_rps", passing[-1] if passing else fallback, "1/s",
               "achieved rate of the highest step within a "
               f"{LATENCY_LIMIT_MS:g} ms tail and drain")


def _per_layer(result, requests, ok, steps, final_stats, sample, walls,
               instances, out_dir, seed):
    from pb_trace import TARGETS, Tracer, layer_metrics

    def per_rate(name, values_by_step, unit):
        for step, values in values_by_step.items():
            if values:
                result.put(f"{name}_p50_{unit}.{step}", median(values), unit)
                result.put(f"{name}_tail_{unit}.{step}", tail(values)[0],
                           unit)

    by_step = {}
    for r in requests:
        by_step.setdefault(r.step, []).append(r)
    per_rate("loadgen.latency", {s: _latencies_ms(rs)
                                 for s, rs in by_step.items()}, "ms")
    per_rate("service.queue.wait", {
        s: [1e3 * _timing_s(r, "queue_seconds") for r in rs if r.ok]
        for s, rs in by_step.items()}, "ms")
    for step, snap in steps.items():
        result.put(f"service.queue.depth_end.{step}", snap["queue_depth"],
                   "count")
        result.put(f"loadgen.open_at_end.{step}", snap["open"], "count")
    result.put("loadgen.lag_ms", median([1e3 * (r.sent - r.due) * r.scale
                                         for r in requests]), "ms")
    result.put("service.http.overhead_ms", median([
        1e3 * ((r.done - r.sent) * r.scale - _timing_s(r, "queue_seconds")
               - _timing_s(r, "solve_seconds")) for r in ok]), "ms")
    result.put("service.pool.solve_ms", median(
        [1e3 * _timing_s(r, "solve_seconds") for r in ok]), "ms")
    workers = final_stats["workers"]
    hits = sum(w.get("warm_hits", 0) for w in workers)
    cold = sum(w.get("cold_starts", 0) for w in workers)
    result.put("service.pool.program_hit_ratio",
               hits / (hits + cold) if hits + cold else 0.0, "ratio")
    result.put("service.pool.lambda_entries",
               sum(w.get("lambda_entries", 0) for w in workers), "count")
    result.put("service.queue.rejected", final_stats["queue"]["rejected"],
               "count")
    result.put("service.codec.request_kb",
               float(np.mean([len(r.body) for r in requests])) / 1024, "KiB")
    result.put("service.codec.response_kb",
               float(np.mean([r.response_bytes for r in ok])) / 1024, "KiB")

    # Outside in: the sampled requests' solves, re-run in process under
    # the wrappers, give the worker-side layer split; the codec calls are
    # timed on this run's own payloads through the same wrappers.
    codec_targets = tuple(
        ("repro.service.codec", fn, f"service.codec.{fn}", None)
        for fn in ("job_to_wire", "job_from_wire", "report_to_wire",
                   "report_from_wire"))
    tracer = Tracer(TARGETS + codec_targets)
    with tracer:
        traced_walls, _ = _resolve(sample, instances)
        _codec_round_trips(tracer, sample, instances)
    result.put("trace.overhead_pct",
               100.0 * (sum(traced_walls) / sum(walls) - 1.0), "%",
               f"{len(walls)} re-solved requests, traced vs untraced")
    solve_spans = [s for s in tracer.spans
                   if not s.name.startswith("service.codec")]
    for name, (value, unit) in layer_metrics(solve_spans,
                                             len(sample)).items():
        result.put(name, value, unit)
    for fn in ("job_to_wire", "job_from_wire", "report_to_wire",
               "report_from_wire"):
        durations = [s.duration for s in tracer.spans
                     if s.name == f"service.codec.{fn}"]
        result.put(f"service.codec.{fn}_ms", 1e3 * median(durations), "ms")
    tracer.dump(out_dir / f"spans-service-open-loop-seed{seed}.json")


def _codec_round_trips(tracer, sample, instances, repeats: int = 3) -> None:
    from repro.runtime import SolveJob
    from repro.service import codec

    config = request_config()
    for k, (request, _) in enumerate(sample):
        tracer.request = f"codec-{k}"
        job = SolveJob(problem=instances[request.index], config=config,
                       rng=request.seed)
        wire_report = request.response["report"]
        for _ in range(repeats):
            payload = json.loads(json.dumps(codec.job_to_wire(job)))
            codec.job_from_wire(payload)
            codec.report_to_wire(codec.report_from_wire(wire_report))
