"""The three workloads, driven through the VM's public API only.

- ``warmup-py``: every registry program on a fresh engine, timing a
  fixed number of cold iterations from the first call (interpreter and
  compiler do the work).
- ``steady-py``: the same engines and configuration, with a fixed
  warm-up counted into set-up, then steady iterations timed (generated
  closures and engine dispatch do the work; compilation almost none).
- ``serve-fleet``: a multi-tenant ``VMService`` compiling in the
  background on the machine backend, fed open-loop by one request
  thread at a fixed mean arrival rate (the compiler runs off the
  request path but contends for the interpreter lock).

Every workload repeats *passes* (fresh programs, fresh engines) until
``--seconds`` have elapsed. Set-up and latency times are wall times
scaled to a nominal host speed (:mod:`hostspeed`). Every
result is checked against the interpreter reference
(:mod:`reference`); a program that crashes is charged the
interpreter-only wall time (measured in the same run) and cycles for
the iterations it was due to run, so fixing a crash never makes a time
metric read worse.
"""

import bisect
import gc
import math
import random
import statistics
import time
import zlib
from contextlib import nullcontext

from repro.baselines import tuned_inliner
from repro.bench.suite import BenchmarkSpec, all_benchmarks
from repro.jit.compiler import JitCompiler
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.serve.admission import ServiceConfig, TenantSpec
from repro.serve.service import VMService

import hostspeed
import reference
from spans import Tracer

INLINER_SIZE_FACTOR = 0.1

#: The tier configuration of both suite workloads, pinned in full so a
#: default changing elsewhere cannot change what is measured.
SUITE_JIT = dict(
    hot_threshold=25, interp_predecode=True, backend="py", speculate=True,
    typespec=True, osr=True, compile_mode="sync",
)
COLD_ITERATIONS = 4       # warmup-py: timed from the first call
WARMUP_ITERATIONS = 6     # steady-py: untimed, counted into setup_s
STEADY_ITERATIONS = 8     # steady-py: timed per iteration
REF_ITERATIONS = WARMUP_ITERATIONS + STEADY_ITERATIONS

SERVE_CONFIG = dict(
    compile_mode="async", compile_workers=1, hot_threshold=25,
    backend="machine",
)
#: Tenant engines: the suite's tiers minus the Python backend.
SERVE_JIT = dict(
    interp_predecode=True, speculate=True, typespec=True, osr=True,
)
SERVE_TENANTS = 6
SERVE_RATE = 20.0            # arrivals per second
SERVE_ZIPF_S = 1.0           # popularity skew over tenant ranks
SERVE_BLOCK = 50             # requests per shuffled popularity block
SERVE_WARMUP_REQUESTS = 100  # excluded from the latency window
SERVE_LIMIT_MS = 250.0       # latency limit of serve_ok_ratio
SERVE_SETUPS = 5             # set-ups per session (setup_s: their median)
SERVE_SESSIONS = 2           # sessions per untraced run
SERVE_PROBE_SLACK_S = 0.01   # least gap before a due request to probe in
SERVE_PROBE_SPAN = 2         # probes each side that scale a request


def vm_seed(seed, name):
    """The VM seed of *name* under workload seed *seed* (hash-seed
    independent, so PYTHONHASHSEED never changes an input)."""
    return zlib.crc32(("%d:%s" % (seed, name)).encode()) & 0x7FFFFFFF


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def fresh_program(name):
    """Load *name* from source through a fresh registry entry (the
    registry's own specs cache their program across set-ups)."""
    spec = next(s for s in all_benchmarks() if s.name == name)
    return BenchmarkSpec(spec.name, spec.module_name, spec.suite).load()


def resolved(config):
    """What the VM actually resolved each pinned knob to."""
    return {
        "backend": config.backend_resolved(),
        "speculate": config.speculation_enabled(),
        "typespec": config.typespec_enabled(),
        "osr": config.osr_enabled(),
        "compile_mode": config.compile_mode_resolved(),
    }


class CompileTimer:
    """Time of every ``JitCompiler.compile``/``compile_osr`` call.

    Stays on in untraced runs: compilations are few (~270 per suite
    pass), so timing them costs nothing measurable. The time is the
    compiling thread's CPU time: on the serve worker, wall time would
    also count waits for the interpreter lock held by the request
    thread (that wait shows in the traced ``jit.install_*`` metrics),
    and made the p95 of one run twice that of the next. In the
    single-threaded suite workloads the two clocks agree.
    """

    def __init__(self):
        self.samples = []
        self._saved = []

    def __enter__(self):
        samples = self.samples
        for name in ("compile", "compile_osr"):
            original = JitCompiler.__dict__[name]

            def timed(*args, _original=original, **kwargs):
                start = time.thread_time()
                try:
                    return _original(*args, **kwargs)
                finally:
                    samples.append(time.thread_time() - start)

            self._saved.append((name, original))
            setattr(JitCompiler, name, timed)
        return self

    def __exit__(self, *exc):
        for name, original in self._saved:
            setattr(JitCompiler, name, original)


def engine_stats(engine):
    """Layer counts read from the engine's public attributes."""
    records = engine.compiler.records
    reports = [r.inline_report for r in records if r.inline_report]
    memo = engine.compiler.context.trial_memo
    return {
        "interp_ops": engine.interpreter.ops_executed,
        "deopts": engine.deopt_count,
        "osr_entries": engine.osr_entry_count,
        "explored_nodes": sum(r.explored_nodes for r in reports),
        "inlined": sum(r.inline_count for r in reports),
        "py_bailouts": sum(1 for r in records if r.code.py_factory is None)
        if engine.backend == "py" else 0,
        "memo_hits": memo.hits,
        "memo_misses": memo.misses,
    }


def check(engine, ref_row):
    """Run one iteration; returns ``(wall_s, result, error)``.

    *error* is None when outcome and printed output match the
    reference, ``"mismatch: ..."`` when they differ, or the exception
    that crashed the VM.
    """
    printed = len(engine.vm.output)
    start = time.perf_counter()
    try:
        outcome, result = reference.outcome_of(engine)
    except Exception as crash:  # a VM crash is a failed operation
        wall = time.perf_counter() - start
        detail = (str(crash).splitlines() or [""])[0][:120]
        return wall, None, "%s: %s" % (type(crash).__name__, detail)
    wall = time.perf_counter() - start
    output = list(engine.vm.output[printed:])
    if outcome != ref_row["outcome"] or output != ref_row["output"]:
        return wall, result, "mismatch: got %r, reference %r" % (
            outcome, ref_row["outcome"])
    return wall, result, None


# ----------------------------------------------------------------------
# warmup-py and steady-py
# ----------------------------------------------------------------------


def bailout_walls(name, seed, first, total):
    """Wall time of iterations ``first..total-1`` on the interpreter
    alone: what a failing program is charged, measured in the same run
    (and so at the same host speed) as the programs that pass."""
    engine = reference.interpreter_engine(fresh_program(name),
                                          vm_seed(seed, name))
    walls, before = [], None
    for index in range(total):
        if index == first:
            before = hostspeed.probe()
        start = time.perf_counter()
        reference.outcome_of(engine)
        if index >= first:
            walls.append(time.perf_counter() - start)
    factor = hostspeed.scale(before, hostspeed.probe())
    return [wall * factor for wall in walls]


def run_program(name, seed, ref, steady, timer, tracer, bailouts):
    """One program on a fresh engine; returns its per-pass row.

    *bailouts* caches :func:`bailout_walls` per program."""
    gc.collect()
    compiles_before = len(timer.samples)
    if tracer is not None:
        tracer.phase = "setup"
    # Probes bracket the set-up and the timed window (hostspeed.py).
    probes = [hostspeed.probe()]
    start = time.perf_counter()
    program = fresh_program(name)
    engine = Engine(program, JitConfig(**SUITE_JIT),
                    inliner=tuned_inliner(INLINER_SIZE_FACTOR),
                    seed=vm_seed(seed, name))
    setup = time.perf_counter() - start
    first = WARMUP_ITERATIONS if steady else 0
    total = first + (STEADY_ITERATIONS if steady else COLD_ITERATIONS)
    walls, cycles, error, failed_at = [], [], None, None
    for index in range(total):
        if index == first:
            probes.append(hostspeed.probe())
            if tracer is not None:
                tracer.phase = "measure"
        wall, result, error = check(engine, ref[index])
        if error is not None:
            failed_at = index
            break
        if index < first:
            setup += wall
        else:
            walls.append(wall)
            # A trap matching the reference has no iteration result.
            cycles.append(result.total_cycles if result
                          else ref[index]["cycles"])
    probes.append(hostspeed.probe())
    setup_scale = hostspeed.scale(*probes[:2])
    window_scale = hostspeed.scale(*probes[-2:])
    walls = [wall * window_scale for wall in walls]
    window = range(first, total)
    if error is not None:
        # Charge the interpreter tier a correct VM would bail out to.
        if name not in bailouts:
            bailouts[name] = bailout_walls(name, seed, first, total)
        walls = bailouts[name]
        cycles = [ref[i]["cycles"] for i in window]
    return {
        "program": name,
        "vm_seed": vm_seed(seed, name),
        "setup_s": setup * setup_scale,
        "walls_s": walls,
        "scale": window_scale,
        "cycles": cycles,
        "compilations": engine.compilation_count,
        "code_bytes": engine.code_cache.total_size,
        "compile_samples": timer.samples[compiles_before:],
        "attempted": len(window),
        "failed": 0 if error is None else (
            len(window) if failed_at < first else total - failed_at),
        "mismatch": error is not None and error.startswith("mismatch"),
        "error": error if error is None else
            "iteration %d: %s" % (failed_at + 1, error),
        **engine_stats(engine),
    }


def suite_pass(names, seed, refs, steady, tracer, bailouts):
    timer = CompileTimer()
    with timer, (tracer.installed() if tracer else nullcontext()):
        rows = [
            run_program(name, seed, refs[name, vm_seed(seed, name)],
                        steady, timer, tracer, bailouts)
            for name in names
        ]
    return {"rows": rows, "compile_samples": timer.samples,
            "traced": tracer is not None}


def run_suite(steady, seed, seconds, refs, trace):
    """Passes over the whole registry until *seconds* have elapsed.

    With *trace*, passes alternate untraced / traced (at least one of
    each); the traced ones also return their tracers.
    """
    rng = random.Random(seed)
    names = [spec.name for spec in all_benchmarks()]
    passes, tracers, bailouts = [], [], {}
    start = time.perf_counter()
    while (len(passes) < (2 if trace else 1)
           or time.perf_counter() - start < seconds):
        rng.shuffle(names)
        tracer = Tracer() if trace and len(passes) % 2 else None
        if tracer is not None:
            tracers.append(tracer)
        elif not steady:
            # A cold window is one short sample per program, so the
            # bail-out tier is re-timed with every untraced pass and
            # gets the same minimum over passes as the programs that
            # pass. A steady window is already a median of iterations.
            bailouts = {}
        passes.append(suite_pass(list(names), seed, refs, steady, tracer,
                                 bailouts))
    return passes, tracers


def program_latency_ms(row, steady):
    if steady:
        return statistics.median(row["walls_s"]) * 1000.0
    return sum(row["walls_s"]) * 1000.0


def program_cycles(row, steady):
    if steady:
        return statistics.median(row["cycles"])
    return sum(row["cycles"])


def suite_metrics(passes, steady):
    """End-to-end metrics over *passes*, with the per-program rows.

    Set-up and iteration wall times are scaled to the nominal host
    (:mod:`hostspeed`). ``setup_s`` is the median over passes; every
    other timing is the minimum over passes, taken per program and per
    compilation. The work of a pass is deterministic (cycles, code
    bytes and compile counts repeat bit for bit), so host noise can
    only add time to it.
    """
    per_program = {}
    for one in passes:
        for row in one["rows"]:
            per_program.setdefault(row["program"], []).append(row)
    programs, compiles = [], []
    for name, rows in sorted(per_program.items()):
        first = rows[0]
        # A sync pass compiles the same methods in the same order, so
        # each compilation's fastest pass is taken on its own.
        fastest = [min(times) for times in
                   zip(*(r["compile_samples"] for r in rows))]
        compiles.extend(fastest)
        programs.append({
            "program": name,
            "latency_ms": min(program_latency_ms(r, steady) for r in rows),
            "cycles": program_cycles(first, steady),
            "code_bytes": first["code_bytes"],
            "compilations": first["compilations"],
            "compile_s": sum(fastest),
            "status": "ok" if first["error"] is None else first["error"],
        })
    attempted = sum(r["attempted"] for one in passes for r in one["rows"])
    failed = sum(r["failed"] for one in passes for r in one["rows"])
    metrics = {
        "setup_s": statistics.median(
            sum(r["setup_s"] for r in one["rows"]) for one in passes),
        "latency_ms": geomean([p["latency_ms"] for p in programs]),
        "compile_s": sum(compiles),
        "compile_p95_ms": percentile(compiles, 95) * 1000.0,
        "model_cycles": geomean([p["cycles"] for p in programs]),
        "code_bytes": sum(p["code_bytes"] for p in programs),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return metrics, programs, {
        "attempted": attempted,
        "failed": failed,
        "mismatches": sum(r["mismatch"] for one in passes
                          for r in one["rows"]),
        "compile_samples": sum(len(one["compile_samples"])
                               for one in passes),
        "passes": len(passes),
        "host_scale": statistics.median(
            r["scale"] for one in passes for r in one["rows"]),
    }


# ----------------------------------------------------------------------
# serve-fleet
# ----------------------------------------------------------------------


def fleet(seed, suite_refs):
    """The six tenants and their popularity weights.

    The registry is split into six groups by interpreted ops per
    iteration (from the reference, so the split is deterministic) and
    the median program of each group is hosted; popularity rank follows
    the group, cheapest most popular. The fleet is a fixed stratified
    sample rather than a seeded draw: six programs drawn at random from
    28 made compile_s vary twofold between seeds (1.27-2.34 s), so the
    seed drives only the request stream and the VM seeds.
    """
    names = sorted(
        (spec.name for spec in all_benchmarks()),
        key=lambda n: (suite_refs[n, vm_seed(seed, n)][0]["ops"], n),
    )
    size, extra = divmod(len(names), SERVE_TENANTS)
    tenants, at = [], 0
    for group in range(SERVE_TENANTS):
        width = size + (1 if group < extra else 0)
        tenants.append(names[at + width // 2])
        at += width
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S
               for rank in range(SERVE_TENANTS)]
    return tenants, weights


def arrival_schedule(seed, seconds, tenants, weights):
    """Requests due every ``1 / SERVE_RATE`` seconds over *seconds*.
    Returns ``[(due_s, tenant_index)]``.

    Tenants are dealt in shuffled blocks of ``SERVE_BLOCK`` requests in
    which each tenant's share is its popularity weight, so every seed
    sends the same traffic mix in a different order. Both choices keep
    the median latency steady: with Poisson arrivals and independent
    draws it moved by a third between runs as bursts met compilations.
    """
    rng = random.Random(seed ^ 0xA221)
    total = sum(weights)
    block = [index for index, weight in enumerate(weights)
             for _ in range(round(SERVE_BLOCK * weight / total))]
    picks = []
    while len(picks) < seconds * SERVE_RATE:
        rng.shuffle(block)
        picks.extend(block)
    count = int(seconds * SERVE_RATE)
    return [(i / SERVE_RATE, pick) for i, pick in enumerate(picks[:count])]


def build_service(tenants, seed):
    """Construct the service and admit the fleet; returns it."""
    service = VMService(ServiceConfig(**SERVE_CONFIG))
    for name in tenants:
        service.admit(TenantSpec(
            name, program=fresh_program(name),
            inliner=lambda: tuned_inliner(INLINER_SIZE_FACTOR),
            jit=SERVE_JIT, merge="isolated", seed=vm_seed(seed, name),
        ))
    return service


def serve_session(tenants, seed, schedule, refs, tracer):
    """Set up ``SERVE_SETUPS`` times, keep the last service, and feed
    it *schedule* open-loop from this thread. Set-up and request
    latencies are scaled to the nominal host (:mod:`hostspeed`)."""
    setups = []
    timer = CompileTimer()
    with timer, (tracer.installed() if tracer else nullcontext()):
        for attempt in range(SERVE_SETUPS):
            gc.collect()
            before = hostspeed.probe()
            start = time.perf_counter()
            service = build_service(tenants, seed)
            wall = time.perf_counter() - start
            setups.append(wall * hostspeed.scale(before, hostspeed.probe()))
            if attempt + 1 < SERVE_SETUPS:
                service.shutdown()
        engines = [service.tenants[name].engine for name in tenants]
        served = [0] * len(tenants)
        requests = []
        if tracer is not None:
            tracer.phase = "measure"
        # One calibration run before a request, when the gap before it
        # is long enough not to delay it and the compile worker is idle
        # (so the probe measures the host, not waits for the lock); a
        # request is scaled by the probes nearest to it.
        scheduler = service.scheduler
        probes, probed_at = [], []
        origin = time.perf_counter()
        for position, (due, index) in enumerate(schedule):
            now = time.perf_counter() - origin
            if (due - now > SERVE_PROBE_SLACK_S
                    and scheduler.submitted == scheduler.completed
                    + scheduler.failed + scheduler.cancelled):
                probes.append(hostspeed.probe(1))
                probed_at.append(position)
                now = time.perf_counter() - origin
            if now < due:
                time.sleep(due - now)
            begin = time.perf_counter() - origin
            name = tenants[index]
            ref = refs[name, vm_seed(seed, name)]
            wall, result, error = check(engines[index], ref[served[index]])
            served[index] += 1
            requests.append({
                "tenant": index,
                "latency_ms": (begin + wall - due) * 1000.0,
                "lag_ms": (begin - due) * 1000.0,
                "cycles": result.total_cycles if result else None,
                "error": error,
            })
        probes.append(hostspeed.probe(1))
        probed_at.append(len(schedule))
        for position, request in enumerate(requests):
            after = bisect.bisect_right(probed_at, position)
            request["scale"] = hostspeed.scale(
                *probes[max(0, after - SERVE_PROBE_SPAN):
                        after + SERVE_PROBE_SPAN])
            request["latency_ms"] *= request["scale"]
        for engine in engines:
            engine.drain_compiles(timeout=30.0)
    scheduler = service.scheduler
    queue = {"rejected": scheduler.rejected,
             "cancelled": scheduler.cancelled,
             "submitted": scheduler.submitted}
    stats = [{
        "program": name,
        "requests": served[i],
        "compilations": engines[i].compilation_count,
        "code_bytes": engines[i].code_cache.tenant_size,
        **engine_stats(engines[i]),
        "errors": sorted({r["error"] for r in requests
                          if r["tenant"] == i and r["error"]}),
    } for i, name in enumerate(tenants)]
    code_bytes = service.cache.total_size
    config = resolved(engines[0].config)
    service.shutdown()
    return {
        "setups": setups, "requests": requests, "tenants": stats,
        "queue": queue, "compile_samples": timer.samples,
        "code_bytes": code_bytes, "config": config,
    }


def latency_window(requests):
    """The requests after the warm-up prefix (the second half of a
    session too short to have a window)."""
    return requests[min(SERVE_WARMUP_REQUESTS, len(requests) // 2):]


def serve_metrics(sessions, tenants):
    """End-to-end metrics over one or more sessions of one schedule.

    Latencies and set-up times are nominal-host times. ``setup_s``
    is the median set-up, ``latency_ms`` the median latency over the
    latency windows of all sessions, and compile times the minimum
    over sessions. ``ok_ratio`` covers the latency windows; crashes
    anywhere count in ``failed``.
    """
    requests = [r for one in sessions for r in one["requests"]]
    window = [r for one in sessions for r in latency_window(one["requests"])]
    latencies = [r["latency_ms"] for r in window]
    ok = sum(1 for r in window
             if r["error"] is None and r["latency_ms"] <= SERVE_LIMIT_MS)
    cycles = []
    for index in range(len(tenants)):
        own = [r["cycles"] for r in window
               if r["tenant"] == index and r["cycles"] is not None]
        if own:
            cycles.append(statistics.median(own))
    samples = [one["compile_samples"] for one in sessions]
    metrics = {
        "setup_s": statistics.median(
            t for one in sessions for t in one["setups"]),
        "latency_ms": statistics.median(latencies),
        "compile_s": min(sum(one) for one in samples),
        "compile_p95_ms": min(percentile(one, 95) for one in samples)
        * 1000.0,
        "model_cycles": geomean(cycles),
        "code_bytes": statistics.median(
            one["code_bytes"] for one in sessions),
        "ok_ratio": ok / max(1, len(window)),
    }
    detail = {
        "attempted": len(requests),
        "failed": sum(1 for r in requests if r["error"] is not None),
        "mismatches": sum(1 for r in requests
                          if r["error"] and r["error"].startswith("mismatch")),
        "passes": len(sessions),
        "window_requests": len(window),
        "serve_p50_ms": statistics.median(latencies),
        "serve_p95_ms": percentile(latencies, 95),
        "gen_lag_p50_ms": statistics.median(r["lag_ms"] for r in window),
        "gen_lag_p95_ms": percentile([r["lag_ms"] for r in window], 95),
        "compile_samples": sum(len(one) for one in samples),
        "host_scale": statistics.median(r["scale"] for r in window),
    }
    return metrics, detail
