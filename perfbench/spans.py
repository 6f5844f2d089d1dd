"""Outside-in span tracing of the VM's layers.

The tracer wraps the public entry point of each layer (see ``LAYERS``)
from the benchmark's side, records one span per call (name, start,
end, parent, and the id of the iteration or request that caused it)
and keeps everything in memory until the run ends. A layer's self time
is its span's duration minus the time its child spans cover; the
remainder of an iteration's span is engine glue.

Nothing here edits the VM: wrappers are installed with ``setattr`` on
entry to :meth:`Tracer.installed` and the originals are restored on
exit, so untraced passes run the unmodified code.
"""

import contextlib
import json
import threading
import time
from collections import Counter, defaultdict

from repro.backend.machine import MachineExecutor
from repro.bench.suite import BenchmarkSpec
from repro.core.analysis import CostBenefitAnalysis
from repro.core.expansion import ExpansionPhase
from repro.core.inliner import IncrementalInliner
from repro.core.inlining import InliningPhase
from repro.interp.interpreter import Interpreter
from repro.jit.codecache import CodeCache, TenantCacheView
from repro.jit.compiler import JitCompiler
from repro.jit.engine import Engine
from repro.opts.pipeline import OptimizationPipeline
from repro.serve.scheduler import BackgroundCompiler
import repro.core.expansion
import repro.core.inliner
import repro.jit.compiler
import repro.jit.engine

#: (owner, attribute, layer). Module-level functions are wrapped where
#: their caller looks them up, or the wrapper never fires.
LAYERS = (
    (BenchmarkSpec, "load", "lang.load"),
    (Engine, "run_iteration", "jit.engine"),
    (Interpreter, "execute", "interp"),
    (Interpreter, "resume", "interp"),
    (JitCompiler, "compile", "jit.compile"),
    (JitCompiler, "compile_osr", "jit.compile"),
    (repro.jit.compiler, "build_graph", "ir.build"),
    (repro.jit.compiler, "lower_graph", "backend.lower"),
    (IncrementalInliner, "run", "core.inline"),
    (ExpansionPhase, "run", "core.expansion"),
    (CostBenefitAnalysis, "run", "core.analysis"),
    (InliningPhase, "run", "core.inlining"),
    (repro.core.expansion, "expand_node", "core.trials"),
    (repro.core.inliner, "propagate_deep_trials", "core.trials"),
    (OptimizationPipeline, "run", "opts.pipeline"),
    (OptimizationPipeline, "simplify_only", "opts.simplify"),
    (MachineExecutor, "execute", "backend.machine"),
    (repro.jit.engine, "resume_frames", "deopt.resume"),
)

#: Every layer the self-time table reports, in blocking-path order.
LAYER_ORDER = (
    "lang.load", "interp", "jit.compile", "ir.build", "core.inline",
    "core.expansion", "core.analysis", "core.inlining", "core.trials",
    "opts.pipeline", "opts.simplify", "backend.lower",
    "backend.pycodegen", "backend.py", "backend.machine", "jit.engine",
    "deopt.resume",
)

#: Compile-side layers (the warm-up acceptance split).
COMPILE_LAYERS = (
    "jit.compile", "ir.build", "core.inline", "core.expansion",
    "core.analysis", "core.inlining", "core.trials", "opts.pipeline",
    "opts.simplify", "backend.lower", "backend.pycodegen",
)


#: Spans kept for the Chrome trace (about 30 MB of JSON); self times
#: and counts always cover every span, the rest are counted as dropped.
KEEP_EVENTS = 200_000


class Tracer:
    """In-memory span recorder with per-thread span stacks."""

    def __init__(self):
        self.events = []
        self.dropped = 0
        self.phase = "setup"
        self.lookups = 0
        self.submitted = []  # CompileRequests, for queue wait times
        self.executed = {}  # CompileRequest -> compile wall on the worker
        self._local = threading.local()
        self._threads = []  # per-thread [self_time, calls] accumulators
        self._lock = threading.Lock()
        self._next_id = 0
        self._request_rid = {}
        self.origin = time.perf_counter()

    # -- per-thread state ------------------------------------------------

    def _state(self):
        local = self._local
        state = getattr(local, "state", None)
        if state is None:
            state = local.state = {
                "stack": [],
                "rid": 0,
                "self": defaultdict(float),
                "calls": Counter(),
                "tid": threading.get_ident() % 100000,
            }
            with self._lock:
                self._threads.append(state)
        return state

    def _new_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, layer, new_request=False):
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state["stack"]
            if new_request:
                state["rid"] = tracer._new_id()
            parent = stack[-1][2] if stack else 0
            frame = [time.perf_counter(), 0.0, tracer._new_id()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[0]
                key = (tracer.phase, layer)
                state["self"][key] += duration - frame[1]
                state["calls"][key] += 1
                if stack:
                    stack[-1][1] += duration
                if len(tracer.events) < KEEP_EVENTS:
                    tracer.events.append((
                        layer, frame[0], duration, state["tid"],
                        frame[2], parent, state["rid"],
                    ))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        tracer = self
        saved = []

        def patch(owner, name, value):
            saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

        generate = repro.jit.compiler.generate_py

        def generate_traced(graph, cost_model=None):
            factory, source = generate(graph, cost_model)

            def factory_traced(*args):
                return tracer.wrap(factory(*args), "backend.py")

            return factory_traced, source

        def counting(get):
            def counted(cache, method):
                tracer.lookups += 1
                return get(cache, method)
            return counted

        submit = BackgroundCompiler.__dict__["submit"]

        def submit_traced(scheduler, request):
            with tracer._lock:
                tracer._request_rid[request] = tracer._state()["rid"]
                tracer.submitted.append(request)
            return submit(scheduler, request)

        execute_request = Engine.__dict__["execute_compile_request"]

        def execute_request_traced(engine, request):
            # Worker-thread spans carry the id of the iteration whose
            # dispatch enqueued the compilation.
            tracer._state()["rid"] = tracer._request_rid.get(request, 0)
            start = time.perf_counter()
            try:
                return execute_request(engine, request)
            finally:
                tracer.executed[request] = time.perf_counter() - start

        try:
            for owner, name, layer in LAYERS:
                patch(owner, name, tracer.wrap(
                    owner.__dict__[name], layer,
                    new_request=(name == "run_iteration"),
                ))
            patch(repro.jit.compiler, "generate_py",
                  tracer.wrap(generate_traced, "backend.pycodegen"))
            for owner in (CodeCache, TenantCacheView):
                patch(owner, "get", counting(owner.__dict__["get"]))
            patch(BackgroundCompiler, "submit", submit_traced)
            patch(Engine, "execute_compile_request", execute_request_traced)
            yield tracer
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """``{(phase, layer): seconds}`` and ``{(phase, layer): calls}``
        summed over threads."""
        seconds = defaultdict(float)
        calls = Counter()
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for key, value in state["self"].items():
                seconds[key] += value
            calls.update(state["calls"])
        return seconds, calls

    def queue_times_ms(self):
        """``(wait, compile)`` of every background compile request a
        worker ran: time queued, then time compiling."""
        return [
            ((request.started_at - request.submitted_at) * 1000.0,
             self.executed[request] * 1000.0)
            for request in self.submitted
            if request in self.executed
        ]

    def write_chrome(self, path, metadata):
        """Write the kept spans as Chrome trace-event JSON (Perfetto)."""
        events = [
            {
                "name": layer, "cat": layer.split(".")[0], "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1, "tid": tid,
                "args": {"span": span_id, "parent": parent, "rid": rid},
            }
            for layer, start, duration, tid, span_id, parent, rid
            in self.events
        ]
        with open(path, "w") as handle:
            json.dump({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": dict(metadata, dropped_spans=self.dropped),
            }, handle)
