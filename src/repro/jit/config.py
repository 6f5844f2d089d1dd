"""VM-level configuration and the table of environment pins."""

import os
from collections import namedtuple

from repro.backend.costmodel import CostModel
from repro.backend.icache import ICacheModel
from repro.opts.pipeline import OptimizerConfig

#: One environment pin over a two-valued :class:`JitConfig` field.
#: ``default`` is the reference value, ``alternative`` the other one.
#: An explicit (non-``None``) config value wins, except that the env
#: var set to ``hard`` pins ``default`` over anything; with the field
#: left ``None``, an env value in ``soft`` selects ``alternative``.
#: ``needs_compile`` knobs are ``default`` on a pure interpreter
#: (``compile_enabled=False``). docs/performance.md renders this table.
Knob = namedtuple(
    "Knob", "field env hard soft default alternative needs_compile"
)

_ON = ("on", "1", "true")

KNOBS = {
    knob.field: knob
    for knob in (
        Knob("interp_predecode", "REPRO_INTERP", None, ("predecode",),
             False, True, False),
        Knob("speculate", "REPRO_SPECULATE", "off", _ON, False, True, False),
        Knob("typespec", "REPRO_TYPESPEC", "off", _ON, False, True, False),
        Knob("osr", "REPRO_OSR", "off", _ON, False, True, True),
        Knob("backend", "REPRO_BACKEND", "machine", ("py",),
             "machine", "py", False),
        Knob("compile_mode", "REPRO_COMPILE", "sync", ("async",),
             "sync", "async", True),
    )
}


def resolve(field, value=None, compile_enabled=True):
    """The value knob *field* takes for config value *value* under the
    current environment (see :data:`KNOBS`)."""
    knob = KNOBS[field]
    if knob.needs_compile and not compile_enabled:
        return knob.default
    env = os.environ.get(knob.env, "").strip().lower()
    if env == knob.hard:
        return knob.default
    if value is None:
        return knob.alternative if env in knob.soft else knob.default
    if isinstance(knob.default, bool):
        return bool(value)
    if str(value).strip().lower() == knob.alternative:
        return knob.alternative
    return knob.default


class JitConfig:
    """Configuration for one VM instance.

    The six pinnable fields (``interp_predecode``, ``speculate``,
    ``typespec``, ``osr``, ``backend``, ``compile_mode``) default to
    ``None``, which defers to their ``REPRO_*`` environment variable;
    :data:`KNOBS` lists each one's hard and soft env values and
    :meth:`resolved` applies them.

    Attributes:
        hot_threshold: profile hotness (invocations + backedge/8) at
            which a method is compiled.
        compile_enabled: False gives a pure-interpreter VM (the C1-less
            baseline used in code-size comparisons).
        cost_model: the :class:`~repro.backend.costmodel.CostModel`.
        icache: the :class:`~repro.backend.icache.ICacheModel`.
        optimizer: the :class:`~repro.opts.pipeline.OptimizerConfig`.
        max_compiled_methods: safety valve for runaway configurations.
        context_sensitive_profiles: record one-level-context receiver
            and branch profiles alongside the aggregates (the §VI
            extension); the inliner then specializes call-tree nodes
            with caller-specific profiles.
        interp_predecode: selects the interpreter executor. ``True``
            uses the pre-decoded handler-table tier
            (:mod:`repro.interp.predecode`), ``False`` the classic
            reference loop. Semantics are bit-identical either way;
            only host wall-clock changes.
        speculate: speculative devirtualization with deoptimization.
            ``True`` lets the inliner replace well-predicted virtual
            fallbacks with guard/deopt (:mod:`repro.deopt`); ``False``
            keeps the conservative typeswitch.
        speculation_deopt_limit: deopts tolerated per compiled root
            before the engine stops speculating in that method
            entirely (bounds deopt/recompile churn).
        typespec: profile-guided type-check speculation. ``True`` lets
            the graph builder replace a profile-monomorphic
            ``INSTANCEOF``/``CHECKCAST`` with an exact-type guard plus
            a Pi that pins the operand's type, so the canonicalizer
            folds the check (and every dominated check downstream);
            refuted guards deopt through the same frame-state path as
            speculative devirtualization. Requires speculation to be
            on (frame capture); ``False`` keeps every type check as a
            runtime test.
        osr: on-stack replacement at loop backedges. ``True`` lets the
            interpreter transfer a running frame into compiled code
            when a backedge counter crosses ``osr_threshold``;
            ``False`` keeps frames in the interpreter until the next
            dispatch.
        osr_threshold: taken-backedge count at a single branch pc at
            which the interpreter requests an OSR compilation for that
            ``(method, backedge bci)`` pair. Independent of
            ``hot_threshold``: OSR exists precisely for frames that
            never reach another dispatch boundary.
        flight_dump: path the engine dumps the flight-recorder ring to
            (as JSONL) when a compilation fails or a trap escapes the
            dispatch — the dump-on-crash hook. ``None`` defers to the
            ``REPRO_FLIGHT_DUMP`` environment knob; no-op when the
            engine's observability has no live flight recorder.
        compile_mode: how compilation requests are served. ``"sync"``
            compiles on the dispatching thread (the classic engine —
            compile cycles are charged to the running iteration, the
            paper's single-threaded JIT model). ``"async"`` enqueues a
            request on a background compile pipeline
            (:mod:`repro.serve.scheduler`) and keeps interpreting until
            the code installs — the paper's *online* setting made real.
        backend: which executor runs compiled roots. ``"machine"`` is
            the deterministic cycle-model register machine
            (:mod:`repro.backend.machine`) — the differential oracle.
            ``"py"`` additionally lowers each optimized graph to a live
            Python closure (:mod:`repro.backend.pycodegen`) and runs
            that instead; values, trap kinds, printed output, cycles
            and deopt frames are bit-identical by construction, only
            host wall-clock changes.
        compile_workers: worker threads of the engine-private
            background pipeline (only used when the engine runs async
            *without* an externally attached compile service — a
            multi-tenant :class:`~repro.serve.service.VMService` shares
            one pipeline across all tenant engines instead).
    """

    def __init__(
        self,
        hot_threshold=40,
        compile_enabled=True,
        cost_model=None,
        icache=None,
        optimizer=None,
        max_compiled_methods=2000,
        context_sensitive_profiles=False,
        interp_predecode=None,
        speculate=None,
        speculation_deopt_limit=3,
        typespec=None,
        osr=None,
        osr_threshold=400,
        flight_dump=None,
        backend=None,
        compile_mode=None,
        compile_workers=1,
    ):
        self.hot_threshold = hot_threshold
        self.compile_enabled = compile_enabled
        self.cost_model = cost_model or CostModel()
        self.icache = icache or ICacheModel()
        self.optimizer = optimizer or OptimizerConfig()
        self.max_compiled_methods = max_compiled_methods
        self.context_sensitive_profiles = context_sensitive_profiles
        self.interp_predecode = interp_predecode
        self.speculate = speculate
        self.speculation_deopt_limit = speculation_deopt_limit
        self.typespec = typespec
        self.osr = osr
        self.osr_threshold = osr_threshold
        self.flight_dump = flight_dump
        self.backend = backend
        self.compile_mode = compile_mode
        self.compile_workers = compile_workers

    def flight_dump_path(self):
        """Resolve the dump-on-crash path against ``REPRO_FLIGHT_DUMP``."""
        if self.flight_dump is not None:
            return self.flight_dump
        return os.environ.get("REPRO_FLIGHT_DUMP", "").strip() or None

    def resolved(self, field):
        """The value knob *field* resolves to (see :func:`resolve`)."""
        return resolve(field, getattr(self, field), self.compile_enabled)

    def speculation_enabled(self):
        return self.resolved("speculate")

    def typespec_enabled(self):
        return self.resolved("typespec")

    def osr_enabled(self):
        return self.resolved("osr")

    def backend_resolved(self):
        return self.resolved("backend")

    def compile_mode_resolved(self):
        return self.resolved("compile_mode")
