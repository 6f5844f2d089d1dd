"""Composability of background compilation with the other env pins.

``REPRO_COMPILE=async`` moves compilation onto a background queue that
the workload drains at iteration edges; values, trap kinds, and printed
output must stay bit-identical to synchronous compilation under every
combination of the speculation, OSR, and interpreter-tier pins — the
async pipeline may only change *when* compiled code becomes available,
never what it computes. Cycles are deliberately not compared across the
compile-mode bit: async charges compile cycles to the engine's
``background_compile_cycles`` ledger instead of the triggering
iteration, so per-iteration cycle counts legitimately differ.

Every pin is read when an engine is built, so each combination runs
in-process under ``monkeypatch.setenv`` (same harness as
``test_env_pin_matrix``).

The workload engines request ``backend="py"`` (the Python-codegen top
tier), and a sampled set of combinations re-runs with
``REPRO_BACKEND=machine`` pinned on top — the backend is bit-identical
by construction, so four representative combinations suffice instead
of doubling the cross-product to 32. ``REPRO_TYPESPEC=off`` is sampled
the same way: its observable contract is the speculation pin's, so
three representative combinations cover it instead of another
doubling.
"""

import itertools

from repro.baselines import tuned_inliner
from repro.errors import TrapError
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from tests.helpers import shapes_program, single_method_program
from tests.test_deopt import flip_program
from tests.test_typespec import classify_program

#: (env var, pinned value) — bit i of a combination sets PINS[i].
PINS = [
    ("REPRO_COMPILE", "async"),
    ("REPRO_SPECULATE", "off"),
    ("REPRO_OSR", "off"),
    ("REPRO_INTERP", "predecode"),
    ("REPRO_BACKEND", "machine"),
    ("REPRO_TYPESPEC", "off"),
]

#: Sampled combinations with the backend pinned back to the machine
#: executor: both compile modes, alone and with everything else pinned,
#: so a backend/pipeline interaction would show in either mode.
BACKEND_PINNED_COMBOS = [
    (False, False, False, False, True, False),
    (True, False, False, False, True, False),
    (True, True, True, True, True, True),
    (False, True, True, True, True, True),
]

#: Sampled combinations with type-check speculation pinned off: alone
#: in both compile modes (a refuted type guard in async mode must
#: cancel pending requests exactly like a receiver guard), and stacked
#: on the speculation pin, which already disables it — the double-off
#: corner must not diverge.
TYPESPEC_PINNED_COMBOS = [
    (False, False, False, False, False, True),
    (True, False, False, False, False, True),
    (False, True, False, False, False, True),
]

def _observe(engine, cls, name, args):
    try:
        return ("value", engine.run_iteration(cls, name, args).value)
    except TrapError as trap:
        return ("trap", trap.kind)
    finally:
        # Async mode: settle the queue at the iteration edge so
        # compiled code is reached deterministically; sync no-op.
        engine.drain_compiles()


def _workload():
    """The pinned workload, four parts, each stressing a different
    interaction with the background pipeline.

    1. The receiver-flip driver: speculation plus a guaranteed deopt at
       iteration 10 — a deopt in async mode also cancels pending
       requests for the method, so this exercises the cancellation edge.

    2. The shapes loop with an unreachable dispatch threshold: the only
       route into compiled code is an OSR transfer, so in async mode
       the OSR continuation itself is compiled in the background.

    3. A trapping division driven through zero every fourth call: trap
       kinds must survive the compiled tier regardless of *when* the
       compiled code was installed.

    4. The classify driver from the typespec tests: monomorphic warmup
       lets the compiler guard the instanceof on the profiled exact
       type, then alternating operand types refute it — a type guard
       refuted in async mode exercises the same cancellation edge as
       the receiver flip.
    """
    flip = Engine(
        flip_program(),
        JitConfig(hot_threshold=4, speculate=True, backend="py"),
        tuned_inliner(1.0),
    )
    flip_outcomes = [
        _observe(flip, "Main", "drive", [i % 2 if i >= 10 else 0])
        for i in range(16)
    ]

    osr = Engine(
        shapes_program(),
        JitConfig(hot_threshold=10**9, osr=True, osr_threshold=30,
                  backend="py"),
        tuned_inliner(1.0),
    )
    osr_outcomes = [_observe(osr, "Main", "run", []) for _ in range(2)]

    trap = Engine(
        single_method_program(
            lambda b: b.const(100).load(0).div().retv()
        ),
        JitConfig(hot_threshold=3, backend="py"),
        tuned_inliner(1.0),
    )
    trap_outcomes = [
        _observe(trap, "T", "f", [2 - i % 4]) for i in range(12)
    ]

    ts = Engine(
        classify_program(),
        JitConfig(hot_threshold=4, speculate=True, typespec=True,
                  backend="py"),
        tuned_inliner(1.0),
    )
    ts_outcomes = [
        _observe(ts, "Main", "drive", [i % 2 if i >= 10 else 0])
        for i in range(16)
    ]

    engines = (flip, osr, trap, ts)
    result = {
        "flip": flip_outcomes,
        "osr": osr_outcomes,
        "trap": trap_outcomes,
        "ts": ts_outcomes,
        "output": [list(e.vm.output) for e in engines],
        "deopts": flip.deopt_count,
        "osr_entries": osr.osr_entry_count,
        "ts_deopts": ts.deopt_count,
        "async_installs": sum(e.async_installs for e in engines),
        "compilations": sum(e.compilation_count for e in engines),
        "py_execs": sum(e.py_exec_count for e in engines),
    }
    for e in engines:
        e.shutdown()
    return result


def _run_combo(monkeypatch, bits):
    for (name, value), bit in zip(PINS, bits):
        if bit:
            monkeypatch.setenv(name, value)
        else:
            monkeypatch.delenv(name, raising=False)
    return _workload()


def test_async_pin_matrix_bit_identical(monkeypatch):
    combos = [
        bits + (False, False)
        for bits in itertools.product((False, True), repeat=len(PINS) - 2)
    ] + BACKEND_PINNED_COMBOS + TYPESPEC_PINNED_COMBOS
    results = {bits: _run_combo(monkeypatch, bits) for bits in combos}
    baseline = results[(False,) * len(PINS)]

    # Outcomes (values and trap kinds) and printed output are
    # bit-identical across all exercised combinations.
    for bits, result in results.items():
        assert result["flip"] == baseline["flip"], bits
        assert result["osr"] == baseline["osr"], bits
        assert result["trap"] == baseline["trap"], bits
        assert result["ts"] == baseline["ts"], bits
        assert result["output"] == baseline["output"], bits

    # The deopt protocol is compile-mode independent: within each
    # speculation setting, every combination observed the same deopts.
    for spec_off in (False, True):
        group = [
            result["deopts"]
            for bits, result in results.items()
            if bits[1] == spec_off
        ]
        assert all(count == group[0] for count in group), spec_off

    # Sanity: the trapping workload actually trapped, and kept trapping
    # after the method compiled.
    assert baseline["trap"][2][0] == "trap"
    assert baseline["trap"][10][0] == "trap"
    assert any(kind == "value" for kind, _ in baseline["trap"])

    # Sanity: the async bit exercised the background pipeline — every
    # async combination installed code off the queue; no sync
    # combination did.
    for bits, result in results.items():
        assert result["compilations"] > 0, bits
        if bits[0]:
            assert result["async_installs"] > 0, bits
        else:
            assert result["async_installs"] == 0, bits

    # Sanity: the pinned bits changed real behaviour — including the
    # backend pin: unpinned combinations served compiled calls from the
    # Python tier (the engines request backend="py"), pinned ones never
    # touched it.
    assert baseline["deopts"] == 1
    assert baseline["osr_entries"] >= 1
    assert baseline["ts_deopts"] >= 1
    assert baseline["py_execs"] > 0
    assert results[(False, True, False, False, False, False)]["deopts"] == 0
    assert results[(False, False, True, False, False, False)][
        "osr_entries"
    ] == 0
    for bits in BACKEND_PINNED_COMBOS:
        assert results[bits]["py_execs"] == 0, bits
    # The type guard never exists when either the speculation or the
    # typespec pin is set, so those combinations never deopt on it.
    for bits in results:
        if bits[1] or bits[5]:
            assert results[bits]["ts_deopts"] == 0, bits
