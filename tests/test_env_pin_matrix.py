"""Composability of the environment pins.

``REPRO_SPECULATE=off``, ``REPRO_OSR=off``, ``REPRO_BACKEND=machine``
and ``REPRO_TYPESPEC=off`` each pin one feature back to its reference
behaviour; every exercised combination must be bit-identical on a
pinned workload (same values, same program output). Every pin is read
when an engine is built (:data:`repro.jit.config.KNOBS`), so each
combination runs in-process under ``monkeypatch.setenv``.

The speculation and OSR pins run as the full four-combination
cross-product. The backend and typespec pins are *sampled* on top (the
py tier is bit-identical by construction, cycles included; the typespec
pin's observable contract is exactly the speculation pin's).
"""

import itertools

from repro.baselines import tuned_inliner
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from tests.helpers import shapes_program
from tests.test_deopt import flip_program
from tests.test_typespec import classify_program

#: (env var, pinned value) — bit i of a combination sets PINS[i].
PINS = [
    ("REPRO_SPECULATE", "off"),
    ("REPRO_OSR", "off"),
    ("REPRO_BACKEND", "machine"),
    ("REPRO_TYPESPEC", "off"),
]

#: Sampled combinations with the backend pinned back to the machine
#: executor: the all-off / all-on corners plus each cycle-relevant pin
#: alone, so a backend/pin interaction in any cycle group would show.
BACKEND_PINNED_COMBOS = [
    (False, False, True, False),
    (True, False, True, False),
    (False, True, True, False),
    (True, True, True, False),
]

#: Sampled combinations with type-check speculation pinned off: alone,
#: stacked on the speculation pin (which already disables it — the
#: double-off corner must not diverge), and the everything-pinned
#: corner.
TYPESPEC_PINNED_COMBOS = [
    (False, False, False, True),
    (True, False, False, True),
    (True, True, True, True),
]


def _workload():
    """The pinned workload, three parts.

    1. The receiver-flip driver from the deopt tests: ten monomorphic
       warmup iterations compile (and, unless pinned off, speculate in)
       the driver, then alternating receivers refute the guard — so the
       speculation pin changes real compiled-code paths, not just flags.

    2. The shapes benchmark's 120-iteration loop on a second engine
       whose dispatch threshold is unreachable: the *only* route into
       compiled code is an OSR transfer at the loop backedge, so the
       OSR pin also changes real compiled-code paths (loop finishes in
       the OSR continuation vs. stays interpreted).

    3. The classify driver from the typespec tests on a third engine:
       monomorphic warmup lets the compiler guard the instanceof on the
       profiled exact type, then alternating operand types refute it —
       so the typespec pin changes real compiled-code paths too.
    """
    engine = Engine(
        flip_program(),
        JitConfig(hot_threshold=4, speculate=True, backend="py"),
        tuned_inliner(1.0),
    )
    values, cycles = [], []
    for i in range(16):
        kind = i % 2 if i >= 10 else 0
        result = engine.run_iteration("Main", "drive", [kind])
        values.append(result.value)
        cycles.append(result.total_cycles)

    osr_engine = Engine(
        shapes_program(),
        JitConfig(hot_threshold=10**9, osr=True, osr_threshold=30,
                  backend="py"),
        tuned_inliner(1.0),
    )
    osr_values, osr_cycles = [], []
    for _ in range(2):
        result = osr_engine.run_iteration("Main", "run")
        osr_values.append(result.value)
        osr_cycles.append(result.total_cycles)

    ts_engine = Engine(
        classify_program(),
        JitConfig(hot_threshold=4, speculate=True, typespec=True,
                  backend="py"),
        tuned_inliner(1.0),
    )
    ts_values, ts_cycles = [], []
    for i in range(16):
        kind = i % 2 if i >= 10 else 0
        result = ts_engine.run_iteration("Main", "drive", [kind])
        ts_values.append(result.value)
        ts_cycles.append(result.total_cycles)

    return {
        "values": values,
        "cycles": cycles,
        "output": list(engine.vm.output),
        "deopts": engine.deopt_count,
        "osr_values": osr_values,
        "osr_cycles": osr_cycles,
        "osr_output": list(osr_engine.vm.output),
        "osr_entries": osr_engine.osr_entry_count,
        "ts_values": ts_values,
        "ts_cycles": ts_cycles,
        "ts_output": list(ts_engine.vm.output),
        "ts_deopts": ts_engine.deopt_count,
        "py_execs": engine.py_exec_count + osr_engine.py_exec_count
        + ts_engine.py_exec_count,
    }


def _run_combo(monkeypatch, bits):
    for (name, value), bit in zip(PINS, bits):
        if bit:
            monkeypatch.setenv(name, value)
        else:
            monkeypatch.delenv(name, raising=False)
    return _workload()


def test_env_pin_matrix_bit_identical(monkeypatch):
    combos = [
        bits + (False, False)
        for bits in itertools.product((False, True), repeat=len(PINS) - 2)
    ] + BACKEND_PINNED_COMBOS + TYPESPEC_PINNED_COMBOS
    results = {bits: _run_combo(monkeypatch, bits) for bits in combos}
    baseline = results[(False,) * len(PINS)]

    # Observables are bit-identical across all exercised combinations.
    for bits, result in results.items():
        assert result["values"] == baseline["values"], bits
        assert result["output"] == baseline["output"], bits
        assert result["osr_values"] == baseline["osr_values"], bits
        assert result["osr_output"] == baseline["osr_output"], bits
        assert result["ts_values"] == baseline["ts_values"], bits
        assert result["ts_output"] == baseline["ts_output"], bits

    # The cycle model may legitimately differ between speculative and
    # pinned-off runs (different compiled code), but the backend pin is
    # a pure engineering knob: within each speculation setting the
    # flip-driver cycles of every combination (backend-pinned ones
    # included) agree exactly.
    for spec_off in (False, True):
        group = [
            result["cycles"]
            for bits, result in results.items()
            if bits[0] == spec_off
        ]
        assert all(cycles == group[0] for cycles in group), spec_off

    # Likewise the loop workload: its cycles depend only on whether the
    # frame transferred into OSR code (the dispatch threshold is
    # unreachable, so no other tier change can interfere).
    for osr_off in (False, True):
        group = [
            result["osr_cycles"]
            for bits, result in results.items()
            if bits[1] == osr_off
        ]
        assert all(cycles == group[0] for cycles in group), osr_off

    # The classify driver's cycles depend only on whether its guard was
    # ever speculated: the typespec pin, the speculation pin (which
    # gates the frame-state capture the guards need) and the config bit
    # collapse to one effective boolean.
    for ts_off in (False, True):
        group = [
            result["ts_cycles"]
            for bits, result in results.items()
            if (bits[0] or bits[3]) == ts_off
        ]
        assert all(cycles == group[0] for cycles in group), ts_off

    # Sanity: the pinned bits changed real behaviour — unpinned runs
    # took a deopt on the receiver flip, transferred the hot loop into
    # compiled code mid-method, refuted the classify guard on the first
    # Circle, and served compiled calls from the Python tier (the
    # engines request backend="py"); pinned runs never did.
    assert baseline["deopts"] == 1
    assert baseline["osr_entries"] >= 1
    assert baseline["ts_deopts"] >= 1
    assert baseline["py_execs"] > 0
    assert results[(True, False, False, False)]["deopts"] == 0
    assert results[(False, True, False, False)]["osr_entries"] == 0
    for bits in BACKEND_PINNED_COMBOS:
        assert results[bits]["py_execs"] == 0, bits
    for bits in results:
        if bits[0] or bits[3]:
            assert results[bits]["ts_deopts"] == 0, bits
