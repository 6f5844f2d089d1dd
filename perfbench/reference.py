"""The interpreter reference every measured result is checked against.

A reference is one program run for *n* iterations on a fresh engine
with compilation disabled (``compile_enabled=False``): no compiled
tier ever contributes to it. Each iteration records its outcome
(``["value", v]`` or ``["trap", kind]``), the output it printed, its
model cycles (what a failing program is charged, since the
interpreter is the tier a correct VM would bail out to) and its
interpreted ops.

References are computed in child processes, outside every timed window
and outside ``setup_s``, and cached on disk keyed by program name, VM
seed and a hash of the program source, so each (seed, source) pair is
computed once per checkout rather than once per run.

Run as a script it computes the jobs named on its command line::

    python3 perfbench/reference.py CACHE_DIR NAME:VM_SEED:ITERATIONS ...
"""

import hashlib
import json
import os
import subprocess
import sys

ENTRY = ("Main", "run")
WORKERS = 2
TIMEOUT_S = 170


def cache_path(cache_dir, spec, vm_seed):
    digest = hashlib.sha256(spec.source.encode()).hexdigest()[:16]
    return os.path.join(
        cache_dir, "%s-%d-%s.json" % (spec.name, vm_seed, digest)
    )


def outcome_of(engine):
    """Run one iteration; returns ``(outcome, result or None)``."""
    from repro.errors import TrapError

    try:
        result = engine.run_iteration(*ENTRY)
    except TrapError as trap:
        return ["trap", trap.kind], None
    return ["value", result.value], result


def interpreter_engine(program, vm_seed):
    """A VM instance with compilation disabled: the reference tier."""
    from repro.jit.config import JitConfig
    from repro.jit.engine import Engine

    return Engine(
        program,
        JitConfig(compile_enabled=False, interp_predecode=True),
        seed=vm_seed,
    )


def compute(spec, vm_seed, iterations):
    engine = interpreter_engine(spec.load(), vm_seed)
    rows = []
    for _ in range(iterations):
        ops = engine.interpreter.ops_executed
        printed = len(engine.vm.output)
        outcome, result = outcome_of(engine)
        rows.append({
            "outcome": outcome,
            "output": list(engine.vm.output[printed:]),
            "cycles": result.total_cycles if result is not None else 0,
            "ops": engine.interpreter.ops_executed - ops,
        })
    return rows


def load(cache_dir, spec, vm_seed):
    """The cached reference rows, or an empty list."""
    try:
        with open(cache_path(cache_dir, spec, vm_seed)) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return []


def ensure(cache_dir, needs):
    """Make sure each ``(spec, vm_seed) -> iterations`` need is cached.

    Missing references are computed by up to ``WORKERS`` child
    processes running this file; returns ``{(name, vm_seed): rows}``.
    """
    os.makedirs(cache_dir, exist_ok=True)
    refs = {}
    jobs = []
    for (spec, vm_seed), iterations in needs.items():
        rows = load(cache_dir, spec, vm_seed)
        if len(rows) >= iterations:
            refs[spec.name, vm_seed] = rows
        else:
            jobs.append("%s:%d:%d" % (spec.name, vm_seed, iterations))
    if jobs:
        procs = [
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), cache_dir]
                + jobs[i::WORKERS]
            )
            for i in range(min(WORKERS, len(jobs)))
        ]
        try:
            codes = [proc.wait(timeout=TIMEOUT_S) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if any(codes):
            raise RuntimeError("reference computation failed: %r" % codes)
        for (spec, vm_seed), iterations in needs.items():
            if (spec.name, vm_seed) not in refs:
                refs[spec.name, vm_seed] = load(cache_dir, spec, vm_seed)
    return refs


def main(argv):
    cache_dir, jobs = argv[0], argv[1:]
    from repro.bench.suite import get_benchmark

    for job in jobs:
        name, vm_seed, iterations = job.rsplit(":", 2)
        spec = get_benchmark(name)
        rows = compute(spec, int(vm_seed), int(iterations))
        path = cache_path(cache_dir, spec, int(vm_seed))
        with open(path + ".tmp", "w") as handle:
            json.dump(rows, handle)
        os.replace(path + ".tmp", path)


if __name__ == "__main__":
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
            __file__))), "src"),
    )
    main(sys.argv[1:])
