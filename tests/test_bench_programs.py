"""Structural checks on the 28 benchmark programs.

Beyond compiling (covered in test_bench_infra), each program must
(a) be deterministic in the steady state and (b) actually exercise the
workload shape its module docstring claims — dispatch-heavy programs
must contain dispatched callsites, closure-heavy ones must allocate
lambdas, and so on. This keeps benchmark edits honest.
"""

import pytest

from repro.baselines import tuned_inliner
from repro.bench.suite import all_benchmarks, get_benchmark
from repro.bytecode.opcodes import Op
from repro.interp import Interpreter
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.runtime import VMState


def _opcodes_used(program):
    ops = set()
    for method in program.methods_iter():
        for instr in method.code:
            ops.add(instr.op)
    return ops


def _steady_values(name, runs=3, predecode=None):
    spec = get_benchmark(name)
    program = spec.load()
    vm = VMState(program)
    interp = Interpreter(vm, predecode=predecode)
    interp.call_static("Main", "run")  # setup iteration
    return [interp.call_static("Main", "run") for _ in range(runs)]


def _engine_run(name, config, iterations, inliner=None):
    """Per-iteration values and cycles, interpreted op count and
    printed output of one fresh engine."""
    engine = Engine(
        get_benchmark(name).load(), config, inliner=inliner, seed=0x5EED
    )
    results = [engine.run_iteration("Main", "run") for _ in range(iterations)]
    return {
        "values": [r.value for r in results],
        "cycles": [r.total_cycles for r in results],
        "ops": engine.interpreter.ops_executed,
        "output": list(engine.vm.output),
    }


class TestDeterminism:
    @pytest.mark.parametrize(
        "name", [spec.name for spec in all_benchmarks()]
    )
    def test_steady_state_deterministic(self, name):
        values = _steady_values(name)
        assert len(set(values)) == 1, (
            "%s drifts in steady state: %r" % (name, values)
        )

    def test_two_interpreters_agree(self):
        for name in ("factorie", "h2", "tmt", "gauss-mix", "stmbench7"):
            assert _steady_values(name, predecode=False) == _steady_values(
                name, predecode=True
            ), name

    @pytest.mark.parametrize("name", ["gauss-mix", "stmbench7"])
    def test_interpreter_tiers_identical_in_engine(self, name):
        """Classic vs pre-decoded tier with compilation off: values,
        per-iteration cycles and op counts are bit-identical."""
        runs = [
            _engine_run(
                name,
                JitConfig(compile_enabled=False, interp_predecode=predecode),
                iterations=2,
            )
            for predecode in (False, True)
        ]
        assert runs[0] == runs[1]

    def test_interpreter_tiers_identical_under_jit(self):
        """The tiered stack with the tuned inliner: swapping the
        interpreter tier changes nothing the compiler sees."""
        runs = [
            _engine_run(
                "jython",
                JitConfig(interp_predecode=predecode),
                iterations=4,
                inliner=tuned_inliner(0.1),
            )
            for predecode in (False, True)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", ["gauss-mix", "stmbench7"])
    def test_py_backend_matches_interpreter(self, name):
        """The py tier against the pre-decoded interpreter alone: the
        tiers differ, so only values and printed output must match."""
        interpreted = _engine_run(
            name,
            JitConfig(compile_enabled=False, interp_predecode=True),
            iterations=4,
        )
        compiled = _engine_run(
            name,
            JitConfig(hot_threshold=10, interp_predecode=True, backend="py"),
            iterations=4,
            inliner=tuned_inliner(0.1),
        )
        for key in ("values", "output"):
            assert compiled[key] == interpreted[key]


class TestWorkloadShapes:
    DISPATCH_HEAVY = [
        "avrora", "batik", "fop", "h2", "jython", "luindex", "lusearch",
        "pmd", "sunflow", "xalan", "factorie", "kiama", "scalac",
        "scalariform", "dec-tree", "dotty", "neo4j", "gauss-mix",
    ]

    def test_dispatch_heavy_programs_have_dispatched_calls(self):
        for name in self.DISPATCH_HEAVY:
            ops = _opcodes_used(get_benchmark(name).load())
            assert Op.INVOKEINTERFACE in ops or Op.INVOKEVIRTUAL in ops, name

    LAMBDA_HEAVY = [
        "actors", "apparat", "factorie", "scaladoc", "scalatest",
        "scalariform", "specs", "tmt", "gauss-mix",
    ]

    def test_lambda_heavy_programs_emit_anonymous_classes(self):
        for name in self.LAMBDA_HEAVY:
            program = get_benchmark(name).load()
            lambdas = [c for c in program.classes if c.startswith("$Lambda")]
            assert lambdas, "%s should allocate closures" % name

    def test_avrora_exceeds_typeswitch_budget(self):
        """avrora's Instr hierarchy must have more concrete targets than
        the 3-arm typeswitch budget, exercising the fallback path."""
        program = get_benchmark("avrora").load()
        targets = program.concrete_subclasses("Instr")
        assert len(targets) > 3

    def test_stmbench7_barriers_are_hot(self):
        """Txn.read/write must be the tiny leaf methods the STM barrier
        tax claim relies on."""
        program = get_benchmark("stmbench7").load()
        read = program.lookup_method("Txn", "read")
        write = program.lookup_method("Txn", "write")
        assert len(read.code) <= 12 and len(write.code) <= 14

    def test_recursive_workloads_recurse(self):
        for name, klass, method in [
            ("pmd", "Complexity", "visitBinary"),
            ("stmbench7", "Assembly", "totalWeight"),
            ("dotty", "UnionType", "subtypeOf"),
        ]:
            program = get_benchmark(name).load()
            target = program.lookup_method(klass, method)
            callees = {
                instr.args[1]
                for instr in target.code
                if instr.op in (Op.INVOKEVIRTUAL, Op.INVOKEINTERFACE)
            }
            assert callees, "%s.%s should make calls" % (klass, method)

    def test_iterations_configured_sanely(self):
        for spec in all_benchmarks():
            assert 8 <= spec.iterations <= 30, spec.name
