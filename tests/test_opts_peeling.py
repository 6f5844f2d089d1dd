"""Loop peeling tests: trigger condition, shape restrictions, semantics."""

from repro.bytecode import MethodBuilder
from repro.bytecode.method import Method
from repro.ir import build_graph, check_graph
from repro.ir import stamps as stm
from repro.opts import peel_loops
from repro.opts.peeling import _canonical_shape, _should_peel
from repro.ir.dominators import compute_loops
from tests.execution import compare_tiers, execute_graph
from tests.helpers import fresh_program, single_method_program


def _poly_loop_program():
    """A loop whose receiver phi starts exact and widens inside the
    loop — the paper's peeling trigger."""
    program = fresh_program()
    iface = program.define_class("Step", is_interface=True)
    iface.add_method(Method("next", [], "Step", is_abstract=True))
    iface.add_method(Method("value", [], "int", is_abstract=True))

    a = program.define_class("A", interfaces=["Step"])
    b = MethodBuilder("next", [], "Step")
    b.new("B").retv()
    a.add_method(b.build())
    b = MethodBuilder("value", [], "int")
    b.const(1).retv()
    a.add_method(b.build())

    bee = program.define_class("B", interfaces=["Step"])
    b = MethodBuilder("next", [], "Step")
    b.load(0).retv()
    bee.add_method(b.build())
    b = MethodBuilder("value", [], "int")
    b.const(2).retv()
    bee.add_method(b.build())

    holder = program.define_class("H", is_abstract=True)
    b = MethodBuilder("f", ["int"], "int", is_static=True)
    loop = b.new_label()
    done = b.new_label()
    cur = b.alloc_local()
    acc = b.alloc_local()
    i = b.alloc_local()
    b.new("A").store(cur)
    b.const(0).store(acc).const(0).store(i)
    b.place(loop).load(i).load(0).ge().if_true(done)
    b.load(acc).load(cur).invokeinterface("Step", "value").add().store(acc)
    b.load(cur).invokeinterface("Step", "next").store(cur)
    b.load(i).const(1).add().store(i)
    b.goto(loop)
    b.place(done).load(acc).retv()
    holder.add_method(b.build())
    return program


def _header_def_program():
    """The poly loop with a value computed in the header (``t = 3*i``)
    and read in the body, so the peeled body copy must see the peeled
    header's definition."""
    program = _poly_loop_program()
    holder = program.klass("H")
    b = MethodBuilder("g", ["int"], "int", is_static=True)
    loop = b.new_label()
    done = b.new_label()
    cur = b.alloc_local()
    acc = b.alloc_local()
    i = b.alloc_local()
    t = b.alloc_local()
    b.new("A").store(cur)
    b.const(0).store(acc).const(0).store(i).const(0).store(t)
    b.place(loop).load(i).const(3).mul().store(t)
    b.load(i).load(0).ge().if_true(done)
    b.load(acc).load(cur).invokeinterface("Step", "value").add()
    b.load(t).add().store(acc)
    b.load(cur).invokeinterface("Step", "next").store(cur)
    b.load(i).const(1).add().store(i)
    b.goto(loop)
    b.place(done).load(acc).retv()
    holder.add_method(b.build())
    return program


class TestTrigger:
    def test_ref_phi_with_precise_entry_triggers(self):
        program = _poly_loop_program()
        graph = build_graph(program.lookup_method("H", "f"), program)
        loops = compute_loops(graph)
        assert len(loops) == 1
        assert _should_peel(loops[0], program)

    def test_int_constant_entry_does_not_trigger(self):
        def build(b):
            loop = b.new_label()
            done = b.new_label()
            acc = b.alloc_local()
            b.const(0).store(acc)
            b.place(loop).load(0).const(0).le().if_true(done)
            b.load(acc).load(0).add().store(acc)
            b.load(0).const(1).sub().store(0)
            b.goto(loop)
            b.place(done).load(acc).retv()

        program = single_method_program(build)
        graph = build_graph(program.lookup_method("T", "f"), program)
        loops = compute_loops(graph)
        assert not _should_peel(loops[0], program)

    def test_canonical_shape_accepts_simple_loop(self):
        program = _poly_loop_program()
        graph = build_graph(program.lookup_method("H", "f"), program)
        (loop,) = compute_loops(graph)
        assert _canonical_shape(loop)


class TestPeelTransform:
    def test_peel_preserves_semantics(self):
        program = _poly_loop_program()
        method = program.lookup_method("H", "f")
        for count in [0, 1, 3, 10]:
            graph = build_graph(method, program)
            peeled = peel_loops(graph, program)
            assert peeled >= 1
            check_graph(graph, program)
            compare_tiers(program, "H", "f", [count], graph=graph)

    def test_peeled_copy_specializes(self):
        """After peeling + canonicalization the first-iteration calls
        devirtualize to A's methods."""
        from repro.opts import canonicalize

        program = _poly_loop_program()
        graph = build_graph(program.lookup_method("H", "f"), program)
        canonicalize(graph, program)
        before_direct = sum(1 for i in graph.invokes() if i.kind == "direct")
        peel_loops(graph, program)
        canonicalize(graph, program)
        check_graph(graph, program)
        after_direct = sum(1 for i in graph.invokes() if i.kind == "direct")
        assert after_direct > before_direct

    def test_copy_follows_dominance_not_block_ids(self):
        # After inlining, block ids need not follow dominance; reverse
        # them so the loop body's id sorts before its header's. The
        # header def read by the body must still be copied first.
        program = _header_def_program()
        for count in [0, 1, 3]:
            graph = build_graph(program.lookup_method("H", "g"), program)
            for block in graph.blocks:
                block.id = len(graph.blocks) - 1 - block.id
            check_graph(graph, program)
            assert peel_loops(graph, program) >= 1
            check_graph(graph, program)
            compare_tiers(program, "H", "g", [count], graph=graph)

    def test_peeling_bounded(self):
        program = _poly_loop_program()
        graph = build_graph(program.lookup_method("H", "f"), program)
        assert peel_loops(graph, program, max_peels=2) <= 2
        check_graph(graph, program)
