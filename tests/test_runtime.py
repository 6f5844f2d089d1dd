"""Tests for VM state, values and intrinsics."""

import pytest

from repro.bytecode.klass import FieldDef
from repro.errors import TrapError
from repro.runtime import VMState, install_builtins
from repro.runtime.intrinsics import intrinsic_function
from repro.runtime.values import ArrayRef, ObjRef, default_value, dynamic_type_name
from tests.helpers import fresh_program


class TestValues:
    def test_object_allocation_defaults(self):
        program = fresh_program()
        klass = program.define_class("P")
        klass.add_field(FieldDef("x", "int"))
        klass.add_field(FieldDef("next", "P"))
        vm = VMState(program)
        obj = vm.allocate("P")
        assert obj.fields == {"x": 0, "next": None}
        assert vm.allocation_count == 1

    def test_inherited_fields_initialized(self):
        program = fresh_program()
        base = program.define_class("B")
        base.add_field(FieldDef("a", "int"))
        sub = program.define_class("S", superclass="B")
        sub.add_field(FieldDef("b", "int"))
        vm = VMState(program)
        assert set(vm.allocate("S").fields) == {"a", "b"}

    def test_redeclared_field_most_derived_wins(self):
        # Assembler-built programs can shadow a field (minij rejects
        # it): the object gets the most-derived declaration's default,
        # the one lookup_field resolves.
        program = fresh_program()
        base = program.define_class("A")
        base.add_field(FieldDef("x", "A"))
        sub = program.define_class("B", superclass="A")
        sub.add_field(FieldDef("x", "int"))
        vm = VMState(program)
        assert vm.allocate("B").fields == {"x": 0}
        assert vm.allocate("A").fields == {"x": None}

    def test_allocations_do_not_share_fields(self):
        program = fresh_program()
        program.define_class("P").add_field(FieldDef("x", "int"))
        vm = VMState(program)
        first = vm.allocate("P")
        first.fields["x"] = 7
        assert vm.allocate("P").fields == {"x": 0}

    def test_array_defaults(self):
        vm = VMState(fresh_program())
        ints = vm.allocate_array("int", 3)
        refs = vm.allocate_array("Object", 2)
        assert ints.data == [0, 0, 0]
        assert refs.data == [None, None]
        assert ints.type_name == "int[]"
        assert len(refs) == 2

    def test_dynamic_type_names(self):
        assert dynamic_type_name(None) is None
        assert dynamic_type_name(5) == "int"
        assert dynamic_type_name(ObjRef("A", {})) == "A"
        assert dynamic_type_name(ArrayRef("int", 1)) == "int[]"

    def test_default_value(self):
        assert default_value("int") == 0
        assert default_value("Foo") is None


class TestStatics:
    def test_static_roundtrip(self):
        program = fresh_program()
        klass = program.define_class("G")
        klass.add_field(FieldDef("counter", "int", is_static=True))
        vm = VMState(program)
        assert vm.get_static("G", "counter") == 0
        vm.put_static("G", "counter", 41)
        assert vm.get_static("G", "counter") == 41

    def test_static_resolved_through_subclass(self):
        program = fresh_program()
        base = program.define_class("Base")
        base.add_field(FieldDef("shared", "int", is_static=True))
        program.define_class("Sub", superclass="Base")
        vm = VMState(program)
        vm.put_static("Sub", "shared", 5)
        assert vm.get_static("Base", "shared") == 5

    def test_resolution_follows_class_loading(self):
        program = fresh_program()
        base = program.define_class("Base")
        base.add_field(FieldDef("shared", "int", is_static=True))
        base.add_field(FieldDef("a", "int"))
        vm = VMState(program)
        vm.put_static("Base", "shared", 5)
        assert vm.allocate("Base").fields == {"a": 0}
        late = program.define_class("Late", superclass="Base")
        late.add_field(FieldDef("b", "int"))
        vm.put_static("Late", "shared", vm.get_static("Late", "shared") + 1)
        assert vm.get_static("Base", "shared") == 6
        assert vm.allocate("Late").fields == {"b": 0, "a": 0}

    def test_fresh_vm_rezeroes_statics(self):
        program = fresh_program()
        klass = program.define_class("G")
        klass.add_field(FieldDef("c", "int", is_static=True))
        vm1 = VMState(program)
        vm1.put_static("G", "c", 99)
        assert VMState(program).get_static("G", "c") == 0


class TestRandomAndOutput:
    def test_deterministic_per_seed(self):
        program = fresh_program()
        a = VMState(program, seed=1)
        b = VMState(program, seed=1)
        c = VMState(program, seed=2)
        seq_a = [a.next_random() % 1000 for _ in range(5)]
        seq_b = [b.next_random() % 1000 for _ in range(5)]
        seq_c = [c.next_random() % 1000 for _ in range(5)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_reseed_replays(self):
        vm = VMState(fresh_program(), seed=3)
        first = vm.next_random()
        vm.reseed(3)
        assert vm.next_random() == first

    def test_output_checksum_order_sensitive(self):
        vm1 = VMState(fresh_program())
        vm2 = VMState(fresh_program())
        vm1.output.extend([1, 2])
        vm2.output.extend([2, 1])
        assert vm1.output_checksum() != vm2.output_checksum()


class TestIntrinsics:
    def test_install_is_idempotent(self):
        program = fresh_program()
        first = program.klass("Builtins")
        assert install_builtins(program) is first

    def test_print_appends_output(self):
        vm = VMState(fresh_program())
        intrinsic_function("print")(vm, 42)
        assert vm.output == [42]

    def test_abs_min_max(self):
        vm = VMState(fresh_program())
        assert intrinsic_function("abs")(vm, -4) == 4
        assert intrinsic_function("imin")(vm, 2, 9) == 2
        assert intrinsic_function("imax")(vm, 2, 9) == 9

    def test_rand_bound(self):
        vm = VMState(fresh_program())
        for _ in range(50):
            assert 0 <= intrinsic_function("rand")(vm, 7) < 7
        with pytest.raises(TrapError):
            intrinsic_function("rand")(vm, 0)

    def test_ticks_monotone(self):
        vm = VMState(fresh_program())
        ticks = intrinsic_function("ticks")
        assert ticks(vm) < ticks(vm)
