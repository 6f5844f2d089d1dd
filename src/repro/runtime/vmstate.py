"""Mutable VM state: statics, output, allocation accounting, PRNG."""

from repro.runtime.values import ArrayRef, ObjRef, default_value
from repro.errors import LinkError

#: LCG constants (numerical recipes), masked to 63 bits.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK = (1 << 63) - 1


class VMState:
    """Everything mutable about one running VM instance.

    A fresh :class:`VMState` models the paper's "separate JVM instance":
    statics are re-zeroed, the PRNG is reseeded, profiles start empty.

    Attributes:
        program: the loaded :class:`~repro.bytecode.program.Program`.
        output: list of integers produced by the ``print`` intrinsic
            (the benchmark harness checksums it to validate runs).
        allocation_count: number of objects and arrays allocated.
        tick_counter: virtual clock backing the ``ticks`` intrinsic.
    """

    def __init__(self, program, seed=0x5EED):
        self.program = program
        self.output = []
        self.allocation_count = 0
        self.tick_counter = 0
        self._statics = {}
        self._rng_state = (seed ^ 0x9E3779B97F4A7C15) & _MASK
        self._init_statics()
        # Resolutions, made once per VM and dropped when the class set
        # changes: (class, field) → statics key of the declaring class,
        # and class → default instance fields (copied per allocation).
        self._slots = {}
        self._layouts = {}
        self._generation = program.generation

    def _init_statics(self):
        for klass in self.program.classes.values():
            for field in klass.fields.values():
                if field.is_static:
                    self._statics[(klass.name, field.name)] = default_value(
                        field.type
                    )

    # ------------------------------------------------------------------
    # Statics
    # ------------------------------------------------------------------

    def get_static(self, class_name, field_name):
        slot = self._slots.get((class_name, field_name))
        if slot is None or self._generation != self.program.generation:
            slot = self._static_slot(class_name, field_name)
        try:
            return self._statics[slot]
        except KeyError:
            raise LinkError(
                "static field %s.%s not initialized" % (class_name, field_name)
            )

    def put_static(self, class_name, field_name, value):
        slot = self._slots.get((class_name, field_name))
        if slot is None or self._generation != self.program.generation:
            slot = self._static_slot(class_name, field_name)
        self._statics[slot] = value

    def _static_slot(self, class_name, field_name):
        self._refresh()
        declaring, _ = self.program.lookup_field(class_name, field_name)
        slot = (declaring.name, field_name)
        self._slots[class_name, field_name] = slot
        return slot

    def _refresh(self):
        """Drop the resolutions made before the class set last changed."""
        if self._generation != self.program.generation:
            self._slots.clear()
            self._layouts.clear()
            self._generation = self.program.generation

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, class_name):
        """Allocate an object with default-initialized fields."""
        layout = self._layouts.get(class_name)
        if layout is None or self._generation != self.program.generation:
            layout = self._layout(class_name)
        self.allocation_count += 1
        return ObjRef(class_name, layout.copy())

    def _layout(self, class_name):
        """Default value of every instance field of *class_name*; the
        most-derived declaration of a name wins, as in ``lookup_field``."""
        self._refresh()
        layout = {}
        for klass in self.program.superclass_chain(class_name):
            for field in klass.fields.values():
                if not field.is_static and field.name not in layout:
                    layout[field.name] = default_value(field.type)
        self._layouts[class_name] = layout
        return layout

    def allocate_array(self, elem_type, length):
        self.allocation_count += 1
        return ArrayRef(elem_type, length)

    # ------------------------------------------------------------------
    # Deterministic randomness
    # ------------------------------------------------------------------

    def next_random(self):
        self._rng_state = (self._rng_state * _LCG_A + _LCG_C) & _MASK
        return self._rng_state >> 16

    def reseed(self, seed):
        self._rng_state = (seed ^ 0x9E3779B97F4A7C15) & _MASK

    # ------------------------------------------------------------------
    # Output validation
    # ------------------------------------------------------------------

    def output_checksum(self):
        """Order-sensitive checksum of everything printed so far."""
        acc = 0
        for value in self.output:
            acc = (acc * 31 + (value & _MASK)) & _MASK
        return acc
