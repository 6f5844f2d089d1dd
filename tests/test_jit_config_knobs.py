"""The table of environment pins in ``repro.jit.config``.

Each row's hard/soft/default rules are exercised through
:func:`resolve`; the per-feature env-pin tests (deopt, typespec, osr,
pycodegen, serve, interp) check the same rules through the engine.
"""

import pytest

from repro.jit.config import KNOBS, JitConfig, resolve

FIELDS = sorted(KNOBS)


def test_table_lists_every_pin():
    assert {knob.env for knob in KNOBS.values()} == {
        "REPRO_INTERP", "REPRO_SPECULATE", "REPRO_TYPESPEC",
        "REPRO_OSR", "REPRO_BACKEND", "REPRO_COMPILE",
    }
    for field in FIELDS:
        assert hasattr(JitConfig(), field)
        assert getattr(JitConfig(), field) is None


@pytest.mark.parametrize("field", FIELDS)
def test_unset_env_gives_default_or_explicit(monkeypatch, field):
    knob = KNOBS[field]
    monkeypatch.delenv(knob.env, raising=False)
    assert resolve(field) == knob.default
    assert resolve(field, knob.alternative) == knob.alternative
    assert resolve(field, knob.default) == knob.default


@pytest.mark.parametrize("field", FIELDS)
def test_soft_value_applies_only_to_unset_field(monkeypatch, field):
    knob = KNOBS[field]
    for soft in knob.soft:
        monkeypatch.setenv(knob.env, soft.upper())
        assert resolve(field) == knob.alternative
        assert resolve(field, knob.default) == knob.default


@pytest.mark.parametrize(
    "field", [f for f in FIELDS if KNOBS[f].hard is not None]
)
def test_hard_value_beats_explicit_config(monkeypatch, field):
    knob = KNOBS[field]
    monkeypatch.setenv(knob.env, " %s " % knob.hard)
    assert resolve(field) == knob.default
    assert resolve(field, knob.alternative) == knob.default


@pytest.mark.parametrize(
    "field", [f for f in FIELDS if KNOBS[f].needs_compile]
)
def test_pure_interpreter_pins_default(monkeypatch, field):
    knob = KNOBS[field]
    monkeypatch.setenv(knob.env, knob.soft[0])
    config = JitConfig(compile_enabled=False)
    setattr(config, field, knob.alternative)
    assert config.resolved(field) == knob.default
