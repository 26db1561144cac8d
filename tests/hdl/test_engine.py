"""Engine registry and resolution: the documented fallback matrix.

Every ``backend=`` string in the codebase funnels through
:func:`repro.hdl.engine.resolve_backend`; these tests pin the dispatch
rules — auto picks compiled, probes and bridging overlays force the
interpreter, explicit names fall back rather than fail, unknown names
raise — and the live :data:`BACKENDS` view.
"""

from __future__ import annotations

import pytest

from repro.hdl.engine import (
    BACKENDS,
    Engine,
    EngineCapabilities,
    engine_capability,
    engine_names,
    get_engine,
    overlay_packable,
    register_engine,
    require_backend,
    resolve_backend,
)
from repro.hdl.netlist import Netlist
from repro.robustness.faults import (
    BridgingFault,
    FaultOverlay,
    SEUFault,
    StuckAtFault,
)


def _bridging_overlay():
    nl = Netlist("b")
    a = nl.input("a", 2)
    from repro.hdl.gates import Op

    y = nl.gate(Op.AND, a[0], a[1])
    nl.output("y", y)
    return FaultOverlay([BridgingFault(aggressor=a[0], victim=y)], nl)


class TestRegistry:
    def test_builtins_registered(self):
        assert engine_names() == ("interp", "compiled", "vector")

    def test_backends_view_is_auto_plus_names(self):
        assert tuple(BACKENDS) == ("auto", "interp", "compiled", "vector")
        assert "vector" in BACKENDS
        assert "nope" not in BACKENDS
        assert len(BACKENDS) == 4
        assert BACKENDS[0] == "auto"
        assert BACKENDS == ("auto", "interp", "compiled", "vector")

    def test_get_engine_unknown_name(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("turbo")

    def test_auto_is_not_an_engine_name(self):
        with pytest.raises(ValueError, match="resolver keyword"):
            register_engine(
                type("Bad", (Engine,), {"name": "auto"})  # type: ignore[arg-type]
            )
        with pytest.raises(ValueError):
            get_engine("auto")

    def test_require_backend(self):
        for name in BACKENDS:
            require_backend(name)
        with pytest.raises(ValueError, match="backend must be one of"):
            require_backend("turbo")

    def test_capability_records(self):
        interp = engine_capability("interp")
        compiled = engine_capability("compiled")
        vector = engine_capability("vector")
        assert interp.probes and interp.general_overlays
        assert not compiled.probes and not compiled.general_overlays
        assert compiled.patch_masks and compiled.seu_lanes
        assert vector.patch_masks and vector.seu_lanes and not vector.probes
        assert vector.sweep_lanes >= 1024 > compiled.sweep_lanes
        assert compiled.auto_priority > vector.auto_priority > interp.auto_priority


class TestResolution:
    def test_auto_prefers_compiled(self):
        assert resolve_backend("auto").name == "compiled"

    def test_auto_with_probe_falls_to_interp(self):
        assert resolve_backend("auto", probe=object()).name == "interp"

    def test_auto_with_stuck_overlay_stays_compiled(self):
        nl = Netlist("s")
        a = nl.input("a", 1)
        nl.output("y", a[0])
        overlay = FaultOverlay([StuckAtFault(wire=a[0], value=True)], nl)
        assert resolve_backend("auto", overlay=overlay).name == "compiled"

    def test_auto_with_bridging_overlay_falls_to_interp(self):
        assert resolve_backend("auto", overlay=_bridging_overlay()).name == "interp"

    def test_explicit_vector_resolves(self):
        assert resolve_backend("vector").name == "vector"

    def test_explicit_vector_with_probe_falls_back(self):
        assert resolve_backend("vector", probe=object()).name == "interp"

    def test_explicit_compiled_with_bridging_falls_back(self):
        assert (
            resolve_backend("compiled", overlay=_bridging_overlay()).name
            == "interp"
        )

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_backend("turbo")


class TestOverlayPackable:
    def test_none_and_stuck_and_plans_pack(self):
        from repro.hdl.compile import PackedFaultPlan

        nl = Netlist("s")
        a = nl.input("a", 1)
        nl.output("y", a[0])
        assert overlay_packable(None)
        assert overlay_packable(PackedFaultPlan(8))
        assert overlay_packable(
            FaultOverlay([StuckAtFault(wire=a[0], value=False)], nl)
        )
        assert overlay_packable(
            FaultOverlay([SEUFault(register=0, cycle=0)])
        )

    def test_bridging_does_not_pack(self):
        assert not overlay_packable(_bridging_overlay())


class TestShadowing:
    """Re-registering a name replaces the builtin (latest wins)."""

    def test_shadow_and_restore(self):
        original = get_engine("vector")

        @register_engine
        class Shadow(original):  # type: ignore[misc, valid-type]
            name = "vector"
            capabilities = EngineCapabilities(
                name="vector",
                sweep_lanes=128,
                probes=False,
                patch_masks=True,
                seu_lanes=True,
                general_overlays=False,
                auto_priority=50,
            )

        try:
            assert get_engine("vector") is Shadow
            assert engine_capability("vector").sweep_lanes == 128
        finally:
            register_engine(original)
        assert get_engine("vector") is original
