"""The unified simulation-engine protocol and registry.

Every simulation backend — the boolean interpreter, the compiled
bit-packed bigint kernels, the NumPy wide-lane vector kernels — is one
:class:`Engine` subclass registered here.  The simulators, the serving
layer, fault campaigns and the CLI all resolve a ``backend`` string
through :func:`resolve_backend` instead of keeping their own
``if backend == ...`` chains, so a new backend (a C kernel via cffi, a
multiprocess shard engine) drops in by defining one class.

Capabilities, not names
-----------------------
Dispatch is driven by :class:`EngineCapabilities`, a declarative record
of what an engine can host:

==================  ====================================================
field               meaning
==================  ====================================================
``sweep_lanes``     payload-lane quantum per sweep — the batch size the
                    serving micro-batcher coalesces to; vector
                    fault-parallel passes derive their widths from it
                    (compiled passes take their own lane budgets)
``probes``          can attach a :class:`~repro.obs.probes.SimProbe`
                    (requires a materialised wire-value table)
``patch_masks``     per-lane stuck-at masks — uniform stuck overlays and
                    :class:`~repro.hdl.compile.PackedFaultPlan` plans
``seu_lanes``       per-lane SEU state flips on sequential stepping
``general_overlays``  the full interpreter overlay protocol, including
                    bridging faults that read aggressor wires mid-sweep
``auto_priority``   rank under ``backend="auto"`` — highest accepted
                    priority wins
==================  ====================================================

Resolution rules (the fallback matrix):

* ``backend="auto"`` picks the highest-priority engine whose
  :meth:`Engine.accepts` admits the ``(probe, overlay)`` pair.  The
  built-in priorities keep the historical behaviour exactly: compiled
  whenever it can serve, interpreter otherwise.  The resolver never
  picks the vector engine, whose per-sweep NumPy dispatch only pays off
  on wide batches: callers name it (``backend="vector"``), as a fault
  campaign's ``auto`` does for SEU passes whose C build binds
  (:mod:`repro.robustness.campaign`).
* An explicit backend that cannot serve the request (a probe on a
  packed engine, a bridging overlay) falls back to the fully-general
  engine — the interpreter — rather than failing, mirroring the
  pre-protocol behaviour.
* Unknown names raise ``ValueError`` listing :data:`BACKENDS`.

Engines are stateless (classmethod-only): per-run state lives on the
simulator / batch-entry object handed to each hook, so one registry
entry serves every concurrent simulator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from importlib import import_module
from typing import Any, ClassVar, Iterator, Mapping, Sequence, overload

__all__ = [
    "BACKENDS",
    "Engine",
    "EngineCapabilities",
    "engine_capability",
    "engine_names",
    "get_engine",
    "overlay_packable",
    "register_engine",
    "require_backend",
    "resolve_backend",
]


@dataclass(frozen=True)
class EngineCapabilities:
    """Declarative capability record of one simulation backend."""

    name: str  #: registry key, the ``backend=`` string
    sweep_lanes: int  #: payload-lane quantum per sweep
    probes: bool  #: can host a SimProbe (wire-value table)
    patch_masks: bool  #: per-lane stuck-at masks (packed fault plans)
    seu_lanes: bool  #: per-lane SEU flips on sequential state
    general_overlays: bool  #: arbitrary overlay protocol (bridging...)
    auto_priority: int = 0  #: rank under ``backend="auto"`` (higher wins)


def overlay_packable(overlay: Any) -> bool:
    """Whether ``overlay`` compiles to per-lane ``(keep, force)`` masks.

    True for ``None``, for :class:`~repro.hdl.compile.PackedFaultPlan`
    and for overlays whose ``stuck_assignments()`` returns a mapping —
    exactly the requests the mask-patching engines can host.  Bridging
    overlays (``stuck_assignments()`` is ``None``) are not packable:
    they read aggressor wire values mid-sweep.
    """
    if overlay is None:
        return True
    from repro.hdl.compile import PackedFaultPlan

    if isinstance(overlay, PackedFaultPlan):
        return True
    getter = getattr(overlay, "stuck_assignments", None)
    return getter is not None and getter() is not None


class Engine(ABC):
    """One registered simulation backend.

    Hooks receive the stateful object (a
    :class:`~repro.hdl.simulator.CombinationalSimulator`,
    :class:`~repro.hdl.simulator.SequentialSimulator` or
    :class:`~repro.hdl.simulator.BatchEntry`) as their first argument;
    the engine class itself carries no per-run state.
    """

    name: ClassVar[str]
    capabilities: ClassVar[EngineCapabilities]

    @classmethod
    def accepts(cls, probe: Any = None, overlay: Any = None) -> bool:
        """Whether this engine can serve a ``(probe, overlay)`` request."""
        caps = cls.capabilities
        if probe is not None and not caps.probes:
            return False
        if overlay is None or caps.general_overlays:
            return True
        return caps.patch_masks and overlay_packable(overlay)

    # -- combinational sweep -------------------------------------------- #

    @classmethod
    @abstractmethod
    def comb_run(
        cls,
        sim: Any,
        seqs: Mapping[str, Any],
        batch: int,
        reg_state: Any,
        overlay: Any,
    ) -> Mapping[str, Any]:
        """One combinational sweep for :meth:`CombinationalSimulator.run`."""

    # -- prepared batch sweep (serving hot path) ------------------------ #

    @classmethod
    @abstractmethod
    def batch_run(
        cls, entry: Any, seqs: Mapping[str, Any], batch: int, materialize: bool
    ) -> Mapping[str, Any]:
        """One sweep through a prepared :class:`BatchEntry` leaf layout."""

    # -- sequential session --------------------------------------------- #

    @classmethod
    @abstractmethod
    def seq_reset(cls, sim: Any) -> None:
        """Load every register with its init value in native packing."""

    @classmethod
    @abstractmethod
    def seq_step(cls, sim: Any, inputs: Mapping[str, Any]) -> Mapping[str, Any]:
        """Advance one clock; returns that cycle's outputs."""

    @classmethod
    @abstractmethod
    def seq_unpack_state(cls, sim: Any) -> dict[int, Any]:
        """Native register state → register Q wire → boolean lane vector."""

    @classmethod
    def seq_run_stream(
        cls, sim: Any, input_stream: Sequence[Mapping[str, Any]], materialize: bool
    ) -> list[Mapping[str, Any]]:
        """Feed per-cycle inputs; engines override to amortise packing."""
        return [cls.seq_step(sim, inputs) for inputs in input_stream]


# --------------------------------------------------------------------- #
# the registry

_REGISTRY: dict[str, type[Engine]] = {}
_BUILTINS_LOADED = False


def register_engine(cls: type[Engine]) -> type[Engine]:
    """Class decorator: add an :class:`Engine` subclass to the registry.

    Registration order defines the display order in :data:`BACKENDS`;
    re-registering a name replaces the previous engine (latest wins), so
    a test can shadow a builtin and restore it.
    """
    name = cls.name
    if name == "auto":
        raise ValueError('"auto" is the resolver keyword, not an engine name')
    _REGISTRY[name] = cls
    return cls


def _ensure_builtins() -> None:
    """Import the built-in engine modules exactly once.

    The builtins live in :mod:`repro.hdl.simulator` (interp, compiled)
    and :mod:`repro.hdl.vector`; importing them here — lazily, on first
    registry use — keeps this module import-cycle free while letting
    ``import repro.hdl.engine`` alone resolve every builtin backend.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import_module("repro.hdl.simulator")
    import_module("repro.hdl.vector")


def engine_names() -> tuple[str, ...]:
    """Registered engine names, in registration order (no ``"auto"``)."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def get_engine(name: str) -> type[Engine]:
    """The registered engine class for ``name`` (not ``"auto"``)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; expected one of " + ", ".join(BACKENDS)
        ) from None


def engine_capability(name: str) -> EngineCapabilities:
    """The capability record behind one registered backend name."""
    return get_engine(name).capabilities


def require_backend(backend: str) -> None:
    """Validate a ``backend`` string (``"auto"`` or a registered name)."""
    _ensure_builtins()
    if backend != "auto" and backend not in _REGISTRY:
        raise ValueError(f"backend must be one of {tuple(BACKENDS)}")


def _general_fallback() -> type[Engine]:
    for cls in _REGISTRY.values():
        caps = cls.capabilities
        if caps.general_overlays and caps.probes:
            return cls
    raise ValueError("no fully-general engine registered")  # pragma: no cover


def resolve_backend(
    backend: str, *, probe: Any = None, overlay: Any = None
) -> type[Engine]:
    """Resolve a ``backend`` string to the engine serving this request.

    ``"auto"`` returns the highest-``auto_priority`` engine that
    :meth:`Engine.accepts` the ``(probe, overlay)`` pair.  An explicit
    name returns that engine when it accepts, else the fully-general
    fallback (the interpreter) — the documented fallback matrix.
    Unknown names raise ``ValueError``.
    """
    _ensure_builtins()
    if backend == "auto":
        ranked = sorted(
            _REGISTRY.values(), key=lambda e: -e.capabilities.auto_priority
        )
        for cls in ranked:
            if cls.accepts(probe=probe, overlay=overlay):
                return cls
        raise ValueError(
            "no registered engine accepts this request"
        )  # pragma: no cover - the interpreter accepts everything
    cls = get_engine(backend)
    if cls.accepts(probe=probe, overlay=overlay):
        return cls
    return _general_fallback()


class _BackendNames(Sequence[str]):
    """Lazy live view of ``("auto", *engine_names())``.

    Exposed as :data:`BACKENDS` (and re-exported by
    :mod:`repro.hdl.simulator` for compatibility): membership tests,
    iteration and formatting all see the registry as it is *now*, so a
    backend registered after import — including the lazily-loaded
    builtins — is never missing from validation or error messages.
    """

    def _names(self) -> tuple[str, ...]:
        return ("auto", *engine_names())

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())

    def __len__(self) -> int:
        return len(self._names())

    @overload
    def __getitem__(self, index: int) -> str: ...

    @overload
    def __getitem__(self, index: slice) -> Sequence[str]: ...

    def __getitem__(self, index: "int | slice") -> "str | Sequence[str]":
        return self._names()[index]

    def __contains__(self, item: object) -> bool:
        return item in self._names()

    def __repr__(self) -> str:
        return repr(self._names())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, tuple):
            return self._names() == other
        if isinstance(other, _BackendNames):
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._names())


#: Engine selectors accepted everywhere a ``backend``/``engine`` string
#: is taken: ``("auto", "interp", "compiled", "vector")`` with the
#: builtin registrations.
BACKENDS = _BackendNames()
