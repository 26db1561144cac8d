"""Native C build of the straight-line gate kernel for wide vector sweeps.

The vector engine (:mod:`repro.hdl.vector`) runs the exec-compiled
kernel over NumPy ``uint64`` word arrays, paying one ufunc dispatch per
gate per sweep — about 0.5 µs each whatever the width, which makes the
kernel the largest stage of a population campaign.  This module
translates a *plain* (unpatched) :func:`~repro.hdl.compile.compile_netlist`
kernel line by line into C with the same semantics:

.. code-block:: c

    void repro_kernel(size_t words, const uint64_t *restrict L,
                      const uint64_t *restrict ones, uint64_t *restrict O)
    {
        for (size_t k = 0; k < words; ++k) {
            const uint64_t N = ones[k];
            const uint64_t v12 = L[0 * words + k];
            const uint64_t v13 = v12 & v7;
            const uint64_t v14 = (v13 ^ v9) ^ N;
            ...
            O[0 * words + k] = v97;
        }
    }

* one ``uint64_t`` local per live wire and one loop over the words;
* ``L`` is the ``(leaves × words)`` matrix of leaf words and ``O`` the
  ``(returns × words)`` matrix of returned words, both row-major, lane
  ``i`` at bit ``i % 64`` of word ``i // 64`` as everywhere else;
* ``N`` is word ``k`` of the engine's tail-masked all-ones constant, so
  inversion clears the bits past the last lane exactly as the NumPy
  kernel does and the output words match it bit for bit, tail included.

Builds and the on-disk cache
----------------------------
The C is compiled once with the ``cc`` found on ``PATH``
(:func:`find_compiler`) into a shared library under
``$XDG_CACHE_HOME/repro/native`` (``~/.cache/repro/native`` when unset),
a directory that must be owned by the user and closed to group and
others.  The file name is the SHA-256 of the C source, the compiler's
identity (its resolved path, size and modification time) and the flags
(:data:`CFLAGS`, never ``-march=native``: a cached library may outlive
the host CPU it was built on).  A build compiles to a file name unique
to the process, loads it, and publishes it by atomic rename, so a
concurrent builder or reader only ever sees a complete library.

The library is called through stdlib :mod:`ctypes`, which releases the
GIL for the call.  With no compiler, a failed build or an unusable
cache directory, :func:`native_kernel` returns ``None`` and the caller
runs the NumPy kernel; the outcome is counted in
``repro_native_kernel_total`` and logged once per process.

Quarantine
----------
:func:`~repro.hdl.compile.evict_kernel` calls :func:`evict_native`,
which drops the binding and unlinks the published library.  The next
sweep rebuilds and loads the new library under a fresh file name:
``dlopen`` returns the object already mapped for a path the process
has opened, so loading a rebuilt file under an old name would run the
evicted code.  A worker process of ``serve --workers W`` dies with its
binding; the parent unlinks the library the worker loaded
(:func:`library_path`), so the respawned worker builds afresh instead of
loading the same file from the cache.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import logging
import os
import platform
import re
import shutil
import subprocess
import threading
from typing import Callable

import numpy as np

from repro.hdl.compile import CompiledKernel
from repro.obs import metrics as _metrics

__all__ = [
    "CFLAGS",
    "NativeKernel",
    "c_source",
    "clear_native_cache",
    "evict_native",
    "find_compiler",
    "library_path",
    "native_cache_dir",
    "native_binding",
    "native_cache_info",
    "native_kernel",
]

#: Compiler flags; part of the cache key.
CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")

#: Longest a single build may take before it counts as failed.
BUILD_TIMEOUT_S = 300.0

_SYMBOL = "repro_kernel"

_LOG = logging.getLogger(__name__)

_EVENTS = _metrics.REGISTRY.counter(
    "repro_native_kernel_total",
    "native gate-kernel bindings by outcome (built, loaded, no_compiler, "
    "build_failed); the last two run the NumPy kernel",
    ("result",),
)

# The only shapes of line a plain kernel holds (see compile._generate).
_ASSIGN = re.compile(r"    v(\d+) = ([vLZN0-9\[\]&|^() ]+)")
_RETURN = re.compile(r"    return \(([v0-9, ]*)\)")
_LEAF = re.compile(r"L\[(\d+)\]")


def c_source(kern: CompiledKernel) -> str:
    """The C translation of one plain kernel (see the module docstring)."""
    if kern.patchable:
        raise ValueError("only a plain kernel has a native form")
    lines = kern.source.splitlines()
    body = []
    for line in lines[1:-1]:
        m = _ASSIGN.fullmatch(line)
        if m is None:
            raise ValueError(f"kernel line has no native form: {line!r}")
        expr = _LEAF.sub(r"L[\1 * words + k]", m.group(2)).replace("Z", "0")
        body.append(f"        const uint64_t v{m.group(1)} = {expr};")
    ret = _RETURN.fullmatch(lines[-1])
    if ret is None:
        raise ValueError(f"kernel line has no native form: {lines[-1]!r}")
    names = [r.strip() for r in ret.group(1).split(",") if r.strip()]
    body += [f"        O[{j} * words + k] = {v};" for j, v in enumerate(names)]
    return "\n".join(
        [
            f"/* kernel {kern.fingerprint} */",
            "#include <stddef.h>",
            "#include <stdint.h>",
            "",
            f"void {_SYMBOL}(size_t words, const uint64_t *restrict L,",
            "                  const uint64_t *restrict ones,"
            " uint64_t *restrict O)",
            "{",
            "    for (size_t k = 0; k < words; ++k) {",
            "        const uint64_t N = ones[k];",
            *body,
            "    }",
            "}",
            "",
        ]
    )


class NativeKernel:
    """A loaded native kernel: ``(leaves × words)`` in, ``(returns × words)`` out."""

    __slots__ = (
        "fingerprint",
        "path",
        "loaded_from",
        "n_leaves",
        "n_returns",
        "_lib",
        "_fn",
    )

    def __init__(self, kern: CompiledKernel, path: str, loaded_from: str) -> None:
        lib = ctypes.CDLL(loaded_from)
        fn = getattr(lib, _SYMBOL)
        fn.argtypes = [
            ctypes.c_size_t,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
        ]
        fn.restype = None
        self.fingerprint = kern.fingerprint
        #: The published library (the file :func:`evict_native` unlinks).
        self.path = path
        #: The name this process mapped it under: ``path`` for a cached
        #: library, the build's own file name for a fresh build.
        self.loaded_from = loaded_from
        self.n_leaves = len(kern.leaves)
        self.n_returns = len(kern.returns)
        self._lib = lib  # the mapping lives as long as this binding
        self._fn = fn

    def __call__(self, leaves: np.ndarray, ones: np.ndarray) -> np.ndarray:
        """One sweep: ``leaves[i]`` holds leaf ``i``'s words, ``ones`` is
        the tail-masked all-ones constant; row ``j`` of the result holds
        the kernel's ``j``-th returned wire."""
        out = np.empty((self.n_returns, ones.shape[0]), dtype=np.uint64)
        self.sweeper(leaves, ones, out)()
        return out

    def sweeper(
        self, leaves: np.ndarray, ones: np.ndarray, out: np.ndarray
    ) -> Callable[[], None]:
        """A call that sweeps ``leaves`` into ``out`` each time it runs.

        The matrices are checked and their addresses taken once, so a
        clocked pass, which rewrites one leaf matrix in place between
        sweeps, pays only the foreign call per clock.  The caller keeps
        the three arrays alive, at their addresses, while it uses the
        call.
        """
        words = ones.shape[0]
        for name, arr, rows in (
            ("leaf", leaves, self.n_leaves),
            ("result", out, self.n_returns),
        ):
            if (
                arr.dtype != np.uint64
                or arr.shape != (rows, words)
                or not arr.flags.c_contiguous
            ):
                raise ValueError(
                    f"native kernel takes C-contiguous uint64 ({rows}, {words}) "
                    f"{name} matrices, got {arr.dtype} {arr.shape}"
                )
        if ones.dtype != np.uint64 or ones.ndim != 1 or not ones.flags.c_contiguous:
            raise ValueError(
                f"native kernel takes a C-contiguous uint64 ({words},) ones, "
                f"got {ones.dtype} {ones.shape}"
            )
        return functools.partial(
            self._fn, words, leaves.ctypes.data, ones.ctypes.data, out.ctypes.data
        )


# --------------------------------------------------------------------- #
# discovery, cache key and build


def find_compiler() -> str | None:
    """The C compiler a build uses: ``cc`` on ``PATH``, or ``None``."""
    return shutil.which("cc")


def native_cache_dir() -> str:
    """The user-private library cache, created on first use.

    Raises :class:`PermissionError` when the directory is not owned by
    this user or is open to group or others: a library loaded from it
    runs as this process.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro", "native")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & 0o077:
        raise PermissionError(f"{path} is not private to this user")
    return path


def _cache_key(source: str, cc: str) -> str:
    real = os.path.realpath(cc)
    st = os.stat(real)
    ident = f"{real}\0{st.st_size}\0{st.st_mtime_ns}\0{platform.machine()}"
    h = hashlib.sha256()
    for part in (source, ident, " ".join(CFLAGS)):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:40]


class _BuildError(Exception):
    pass


_SERIAL = itertools.count()


def library_path(kern: CompiledKernel, cc: str) -> str:
    """Where the library of a plain kernel built by ``cc`` is published.

    The one cache-path rule: a binding loads from and publishes to this
    path, and the process executor's quarantine unlinks it for a
    convicted worker.  Raises :class:`OSError` when the compiler or the
    cache directory is unusable.
    """
    key = _cache_key(c_source(kern), cc)
    return os.path.join(native_cache_dir(), f"{key}.so")


def _build(cc: str, source: str, path: str) -> str:
    """Compile ``source`` to a file name no process has used; its path."""
    out = f"{os.path.splitext(path)[0]}.{os.getpid()}.{next(_SERIAL)}.tmp.so"
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-x", "c", "-o", out, "-"],
            input=source,
            capture_output=True,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        _unlink(out)
        raise _BuildError(f"{cc}: {exc}") from exc
    if proc.returncode != 0:
        _unlink(out)
        tail = proc.stderr.strip().splitlines()[-1:] or ["no diagnostics"]
        raise _BuildError(f"{cc} exited {proc.returncode}: {tail[0]}")
    return out


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


# --------------------------------------------------------------------- #
# the process-wide bindings

_LOCK = threading.Lock()
#: fingerprint → binding, or ``None`` once a build fell back
_BOUND: dict[str, NativeKernel | None] = {}
#: every library path this process has dlopened (see "Quarantine")
_MAPPED: set[str] = set()
_STATS = {"built": 0, "loaded": 0, "fallbacks": 0}
_WARNED = False


def _reset_lock_after_fork() -> None:
    global _LOCK
    _LOCK = threading.Lock()  # a build in another thread does not fork


os.register_at_fork(after_in_child=_reset_lock_after_fork)


def _record(result: str) -> None:
    if _metrics.REGISTRY.enabled:
        _EVENTS.inc(result=result)


def _fallback(result: str, reason: str) -> None:
    global _WARNED
    _STATS["fallbacks"] += 1
    _record(result)
    if not _WARNED:
        _WARNED = True
        _LOG.warning(
            "native gate kernel unavailable (%s); the vector engine runs "
            "its NumPy kernel",
            reason,
        )


def _bind(kern: CompiledKernel) -> NativeKernel | None:
    cc = find_compiler()
    if cc is None:
        _fallback("no_compiler", "no cc on PATH")
        return None
    try:
        path = library_path(kern, cc)
    except OSError as exc:
        _fallback("build_failed", f"cannot prepare the build: {exc}")
        return None
    if path not in _MAPPED and os.path.exists(path):
        try:
            binding = NativeKernel(kern, path, path)
        except (OSError, AttributeError):
            pass  # evicted meanwhile or unreadable: build afresh
        else:
            _MAPPED.add(path)
            _STATS["loaded"] += 1
            _record("loaded")
            return binding
    try:
        fresh = _build(cc, c_source(kern), path)
    except _BuildError as exc:
        _fallback("build_failed", str(exc))
        return None
    try:
        binding = NativeKernel(kern, path, fresh)
        _MAPPED.add(fresh)
        os.replace(fresh, path)
    except (OSError, AttributeError) as exc:
        _unlink(fresh)
        _fallback("build_failed", f"load failed: {exc}")
        return None
    _STATS["built"] += 1
    _record("built")
    return binding


def native_kernel(kern: CompiledKernel) -> NativeKernel | None:
    """The native build of a plain kernel, or ``None`` to run NumPy.

    Bindings are memoised per kernel fingerprint for the life of the
    process, and so is a fallback: a build costs 0.05–1.3 s, so a kernel
    that could not be built is not retried on every sweep.
    """
    try:
        return _BOUND[kern.fingerprint]
    except KeyError:
        pass
    with _LOCK:
        if kern.fingerprint not in _BOUND:
            _BOUND[kern.fingerprint] = _bind(kern)
        return _BOUND[kern.fingerprint]


def native_binding(kern: CompiledKernel) -> NativeKernel | None:
    """The binding :func:`native_kernel` made for ``kern`` in this
    process, or ``None``; never builds or loads a library.

    How a sweep that cannot repay a build finds one made for it: a
    campaign plan binds the kernel its clocked passes sweep, and each
    clock of those passes only looks the binding up.
    """
    return _BOUND.get(kern.fingerprint)


def evict_native(fingerprint: str) -> int:
    """Quarantine: drop one kernel's binding and unlink its library.

    Returns 1 when a binding was dropped, else 0.  The mapping itself
    stays (a library cannot safely be unloaded while another thread may
    still be inside it); the next sweep rebuilds under a fresh name.
    """
    with _LOCK:
        binding = _BOUND.pop(fingerprint, None)
    if binding is None:
        return 0
    _unlink(binding.path)
    return 1


def native_cache_info() -> dict[str, int]:
    """``{"size", "built", "loaded", "fallbacks"}`` for this process:
    live bindings, libraries compiled, libraries loaded from the disk
    cache and kernels left on NumPy."""
    live = sum(1 for b in _BOUND.values() if b is not None)
    return {"size": live, **_STATS}


def clear_native_cache() -> None:
    """Forget every binding and fallback (the disk cache stays) and zero
    the counters; the next fallback is logged again."""
    global _WARNED
    with _LOCK:
        _BOUND.clear()
        for k in _STATS:
            _STATS[k] = 0
        _WARNED = False
