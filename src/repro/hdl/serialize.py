"""Netlist (de)serialisation to a stable JSON document.

Lets a synthesised circuit be saved, diffed, shipped to another tool, or
golden-filed in tests without re-running the generator.  The format is a
plain dict: gate table (op + fanins), register list, and named port maps —
loadable with :func:`netlist_from_dict` into a bit-identical netlist
(asserted structurally and behaviourally in the tests).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.hdl.gates import Op
from repro.hdl.netlist import Bus, Netlist, Register

__all__ = [
    "netlist_to_dict",
    "netlist_from_dict",
    "save_netlist",
    "load_netlist",
    "netlist_fingerprint",
]

FORMAT_VERSION = 1


def netlist_to_dict(nl: Netlist) -> dict[str, Any]:
    """A JSON-ready description of the netlist."""
    nl.check()
    return {
        "format": "repro-netlist",
        "version": FORMAT_VERSION,
        "name": nl.name,
        "gates": [
            # `is not None`, not truthiness: the empty string is a legal
            # (if odd) gate name and must survive the round trip
            {"op": g.op.value, "fanin": list(g.fanin),
             **({"name": g.name} if g.name is not None else {})}
            for g in nl.gates
        ],
        "registers": [
            {"q": r.q, "d": r.d, "init": bool(r.init)} for r in nl.registers
        ],
        "inputs": {name: list(bus) for name, bus in nl.inputs.items()},
        "outputs": {name: list(bus) for name, bus in nl.outputs.items()},
    }


def netlist_from_dict(doc: dict[str, Any]) -> Netlist:
    """Rebuild a netlist from :func:`netlist_to_dict` output.

    Reconstruction bypasses folding/CSE (the stored structure is already
    the final one) by appending gates directly, then re-validates.
    """
    if doc.get("format") != "repro-netlist":
        raise ValueError("not a repro netlist document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {doc.get('version')!r}")
    nl = Netlist(name=doc.get("name", "top"))
    for entry in doc["gates"]:
        op = Op(entry["op"])
        nl._new_wire(op, tuple(entry["fanin"]), entry.get("name"))
    # restore shared-constant and structural-hashing bookkeeping so a
    # reloaded netlist folds and dedupes further edits exactly like the
    # original builder would
    for w, g in enumerate(nl.gates):
        if g.op is Op.CONST0:
            if nl._const0 is None:
                nl._const0 = w
        elif g.op is Op.CONST1:
            if nl._const1 is None:
                nl._const1 = w
        elif g.op not in (Op.INPUT, Op.REG):
            nl._cse.setdefault(Netlist._cse_key(g.op, g.fanin), w)
    for entry in doc["registers"]:
        nl.registers.append(Register(q=entry["q"], d=entry["d"], init=bool(entry["init"])))
    for name, wires in doc["inputs"].items():
        nl.inputs[name] = Bus(wires)
    for name, wires in doc["outputs"].items():
        nl.outputs[name] = Bus(wires)
    nl.check()
    return nl


def netlist_fingerprint(nl: Netlist) -> str:
    """Content hash of the canonical serialised form.

    The SHA-256 of the :func:`netlist_to_dict` JSON (sorted keys, no
    whitespace) — two netlists share a fingerprint iff they are
    structurally identical, so it is the cache key for compiled
    simulation kernels (:mod:`repro.hdl.compile`).

    The hash is memoised on the netlist, keyed by its mutation token
    (the builder's mutation version plus structure counts): any edit
    through the construction API (``gate``/``input``/``output``/
    ``register``/direct ``registers`` appends) invalidates it.  In-place
    surgery on existing ``gates`` entries bypasses the builder and is
    not tracked.
    """
    token = nl._mutation_token()
    cached = nl._fingerprint_cache
    if cached is not None and cached[0] == token:
        return cached[1]
    blob = json.dumps(netlist_to_dict(nl), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    nl._fingerprint_cache = (token, digest)
    return digest


def save_netlist(nl: Netlist, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(netlist_to_dict(nl), fh)


def load_netlist(path: str) -> Netlist:
    with open(path) as fh:
        return netlist_from_dict(json.load(fh))
