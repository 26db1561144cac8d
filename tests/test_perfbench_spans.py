"""Every call site the benchmark's traced run wraps exists in the program.

``perfbench/spans.py`` times the program's layers from outside: for each
``(module, class or None, attribute, layer)`` row of its tables it
replaces ``owner.attr`` with a timing wrapper, reading the original from
``owner.__dict__``.  A function that moves or is renamed therefore
breaks the traced benchmark run while every other test still passes.
This test loads the tables read-only (the source is compiled in memory,
so nothing is written next to it) and resolves each row the way the
recorder does.

The traced serve launcher (``perfbench/serve_launch.py``) also patches
four methods by name and keeps only responses whose type is exactly
``repro.serve.model.WideResponse``; those contracts are checked here
too, so a rename fails this suite and not only a traced serve run.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TABLES = ("SERVE_FRONT", "VALIDATE", "FAULTS")
# (module, class, attribute) the traced serve launcher patches
LAUNCHER_PATCHES = [
    ("repro.serve.service", "PermutationService", "_execute"),
    ("repro.serve.service", "CompletionFuture", "result"),
    ("repro.serve.engine", "ConverterEngine", "run"),
    ("repro.serve.net.server", "NetServer", "__init__"),
]


def _sites() -> list[tuple[str, str, str | None, str]]:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return [
        (table, mod, cls, attr)
        for table in TABLES
        for mod, cls, attr, _layer in getattr(module, table)
    ]


SITES = _sites()


def test_tables_are_not_empty():
    assert {site[0] for site in SITES} == set(TABLES)


@pytest.mark.parametrize(
    "table, module, cls, attr",
    SITES,
    ids=[f"{t}:{m}.{c + '.' if c else ''}{a}" for t, m, c, a in SITES],
)
def test_site_is_bound_on_its_owner(table, module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert attr in owner.__dict__, f"{table}: {module} {cls} has no {attr}"


@pytest.mark.parametrize(
    "module, cls, attr",
    LAUNCHER_PATCHES,
    ids=[f"{c}.{a}" for _, c, a in LAUNCHER_PATCHES],
)
def test_launcher_patch_point_is_bound_on_its_class(module, cls, attr):
    owner = getattr(importlib.import_module(module), cls)
    assert attr in owner.__dict__, f"{module}.{cls} has no {attr}"


def test_served_responses_are_exactly_wide_responses():
    from repro.serve.model import WideResponse
    from repro.serve.service import PermutationService, ServiceConfig

    with PermutationService(ServiceConfig(batch_deadline_s=0.001)) as svc:
        miss = svc.submit_wide("unrank", 5, 1, [7]).result(10.0)
        hit = svc.submit_wide("unrank", 5, 1, [7]).result(10.0)
    assert not miss.cached and hit.cached
    assert type(miss) is WideResponse and type(hit) is WideResponse
