"""Public API surface tests."""

import repro


def test_version():
    assert repro.__version__ == "1.1.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_from_docstring():
    """The README/top-level docstring example must work verbatim."""
    from repro import IndexToPermutationConverter, KnuthShuffleCircuit

    conv = IndexToPermutationConverter(4)
    assert conv.convert(23) == (3, 2, 1, 0)
    assert conv.convert_batch(range(24)).shape == (24, 4)

    shuffle = KnuthShuffleCircuit(8)
    assert shuffle.sample(100).shape == (100, 8)


SUBPACKAGES = ("analysis", "core", "fpga", "hdl", "obs", "parallel", "perf",
               "rng", "robustness", "serve", "serve.net")


def test_subpackages_importable():
    import importlib

    for name in SUBPACKAGES:
        assert importlib.import_module(f"repro.{name}").__doc__, name


def test_subpackage_exports_resolve():
    import importlib

    for name in SUBPACKAGES:
        pkg = importlib.import_module(f"repro.{name}")
        for export in pkg.__all__:
            assert hasattr(pkg, export), f"repro.{name}.{export}"
