"""The package surface: the public names, and the names the benchmark looks up."""

import importlib
import importlib.util
import types
from pathlib import Path

import idrd

BENCH = Path(__file__).resolve().parent.parent / "bench"

PUBLIC_NAMES = {
    "DEFAULT_SIZE_LIMIT", "DRLabeling", "EdgeListParseError", "Graph", "INVARIANT_NAMES",
    "InvariantTable", "R2Labeling", "RainbowLabeling", "SizeLimitError", "SplitMix64",
    "ValidationResult", "build_graph", "compute_invariants", "domination_number",
    "gamma_dr", "gamma_r2", "i2rdn", "idn", "idrdn", "ir2dn", "is_2rdf",
    "is_drdf", "is_i2rdf", "is_idrdf", "is_ir2df", "is_r2df", "max_matching",
    "maximal_independent_sets", "min_edge_cover", "packing_number", "parse_edge_list",
    "prufer_decode", "random_graph", "random_tree", "serialize_edge_list", "tree_idn",
    "tree_idrdn", "tree_ir2dn",
}


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from idrd import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(idrd.__all__) == PUBLIC_NAMES
    assert idrd.__all__ == sorted(idrd.__all__)
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(dotted):
    module, _, attr = dotted.partition(".")
    value = importlib.import_module(f"idrd.{module}")
    for part in attr.split("."):
        value = getattr(value, part)
    return value


def test_benchmark_lookups_exist():
    # bench/ wraps these by name for `--trace 1` runs and calls them in its
    # workloads and output checks; a rename here would break those runs.
    tracing = _load("tracing")
    for module in _load("workloads").MODULES:
        importlib.import_module(f"idrd.{module}")
    for module, function in tracing.TRACED:
        assert callable(_lookup(f"{module}.{function}")), (module, function)
    for dotted in (
        tracing.MIS,
        tracing.INVARIANTS,
        "cli.main",
        "graph.build_graph",
        "graph.parse_edge_list",
        "graph.Graph.adjacency",
        "graph.Graph.is_dominating",
        "graph.Graph.is_independent",
        "graph.Graph.is_tree",
        "labelings.DRLabeling.weight",
        "labelings.R2Labeling",
        "labelings.RainbowLabeling.weight",
        "labelings.is_idrdf",
        "labelings.is_drdf",
        "labelings.is_ir2df",
        "labelings.is_r2df",
        "labelings.is_i2rdf",
        "solvers.tree_idrdn",
        "solvers.tree_idn",
        "solvers.max_matching",
        "solvers.min_edge_cover",
        "bounds.fuzz",
        "families.classify_tree",
        "families.realize",
    ):
        assert callable(_lookup(dotted)), dotted
    assert set(tracing.BRANCH_AND_BOUND) <= set(_lookup("solvers.INVARIANT_NAMES"))
    assert _lookup("bounds.BOUND_NAMES")


def test_benchmark_tracer_wraps_and_restores_every_traced_function():
    tracing = _load("tracing")
    mods = types.SimpleNamespace(idrd=idrd, **{
        name: importlib.import_module(f"idrd.{name}") for name in _load("workloads").MODULES})
    originals = {(m, f): getattr(getattr(mods, m), f) for m, f in tracing.TRACED}
    undo = tracing.install(tracing.Tracer(), mods)
    try:
        for (module, function), original in originals.items():
            assert getattr(getattr(mods, module), function) is not original, function
    finally:
        undo()
    for (module, function), original in originals.items():
        assert getattr(getattr(mods, module), function) is original, function
