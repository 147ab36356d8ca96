"""The names the layered benchmark binds to must keep resolving.

``benchmarks/layers/tracing.install`` rebinds every ``TARGETS`` entry and
raises on a missing one, and the workloads read ``ServiceStats`` fields by
name — so a rename would crash the traced benchmark. These checks make it
fail tier-1 first.
"""

import importlib
import importlib.util
import pathlib

from repro.service.query_service import ServiceStats

TRACING_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "layers" / "tracing.py"
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_layers_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    # The same lookups tracing.install performs: module functions by
    # getattr, methods in the owner class's own __dict__ (not inherited).
    missing = []
    for module_name, owner_name, attribute in (
        target[:3] for target in _load_tracing().TARGETS
    ):
        module = importlib.import_module(module_name)
        if owner_name is None:
            found = callable(getattr(module, attribute, None))
        else:
            owner = getattr(module, owner_name, None)
            found = owner is not None and attribute in vars(owner)
        if not found:
            missing.append((module_name, owner_name, attribute))
    assert not missing


def test_service_stats_keeps_the_fields_the_workloads_read():
    assert {"hits", "misses", "locked_reads"} <= set(ServiceStats._fields)


def test_query_service_keeps_the_methods_the_benchmark_calls():
    # paper_renum reads through cursor/index, the ingest and churn
    # workloads write through apply/checkpoint/recover, and every workload
    # reports stats().
    from repro.service.query_service import QueryService

    for name in ("cursor", "index", "stats", "apply", "checkpoint", "recover"):
        assert callable(getattr(QueryService, name, None)), name
