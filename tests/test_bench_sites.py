"""The bench tracer patches program functions by name at every import
site. A function renamed or deleted here must fail this test, not only a
later bench run."""

import importlib.util
import inspect
import os

import japdr  # noqa: F401  (imports every layer module the tracer patches)
from japdr.clausedb import seeds_for_context
from japdr.encode import StepEncoding

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def test_bench_tracer_wraps_every_site():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    try:
        tr.install()
        assert tr.unwrapped_sites() == []
    finally:
        tr.remove()


def test_tracer_reads_the_arguments_it_names_by_position():
    # the tracer's counters read `StepEncoding.__init__`'s args[1] as the
    # solver and `seeds_for_context`'s args[0] as the records offered;
    # a reorder would skew `encode.vars` or `clausedb.seeds_offered`
    assert list(inspect.signature(StepEncoding.__init__).parameters)[1] == "solver"
    assert list(inspect.signature(seeds_for_context).parameters)[0] == "records"
