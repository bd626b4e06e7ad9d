"""The bench tracer patches program functions by name at every import
site. A function renamed or deleted here must fail this test, not only a
later bench run."""

import importlib.util
import os

import japdr  # noqa: F401  (imports every layer module the tracer patches)

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
