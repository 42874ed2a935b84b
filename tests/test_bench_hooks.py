"""The benchmark's tracer (perfbench/tracer.py) wraps maxord functions by
name, so renaming one of them must fail here and not only in the
benchmark."""

import importlib.util
import os

import maxord
import maxord.cli  # noqa: F401  (imports every module the tracer wraps)

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "perfbench", "tracer.py")


def test_tracer_finds_every_target():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer(maxord)
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()
