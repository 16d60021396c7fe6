"""The benchmark's span tracer can still wrap every attribute it names.

``perfbench/spans.py`` wraps functions at the ``namebasis.engine`` and
``namebasis.cli`` attributes it looks up by name; removing one of them
would make a traced benchmark run fail before it starts.
"""

import importlib.util
from pathlib import Path

import namebasis.cli
import namebasis.engine

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_unwrap_restore_every_attribute():
    spans = load_spans()
    modules = (namebasis.engine, namebasis.cli)
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    spans.install(tracer, *modules)
    try:
        assert namebasis.engine.run_alg1 is not before[0]["run_alg1"]
    finally:
        tracer.unwrap()
    assert [dict(vars(m)) for m in modules] == before
