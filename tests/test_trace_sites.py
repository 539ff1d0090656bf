"""Every call site the benchmark traces exists in the package.

perfbench/spans.py wraps the module attributes through which the layers
call each other and reports a missing one as absent, so its per-layer
metrics would silently read zero. This checks the site list in well
under a second, without running the benchmark suite.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_traced_site_is_absent():
    spans = load_spans()
    restore, absent = spans.install(spans.Tracer())
    spans.uninstall(restore)
    assert absent == []
