"""The benchmark's tracer wraps gvc functions by name; each must exist."""
import importlib
import importlib.util
import os


_BENCH_TRACE = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "bench_trace.py")


def test_every_trace_target_resolves():
    # `perfbench/run.py --trace 1` raises on a target that is gone, so a
    # rename or deletion in gvc must keep these names
    spec = importlib.util.spec_from_file_location("bench_trace", _BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    assert bench_trace.TARGETS
    for metric, modname, attr, _hot in bench_trace.TARGETS:
        assert modname.startswith("gvc."), metric
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(getattr(owner, cls_name).__dict__.get(meth)), \
                metric
        else:
            assert callable(getattr(owner, attr, None)), metric
