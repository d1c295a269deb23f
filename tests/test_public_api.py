"""The functions that benchmarks/run.py reads spans of stay public.

benchmarks/tracing.py wraps only the functions in each module's ``__all__``
and the public methods of the classes listed there, so a name dropped from
``__all__`` silently drops its span from ``--trace 1``.
"""

import importlib
import inspect

import pytest

TRACED_SPANS = [
    "gradient.cost",
    "gradient.cost_and_gradient",
    "optimizer.run_gd_gisl",
    "waveform.synthesize",
    "metrics.compute_acf",
    "metrics.compute_af",
    "metrics.compute_gisl",
    "quantize.degradation_sweep",
    "exports.write_af_csv",
    "exports.write_spectrum_csv",
    "expconfig.from_sources",
    "expconfig.write_manifest",
    "cli.cmd_sweep",
]


def traced_names(module) -> set[str]:
    """Span names the tracer gives ``module``'s own public functions and methods."""
    names = set()
    for attr in module.__all__:
        obj = getattr(module, attr)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            names.add(attr)
        elif inspect.isclass(obj):
            names.update(
                key for key, value in vars(obj).items()
                if not key.startswith("_") and (inspect.isfunction(value) or isinstance(value, classmethod))
            )
    return names


@pytest.mark.parametrize("span", TRACED_SPANS)
def test_traced_span_is_public(span):
    layer, name = span.split(".")
    assert name in traced_names(importlib.import_module(f"ceofdm.{layer}"))
