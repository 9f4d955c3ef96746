"""Every name the benchmark's span recorder wraps still exists.

`perfbench/tracer.py` lists the module functions (FUNCTIONS) and class
methods (METHODS) it replaces; `install` reads a function with `getattr` on
its module and a method from its class's own `__dict__`, so a renamed
function, or a method that a class only inherits, breaks the traced run.
The lists are read from the file, which this test does not change.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"dyadlab.{name}")


def test_wrapped_functions_resolve():
    missing = [(m, attr) for m, attr in _tracer().FUNCTIONS
               if not callable(getattr(_module(m), attr, None))]
    assert missing == []


def test_wrapped_methods_are_in_their_class_dict():
    missing = [(m, cls, meth) for m, cls, meth in _tracer().METHODS
               if not callable(vars(getattr(_module(m), cls)).get(meth))]
    assert missing == []
