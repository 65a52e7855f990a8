"""numpy for the modules that run before the first array.

`errors`, `rng`, `graph`, `calculus` and `cli` bind this module as `np`.
The package registers it to run on first use, so those modules import
without numpy, and numpy loads when one of them first reads a name of it.
Each name read is then copied here, so later reads cost what a read of
numpy's own attribute costs.  Nothing outside the package sees a change:
sys.modules["numpy"] is numpy itself.
"""

import numpy


def __getattr__(name: str):
    if name.startswith("__"):  # numpy's __path__ would make this a package
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(numpy, name)
    return value
