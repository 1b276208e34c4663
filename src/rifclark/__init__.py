"""Clark measures of rational inner functions on the bidisk and tridisk.

Submodules are imported lazily, so each command-line subcommand loads
only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("catalog", "clark", "cli", "contact", "embedding", "errors",
               "levelset", "poly", "polydisk", "util")

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        module = import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
