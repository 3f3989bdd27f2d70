"""Rotationally symmetric generalized Ricci metrics and spherical Ricci tori.

The submodules load on first attribute access (PEP 562), so
``import ricci_lab`` alone imports no numpy; ``ricci_lab.immersion`` and
``from ricci_lab import mesh_io`` work as for eager imports.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("immersion", "mesh_io", "phase_portrait", "spherical_family",
               "warped_geometry")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
