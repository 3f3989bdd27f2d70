"""Rotationally symmetric generalized Ricci metrics and spherical Ricci tori."""

from . import (  # noqa: F401
    immersion,
    mesh_io,
    phase_portrait,
    spherical_family,
    warped_geometry,
)

__version__ = "0.1.0"
