"""Text sinks and the JSON writer, importable without numpy.

``mesh_io`` re-exports both; the CLI writes its records through this module
so that subcommands without array work never import numpy.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .errors import IoError


@contextmanager
def open_sink(sink):
    """Text stream for a path (opened for writing, LF kept) or a stream.

    Any OSError from opening, writing or closing becomes IoError.
    """
    try:
        if hasattr(sink, "write"):
            yield sink
        else:
            with open(sink, "w", newline="") as fh:
                yield fh
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _json_default(obj):
    # json calls this only for objects it cannot encode natively, so a
    # record of Python numbers never imports numpy here.
    import numpy as np

    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def export_json(record, sink) -> None:
    """Insertion-ordered JSON with shortest round-trip number rendering."""
    with open_sink(sink) as fh:
        json.dump(record, fh, indent=2, default=_json_default)
        fh.write("\n")
