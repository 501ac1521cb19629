"""Whole-file writes of the step products (history CSVs, the chosen
encoder, the run summary, EVOD caches, saved configs)."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def replacing(path, mode="w", **open_kwargs):
    """Open a temporary file beside `path` for writing and, when the block
    ends cleanly, rename it onto `path`, so a reader sees the old file or
    the new one, never a part. A block that raises removes the temporary
    file and leaves `path` as it was. Nothing is fsynced."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
