"""Whole-file writes of the step products (history CSVs, the chosen
encoder, the run summary, EVOD caches, saved configs)."""

from __future__ import annotations

import contextlib
import glob
import os
from pathlib import Path


def _pid_alive(pid):
    """Whether pid may name a running process; another user's process, or a
    number beyond the system's pids, counts as running."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        pass
    return True


def _remove_stale_temporaries(path):
    """Remove the `.<name>.<pid>.tmp` files beside `path` whose pid names no
    running process: a writer killed inside its block left them."""
    prefix = f".{path.name}."
    for tmp in path.parent.glob(f"{glob.escape(prefix)}*.tmp"):
        pid = tmp.name[len(prefix):-len(".tmp")]
        if pid.isdigit() and not _pid_alive(int(pid)):
            tmp.unlink(missing_ok=True)


@contextlib.contextmanager
def replacing(path, mode="w", **open_kwargs):
    """Open a temporary file beside `path` for writing and, when the block
    ends cleanly, rename it onto `path`, so a reader sees the old file or
    the new one, never a part. A block that raises removes the temporary
    file and leaves `path` as it was. Before writing, `path`'s directory is
    made if missing, and the temporary files of earlier writers of `path`
    that were killed are removed. Nothing is fsynced."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _remove_stale_temporaries(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
