"""Advisory cross-process file locks.

One tiny primitive for every component that mutates files other
processes may be reading or writing concurrently: the sharded proof
store's appends and compactions (:mod:`repro.serve.store`) and its
metadata file.

The lock is a *sidecar* file (``<path>.lock``) so the protected file
itself can be replaced atomically (``os.replace``) while the lock
persists.  On POSIX the lock is ``flock``-based (crash-safe: the kernel
releases it when the process dies); where ``fcntl`` is unavailable the
fallback is an ``O_CREAT | O_EXCL`` spin lock with a staleness timeout.
"""

from __future__ import annotations

import contextlib
import os
import time

try:  # POSIX; absent on some exotic platforms
    import fcntl
except ImportError:  # pragma: no cover - exercised only off-POSIX
    fcntl = None


class LockTimeout(OSError):
    """Raised when the lock cannot be acquired within the timeout."""


@contextlib.contextmanager
def file_lock(path: str, timeout: float = 30.0, poll: float = 0.005):
    """Hold an exclusive advisory lock on ``path`` (via ``<path>.lock``).

    Not reentrant: a thread that already holds the lock and asks again
    deadlocks until ``timeout``.  Callers serialize at the file level —
    in-process data structures need their own locking.
    """
    lock_path = path + ".lock"
    directory = os.path.dirname(os.path.abspath(lock_path))
    os.makedirs(directory, exist_ok=True)
    if fcntl is not None:
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            deadline = time.monotonic() + timeout
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise LockTimeout(
                            f"could not lock {path!r} within {timeout:g}s")
                    time.sleep(poll)
            yield
            with contextlib.suppress(OSError):
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
    else:  # pragma: no cover - exercised only off-POSIX
        deadline = time.monotonic() + timeout
        while True:
            try:
                fd = os.open(lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
                break
            except FileExistsError:
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        f"could not lock {path!r} within {timeout:g}s")
                time.sleep(poll)
        try:
            os.close(fd)
            yield
        finally:
            with contextlib.suppress(OSError):
                os.unlink(lock_path)


__all__ = ["LockTimeout", "file_lock"]
