"""One way to open a file that voxflow writes.

Standard library only, because svgplot is dependency-free.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path


def open_output(path: str | Path, mode: str, open_file=open, **kwargs):
    """open_file(path, mode, **kwargs) for a "w" mode, replacing an
    existing output with a new file instead of truncating it in place.
    open_file is the builtin open unless a caller passes the open of its
    own module, where a test may replace it.

    An existing regular file with one link that the process may write is
    unlinked first, and the new file takes its permission bits. On ext4,
    truncating a file written a moment ago waits for the kernel to flush
    that write; unlinking drops its unwritten pages instead. Any other path
    (none yet, a symlink, a file with several links, a directory, a FIFO or
    a device, a read-only file, or one whose directory forbids the unlink)
    is opened as given: a symlink or a hard-linked file is written through,
    and a read-only file still raises PermissionError. Nothing is fsynced.
    """
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    replace = (st is not None and stat.S_ISREG(st.st_mode)
               and st.st_nlink == 1 and os.access(path, os.W_OK))
    if replace:
        try:
            os.unlink(path)
        except PermissionError:
            replace = False
    fh = open_file(path, mode, **kwargs)
    if replace:
        try:
            os.fchmod(fh.fileno(), stat.S_IMODE(st.st_mode))
        except OSError:
            fh.close()
            raise
    return fh
