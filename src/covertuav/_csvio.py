"""Atomic artifact files (temp file plus rename), shared by every writer."""

import contextlib
import csv
import os


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """Open `path`.tmp for text writing and rename it onto path once the
    block completes, so a reader never sees a half-written file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline=newline) as fh:
        yield fh
    os.replace(tmp, path)


def write_atomic_csv(path, header, rows):
    """Write a header and rows as one atomic CSV file."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
