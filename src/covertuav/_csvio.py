"""Atomic one-header CSV files, shared by every artifact writer."""

import csv
import os


def write_atomic_csv(path, header, rows):
    """Write a header and rows to a temp file, then rename it onto path, so
    a reader never sees a half-written file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)
