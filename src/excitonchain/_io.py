"""Atomic CSV/JSON writers with full-precision, locale-free formatting."""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path


def format_value(value):
    """Render floats with 17 significant digits and a '.' decimal point."""
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def atomic_write_text(path, text: str) -> Path:
    """Write text so the file appears complete or not at all."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_csv(path, fieldnames: list[str], rows: list[dict]) -> Path:
    """Write rows as RFC-4180 CSV (CRLF line endings, quoted when needed)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(fieldnames)
    writer.writerows([format_value(row.get(k)) for k in fieldnames]
                     for row in rows)
    return atomic_write_text(path, buffer.getvalue())


def write_json(path, payload: dict) -> Path:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    return atomic_write_text(path, text + "\n")
