"""JSON-lines records: the one reader and writer for every stage artifact."""

from __future__ import annotations

import json


class JsonlError(ValueError):
    pass


def read(path):
    """Yield (1-based line number, record) for each non-blank line of a UTF-8
    file, in order. A line that is not JSON raises JsonlError naming the file
    and the line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    yield lineno, json.loads(line)
                except json.JSONDecodeError as exc:
                    raise JsonlError(f"{path}: line {lineno}: {exc}") from exc


def write(path, rows, **dumps) -> None:
    """Write one json.dumps(row, **dumps) line per row."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, **dumps) + "\n")
