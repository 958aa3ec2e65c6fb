"""JSON-lines records: the one reader and writer for every stage artifact."""

from __future__ import annotations

import contextlib
import json
import os


class JsonlError(ValueError):
    pass


def read(path, build, error=JsonlError):
    """Yield build(record) for each non-blank line of a UTF-8 file, in order.
    A line that is not JSON, or a record that build rejects with a KeyError,
    TypeError, ValueError or AttributeError (a record that is not an object),
    raises error naming the file and the line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                item = build(json.loads(line))
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise error(
                    f"{path}: line {lineno}: {type(exc).__name__}: {exc}") from exc
            yield item


def write(path, rows, **dumps) -> None:
    """Write one json.dumps(row, **dumps) line per row. The lines go to a
    sibling temporary file that replaces path only once every row is
    written, so a failure leaves neither a partial artifact nor the
    temporary file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, **dumps) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
