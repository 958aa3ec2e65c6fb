"""How every artifact file reaches disk and is read back: JSON-lines records
(read, write), JSON documents (load, dump) and other files, each written
through replacing, and the one checker of every JSON object read."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from typing import Callable, NamedTuple


class JsonlError(ValueError):
    pass


class Kind(NamedTuple):
    """What a JSON value may be: one of the Python types json gives it, and,
    when test is set, a value test passes. An optional key may be absent."""
    name: str
    types: tuple
    test: Callable | None = None
    required: bool = True
    key: bool = False


# true is an int to isinstance, so a kind names exact types
ID = Kind("a non-empty string", (str,), bool)
STRING = Kind("a string", (str,))
INT = Kind("an integer", (int,))
NUMBER = Kind("a number", (int, float))
BOOL = Kind("true or false", (bool,))
OBJECT = Kind("a JSON object", (dict,))


def _fits(kind: Kind, value) -> bool:
    return type(value) in kind.types and (kind.test is None or kind.test(value))


def one_of(*values) -> Kind:
    return Kind(f"one of {values}", tuple({type(v) for v in values}),
                frozenset(values).__contains__)


def array(item: Kind) -> Kind:
    types, test = frozenset(item.types), item.test
    return Kind(f"a JSON array whose items are each {item.name}", (list,),
                lambda value: types.issuperset(map(type, value))
                and (test is None or all(map(test, value))))


def tuple_of(*items: Kind) -> Kind:
    return Kind(f"a JSON array of {len(items)} items: "
                f"{', '.join(item.name for item in items)}", (list,),
                lambda value: len(value) == len(items) and all(map(_fits, items, value)))


def optional(kind: Kind) -> Kind:
    return kind._replace(required=False)


def key(kind: Kind) -> Kind:
    """kind, as a required field that names a record: no two records of
    one file hold the same value in it; two arrays are the same value when
    their items are."""
    return kind._replace(required=True, key=True)


class Spec(NamedTuple):
    kinds: dict
    required: frozenset
    keys: tuple  # the fields that each name a record


def spec(**kinds: Kind) -> Spec:
    """The record whose keys are the names of kinds, each holding a value of
    its kind; a key the record may leave out is optional, and each field
    marked key names the record."""
    return Spec(kinds, frozenset(name for name, kind in kinds.items() if kind.required),
                tuple(name for name, kind in kinds.items() if kind.key))


# a config field's kind, by the type of its default
_DEFAULT_KINDS = {bool: BOOL, int: INT, float: NUMBER, str: STRING, dict: OBJECT,
                  type(None): Kind("a string or null", (str, type(None)))}


def fields_spec(defaults) -> Spec:
    """The JSON object that overrides fields of the dataclass instance
    defaults: every key optional, and each value of its default's kind. A
    tuple field takes an array of the kind of its default's items."""
    kinds = {}
    for f in dataclasses.fields(defaults):
        value = getattr(defaults, f.name)
        kinds[f.name] = optional(array(_DEFAULT_KINDS[type(value[0])])
                                 if type(value) is tuple else _DEFAULT_KINDS[type(value)])
    return spec(**kinds)


def check(obj, spec: Spec, where) -> None:
    """Raise ValueError naming where unless obj is a JSON object whose keys
    are keys of spec, each with a value of its kind, and which holds every
    required key. One pass over obj's keys."""
    if type(obj) is not dict:
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    kinds = spec.kinds
    for key, value in obj.items():
        kind = kinds.get(key)
        if kind is None:
            raise ValueError(f"{where}: unknown key {key!r}")
        # _fits, inlined: this runs for every key of every record read
        if type(value) not in kind.types or (kind.test is not None
                                             and not kind.test(value)):
            got = json.dumps(value)
            raise ValueError(f"{where}: {key!r} must be {kind.name}, got "
                             f"{got if len(got) <= 80 else got[:76] + ' ...'}")
    if not obj.keys() >= spec.required:
        raise ValueError(f"{where}: missing key {sorted(spec.required - obj.keys())[0]!r}")


def _object(pairs) -> dict:
    """A decoded JSON object's dict, or a ValueError naming a key it holds
    twice, of which json alone would keep the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"key {max(keys, key=keys.count)!r} repeats inside one object")
    return obj


# json.loads less its per-call wrapper: read strips the whitespace json
# allows around a value, and checks that nothing follows the value, itself
_decode = json.JSONDecoder(object_pairs_hook=_object).raw_decode
_JSON_SPACE = " \t\n\r"


def check_utf8(text: str) -> None:
    """Raise UnicodeDecodeError, a ValueError naming the byte and its
    position, if text, read with errors="surrogateescape", held a byte
    sequence that is not UTF-8: each such byte reads as a lone surrogate.
    Opening a file so and checking each line names the line that is bad."""
    if not text.isascii():
        text.encode("utf-8", "surrogateescape").decode("utf-8")


def read(path, build, error, spec: Spec):
    """Yield build(record) for each line of a UTF-8 file that holds more than
    JSON whitespace, in order, once the record passes check against spec. A
    line that is not UTF-8 or not one JSON value, an object holding a key
    twice, a record spec rejects or one of whose keys repeats an earlier
    line's, or one build rejects with a ValueError raises error naming file
    and line."""
    first = {}  # (key field, value) -> the line that first held it
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip(_JSON_SPACE)
            if not text:
                continue
            try:
                check_utf8(text)
                obj, end = _decode(text)
                if end != len(text):
                    raise json.JSONDecodeError("Extra data", text, end)
                check(obj, spec, "record")
                for field in spec.keys:
                    value = obj[field]
                    at = field, tuple(value) if type(value) is list else value
                    if first.setdefault(at, lineno) != lineno:
                        raise ValueError(f"duplicate {field} {value!r}, first on line "
                                         f"{first[at]}")
                item = build(obj)
            except ValueError as exc:
                raise error(
                    f"{path}: line {lineno}: {type(exc).__name__}: {exc}") from exc
            yield item


@contextlib.contextmanager
def replacing(path):
    """A text file to write path's new content to: a sibling temporary file
    that replaces path only once the block ends without an error, so a
    failure leaves neither a partial artifact nor the temporary file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write(path, rows, **dumps) -> None:
    """Replace path with one json.dumps(row, **dumps) line per row, through
    the one encoder json.dumps would build for each row."""
    encode = json.JSONEncoder(**dumps).encode
    with replacing(path) as fh:
        for row in rows:
            fh.write(encode(row) + "\n")


def dump(path, obj, **dumps) -> None:
    """Replace path with the JSON document json.dump(obj, **dumps) writes."""
    with replacing(path) as fh:
        json.dump(obj, fh, **dumps)


def load(path):
    """The one JSON value a UTF-8 file holds. Text that is not UTF-8, not one
    JSON value or holding a key twice in an object raises JsonlError naming
    the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_object)
    except ValueError as exc:
        raise JsonlError(f"{path}: {type(exc).__name__}: {exc}") from exc
