"""One serialization registry for every public result payload.

Every public payload goes through this one registry:

* :func:`to_dict` — encode a registered object to a JSON-safe dict
  stamped with ``schema`` (the registered name) and ``schema_version``;
* :func:`from_dict` — dispatch on the ``schema`` field and rebuild the
  typed object;
* :func:`check_round_trip` — assert ``from_dict(to_dict(x)) == x``,
  the invariant every CLI ``--json`` emission and service result is
  checked against.

Versioning policy: ``schema_version`` is per-schema and bumps whenever
a field is renamed, removed or re-typed (additive optional fields keep
the version).  :func:`from_dict` refuses payloads whose version is
newer than the code understands; older versions are handled by each
decoder (:func:`dataclass_schema` fills a field an older payload lacks
from the dataclass default).

Encoders/decoders are explicit functions (not reflection): the payload
shape is a public contract, so it is spelled out, reviewed and diffed
like one.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable

from repro.errors import SchemaError

#: Payload keys stamped on every encoded object.
SCHEMA_KEY = "schema"
VERSION_KEY = "schema_version"


@dataclasses.dataclass(frozen=True)
class SchemaEntry:
    """One registered payload type."""

    name: str
    version: int
    cls: type
    encode: Callable[[Any], dict]
    decode: Callable[[dict], Any]


_BY_NAME: dict[str, SchemaEntry] = {}
_BY_TYPE: dict[type, SchemaEntry] = {}


def register(name: str, version: int, cls: type,
             encode: Callable[[Any], dict],
             decode: Callable[[dict], Any]) -> SchemaEntry:
    """Register one payload type; names and types must be unique."""
    if name in _BY_NAME:
        raise SchemaError(f"schema {name!r} registered twice")
    if cls in _BY_TYPE:
        raise SchemaError(
            f"type {cls.__name__} already bound to schema "
            f"{_BY_TYPE[cls].name!r}")
    entry = SchemaEntry(name=name, version=version, cls=cls,
                        encode=encode, decode=decode)
    _BY_NAME[name] = entry
    _BY_TYPE[cls] = entry
    return entry


def schema_names() -> tuple[str, ...]:
    """Registered schema names, sorted."""
    return tuple(sorted(_BY_NAME))


def entry_for(obj_or_cls) -> SchemaEntry:
    cls = obj_or_cls if isinstance(obj_or_cls, type) else type(obj_or_cls)
    try:
        return _BY_TYPE[cls]
    except KeyError:
        raise SchemaError(
            f"{cls.__name__} has no registered schema; "
            f"known: {', '.join(schema_names())}") from None


def to_dict(obj) -> dict:
    """Encode a registered object, stamping schema name + version."""
    entry = entry_for(obj)
    payload = entry.encode(obj)
    payload[SCHEMA_KEY] = entry.name
    payload[VERSION_KEY] = entry.version
    return payload


def from_dict(payload: dict):
    """Rebuild the typed object a :func:`to_dict` payload describes."""
    if not isinstance(payload, dict):
        raise SchemaError(
            f"payload must be a dict, got {type(payload).__name__}")
    name = payload.get(SCHEMA_KEY)
    if name is None:
        raise SchemaError(f"payload carries no {SCHEMA_KEY!r} field")
    entry = _BY_NAME.get(name) if isinstance(name, str) else None
    if entry is None:
        raise SchemaError(
            f"unknown schema {name!r}; known: {', '.join(schema_names())}")
    version = payload.get(VERSION_KEY)
    if not isinstance(version, int):
        raise SchemaError(
            f"schema {name!r} payload carries no integer {VERSION_KEY!r}")
    if version > entry.version:
        raise SchemaError(
            f"schema {name!r} payload is version {version}, newer than "
            f"this code understands (<= {entry.version})")
    try:
        return entry.decode(payload)
    except SchemaError:
        raise
    except Exception as exc:
        # A malformed field value (bad enum name, wrong type, failed
        # dataclass validation) is a payload problem, not a crash: the
        # service maps SchemaError to a 400-style response.
        raise SchemaError(
            f"schema {name!r} payload failed to decode: "
            f"{type(exc).__name__}: {exc}") from exc


def _nan_equal(a, b) -> bool:
    """Structural equality that treats NaN as equal to NaN.

    Mirrors dataclass/container equality otherwise, so a NaN-bearing
    timing field does not fail the round-trip gate while genuinely
    lossy codecs still do.
    """
    if a is b:
        return True
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return all(_nan_equal(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a) if f.compare)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_nan_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and \
            all(_nan_equal(value, b[key]) for key, value in a.items())
    return a == b


def check_round_trip(obj) -> dict:
    """Encode, decode, compare; returns the payload when faithful."""
    payload = to_dict(obj)
    rebuilt = from_dict(payload)
    if rebuilt != obj and not _nan_equal(rebuilt, obj):
        raise SchemaError(
            f"schema {entry_for(obj).name!r} does not round-trip: "
            f"{obj!r} != {rebuilt!r}")
    return payload


# --- helpers shared by the concrete encoders --------------------------------


def dataclass_schema(name: str, version: int, cls: type,
                     exclude: tuple[str, ...] = (),
                     **field_codecs) -> SchemaEntry:
    """Register a flat dataclass: fields map 1:1 to payload keys.

    ``field_codecs`` maps a field name to an ``(encode, decode)`` pair
    for fields that need a JSON-safe representation (enums, tuples,
    nested registered types); unlisted fields pass through unchanged.
    ``exclude`` names fields left out of the payload entirely (bulky
    derived data); they must carry a default and be excluded from the
    dataclass' equality so the round-trip contract holds.

    Decoding follows the versioning policy: a field missing from the
    payload falls back to the dataclass default when there is one
    (additive optional fields never invalidate older payloads); only
    fields without a default are required.
    """
    fields = [f for f in dataclasses.fields(cls)
              if f.name not in exclude]

    def encode(obj) -> dict:
        payload = {}
        for field in fields:
            value = getattr(obj, field.name)
            codec = field_codecs.get(field.name)
            payload[field.name] = codec[0](value) if codec else value
        return payload

    def decode(payload: dict):
        kwargs = {}
        for field in fields:
            if field.name not in payload:
                if field.default is not dataclasses.MISSING or \
                        field.default_factory is not dataclasses.MISSING:
                    continue  # optional: the constructor defaults it
                raise SchemaError(
                    f"schema {name!r} payload is missing field "
                    f"{field.name!r}")
            codec = field_codecs.get(field.name)
            value = payload[field.name]
            kwargs[field.name] = codec[1](value) if codec else value
        return cls(**kwargs)

    return register(name, version, cls, encode, decode)


def opt(codec):
    """Lift an (encode, decode) pair over ``None``."""
    enc, dec = codec
    return (lambda v: None if v is None else enc(v),
            lambda v: None if v is None else dec(v))


def seq(codec, container=tuple):
    """Lift an (encode, decode) pair over a sequence."""
    enc, dec = codec
    return (lambda vs: [enc(v) for v in vs],
            lambda vs: container(dec(v) for v in vs))


#: Codec for plain tuples of JSON scalars (tuple <-> list).
TUPLE = (list, tuple)

#: Codec for nested registered types.
NESTED = (to_dict, from_dict)


def _encode_float(value: float) -> float | str:
    # Timing fields can legitimately be +/-inf (e.g. hold WNS on a
    # purely combinational design); strict JSON has no Infinity
    # literal, so non-finite floats travel as strings.
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf' | '-inf' | 'nan'
    return value


def _decode_float(value) -> float:
    return float(value)


#: Codec for floats that may be non-finite (JSON-strict).
FLOAT = (_encode_float, _decode_float)
