"""JSON-safe message codec for the simulated transport.

Every payload crossing a :class:`~repro.net.transport.Transport` —
query requests, per-server results, completion-protocol messages,
Helix transitions — is encoded into a tree of JSON-representable
values and decoded back into fresh objects on the receiving side. The
round trip is what gives the simulation a real serialization boundary:
a server that keeps a reference to a result it already returned can
mutate its copy freely without corrupting the broker's merged (or
cached) response, exactly as if the bytes had left the process.

Encoding is *tagged*: anything that is not a JSON primitive becomes a
``{"~": tag, ...}`` dict. Dataclasses under ``repro.*`` and enums are
handled generically; numpy scalars/arrays and the HyperLogLog sketch
have dedicated tags so aggregation partials ship losslessly. A numeric
array ships as one flat list; an object array (a STRING group-key
column) encodes each element, so its elements are copied too.

Bulk immutable payloads (sealed segments travelling server -> broker ->
object store during a commit) are **blobs**: the tree carries a sized
reference and the object rides a side channel, modelling the opaque
binary stream a real segment upload is. Blobs are exempt from the
copy-on-transfer guarantee — they are immutable by construction.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import json
from typing import Any

import numpy as np

from repro.errors import PinotError
from repro.obs.metrics import runtime_metrics

#: Classes transferred by sized reference instead of by value.
_BLOB_TYPES: tuple[type, ...] = ()


def _blob_types() -> tuple[type, ...]:
    global _BLOB_TYPES
    if not _BLOB_TYPES:
        from repro.segment.mutable import MutableSegment
        from repro.segment.segment import ImmutableSegment

        _BLOB_TYPES = (ImmutableSegment, MutableSegment)
    return _BLOB_TYPES


def _class_path(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


@functools.cache
def _resolve_class(path: str) -> type:
    """The class at ``path``, resolved once per path. Refusals and
    lookup errors raise on every call (exceptions are not cached)."""
    module_name, __, qualname = path.partition(":")
    if not module_name.startswith("repro"):
        raise PinotError(f"codec refuses non-repro class {path!r}")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def blob_size_estimate(obj: Any) -> int:
    """Byte size for bandwidth accounting of blob payloads.

    Blob types carry their own accounting
    (``estimated_size_bytes()`` on segments — the same authority the
    segment cache and table quotas use); anything else gets a flat
    envelope.
    """
    sizer = getattr(obj, "estimated_size_bytes", None)
    if sizer is not None:
        return int(sizer())
    return 1024


def encode(obj: Any, blobs: list[Any] | None = None) -> Any:
    """Encode ``obj`` into a JSON-representable tree.

    ``blobs`` collects blob payloads referenced by the tree; pass the
    same list to :func:`decode`. When omitted, encountering a blob type
    raises — callers that never ship segments need no side channel.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (list, tuple)):
        items = [encode(item, blobs) for item in obj]
        if isinstance(obj, tuple):
            return {"~": "t", "v": items}
        return items
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and "~" not in obj:
            return {k: encode(v, blobs) for k, v in obj.items()}
        return {"~": "d",
                "v": [[encode(k, blobs), encode(v, blobs)]
                      for k, v in obj.items()]}
    if isinstance(obj, frozenset):
        return {"~": "fs", "v": [encode(item, blobs) for item in obj]}
    if isinstance(obj, set):
        return {"~": "s", "v": [encode(item, blobs) for item in obj]}
    if isinstance(obj, np.generic):
        return {"~": "np", "d": obj.dtype.str, "v": obj.item()}
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            return {"~": "nd", "d": obj.dtype.str, "s": list(obj.shape),
                    "v": [encode(item, blobs) for item in obj.flat]}
        return {"~": "nd", "d": obj.dtype.str, "v": obj.tolist()}
    if isinstance(obj, enum.Enum):
        return {"~": "e", "c": _class_path(type(obj)),
                "v": encode(obj.value, blobs)}
    if isinstance(obj, _blob_types()):
        if blobs is None:
            raise PinotError(
                f"{type(obj).__name__} payloads need a blob side channel"
            )
        blobs.append(obj)
        return {"~": "b", "i": len(blobs) - 1,
                "bytes": blob_size_estimate(obj)}
    hll = _hll_class()
    if isinstance(obj, hll):
        return {"~": "hll", "p": obj.precision,
                "r": obj.registers.tolist()}
    qsk = _quantile_sketch_class()
    if isinstance(obj, qsk):
        return {"~": "qsk", "k": obj.k, "n": obj.count,
                "l": obj.canonical_levels(), "o": list(obj.offsets)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"~": "dc", "c": _class_path(type(obj)),
                "v": {f.name: encode(getattr(obj, f.name), blobs)
                      for f in dataclasses.fields(obj)}}
    if isinstance(obj, BaseException):
        return encode_error(obj)
    raise PinotError(
        f"codec cannot encode {type(obj).__module__}."
        f"{type(obj).__qualname__}"
    )


def decode(tree: Any, blobs: list[Any] | None = None) -> Any:
    """Rebuild fresh objects from an encoded tree."""
    if tree is None or isinstance(tree, (bool, int, float, str)):
        return tree
    if isinstance(tree, list):
        return [decode(item, blobs) for item in tree]
    assert isinstance(tree, dict), f"unexpected codec node {tree!r}"
    tag = tree.get("~")
    if tag is None:
        return {k: decode(v, blobs) for k, v in tree.items()}
    if tag == "t":
        return tuple(decode(item, blobs) for item in tree["v"])
    if tag == "d":
        return {decode(k, blobs): decode(v, blobs) for k, v in tree["v"]}
    if tag == "s":
        return set(decode(item, blobs) for item in tree["v"])
    if tag == "fs":
        return frozenset(decode(item, blobs) for item in tree["v"])
    if tag == "np":
        return np.dtype(tree["d"]).type(tree["v"])
    if tag == "nd":
        dtype = np.dtype(tree["d"])
        if dtype.hasobject:
            items = [decode(item, blobs) for item in tree["v"]]
            return np.fromiter(items, dtype=dtype,
                               count=len(items)).reshape(tree["s"])
        return np.asarray(tree["v"], dtype=dtype)
    if tag == "e":
        return _resolve_class(tree["c"])(decode(tree["v"], blobs))
    if tag == "b":
        if blobs is None:
            raise PinotError("blob reference without a side channel")
        return blobs[tree["i"]]
    if tag == "hll":
        return _hll_class()(
            tree["p"], np.asarray(tree["r"], dtype=np.uint8)
        )
    if tag == "qsk":
        return _quantile_sketch_class()(
            tree["k"], tree["n"],
            [[float(v) for v in level] for level in tree["l"]],
            [int(o) for o in tree["o"]],
        )
    if tag == "dc":
        cls = _resolve_class(tree["c"])
        return cls(**{k: decode(v, blobs) for k, v in tree["v"].items()})
    if tag == "exc":
        return decode_error(tree)
    raise PinotError(f"unknown codec tag {tag!r}")


def _hll_class() -> type:
    from repro.engine.sketches import HyperLogLog

    return HyperLogLog


def _quantile_sketch_class() -> type:
    from repro.engine.approx import QuantileSketch

    return QuantileSketch


def encode_error(exc: BaseException) -> dict:
    """Encode an exception for transfer (class path + message args)."""
    return {"~": "exc", "c": _class_path(type(exc)),
            "v": [encode(a) for a in exc.args
                  if isinstance(a, (str, int, float, bool, type(None)))]}


def decode_error(tree: dict) -> BaseException:
    """Rebuild a transferred exception, degrading to PinotError when
    the original class cannot be reconstructed from its args.

    Only the *expected* reconstruction failures degrade: a class path
    outside ``repro`` (:class:`PinotError` from ``_resolve_class``), a
    class that no longer exists (ImportError/AttributeError), or a
    constructor whose signature changed (TypeError). Anything else is a
    genuine bug and propagates.
    """
    args = [decode(a) for a in tree["v"]]
    try:
        cls = _resolve_class(tree["c"])
        exc = cls(*args)
        if isinstance(exc, BaseException):
            return exc
    except (PinotError, ImportError, AttributeError, TypeError):
        runtime_metrics.incr("codec_decode_error_fallbacks")
    return PinotError(*args)


def json_roundtrip(tree: Any) -> Any:
    """Force the tree through actual JSON text — the strictest form of
    the serialization boundary, used by tests and strict transports."""
    return json.loads(json.dumps(tree))


def payload_bytes(tree: Any, blobs: list[Any] | None = None) -> int:
    """Serialized size of a message, for bandwidth models."""
    total = len(json.dumps(tree, separators=(",", ":")))
    for blob in blobs or ():
        total += blob_size_estimate(blob)
    return total
