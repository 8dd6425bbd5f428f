"""The tagged JSON codec: every payload type the cluster ships.

Every round-trip here goes through :func:`json_roundtrip` — actual
JSON text — so a type that merely *looks* JSON-safe (tuple, numpy
scalar) cannot pass by accident.
"""

import numpy as np
import pytest

from repro.common.types import DataType
from repro.engine.results import ExecutionStats, ServerResult
from repro.engine.sketches import HyperLogLog
from repro.errors import PinotError, SegmentError, ThrottledError
from repro.net import decode, encode, json_roundtrip
from repro.net.codec import (
    _resolve_class,
    decode_error,
    encode_error,
    payload_bytes,
)
from repro.obs.metrics import runtime_metrics

pytestmark = pytest.mark.net


def roundtrip(obj, blobs=None):
    out_blobs = [] if blobs is None else blobs
    tree = encode(obj, out_blobs)
    return decode(json_roundtrip(tree), out_blobs)


class TestPrimitives:
    @pytest.mark.parametrize("obj", [
        None, True, False, 0, -7, 3.25, "hello", "", [1, 2, 3], [],
        {"a": 1, "b": [2.5, None]},
    ])
    def test_json_native_values_pass_through(self, obj):
        assert roundtrip(obj) == obj

    def test_tuple_stays_a_tuple(self):
        assert roundtrip((1, "a", (2, 3))) == (1, "a", (2, 3))

    def test_non_string_dict_keys(self):
        obj = {("us", 3): 10, 7: "x"}
        assert roundtrip(obj) == obj

    def test_string_dict_with_tilde_key_is_escaped(self):
        # A user dict containing the tag key must not be mistaken for
        # a codec node.
        obj = {"~": "gotcha", "x": 1}
        assert roundtrip(obj) == obj

    def test_sets(self):
        assert roundtrip({1, 2, 3}) == {1, 2, 3}
        out = roundtrip(frozenset({"a", "b"}))
        assert out == frozenset({"a", "b"})
        assert isinstance(out, frozenset)


class TestNumpyAndSketches:
    def test_numpy_scalar_keeps_dtype(self):
        out = roundtrip(np.int64(42))
        assert out == 42
        assert out.dtype == np.int64
        assert roundtrip(np.float32(1.5)) == np.float32(1.5)

    def test_numpy_array_keeps_dtype_and_values(self):
        arr = np.array([1, 5, 9], dtype=np.int32)
        out = roundtrip(arr)
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, arr)

    def test_object_array_elements_are_encoded_and_copied(self):
        members = {1, 2}
        arr = np.empty(3, dtype=object)
        arr[0], arr[1], arr[2] = frozenset({7}), ("a", 1), members
        tree = encode(arr)
        # The sender reuses its buffers after encoding.
        members.add(3)
        arr[0] = "changed"
        for out in (decode(tree), decode(json_roundtrip(tree))):
            assert out.dtype == object and out.shape == (3,)
            assert out[0] == frozenset({7})
            assert type(out[1]) is tuple and out[1] == ("a", 1)
            assert out[2] == {1, 2}

    def test_hyperloglog_estimate_survives(self):
        hll = HyperLogLog(precision=10)
        for i in range(5000):
            hll.add(f"user-{i}")
        out = roundtrip(hll)
        assert out is not hll
        assert out.cardinality() == hll.cardinality()


class TestStructured:
    def test_enum(self):
        assert roundtrip(DataType.LONG) is DataType.LONG

    def test_dataclass_is_a_fresh_object(self):
        stats = ExecutionStats(num_docs_scanned=99)
        out = roundtrip(stats)
        assert out == stats
        assert out is not stats

    def test_nested_server_result(self):
        result = ServerResult(server="server-1", error=None,
                              stats=ExecutionStats(num_segments_queried=4),
                              elapsed_ms=12.5)
        out = roundtrip(result)
        assert out == result
        assert out.stats is not result.stats

    def test_refuses_non_repro_classes(self):
        class Rogue:
            pass

        with pytest.raises(PinotError, match="cannot encode"):
            encode(Rogue())

    def test_decode_refuses_non_repro_class_path(self):
        with pytest.raises(PinotError, match="refuses non-repro"):
            decode({"~": "dc", "c": "os:system", "v": {}})

    def test_class_paths_resolve_once_and_refusals_repeat(self):
        path = "repro.common.types:DataType"
        assert _resolve_class(path) is DataType
        hits = _resolve_class.cache_info().hits
        assert roundtrip(DataType.INT) is DataType.INT
        assert _resolve_class.cache_info().hits == hits + 1
        for __ in range(3):
            with pytest.raises(PinotError, match="refuses non-repro"):
                decode({"~": "dc", "c": "os:system", "v": {}})


class TestErrors:
    def test_error_roundtrip_keeps_class_and_message(self):
        out = decode_error(json_roundtrip(
            encode_error(SegmentError("segment seg_3 missing"))
        ))
        assert isinstance(out, SegmentError)
        assert "seg_3 missing" in str(out)

    def test_unreconstructable_error_degrades_to_pinot_error(self):
        # ThrottledError's __init__ takes (tenant, retry_after_s); its
        # args don't round-trip into the constructor, so the decode
        # degrades instead of crashing the transport.
        tree = json_roundtrip(encode_error(ThrottledError("gold", 2.0)))
        out = decode_error(tree)
        assert type(out) is PinotError
        assert "out of query tokens" in str(out)

    def test_expected_fallbacks_are_counted_not_swallowed_silently(self):
        before = runtime_metrics.count("codec_decode_error_fallbacks")
        for tree in (
            {"~": "exc", "c": "os:system", "v": ["x"]},  # non-repro path
            {"~": "exc", "c": "repro.gone:Missing", "v": []},  # no module
            {"~": "exc",
             "c": "repro.errors:ThrottledError", "v": ["only-one-arg"]},
        ):
            out = decode_error(json_roundtrip(tree))
            assert type(out) is PinotError
        after = runtime_metrics.count("codec_decode_error_fallbacks")
        assert after == before + 3

    def test_unexpected_constructor_failures_propagate(self, monkeypatch):
        """Only *expected* reconstruction failures may degrade; a class
        whose constructor raises something else is a genuine bug and
        must surface, not be silently replaced with a PinotError."""
        class Exploding(PinotError):
            def __init__(self, *args):
                raise RuntimeError("constructor bug")

        monkeypatch.setattr("repro.errors.Exploding", Exploding,
                            raising=False)
        tree = json_roundtrip(
            {"~": "exc", "c": "repro.errors:Exploding", "v": []}
        )
        with pytest.raises(RuntimeError, match="constructor bug"):
            decode_error(tree)


class TestBlobs:
    def test_blob_rides_side_channel_uncopied(self, tiny_segment):
        blobs = []
        tree = json_roundtrip(encode({"seg": tiny_segment}, blobs))
        assert blobs == [tiny_segment]
        out = decode(tree, blobs)
        assert out["seg"] is tiny_segment  # by reference, not by value

    def test_blob_without_channel_raises(self, tiny_segment):
        with pytest.raises(PinotError, match="side channel"):
            encode(tiny_segment, None)

    def test_payload_bytes_counts_blob_estimate(self, tiny_segment):
        blobs = []
        tree = encode({"seg": tiny_segment}, blobs)
        assert payload_bytes(tree, blobs) > payload_bytes(tree, [])


@pytest.fixture
def tiny_segment():
    from repro.common.schema import Schema
    from repro.common.types import DataType, dimension, metric
    from repro.segment.builder import SegmentBuilder

    schema = Schema("t", [dimension("d"), metric("m", DataType.LONG)])
    builder = SegmentBuilder("t_0", "t", schema)
    for i in range(4):
        builder.add({"d": f"v{i}", "m": i})
    return builder.build()
