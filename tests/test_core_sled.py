"""Unit and property tests for Sled and SledVector invariants."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sled import Sled, SledVector


def _sled(offset, length, latency=0.01, bandwidth=1e6):
    return Sled(offset, length, latency, bandwidth)


class TestSled:
    def test_end(self):
        assert _sled(100, 50).end == 150

    def test_delivery_time(self):
        sled = Sled(0, 1000, latency=0.5, bandwidth=1000)
        assert sled.delivery_time() == pytest.approx(1.5)

    def test_same_level(self):
        assert _sled(0, 10).same_level(_sled(10, 10))
        assert not _sled(0, 10).same_level(_sled(10, 10, latency=0.02))

    def test_split_at(self):
        left, right = _sled(0, 100).split_at(40)
        assert (left.offset, left.length) == (0, 40)
        assert (right.offset, right.length) == (40, 60)
        assert left.same_level(right)

    def test_split_outside_rejected(self):
        with pytest.raises(ValueError):
            _sled(0, 100).split_at(0)
        with pytest.raises(ValueError):
            _sled(0, 100).split_at(100)

    @pytest.mark.parametrize("kwargs", [
        dict(offset=-1, length=1, latency=0.1, bandwidth=1.0),
        dict(offset=0, length=0, latency=0.1, bandwidth=1.0),
        dict(offset=0, length=1, latency=-0.1, bandwidth=1.0),
        dict(offset=0, length=1, latency=0.1, bandwidth=0.0),
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Sled(**kwargs)


_FIELD_ERRORS = [
    (dict(offset=-1), "negative SLED offset: -1"),
    (dict(length=0), "non-positive SLED length: 0"),
    (dict(latency=-0.1), "negative SLED latency: -0.1"),
    (dict(bandwidth=0.0), "non-positive SLED bandwidth: 0.0"),
]


class TestSledContract:
    """A SLED is a validated tuple: immutable, hashable as its fields,
    and no construction path skips the field checks."""

    def test_fields_cannot_be_assigned(self):
        sled = _sled(0, 10)
        for name in ("offset", "length", "latency", "bandwidth", "other"):
            with pytest.raises(AttributeError):
                setattr(sled, name, 1)
        assert sled == (0, 10, 0.01, 1e6)

    def test_hash_and_equality_are_the_field_tuples(self):
        sled = Sled(4096, 8192, 0.25, 3e6)
        fields = (4096, 8192, 0.25, 3e6)
        assert sled == fields and fields == sled
        assert hash(sled) == hash(fields)
        assert sled != (4096, 8192, 0.25, 4e6)
        assert {sled: 1}[fields] == 1

    def test_repr(self):
        assert repr(Sled(0, 10, 0.5, 2.0)) == (
            "Sled(offset=0, length=10, latency=0.5, bandwidth=2.0)")

    @pytest.mark.parametrize("clone", [
        lambda sled: pickle.loads(pickle.dumps(sled)),
        copy.deepcopy,
        copy.copy,
    ])
    def test_round_trips(self, clone):
        sled = Sled(4096, 8192, 0.25, 3e6)
        twin = clone(sled)
        assert type(twin) is Sled
        assert twin == sled and hash(twin) == hash(sled)
        assert twin.end == 12288

    @pytest.mark.parametrize("bad, message", _FIELD_ERRORS)
    def test_constructor_rejects(self, bad, message):
        fields = dict(offset=0, length=1, latency=0.1, bandwidth=1.0)
        fields.update(bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Sled(**fields)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Sled(*fields.values())

    @pytest.mark.parametrize("bad, message", _FIELD_ERRORS)
    def test_make_rejects(self, bad, message):
        fields = dict(offset=0, length=1, latency=0.1, bandwidth=1.0)
        fields.update(bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Sled._make(fields.values())
        assert Sled._make((0, 1, 0.1, 1.0)) == (0, 1, 0.1, 1.0)

    @pytest.mark.parametrize("bad, message", _FIELD_ERRORS)
    def test_replace_rejects(self, bad, message):
        sled = Sled(0, 1, 0.1, 1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            sled._replace(**bad)
        assert type(sled._replace(length=2)) is Sled


class TestSledVectorValidation:
    def test_empty_vector_for_empty_file(self):
        vector = SledVector([], file_size=0)
        assert len(vector) == 0

    def test_empty_vector_for_nonempty_file_rejected(self):
        with pytest.raises(ValueError):
            SledVector([], file_size=10)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            SledVector([_sled(10, 10)], file_size=20)

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            SledVector([_sled(0, 10), _sled(20, 10)], file_size=30)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            SledVector([_sled(0, 10), _sled(5, 10)], file_size=15)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SledVector([_sled(0, 10)], file_size=20)

    @pytest.mark.parametrize("sleds, size, message", [
        ([], 10, "empty SLED vector for file of size 10"),
        ([_sled(10, 10)], 20, "SLED vector must start at offset 0, got 10"),
        ([_sled(0, 10), _sled(20, 10)], 30,
         "gap or overlap between SLEDs at 10 vs 20"),
        ([_sled(0, 10), _sled(5, 10)], 15,
         "gap or overlap between SLEDs at 10 vs 5"),
        ([_sled(0, 10)], 20, "SLED vector covers 10 bytes of a 20-byte file"),
        # no sort without coalescing: out-of-order input is refused
        ([_sled(10, 10), _sled(0, 10)], 20,
         "SLED vector must start at offset 0, got 10"),
    ])
    def test_error_messages(self, sleds, size, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SledVector(sleds, file_size=size, coalesce=False)

    def test_unsorted_input_is_sorted(self):
        vector = SledVector([_sled(10, 10, latency=0.2), _sled(0, 10)],
                            file_size=20)
        assert [s.offset for s in vector] == [0, 10]


class TestCoalescing:
    def test_adjacent_same_level_merged(self):
        vector = SledVector([_sled(0, 10), _sled(10, 10)], file_size=20)
        assert len(vector) == 1
        assert vector[0].length == 20

    def test_different_levels_kept(self):
        vector = SledVector([_sled(0, 10), _sled(10, 10, latency=0.5)],
                            file_size=20)
        assert len(vector) == 2

    def test_coalesce_disabled(self):
        sleds = [_sled(0, 10), _sled(10, 10), _sled(20, 5, latency=0.2)]
        vector = SledVector(sleds, file_size=25, coalesce=False)
        assert len(vector) == 3
        assert list(vector) == sleds and vector.file_size == 25

    @given(st.lists(st.tuples(st.integers(1, 20),
                              st.sampled_from([0.001, 0.02, 0.5])),
                    min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_coalesced_vector_properties(self, pieces):
        """Any contiguous latency labelling coalesces into a valid vector
        where adjacent sleds differ and coverage is exact."""
        sleds = []
        offset = 0
        for length, latency in pieces:
            sleds.append(Sled(offset, length, latency, 1e6))
            offset += length
        vector = SledVector(sleds, file_size=offset)
        # exact, gapless coverage
        assert vector[0].offset == 0
        assert vector[len(vector) - 1].end == offset
        for a, b in zip(vector, list(vector)[1:]):
            assert a.end == b.offset
            assert not a.same_level(b)
        assert sum(s.length for s in vector) == offset


class TestQueries:
    def _vector(self):
        return SledVector([
            _sled(0, 100, latency=0.5),
            _sled(100, 100, latency=0.001),
            _sled(200, 50, latency=0.5),
        ], file_size=250)

    def test_sled_at(self):
        vector = self._vector()
        assert vector.sled_at(0).latency == 0.5
        assert vector.sled_at(150).latency == 0.001
        assert vector.sled_at(249).offset == 200

    def test_sled_at_outside_rejected(self):
        with pytest.raises(ValueError):
            self._vector().sled_at(250)

    def test_levels(self):
        assert len(self._vector().levels()) == 2

    def test_bytes_at_or_below_latency(self):
        assert self._vector().bytes_at_or_below_latency(0.01) == 100
        assert self._vector().bytes_at_or_below_latency(1.0) == 250

    def test_min_max_latency(self):
        vector = self._vector()
        assert vector.min_latency() == 0.001
        assert vector.max_latency() == 0.5

    def test_equality(self):
        assert self._vector() == self._vector()
        assert self._vector() != SledVector([_sled(0, 250)], file_size=250)
