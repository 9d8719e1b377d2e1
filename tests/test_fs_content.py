"""Unit and property tests for the content stores."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.content import ByteStoreContent, SyntheticText, ZeroContent
from repro.sim.errors import InvalidArgumentError, ReadOnlyFilesystemError
from repro.sim.units import PAGE_SIZE


class TestZeroContent:
    def test_reads_zeros(self):
        assert ZeroContent().read(10, 5) == b"\0" * 5

    def test_write_rejected(self):
        with pytest.raises(ReadOnlyFilesystemError):
            ZeroContent().write(0, b"x")

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ZeroContent().read(-1, 5)


class TestSyntheticText:
    def test_deterministic(self):
        a = SyntheticText(seed=1, size=100_000)
        b = SyntheticText(seed=1, size=100_000)
        assert a.read(12_345, 500) == b.read(12_345, 500)

    def test_different_seeds_differ(self):
        a = SyntheticText(seed=1, size=100_000)
        b = SyntheticText(seed=2, size=100_000)
        assert a.read(0, 4096) != b.read(0, 4096)

    def test_reads_clamped_to_size(self):
        content = SyntheticText(seed=1, size=100)
        assert len(content.read(90, 50)) == 10
        assert content.read(200, 10) == b""

    def test_is_ascii_text_with_newlines(self):
        blob = SyntheticText(seed=3, size=PAGE_SIZE * 2).read(0, PAGE_SIZE * 2)
        blob.decode("ascii")
        assert b"\n" in blob

    def test_plant_appears_at_offset(self):
        content = SyntheticText(seed=1, size=10_000,
                                plants={5_000: b"MARKER"})
        assert content.read(5_000, 6) == b"MARKER"

    def test_plant_visible_in_partial_overlap(self):
        content = SyntheticText(seed=1, size=10_000,
                                plants={5_000: b"MARKER"})
        assert content.read(5_002, 2) == b"RK"
        assert content.read(4_998, 4).endswith(b"MA")

    def test_plant_escaping_file_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SyntheticText(seed=1, size=100, plants={99: b"LONG"})

    @given(st.lists(st.tuples(st.integers(0, 3 * PAGE_SIZE),
                              st.binary(min_size=1, max_size=64)),
                    max_size=8),
           st.integers(0, 3 * PAGE_SIZE), st.integers(0, 3 * PAGE_SIZE))
    def test_plants_spliced_in_plants_order(self, plants, offset, length):
        """Overlapping plants land in ``plants`` order, later over
        earlier, whether or not the read overlaps any of them — checked
        against a read of the bare text spliced by hand."""
        size = 3 * PAGE_SIZE + 64
        content = SyntheticText(seed=4, size=size)
        expected = bytearray(content.read(0, size))
        content.plants = dict(plants)
        for at, blob in content.plants.items():
            expected[at:at + len(blob)] = blob
        assert content.read(offset, length) == bytes(
            expected[offset:offset + length])

    def test_plants_reassignment_reindexes(self):
        content = SyntheticText(seed=1, size=10_000,
                                plants={5_000: b"MARKER"})
        bare = SyntheticText(seed=1, size=10_000)
        content.plants = {100: b"NEEDLE"}
        assert content.read(5_000, 6) == bare.read(5_000, 6)
        assert content.read(100, 6) == b"NEEDLE"
        with pytest.raises(TypeError):
            content.plants[200] = b"X"  # read-only: assign a new dict

    def test_consistency_across_read_granularity(self):
        content = SyntheticText(seed=9, size=3 * PAGE_SIZE)
        whole = content.read(0, 3 * PAGE_SIZE)
        pieces = b"".join(content.read(i * 1000, 1000)
                          for i in range(3 * PAGE_SIZE // 1000 + 1))
        assert pieces[: len(whole)] == whole

    @given(st.integers(0, 50_000), st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_read_matches_whole_file_slice(self, offset, length):
        content = SyntheticText(seed=11, size=50_000)
        whole = content.read(0, 50_000)
        expected = whole[offset: offset + length]
        assert content.read(offset, length) == expected


class TestByteStoreContent:
    def test_unwritten_is_zero(self):
        assert ByteStoreContent().read(100, 4) == b"\0" * 4

    def test_roundtrip(self):
        store = ByteStoreContent()
        store.write(1000, b"hello")
        assert store.read(1000, 5) == b"hello"

    def test_cross_page_write(self):
        store = ByteStoreContent()
        blob = bytes(range(256)) * 40  # 10240 bytes, crosses pages
        store.write(PAGE_SIZE - 100, blob)
        assert store.read(PAGE_SIZE - 100, len(blob)) == blob

    def test_initial_data(self):
        store = ByteStoreContent(b"abc")
        assert store.read(0, 3) == b"abc"

    def test_overwrite(self):
        store = ByteStoreContent()
        store.write(0, b"aaaa")
        store.write(2, b"bb")
        assert store.read(0, 4) == b"aabb"

    @given(st.lists(st.tuples(st.integers(0, 20_000),
                              st.binary(min_size=1, max_size=500)),
                    min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_bytearray(self, writes):
        store = ByteStoreContent()
        reference = bytearray(30_000)
        for offset, data in writes:
            store.write(offset, data)
            reference[offset: offset + len(data)] = data
        assert store.read(0, 30_000) == bytes(reference)


class TestCowContent:
    def test_reads_fall_through_to_base(self):
        from repro.fs.content import CowContent
        base = SyntheticText(seed=5, size=20_000)
        cow = CowContent(base)
        assert cow.read(3_000, 400) == base.read(3_000, 400)

    def test_writes_shadow_base(self):
        from repro.fs.content import CowContent
        base = SyntheticText(seed=5, size=20_000)
        cow = CowContent(base)
        cow.write(5_000, b"PATCHED")
        assert cow.read(5_000, 7) == b"PATCHED"
        # neighbouring bytes keep the base content
        assert cow.read(4_990, 10) == base.read(4_990, 10)
        assert cow.read(5_007, 10) == base.read(5_007, 10)

    def test_cross_page_write(self):
        from repro.fs.content import CowContent
        base = ZeroContent()
        cow = CowContent(base)
        blob = bytes(range(200)) * 50  # 10 KB, crosses pages
        cow.write(PAGE_SIZE - 77, blob)
        assert cow.read(PAGE_SIZE - 77, len(blob)) == blob

    def test_base_object_unmodified(self):
        from repro.fs.content import CowContent
        base = SyntheticText(seed=5, size=20_000)
        before = base.read(0, 20_000)
        cow = CowContent(base)
        cow.write(0, b"X" * 10_000)
        assert base.read(0, 20_000) == before

    @given(st.lists(st.tuples(st.integers(0, 15_000),
                              st.binary(min_size=1, max_size=400)),
                    min_size=1, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_overlay(self, writes):
        from repro.fs.content import CowContent
        base = SyntheticText(seed=6, size=16_000)
        cow = CowContent(base)
        reference = bytearray(base.read(0, 16_000))
        for offset, data in writes:
            data = data[: 16_000 - offset]
            if not data:
                continue
            cow.write(offset, data)
            reference[offset: offset + len(data)] = data
        assert cow.read(0, 16_000) == bytes(reference)
