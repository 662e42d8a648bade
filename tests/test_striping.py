"""Unit + property tests for stripe layout arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iosys.striping import StripeLayout

MiB = 1024 * 1024


def layout(stripe_count=4, n_osts=8, stripe_size=MiB, start_ost=0):
    return StripeLayout(
        stripe_size=stripe_size,
        stripe_count=stripe_count,
        n_osts=n_osts,
        start_ost=start_ost,
    )


class TestExtents:
    def test_single_stripe_extent(self):
        lo = layout()
        exts = lo.extents(0, 1000)
        assert len(exts) == 1
        assert exts[0].ost == 0 and exts[0].length == 1000

    def test_boundary_crossing_splits(self):
        lo = layout()
        exts = lo.extents(MiB - 100, 200)
        assert [e.length for e in exts] == [100, 100]
        assert [e.stripe_index for e in exts] == [0, 1]
        assert [e.ost for e in exts] == [0, 1]

    def test_round_robin_wraps_at_stripe_count(self):
        lo = layout(stripe_count=4, n_osts=8)
        exts = lo.extents(0, 6 * MiB)
        assert [e.ost for e in exts] == [0, 1, 2, 3, 0, 1]

    def test_start_ost_offsets_mapping(self):
        lo = layout(stripe_count=3, n_osts=8, start_ost=6)
        exts = lo.extents(0, 3 * MiB)
        assert [e.ost for e in exts] == [6, 7, 0]

    def test_zero_length(self):
        assert layout().extents(500, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            layout().extents(-1, 10)
        with pytest.raises(ValueError):
            layout().extents(0, -10)


class TestCounts:
    def test_boundary_crossings(self):
        lo = layout()
        assert lo.boundary_crossings(0, MiB) == 0
        assert lo.boundary_crossings(0, MiB + 1) == 1
        assert lo.boundary_crossings(MiB // 2, MiB) == 1
        assert lo.boundary_crossings(0, 3 * MiB) == 2
        assert lo.boundary_crossings(0, 0) == 0

    def test_partial_stripes_aligned_write(self):
        lo = layout()
        assert lo.partial_stripes(0, 2 * MiB) == 0

    def test_partial_stripes_unaligned_record(self):
        lo = layout()
        # the GCRM case: a 1.6 MB record at an unaligned offset
        n = lo.partial_stripes(int(1.6 * MiB), int(1.6 * MiB))
        assert n == 2

    def test_partial_stripes_interior_full(self):
        lo = layout()
        # half-stripe head, two full stripes, half-stripe tail
        assert lo.partial_stripes(MiB // 2, 3 * MiB) == 2

    def test_is_aligned(self):
        lo = layout()
        assert lo.is_aligned(0, MiB)
        assert lo.is_aligned(3 * MiB, 2 * MiB)
        assert not lo.is_aligned(1, MiB)
        assert not lo.is_aligned(0, MiB - 1)

    def test_rpcs_for(self):
        lo = layout()
        assert lo.rpcs_for(0, MiB) == 0
        assert lo.rpcs_for(1, MiB) == 1
        assert lo.rpcs_for(MiB, MiB) == 1
        assert lo.rpcs_for(MiB + 1, MiB) == 2

    def test_rpcs_for_rejects_non_positive_rpc_size(self):
        lo = layout()
        for rpc_size in (0, -MiB):
            with pytest.raises(ValueError, match="rpc_size must be positive"):
                lo.rpcs_for(MiB, rpc_size)

    @pytest.mark.parametrize(
        "query",
        ["extents", "bytes_per_ost", "osts_touched", "boundary_crossings",
         "partial_stripes", "is_aligned", "stripe_span"],
    )
    # (-MiB, MiB) and (0, -MiB) sit on stripe boundaries: is_aligned
    # used to answer True for both
    @pytest.mark.parametrize(
        "offset,length", [(-5, 10), (0, -3), (-1, 0), (-MiB, MiB), (0, -MiB)]
    )
    def test_negative_input_same_error_everywhere(self, query, offset, length):
        with pytest.raises(ValueError, match="offset/length must be non-negative"):
            getattr(layout(), query)(offset, length)

    def test_bytes_per_ost_totals(self):
        lo = layout(stripe_count=2, n_osts=4)
        per = lo.bytes_per_ost(0, 5 * MiB)
        assert per == {0: 3 * MiB, 1: 2 * MiB}


class TestValidation:
    def test_stripe_count_bounds(self):
        with pytest.raises(ValueError):
            layout(stripe_count=0)
        with pytest.raises(ValueError):
            layout(stripe_count=9, n_osts=8)

    def test_start_ost_bounds(self):
        with pytest.raises(ValueError):
            layout(start_ost=8, n_osts=8)

    def test_stripe_size_positive(self):
        with pytest.raises(ValueError):
            layout(stripe_size=0)


@settings(max_examples=200, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=100 * MiB),
    length=st.integers(min_value=0, max_value=32 * MiB),
    stripe_count=st.integers(min_value=1, max_value=8),
    start_ost=st.integers(min_value=0, max_value=7),
)
def test_extents_partition_the_range(offset, length, stripe_count, start_ost):
    """Extents exactly tile [offset, offset+length): contiguous, complete,
    each within one stripe, each mapped to the round-robin OST."""
    lo = StripeLayout(
        stripe_size=MiB, stripe_count=stripe_count, n_osts=8, start_ost=start_ost
    )
    exts = lo.extents(offset, length)
    assert sum(e.length for e in exts) == length
    pos = offset
    for e in exts:
        assert e.offset == pos
        assert e.length > 0
        # within one stripe
        assert e.offset // MiB == (e.end - 1) // MiB
        assert e.stripe_index == e.offset // MiB
        assert e.ost == lo.ost_of_stripe(e.stripe_index)
        pos = e.end
    assert pos == offset + length


@settings(max_examples=200, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=50 * MiB),
    length=st.integers(min_value=1, max_value=16 * MiB),
)
def test_partial_plus_full_equals_touched(offset, length):
    """partial + full stripes == total stripes touched."""
    lo = layout()
    exts = lo.extents(offset, length)
    touched = len(exts)
    partial = lo.partial_stripes(offset, length)
    full = sum(1 for e in exts if e.length == MiB and e.offset % MiB == 0)
    assert partial + full == touched


@settings(max_examples=100, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=50 * MiB),
    length=st.integers(min_value=1, max_value=16 * MiB),
)
def test_aligned_extents_have_no_partials(offset, length):
    lo = layout()
    aligned_off = (offset // MiB) * MiB
    aligned_len = ((length + MiB - 1) // MiB) * MiB
    assert lo.partial_stripes(aligned_off, aligned_len) == 0
    assert lo.is_aligned(aligned_off, aligned_len)
