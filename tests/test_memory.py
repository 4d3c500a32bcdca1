"""Peak traced bytes of the sparse reader, the block-sum test and the
partition reader on compiled voters, against the arrays they return or
read: each bound holds with room to spare and fails if a full-size copy
of the input or an unneeded full-size temporary comes back."""

import io
import tracemalloc

import pytest

from microlump import (Topology, build_micro_chain, builtin_voter, check_lumpable,
                       frequency_partition, read_partition, read_sparse, write_partition,
                       write_sparse)


@pytest.fixture(scope="module", params=[(2, 12), (3, 8)], ids=["delta2-N12", "delta3-N8"])
def voter(request):
    delta, n = request.param
    chain = build_micro_chain(builtin_voter(Topology.complete(n), labels=tuple("abc"[:delta])))
    return chain, frequency_partition(chain.space)


def traced_peak(fn, *args):
    """What `fn(*args)` returns, and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_sparse_reader_peaks_below_60_bytes_per_entry(voter):
    """Four int64 columns are 32 B per entry; the returned chain holds 16."""
    chain, _ = voter
    buf = io.StringIO()
    write_sparse(chain, buf)
    read, peak = traced_peak(read_sparse, buf.getvalue())
    assert read.nnz() == chain.nnz()
    assert peak <= 60 * chain.nnz()


def test_the_block_sum_test_peaks_below_36_bytes_per_entry(voter):
    chain, part = voter
    verdict, peak = traced_peak(check_lumpable, chain, part)
    assert verdict
    assert peak <= 36 * chain.nnz()


def test_the_partition_reader_peaks_below_two_and_a_half_times_its_members(voter):
    _, part = voter
    buf = io.StringIO()
    write_partition(part, buf)
    read, peak = traced_peak(read_partition, buf.getvalue())
    assert read.labels == part.labels
    assert peak <= 2.5 * read.members.nbytes
