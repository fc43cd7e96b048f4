"""Software-MPI collective algorithms over :class:`MpiRank` primitives.

All functions are generators to run as simulation processes, one per rank,
operating on flat numpy arrays.  ``tag`` is a base value; algorithms derive
per-step tags below a +512 window.

The high-level entry points (``mpi_bcast`` etc.) consult
:class:`~repro.baselines.tuning.MpiTuning` unless an algorithm is forced —
mirroring how OpenMPI/MPICH pick algorithms per (size, nprocs).
``mpi_allgather`` (ring) and ``mpi_alltoall`` (pairwise) have one
algorithm each.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.tuning import MpiTuning
from repro.collectives.util import block_ranges

_DEFAULT_TUNING = MpiTuning()


def _elem_view(arr: Optional[np.ndarray], offset_bytes: int, nbytes: int):
    if arr is None:
        return None
    flat = arr.reshape(-1)
    start = offset_bytes // flat.itemsize
    stop = start + nbytes // flat.itemsize
    return flat[start:stop]


def _scratch_like(arr: Optional[np.ndarray], nbytes: int):
    if arr is None:
        return None
    flat = arr.reshape(-1)
    return np.zeros(nbytes // flat.itemsize, dtype=flat.dtype)


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------

def bcast_binomial(me, buf, nbytes, root, tag):
    size = me.size
    relative = (me.rank - root) % size
    mask = 1
    while mask < size:
        if relative & mask:
            parent = (relative - mask + root) % size
            yield me.irecv(buf, nbytes, parent, tag)
            break
        mask <<= 1
    # Blocking sends in descending-mask order, as MPICH does: the deepest
    # subtree's copy must not share the wire with the shallower ones.
    mask >>= 1
    while mask > 0:
        if relative + mask < size:
            child = (relative + mask + root) % size
            yield me.isend(buf, nbytes, child, tag)
        mask >>= 1


def bcast_scatter_allgather(me, buf, nbytes, root, tag):
    """van de Geijn large-message bcast: binomial scatter + ring allgather."""
    size = me.size
    blocks = block_ranges(nbytes, size)
    # Phase 1: scatter the blocks (linear from the root; the scatter itself
    # is latency-insignificant next to the allgather at large sizes).
    my_block = (me.rank - root) % size
    if me.rank == root:
        pending = []
        for q in range(1, size):
            dst = (root + q) % size
            off, ln = blocks[q]
            if ln:
                pending.append(me.isend(
                    _elem_view(buf, off, ln), ln, dst, tag + q))
        for ev in pending:
            yield ev
    else:
        off, ln = blocks[my_block]
        if ln:
            yield me.irecv(_elem_view(buf, off, ln), ln, root, tag + my_block)
    # Phase 2: ring allgather of the blocks.
    next_rank = (me.rank + 1) % size
    prev_rank = (me.rank - 1) % size
    for step in range(size - 1):
        send_q = (me.rank - root - step) % size
        recv_q = (me.rank - root - step - 1) % size
        s_off, s_len = blocks[send_q]
        r_off, r_len = blocks[recv_q]
        pending = []
        if s_len:
            pending.append(me.isend(_elem_view(buf, s_off, s_len), s_len,
                                    next_rank, tag + 100 + step))
        if r_len:
            pending.append(me.irecv(_elem_view(buf, r_off, r_len), r_len,
                                    prev_rank, tag + 100 + step))
        for ev in pending:
            yield ev


def bcast_pipeline(me, buf, nbytes, root, tag, segment_bytes=128 * 1024):
    """Segmented chain broadcast (OpenMPI's "pipeline" choice).

    Rank at chain position p forwards each segment to p+1 as soon as it
    arrives, so for large messages the cost approaches one message time
    plus (P-2) segment times, independent of the root's fan-out.
    """
    size = me.size
    position = (me.rank - root) % size
    prev_rank = (me.rank - 1) % size
    next_rank = (me.rank + 1) % size
    segments = block_ranges(nbytes, max(1, -(-nbytes // segment_bytes)))

    last_send = None
    for s, (offset, length) in enumerate(segments):
        if length == 0:
            continue
        view = _elem_view(buf, offset, length)
        if position != 0:
            yield me.irecv(view, length, prev_rank, tag + s)
        if position != size - 1:
            # Overlap: ship segment s while s+1 is still in flight to us.
            if last_send is not None:
                yield last_send
            last_send = me.isend(view, length, next_rank, tag + s)
    if last_send is not None:
        yield last_send


def scatter_binomial(me, sendbuf, recvbuf, nbytes, root, tag):
    """Binomial-tree scatter: halves of the block set fan down the tree."""
    size = me.size
    relative = (me.rank - root) % size

    if relative == 0:
        held = _scratch_like(sendbuf, size * nbytes)
        for q in range(size):
            rank_q = (root + q) % size
            yield me.memcpy(_elem_view(sendbuf, rank_q * nbytes, nbytes),
                            _elem_view(held, q * nbytes, nbytes), nbytes)
        my_blocks = size
        recv_mask = 1
        while recv_mask < size:
            recv_mask <<= 1
    else:
        recv_mask = relative & -relative
        my_blocks = min(recv_mask, size - relative)
        held = _scratch_like(recvbuf, my_blocks * nbytes)
        parent = (relative - recv_mask + root) % size
        yield me.irecv(held, my_blocks * nbytes, parent, tag)

    mask = recv_mask >> 1
    while mask > 0:
        child_rel = relative + mask
        if child_rel < size and mask < my_blocks:
            child = (child_rel + root) % size
            child_blocks = min(mask, my_blocks - mask)
            yield me.isend(
                _elem_view(held, mask * nbytes, child_blocks * nbytes),
                child_blocks * nbytes, child, tag)
        mask >>= 1
    yield me.memcpy(_elem_view(held, 0, nbytes), recvbuf, nbytes)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def reduce_linear(me, sendbuf, recvbuf, nbytes, root, func, tag):
    """All-to-one: root folds every contribution sequentially."""
    if me.rank != root:
        yield me.isend(sendbuf, nbytes, root, tag)
        return
    yield me.memcpy(sendbuf, recvbuf, nbytes)
    incoming = _scratch_like(sendbuf, nbytes)
    for src in range(me.size):
        if src == root:
            continue
        yield me.irecv(incoming, nbytes, src, tag)
        yield me.local_reduce(func, recvbuf, incoming, recvbuf, nbytes)


def reduce_chain(me, sendbuf, recvbuf, nbytes, root, func, tag):
    """Chain (the "ring protocol" of the Fig 12 narrative)."""
    size = me.size
    position = (me.rank - root - 1) % size  # root at size-1
    next_rank = (me.rank + 1) % size
    prev_rank = (me.rank - 1) % size
    if position == 0:
        yield me.isend(sendbuf, nbytes, next_rank, tag)
        return
    incoming = _scratch_like(sendbuf, nbytes)
    if position == size - 1:  # root
        yield me.memcpy(sendbuf, recvbuf, nbytes)
        yield me.irecv(incoming, nbytes, prev_rank, tag)
        yield me.local_reduce(func, recvbuf, incoming, recvbuf, nbytes)
    else:
        acc = _scratch_like(sendbuf, nbytes)
        yield me.memcpy(sendbuf, acc, nbytes)
        yield me.irecv(incoming, nbytes, prev_rank, tag)
        yield me.local_reduce(func, acc, incoming, acc, nbytes)
        yield me.isend(acc, nbytes, next_rank, tag)


def reduce_binomial(me, sendbuf, recvbuf, nbytes, root, func, tag):
    size = me.size
    relative = (me.rank - root) % size
    acc = recvbuf if relative == 0 else _scratch_like(sendbuf, nbytes)
    yield me.memcpy(sendbuf, acc, nbytes)
    incoming = _scratch_like(sendbuf, nbytes)
    mask = 1
    while mask < size:
        if relative & mask:
            parent = (relative - mask + root) % size
            yield me.isend(acc, nbytes, parent, tag)
            break
        child_rel = relative | mask
        if child_rel < size:
            child = (child_rel + root) % size
            yield me.irecv(incoming, nbytes, child, tag)
            yield me.local_reduce(func, acc, incoming, acc, nbytes)
        mask <<= 1


def reduce_scatter_gather(me, sendbuf, recvbuf, nbytes, root, func, tag):
    """Rabenseifner-style: ring reduce-scatter, then gather to the root."""
    size = me.size
    rank = me.rank
    blocks = block_ranges(nbytes, size)
    acc = _scratch_like(sendbuf, nbytes)
    yield me.memcpy(sendbuf, acc, nbytes)
    incoming = _scratch_like(sendbuf, max(ln for _, ln in blocks) or 1)
    next_rank = (rank + 1) % size
    prev_rank = (rank - 1) % size
    for step in range(size - 1):
        send_q = (rank - step) % size
        recv_q = (rank - step - 1) % size
        s_off, s_len = blocks[send_q]
        r_off, r_len = blocks[recv_q]
        send_ev = me.isend(_elem_view(acc, s_off, s_len), s_len,
                           next_rank, tag + step) if s_len else None
        if r_len:
            yield me.irecv(_elem_view(incoming, 0, r_len), r_len,
                           prev_rank, tag + step)
            yield me.local_reduce(func, _elem_view(acc, r_off, r_len),
                                  _elem_view(incoming, 0, r_len),
                                  _elem_view(acc, r_off, r_len), r_len)
        if send_ev is not None:
            yield send_ev
    # Each rank now owns the reduced block (rank + 1) % size.
    owned_q = (rank + 1) % size
    o_off, o_len = blocks[owned_q]
    if rank == root:
        yield me.memcpy(_elem_view(acc, o_off, o_len),
                        _elem_view(recvbuf, o_off, o_len), o_len)
        pending = []
        for src in range(size):
            if src == root:
                continue
            q = (src - (size - 1)) % size
            off, ln = blocks[q]
            if ln:
                pending.append(me.irecv(_elem_view(recvbuf, off, ln), ln,
                                        src, tag + 300 + src))
        for ev in pending:
            yield ev
    else:
        if o_len:
            yield me.isend(_elem_view(acc, o_off, o_len), o_len, root,
                           tag + 300 + rank)


# ---------------------------------------------------------------------------
# allreduce
# ---------------------------------------------------------------------------

def allreduce_recursive_doubling(me, sendbuf, recvbuf, nbytes, func, tag):
    size = me.size
    rank = me.rank
    yield me.memcpy(sendbuf, recvbuf, nbytes)
    if size == 1:
        return
    # Power-of-two participants; extras fold in at the edges.
    pof2 = 1 << (size.bit_length() - 1)
    rem = size - pof2
    incoming = _scratch_like(sendbuf, nbytes)
    if rank < 2 * rem:
        if rank % 2 == 0:
            yield me.isend(recvbuf, nbytes, rank + 1, tag)
            yield me.irecv(recvbuf, nbytes, rank + 1, tag + 1)
            return
        yield me.irecv(incoming, nbytes, rank - 1, tag)
        yield me.local_reduce(func, recvbuf, incoming, recvbuf, nbytes)
        newrank = rank // 2
    else:
        newrank = rank - rem

    mask = 1
    while mask < pof2:
        peer_new = newrank ^ mask
        peer = peer_new * 2 + 1 if peer_new < rem else peer_new + rem
        send_ev = me.isend(recvbuf, nbytes, peer, tag + 2 + mask)
        yield me.irecv(incoming, nbytes, peer, tag + 2 + mask)
        yield send_ev
        yield me.local_reduce(func, recvbuf, incoming, recvbuf, nbytes)
        mask <<= 1

    if rank < 2 * rem and rank % 2 == 1:
        yield me.isend(recvbuf, nbytes, rank - 1, tag + 1)


def allreduce_ring(me, sendbuf, recvbuf, nbytes, func, tag):
    size = me.size
    rank = me.rank
    blocks = block_ranges(nbytes, size)
    yield me.memcpy(sendbuf, recvbuf, nbytes)
    if size == 1:
        return
    incoming = _scratch_like(sendbuf, max(ln for _, ln in blocks) or 1)
    next_rank = (rank + 1) % size
    prev_rank = (rank - 1) % size
    for step in range(size - 1):
        s_off, s_len = blocks[(rank - step) % size]
        r_off, r_len = blocks[(rank - step - 1) % size]
        send_ev = me.isend(_elem_view(recvbuf, s_off, s_len), s_len,
                           next_rank, tag + step) if s_len else None
        if r_len:
            yield me.irecv(_elem_view(incoming, 0, r_len), r_len, prev_rank,
                           tag + step)
            yield me.local_reduce(func, _elem_view(recvbuf, r_off, r_len),
                                  _elem_view(incoming, 0, r_len),
                                  _elem_view(recvbuf, r_off, r_len), r_len)
        if send_ev is not None:
            yield send_ev
    for step in range(size - 1):
        s_off, s_len = blocks[(rank + 1 - step) % size]
        r_off, r_len = blocks[(rank - step) % size]
        pending = []
        if s_len:
            pending.append(me.isend(_elem_view(recvbuf, s_off, s_len), s_len,
                                    next_rank, tag + 200 + step))
        if r_len:
            pending.append(me.irecv(_elem_view(recvbuf, r_off, r_len), r_len,
                                    prev_rank, tag + 200 + step))
        for ev in pending:
            yield ev


# ---------------------------------------------------------------------------
# gather / scatter / allgather / alltoall / barrier
# ---------------------------------------------------------------------------

def gather_linear(me, sendbuf, recvbuf, nbytes, root, tag):
    if me.rank != root:
        yield me.isend(sendbuf, nbytes, root, tag)
        return
    yield me.memcpy(sendbuf, _elem_view(recvbuf, root * nbytes, nbytes),
                    nbytes)
    pending = [
        me.irecv(_elem_view(recvbuf, src * nbytes, nbytes), nbytes, src, tag)
        for src in range(me.size) if src != root
    ]
    for ev in pending:
        yield ev


def gather_binomial(me, sendbuf, recvbuf, nbytes, root, tag):
    size = me.size
    relative = (me.rank - root) % size
    held = _scratch_like(sendbuf, size * nbytes)
    yield me.memcpy(sendbuf, _elem_view(held, 0, nbytes), nbytes)
    my_blocks = 1
    mask = 1
    while mask < size:
        if relative & mask:
            parent = (relative - mask + root) % size
            yield me.isend(_elem_view(held, 0, my_blocks * nbytes),
                           my_blocks * nbytes, parent, tag)
            break
        child_rel = relative | mask
        if child_rel < size:
            child = (child_rel + root) % size
            child_blocks = min(mask, size - child_rel)
            yield me.irecv(
                _elem_view(held, mask * nbytes, child_blocks * nbytes),
                child_blocks * nbytes, child, tag)
            my_blocks = mask + child_blocks
        mask <<= 1
    if relative == 0:
        for q in range(size):
            rank_q = (root + q) % size
            yield me.memcpy(_elem_view(held, q * nbytes, nbytes),
                            _elem_view(recvbuf, rank_q * nbytes, nbytes),
                            nbytes)


def scatter_linear(me, sendbuf, recvbuf, nbytes, root, tag):
    if me.rank != root:
        yield me.irecv(recvbuf, nbytes, root, tag)
        return
    yield me.memcpy(_elem_view(sendbuf, root * nbytes, nbytes), recvbuf,
                    nbytes)
    pending = [
        me.isend(_elem_view(sendbuf, dst * nbytes, nbytes), nbytes, dst, tag)
        for dst in range(me.size) if dst != root
    ]
    for ev in pending:
        yield ev


def allgather_ring(me, sendbuf, recvbuf, nbytes, tag):
    size = me.size
    rank = me.rank
    yield me.memcpy(sendbuf, _elem_view(recvbuf, rank * nbytes, nbytes),
                    nbytes)
    next_rank = (rank + 1) % size
    prev_rank = (rank - 1) % size
    for step in range(size - 1):
        send_idx = (rank - step) % size
        recv_idx = (rank - step - 1) % size
        pending = [
            me.isend(_elem_view(recvbuf, send_idx * nbytes, nbytes), nbytes,
                     next_rank, tag + step),
            me.irecv(_elem_view(recvbuf, recv_idx * nbytes, nbytes), nbytes,
                     prev_rank, tag + step),
        ]
        for ev in pending:
            yield ev


def alltoall_pairwise(me, sendbuf, recvbuf, nbytes, tag):
    size = me.size
    rank = me.rank
    yield me.memcpy(_elem_view(sendbuf, rank * nbytes, nbytes),
                    _elem_view(recvbuf, rank * nbytes, nbytes), nbytes)
    pending = []
    for stride in range(1, size):
        dst = (rank + stride) % size
        src = (rank - stride) % size
        pending.append(me.isend(_elem_view(sendbuf, dst * nbytes, nbytes),
                                nbytes, dst, tag + stride))
        pending.append(me.irecv(_elem_view(recvbuf, src * nbytes, nbytes),
                                nbytes, src, tag + stride))
    for ev in pending:
        yield ev


def barrier_dissemination(me, tag):
    size = me.size
    distance = 1
    step = 0
    while distance < size:
        send_ev = me.isend(None, 0, (me.rank + distance) % size, tag + step)
        yield me.irecv(None, 0, (me.rank - distance) % size, tag + step)
        yield send_ev
        distance <<= 1
        step += 1


# ---------------------------------------------------------------------------
# tuned entry points
# ---------------------------------------------------------------------------

_BCAST = {"binomial": bcast_binomial,
          "scatter_allgather": bcast_scatter_allgather,
          "pipeline": bcast_pipeline}
_REDUCE = {"linear": reduce_linear, "chain": reduce_chain,
           "binomial": reduce_binomial,
           "reduce_scatter_gather": reduce_scatter_gather}
_ALLREDUCE = {"recursive_doubling": allreduce_recursive_doubling,
              "ring": allreduce_ring}
_GATHER = {"linear": gather_linear, "binomial": gather_binomial}


def mpi_bcast(me, buf, nbytes, root, tag, tuning=_DEFAULT_TUNING,
              algorithm=None):
    fn = _BCAST[algorithm or tuning.bcast(nbytes, me.size)]
    yield from fn(me, buf, nbytes, root, tag)


def mpi_reduce(me, sendbuf, recvbuf, nbytes, root, func="sum", tag=0,
               tuning=_DEFAULT_TUNING, algorithm=None):
    fn = _REDUCE[algorithm or tuning.reduce(nbytes, me.size)]
    yield from fn(me, sendbuf, recvbuf, nbytes, root, func, tag)


def mpi_allreduce(me, sendbuf, recvbuf, nbytes, func="sum", tag=0,
                  tuning=_DEFAULT_TUNING, algorithm=None):
    fn = _ALLREDUCE[algorithm or tuning.allreduce(nbytes, me.size)]
    yield from fn(me, sendbuf, recvbuf, nbytes, func, tag)


def mpi_gather(me, sendbuf, recvbuf, nbytes, root, tag=0,
               tuning=_DEFAULT_TUNING, algorithm=None):
    fn = _GATHER[algorithm or tuning.gather(nbytes, me.size)]
    yield from fn(me, sendbuf, recvbuf, nbytes, root, tag)


_SCATTER = {"linear": scatter_linear, "binomial": scatter_binomial}


def mpi_scatter(me, sendbuf, recvbuf, nbytes, root, tag=0,
                tuning=_DEFAULT_TUNING, algorithm=None):
    fn = _SCATTER[algorithm or tuning.scatter(nbytes, me.size)]
    yield from fn(me, sendbuf, recvbuf, nbytes, root, tag)


def mpi_allgather(me, sendbuf, recvbuf, nbytes, tag=0):
    yield from allgather_ring(me, sendbuf, recvbuf, nbytes, tag)


def mpi_alltoall(me, sendbuf, recvbuf, nbytes, tag=0):
    yield from alltoall_pairwise(me, sendbuf, recvbuf, nbytes, tag)


def mpi_barrier(me, tag=0):
    yield from barrier_dissemination(me, tag)
