"""``osu_multi_lat``: latency with several concurrent rank pairs.

With ``pairs`` pairs pinging simultaneously between the same two nodes,
per-pair latency degrades as the NIC serialises the concurrent streams —
the effect behind the paper's observation that fully-subscribed nodes
communicate worse than undersubscribed ones (EC2 vs EC2-4).
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError
from repro.platforms.base import PlatformSpec
from repro.smpi import Placement, run_program


def _multi_lat_program(
    comm, sizes: _t.Sequence[int], iterations: int, warmup: int
) -> _t.Generator:
    """Even ranks (node 0 under cyclic placement) ping the next odd rank
    (their cross-node partner)."""
    results: dict[int, float] = {}
    sender = comm.rank % 2 == 0
    peer = comm.rank + 1 if sender else comm.rank - 1
    for size in sizes:
        yield from comm.barrier()
        for phase, count in (("warmup", warmup), ("timed", iterations)):
            if phase == "timed":
                t_start = comm.wtime()
            for _ in range(count):
                yield from _pair_pingpong(comm, sender, peer, size)
        results[size] = (comm.wtime() - t_start) / (2.0 * iterations)
    return results


def _pair_pingpong(comm, sender: bool, peer: int, size: int) -> _t.Generator:
    """One round trip of one concurrent pair."""
    if sender:
        yield from comm.send(peer, size)
        yield from comm.recv(peer)
    else:
        yield from comm.recv(peer)
        yield from comm.send(peer, size)


def osu_multi_lat(
    platform: PlatformSpec,
    pairs: int = 4,
    sizes: _t.Sequence[int] | None = None,
    *,
    iterations: int = 50,
    warmup: int = 5,
    seed: int = 0,
) -> dict[int, float]:
    """Average per-pair one-way latency with ``pairs`` concurrent pairs."""
    from repro.osu import DEFAULT_SIZES

    sizes = list(sizes) if sizes is not None else list(DEFAULT_SIZES)
    if pairs < 1:
        raise ConfigError(f"pairs must be >= 1, got {pairs}")
    slots = platform.node.cpu.schedulable_slots
    if pairs > slots:
        raise ConfigError(f"{pairs} pairs exceed the {slots} slots per node")
    result = run_program(
        platform,
        2 * pairs,
        _multi_lat_program,
        sizes,
        iterations,
        warmup,
        placement=Placement(strategy="cyclic", num_nodes=2),
        seed=seed,
    )
    # Average the senders' (even ranks') observations.
    out: dict[int, float] = {}
    for size in sizes:
        out[size] = (
            sum(result.rank_results[r][size] for r in range(0, 2 * pairs, 2)) / pairs
        )
    return out
