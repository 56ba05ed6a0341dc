"""OSU collective micro-benchmarks (``osu_allreduce`` / ``osu_alltoall``).

The point-to-point tests of Figs 1-2 explain the platforms' fabric
parameters; the collective tests explain the *applications*: UM's
Helmholtz solver and Chaste's KSp are gated by small all-reduce latency,
and FT/IS by all-to-all throughput.  These sweeps expose exactly those
two quantities per platform and process count.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError
from repro.platforms.base import PlatformSpec
from repro.smpi import Placement, run_program

#: Default sweep for collective message sizes (4 B .. 1 MB).
COLLECTIVE_SIZES = tuple(4 * 4**k for k in range(0, 10))


def _allreduce_program(comm, sizes, iterations, warmup) -> _t.Generator:
    # Vector-price the whole size sweep up front: a no-op unless the
    # world runs with the collective fast-forward enabled.
    comm.prime_collectives("allreduce", sizes)
    results: dict[int, float] = {}
    for size in sizes:
        for phase, count in (("warmup", warmup), ("timed", iterations)):
            yield from comm.barrier()
            if phase == "timed":
                t_start = comm.wtime()
            for _ in range(count):
                yield from comm.allreduce(size, value=0.0)
        results[size] = (comm.wtime() - t_start) / iterations
    return results


def _alltoall_program(comm, sizes, iterations, warmup) -> _t.Generator:
    comm.prime_collectives("alltoall", [size * comm.size for size in sizes])
    results: dict[int, float] = {}
    for size in sizes:
        total = size * comm.size  # per-rank total, OSU's per-pair "size"
        for phase, count in (("warmup", warmup), ("timed", iterations)):
            yield from comm.barrier()
            if phase == "timed":
                t_start = comm.wtime()
            for _ in range(count):
                yield from comm.alltoall(total)
        results[size] = (comm.wtime() - t_start) / iterations
    return results


def _run_collective(
    program: _t.Callable[..., _t.Generator],
    platform: PlatformSpec,
    nprocs: int,
    sizes: _t.Sequence[int] | None,
    iterations: int,
    warmup: int,
    seed: int,
) -> dict[int, float]:
    sizes = list(sizes) if sizes is not None else list(COLLECTIVE_SIZES)
    if not sizes or min(sizes) < 1:
        raise ConfigError(f"invalid message sizes: {sizes}")
    if nprocs < 2:
        raise ConfigError("collective benchmarks need >= 2 ranks")
    result = run_program(
        platform, nprocs, program, sizes, iterations, warmup,
        placement=Placement(strategy="block"), seed=seed,
    )
    # All ranks observe the same completion times; rank 0's view suffices.
    return result.rank_results[0]


def osu_allreduce(
    platform: PlatformSpec,
    nprocs: int = 16,
    sizes: _t.Sequence[int] | None = None,
    *,
    iterations: int = 50,
    warmup: int = 5,
    seed: int = 0,
) -> dict[int, float]:
    """Mean all-reduce time (s) per message size on ``nprocs`` ranks."""
    return _run_collective(
        _allreduce_program, platform, nprocs, sizes, iterations, warmup, seed
    )


def osu_alltoall(
    platform: PlatformSpec,
    nprocs: int = 16,
    sizes: _t.Sequence[int] | None = None,
    *,
    iterations: int = 20,
    warmup: int = 2,
    seed: int = 0,
) -> dict[int, float]:
    """Mean all-to-all time (s) per *per-pair* message size."""
    return _run_collective(
        _alltoall_program, platform, nprocs, sizes, iterations, warmup, seed
    )
