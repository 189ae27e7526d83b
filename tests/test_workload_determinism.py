"""Regression: workload generation is a pure function of its seed.

Experiments are only comparable (and the equivalence/fault suites only
meaningful) if the same seed always yields the same stream.  Pinned at
the strictest level available: a digest of every field of every task,
of the initial placement and of the recorded rates, against recorded
digests, so a change that moves one draw, tie or float bit fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.objects import TaskKind
from repro.workload import UpdateMode, generate_workload

GEN_KWARGS = dict(
    num_objects=18, lambda_q=40.0, lambda_u=70.0, duration=1.2, k=6,
)


def fingerprint(workload) -> str:
    """SHA-256 over a canonical text form of ``workload`` (floats as
    ``float.hex``, so a one-ulp change moves the digest)."""
    lines = [" ".join(
        value.hex()
        for value in (workload.lambda_q, workload.lambda_u, workload.duration)
    )]
    lines += [f"{o} {n}" for o, n in sorted(workload.initial_objects.items())]
    for task in workload.tasks:
        ident = task.query_id if task.kind is TaskKind.QUERY else task.object_id
        lines.append(" ".join(map(str, (
            task.kind.value, task.arrival_time.hex(), ident,
            getattr(task, "location", None), getattr(task, "k", None),
            getattr(task, "movement_id", None),
        ))))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("mode, seed, extra, tasks, digest", [
    (UpdateMode.RANDOM, 0, {}, 114,
     "3344a1f2978de52f7a4dc1fb6af5c19f3b7d40ad3ae2916689747dc1e6aeb68d"),
    (UpdateMode.RANDOM, 9, {}, 132,
     "94714cb1f403513e201eaa13ebd358003af164d9cfe6988db2dc9832a7bd5fdd"),
    (UpdateMode.TAXI_HAILING, 0, {}, 117,
     "016eaf02ac1ea3eea4d9cd11fd1a6db53e43714733b5d0e23928727201014fdd"),
    (UpdateMode.TAXI_HAILING, 9, {}, 117,
     "b1714b6e35d82d7befe0bbbdbf106cb782346bc28edd25a0aa38d291aa4f5b17"),
    (UpdateMode.RANDOM, 5,
     dict(insert_sites=range(0, 256, 3), query_sites=[1, 2, 3, 50]), 121,
     "6d494e18f258cda1a45b042e542aad28f8749c38ed1170405ac324a9d1d0fa2f"),
], ids=["RU-0", "RU-9", "TH-0", "TH-9", "RU-sites-5"])
def test_streams_match_recorded_digests(
    medium_grid, mode, seed, extra, tasks, digest
) -> None:
    workload = generate_workload(
        medium_grid, seed=seed, mode=mode, **GEN_KWARGS, **extra
    )
    assert len(workload.tasks) == tasks
    assert fingerprint(workload) == digest


def test_same_seed_byte_identical_stream(medium_grid) -> None:
    for mode in (UpdateMode.RANDOM, UpdateMode.TAXI_HAILING):
        first = generate_workload(
            medium_grid, seed=9, mode=mode, **GEN_KWARGS
        )
        second = generate_workload(
            medium_grid, seed=9, mode=mode, **GEN_KWARGS
        )
        assert first.initial_objects == second.initial_objects
        assert first.tasks == second.tasks
        assert fingerprint(first) == fingerprint(second)


def test_different_seeds_differ(medium_grid) -> None:
    a = generate_workload(medium_grid, seed=1, **GEN_KWARGS)
    b = generate_workload(medium_grid, seed=2, **GEN_KWARGS)
    assert a.tasks != b.tasks
