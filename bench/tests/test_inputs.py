"""Inputs are a function of the seed: the fleet is fixed, queries move."""

from repro.objects.tasks import TaskKind, seed_stream_with_objects

from mprbench.inputs import build_inputs
from mprbench.spec import BY_NAME, K


def _split(inputs):
    queries = [t for t in inputs.tasks if t.kind is TaskKind.QUERY]
    updates = [t for t in inputs.tasks if t.kind is not TaskKind.QUERY]
    return queries, updates


def test_same_seed_same_inputs():
    workload = BY_NAME["serve_open"]
    first = build_inputs(workload, 5, 4.0)
    again = build_inputs(workload, 5, 4.0)
    assert first.tasks == again.tasks
    assert first.initial_objects == again.initial_objects
    assert first.network.csr_arrays[2].tolist() == again.network.csr_arrays[2].tolist()


def test_seed_draws_only_query_origins_and_arrival_times():
    workload = BY_NAME["serve_open"]
    one = build_inputs(workload, 1, 4.0)
    two = build_inputs(workload, 2, 4.0, network=one.network)
    queries_one, updates_one = _split(one)
    queries_two, updates_two = _split(two)
    assert one.initial_objects == two.initial_objects
    assert updates_one == updates_two
    assert [q.location for q in queries_one] != [q.location for q in queries_two]
    assert [q.arrival_time for q in queries_one] != [q.arrival_time for q in queries_two]


def test_stream_is_valid_ordered_and_at_the_specified_mix():
    workload = BY_NAME["pool_update_heavy"]
    inputs = build_inputs(workload, 3, 2.0)
    seed_stream_with_objects(inputs.tasks, set(inputs.initial_objects))
    queries, updates = _split(inputs)
    assert len(inputs.initial_objects) == workload.objects
    assert all(q.k == K for q in queries)
    assert [q.query_id for q in queries] == list(range(len(queries)))
    ratio = len(updates) / len(queries)
    assert 0.8 * 4 < ratio < 1.2 * 4  # q:u = 1:4
