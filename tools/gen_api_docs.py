"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, collects the names exported via
``__all__``, and emits one markdown section per module with each
public item's signature and docstring summary, plus a machine-readable
snapshot of the surface in ``docs/api_surface.json`` (checked by
``tools/check_api_surface.py``).  Re-run after changing the public API:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PACKAGES = [
    "repro",
    "repro.graph",
    "repro.graph.kernels",
    "repro.graph.shared",
    "repro.graph.cache",
    "repro.graph.ch",
    "repro.objects",
    "repro.knn",
    "repro.obs",
    "repro.mpr",
    "repro.mpr.api",
    "repro.mpr.resilience",
    "repro.mpr.results",
    "repro.mpr.reconfig",
    "repro.serve",
    "repro.sim",
    "repro.workload",
    "repro.validation",
    "repro.harness",
    "repro.cli",
]

#: Hand-authored guide sections emitted before the generated reference.
GUIDES = [
    (
        "The array graph layer",
        """\
`RoadNetwork` keeps its adjacency in two synchronized forms: contiguous
numpy CSR arrays (`csr_arrays` → `indptr`/`indices`/`weights`, plus
`coord_arrays`) built once at construction, and the classic per-node
Python lists, materialized lazily for the `heapq` reference engines.
The arrays are the source of truth — they are what the vectorized
kernels traverse, what shared memory publishes, and what
`from_csr_arrays` adopts zero-copy.

`repro.graph.kernels` holds the bucketed (delta-stepping) Dijkstra
kernels over those arrays, all run by one bucket loop that runs each
search to its end: single-source and bounded (`sssp`) and
early-terminating top-k (`topk_objects`, batched as `knn_batch`).
Every top-k row carries a cap, its tentative k-th distance,
lowered after every relax pass; a candidate past it is dropped.  Top-k
has a second engine, a
heap expansion over zero-copy memoryviews of the same arrays: given the
object count (`objects=`), an O(1) work model sends a group of searches
expected to settle few nodes (`rows * k*n/m` at most a measured limit)
to the heap, sweeps a group as one capped window relaxed to a fixpoint
when the network's weight band is narrow (one probe search per
instance, cached, relaxes each node it reaches at most a measured
number of times) or its searches are small (`k*n/m` at most a second
measured limit), and everything else as delta-wide windows.
Results are **bit-for-bit identical** to the `heapq` engines
(`tests/test_kernels.py` pins this property); large-graph speedups are
recorded in `benchmarks/results/knn_kernels.txt`.  The free function
`dijkstra` delegates to the kernels automatically at `KERNEL_MIN_NODES`
(measured, same file) and above; `DijkstraKNN` always uses them.  `KERNEL_CALLS` counts the engine runs (`"heap"`, `"topk"` and
`"topk_one_window"` for a solo sweep in delta-wide windows or as one
capped window, `"knn_batch"` and `"one_window"` for a batch call that
swept so, and the other entry points) so tests can assert which path
is taken.

**Buffer-reuse contract**: a `CSRKernels` instance allocates its
distance buffer once and reuses it across calls, so an instance is
*not thread-safe*.  Use `RoadNetwork.kernels`, which caches
one instance per thread over the same shared arrays; returned arrays
are always fresh copies, never views into the buffers.
""",
    ),
    (
        "Shared-memory graph lifecycle",
        """\
`publish_shared_graph(network)` copies the CSR arrays once into a
`multiprocessing.shared_memory` segment and stamps the network with a
small attach token; from then on pickling the network (or any solution
holding it) ships the ~100-byte token instead of the arrays.
`attach_shared_graph(meta)` — run implicitly during unpickling in
worker processes — maps the segment read-only and wraps it via
`RoadNetwork.from_csr_arrays` with zero copies.

A `ProcessPoolService` whose start method pickles the worker payload
(`spawn`, `forkserver`) owns the lifecycle: its first worker start
publishes, every worker (initial and SIGKILL-respawned alike) attaches
while unpickling, and `close()` unlinks only after all workers are
down.  Under `fork` — the default — nothing is pickled: workers inherit
the parent's arrays copy-on-write, so the pool publishes no segment and
starts no `multiprocessing` resource tracker.  A network already
published by an outer owner is borrowed, not re-published, and its
segment is left alone.  The owning
`SharedGraph` handle unlinks exactly once; a `weakref.finalize` guard
prevents leaked `/dev/shm` segments if the owner crashes.
""",
    ),
    (
        "Large graphs: cache, memmap attach, and the CH engine",
        """\
The continental-scale tier is build-once/attach-forever.
`network.save_cache(directory)` writes the four canonical arrays as raw
`.npy` files plus a JSON manifest carrying sizes and a SHA-256 content
hash; `RoadNetwork.open_cache(directory)` (or `repro.graph.open_cache`)
attaches them via `np.memmap` in O(1) regardless of graph size — only
the manifest is read eagerly, array pages fault in on demand, and the
OS page cache shares them across every process on the host.  Pass
`verify=True` to re-hash the files (O(bytes)) when you suspect
corruption; the default attach does structural checks only.  The recipe:

```python
net = load_dimacs("USA-road-d.E.gr", "USA-road-d.E.co")   # once, streamed
net.save_cache("cache/usa-e")                              # once
...
net = RoadNetwork.open_cache("cache/usa-e")                # every run, O(1)
```

A cache-attached network pickles to a tiny directory token
(`GraphCacheMeta`), so handing a solution to
`build_executor(mode="process")` makes every worker — initial, `fork`,
`spawn`, and SIGKILL-respawned alike — re-memmap the same files; the
pool skips shared-memory publication entirely (`tests/
test_pool_cache_attach.py` pins this).  Attached networks are
**mirror-guarded**: accessors that would materialize O(n) Python
containers (`csr`, `coordinates`, `edges()`) raise
`MirrorMaterializationError` until you opt in with
`network.allow_mirrors()`; the kernels and everything built on them
never need the mirrors.

`repro.graph.ch` is the long-range query engine for that tier: an
array-based contraction hierarchy (`ContractionHierarchy`) whose
upward/downward CSR halves are swept by the same `CSRKernels`
delta-stepping machinery, with per-node hub labels cached and kNN
answered by a vectorized label/object-bucket join (`CHKernels.
topk_objects` / `knn_batch` / `point_to_point`).  On integral-weight
networks (`ch.exact`) every path sum is exact in float64 and CH answers
are **bit-identical** to the plain kernels (`tests/test_ch.py` pins
this); pass `ch=` to `DijkstraKNN` and queries whose plain
expansion would settle ≳ `ch_cutoff` nodes (expected `k·n/|objects|`)
are routed to the CH path automatically.  With the default
`ch_cutoff=None` the solution measures the real crossover on its own
graph (`calibrate_ch_cutoff`, a cheap sampled probe) at the first
routing decision and caches it; pass an explicit number to skip the
probe.  On float-weight networks `ch.exact` is False and auto-routing
stays off (last-ulp sums differ).

**Construction** is one batched vectorized pipeline, run down to the
last node: independent-set batches scored by edge difference, witness
searches run as bounded multi-source array sweeps (merged per source,
shrinking per-search bounds).  It measured 24x faster at 262k nodes
than the whole-graph lazy-heap builder it replaced (the historical
`ch_build` row in `benchmarks/results/graph_scale.json`; that builder
is gone) with the same bit-exactness story — contraction *order* is a
free variable, so shortcut sets may differ while every answer stays
identical.  Pass
`workers=N` to fan witness sweeps out across forked processes sharing
the CSR via the cache/shm tokens (useful on multi-core hosts;
deterministic run-to-run).

**Persistence**: `save_ch_cache(ch, directory)` writes the rank
vector, both CSR halves, and the shortcut triples as `ch_*.npy` files
into the graph's cache directory — hash-guarded by a manifest section
recording the graph content hash they belong to — and
`load_cached_ch(network)` re-attaches them as an O(1) memmap
(`cache_has_ch` probes, `verify=True` re-hashes).  A rewritten graph
drops the hierarchy; a stale or tampered artifact refuses to load
(`tests/test_ch_cache.py`).  With `label_core=N` the top-`N`-ranked
hub labels are prebuilt and persisted too, shared read-only by every
attaching process.  A cache-attached hierarchy pickles to a tiny
`CHCacheMeta` token — pool workers and `repro.serve` restarts attach
a ready CH in milliseconds instead of rebuilding
(`tests/test_pool_cache_attach.py`).  The serving recipe:

```python
net = RoadNetwork.open_cache("cache/usa-e")
ch = ContractionHierarchy(net, workers=8)     # once, offline
save_ch_cache(ch, "cache/usa-e", label_core=4096)
...
net = RoadNetwork.open_cache("cache/usa-e")   # every run, O(1)
ch = load_cached_ch(net)                      # every run, O(1)
solution = DijkstraKNN(net, objects, ch=ch)   # cutoff auto-calibrates
```

Or from the shell: `repro.cli graph-cache build DIR --grid 512 --ch
--ch-label-core 4096`, inspected by `repro.cli graph-cache inspect
DIR` (per-artifact sizes, staleness).  The hub-label runtime cache is
LRU-bounded by bytes (`CHKernels(ch, label_budget_bytes=...)`,
default 128 MiB) with `ch.label_bytes` / `ch.label_evictions`
counters, so adversarial never-repeating query locations cannot grow
memory without bound.  `tools/bench_graph_scale.py` records the
scaling curve — build/save/attach times for graph and hierarchy,
and kNN latency, CH vs plain kernels vs the
`heapq` baseline — into `benchmarks/results/graph_scale.{json,txt}`.
""",
    ),
    (
        "Telemetry and the unified executor API",
        """\
`repro.obs` is the per-query observability layer.  A `Telemetry` handle
collects three things: a fixed-bucket log-scale `LogHistogram` per
pipeline stage (p50/p95/p99 export), named counters, and up to
`max_traces` per-query `QueryTrace` span trees.  The canonical stages
(`TRACE_STAGES`) follow one query through the system: `dispatch`
(parent-side routing), `queue_wait` (sitting in a w-queue), `execute`
(the solution's `A.Q` on a worker), `merge` (the a-core's aggregation),
and `ack` (the result's trip back to the parent).  In the process pool
the workers stamp `time.monotonic()` timings into their result pipes
and the parent stitches them — `CLOCK_MONOTONIC` is system-wide, so the
clocks are directly comparable.  Histogram-only stages (`update`,
`response`) and counters (`router.*`, `batcher.*`, `pool.respawns`)
ride along.  Disabled telemetry (the default `NULL_TELEMETRY`) costs
one branch per call site; mprbench's `bench.trace_overhead_ratio`
measures what enabling it costs on the served path.

Only the thread that owns the pool records, and the pool pays for its
bookkeeping per message or per cycle, not per op.
`Telemetry.record_shared(stage, duration, query_ids, start=, step=,
count=)` is one locked, count-weighted record that leaves what one
`record` per id would (the `i`-th id's span starts at `start + i *
step`); a worker batch's `queue_wait`, `execute` share and `ack` are
one such call each, its updates one `record_samples` call, a cycle's
traces open in one `begin_traces` call (no lock once the store is
full), and the router's `router.queries*` / `router.updates` counts
fold in at the cycle's flush.  A `run()` or pump cycle routes its tasks
and puts every batch on the wire first, then books them while the
workers compute; its `dispatch` samples are each op's equal share of
that whole parent pass (routing, sending, booking), and a drain's
`merge` samples each query's share of its merge pass — so the
`dispatch` mean is τ′, the parent's cost per task, which is what
`machine_spec_from_telemetry` and the reconfiguration loop read.

There is **one executor**, `ProcessPoolService`, built through **one
entry point**, `repro.mpr.api.build_executor(config, solution, objects,
...)` — the arrangement first, the worker kind chosen by `mode`,
telemetry threaded through every layer.  `mode="process"` forks
worker processes (real parallelism, every fault rung);
`mode="thread"` runs the same data plane — batching, acks, hedged
reads, `PARTIAL` answers, live `reconfigure()` — over in-process worker
threads, for tests and examples that want the protocol without
forking.  What thread workers cannot do: they cannot be SIGKILLed, so
the stall watchdog never fires for them and `close()`'s terminate/kill
rungs only queue another stop; they are GIL-bound and pay the result
pipe's pickling without gaining a core (against the bare per-thread
queues this mode replaced, a `(2,2,1)` DijkstraKNN mix moved 0.57–0.70
→ 0.73–0.78 ms/op on a 32×32 grid, 2.2–2.4 → 2.8–3.0 on 96×96, and a
zero-cost solution 11 → 49–59 µs/op) — correctness, not speed.  A
process worker talks to the parent over two single-writer pipes and
nothing else: batches are pickled and written inline by the caller of
`submit`/`flush` (no `multiprocessing.Queue`, no feeder thread, no
cross-process lock), the write end never blocks — what the pipe will
not take waits parent-side, always a suffix of the unacknowledged log,
and is flushed by the pump — so a long run against one worker cannot
deadlock on two full pipes, and the stall watchdog keeps running behind
a clogged inbox.  All of that — the worker kind, its pipes, the
one lifetime selector, liveness and the clock — lives behind one
private seam, `repro.mpr.transport.Transport` (start a w-core, `send`
without blocking, `poll`, read one handle's residue, kill/join/pid,
`retire`, `close`, `now`); the pool reads the worker kind nowhere.
`tests/fake_transport.py` is a third, in-memory transport on virtual
time: `tests/test_pool_protocol.py` runs the whole ack / hedge /
respawn / reconfigure protocol on it in tier-1 — named cases plus a
`hypothesis` stateful machine — with no process, thread or sleep, and
`tests/test_transport_contract.py` holds all three transports to one
contract.  A thread-mode pool dropped without `close()` no longer
leaks: the transport's finalizer queues the stops and closes its
descriptors.  Both kinds share one lifecycle
(`start()` / `submit()` / `flush()` / `drain()` / `run()` / `close()`,
plus the context-manager form) and serial-equivalent answers;
`check_invariants=True` asserts the Section IV-A partition/replication
invariants on the acknowledged cells after every `run()` in either
mode.  `MPRSystem` wraps an executor with a default-*enabled* telemetry handle and
`stats()`/`report()` accessors; `repro.cli stats` is the command-line
face of the same loop (`--deadline` / `--max-outstanding` switch the
resilience layer on and the ok/partial/overloaded tally shows what it
did), and `machine_spec_from_telemetry` / `profile_from_telemetry` feed
measured `(tq, tu, τ)` back into the optimizer.  Telemetry is the one
ledger the model is fitted from — the reconfiguration loop,
`repro.validation` and the CLI all calibrate through those two
functions; `PoolMetrics` is mprbench's per-layer ledger and nothing
fits a model from it.

Direct construction (`ProcessPoolService(solution, config, objects)`,
`start_method="thread"` for thread workers — or a ready `Transport`
instance, which is how the tests substitute the fake) builds exactly
what the facade builds.  Note the argument-order flip: the direct constructor
takes the solution first; `build_executor` takes the `MPRConfig` first.
""",
    ),
    (
        "Batched multi-query execution",
        """\
`KNNSolution.query_batch(locations, ks)` answers many queries at once.
Its semantics are exactly `[query(l, k) for l, k in zip(locations, ks)]`
— one consistent object snapshot (queries never mutate state), canonical
`(distance, object_id)` answers, and result `i` always belonging to
`locations[i]` no matter how the implementation reorders work
internally.  The base class provides that loop as the default, so every
solution is batchable; `DijkstraKNN` overrides it to answer the whole
batch through `CSRKernels.knn_batch`, which deduplicates
sources, sorts them for locality, and runs each group of up to
`group_size` sources as a *single* sweep over the flattened `(row,
node)` product space.  Per-query results are
bit-identical to `topk_objects` (`tests/test_knn_batch.py` pins ≥200
randomized cases); duplicate sources may share result arrays, so treat
them as read-only.  `benchmarks/results/knn_kernels.txt` records the
batched kernel against the per-query engines, and mprbench (`bench/`)
tracks per-op latency as `knn.dijkstra_knn.query_batch_us`.

`KNNSolution.run_ops(ops, op_timings=None)` is the op-batch entry
point a w-core executes each dispatched batch through.  `ops` is the
worker's FCFS slice of the stream in the wire encoding (`("query",
query_id, location, k)` / `("insert", object_id, location)` /
`("delete", object_id)`), the result is one `(query_id, answer)` pair
per query, `answer` being the canonical top-k as plain `(distance,
object_id)` tuples — what a w-core's ack pickles, and what
`merge_partial_results` ranks into the final `Neighbor`s — and the
contract is serial equivalence with one `query`/`insert`/`delete`
call per op — an op that raises leaves every earlier op applied and no
later one.  The base-class default groups
maximal runs of consecutive queries into one `query_batch` call and
takes the per-op path for updates and singleton queries.
`DijkstraKNN` overrides it with a **whole-batch sweep**: distances do
not depend on the object set, so all of a batch's queries share *one*
`CSRKernels.knn_batch` sweep whatever updates interleave them.
`knn_batch` takes, besides the base `object_counts`, an ordered list
of `patches` (`(node, ±count)`, one per update) and a per-query
`versions` (how many patches the query has seen); row `r` of the sweep
reads counts — the object-bearing test behind its tentative k-th cap,
through one helper — as if the first `versions[r]` patches were
applied, sources de-duplicate on `(source,
version)`, and `object_counts` is never copied or written.  The
solution scans the batch once to derive versions and patches (tracking
in-batch moves of the same object), sweeps on the pre-batch counts,
then walks the ops in order, applying each update for real and reading
each query's answer off the object buckets at its own FCFS position;
`query_batch` is the no-update case of the same code.  Batches with
fewer than two queries, with an op that will raise, or with updates
while routed to the CH engine take the inherited loop, so error
behaviour is the per-op loop's by construction
(`tests/test_run_ops.py` pins answers, final state and exceptions
against a per-op twin on float- and integer-weight graphs).

The executors feed this path end to end.  `RouteBatcher` sorts each
maximal run of consecutive queries in a released batch by `(location, query_id)` —
updates are reorder barriers, so per-worker serial equivalence is
untouched.  Workers of either kind hand each batch to `run_ops`.  With
telemetry enabled, queries answered together record one
`execute_batch` histogram span plus `exec.batches` /
`exec.batch_queries` counters — one per *batch* for `DijkstraKNN`, one
per query run for the default — and each of those queries gets an
equal share of the span as its `execute` span so `QueryTrace`s stay
complete; every update still records its own `update` sample.  Worker
processes also ship their `KERNEL_CALLS` delta back in each stamped
ack, keeping the parent's counters truthful across `fork`.

`batch_size` is *queries per message*; updates ride along (up to
`16 × batch_size` ops a message); `batch_size=1` is per-query
dispatch.  Its default is the kernel's own sweep width,
`repro.graph.kernels.QUERIES_PER_SWEEP` (also `knn_batch`'s
`group_size` default), so by default a message is exactly one sweep —
one `run_ops`, one sweep, one ack per worker per cycle — and
`knn_batch` cuts more searches than that into balanced groups
(17 → 9 + 8).  `PoolMetrics.queries_per_sweep` reports the fill.

A cycle fills a sweep before it spreads over replica rows.  `run()`
and the completion pump plan each cycle inside their one submit pass,
counting only the tasks that passed their checks, and a layer whose
share is `q` queries then uses only `ceil(q / batch_size)` of its `y`
rows, round-robin among them; the next flush advances the row by that
many.  A 10-query cycle on (1,2,1) is one full sweep on one row instead
of two half-empty ones, and the next cycle takes the other row.  A
cycle of `y` sweeps or more, and bare `submit`…`drain` code that never
plans, route exactly as Algorithm 1's per-query round robin.

The width is fixed when the pool is built, and nothing retunes it: a
model that traded a batch's fill wait
`(b-1)/(2λ)` against its per-message cost was measured to minimise the
wrong thing (every `drain()` and pump cycle flushes, so the wait is
bounded by the caller's own cycle, while the kernel's per-query cost
falls steeply to ~16 rows a sweep — EXPERIMENTS.md, "Rows per sweep"),
so the default width is the sweep width and stays there.
""",
    ),
    (
        "Resilience & failure semantics",
        """\
`repro.mpr.resilience` turns the executors from fail-stop into
fail-soft.  Pass a `ResilienceConfig` to `build_executor(...,
resilience=...)` to choose the fail-soft semantics.  The process pool
has one data plane either way — submit → ack → drain → settle on a
per-`(layer, column)` answer ledger, first answer per column wins — and
consults its `ResiliencePolicy` only at the fault points: a worker died
(default: respawn + replay within `max_respawns`, then `WorkerCrash`;
configured: breaker + quarantine), a worker reported an execution error
(default: `WorkerCrash`; configured: poison-quarantine, then
hedge/degrade), a query is admitted (default: no deadline is armed,
whatever the task carries; configured: task > config).
The default policy has no admission bound, no hedging and no watchdog,
so nothing is ever shed, hedged or degraded under it
(`tests/test_resilience_overhead.py` pins the configured no-fault pool
within 5% of the default; `tests/test_executor_equivalence.py` pins the
two to the same answers through the same messages).  Four mechanisms
compose:

**Deadlines and hedged replica reads.**  Every query carries an SLO —
`QueryTask.deadline` if set, else `ResilienceConfig.default_deadline`.
When a pooled query is still unresolved at its deadline, the supervisor
*hedges*: the single-query batch is re-dispatched to the least-loaded
replica row of the same partition column that has not yet been tried
(the y-replication of the MPR matrix is the hedging substrate).  First
answer per column wins; the loser's ack is dropped as a duplicate and
its telemetry stamps are skipped, so each `QueryTrace` keeps exactly
one `execute` span per column.

**Admission control.**  `AdmissionController` tracks outstanding ops
per worker; when the max backlog reaches
`ResilienceConfig.max_outstanding`, new *queries* are shed at submit:
the next `drain()` answers each with a `ResultStatus.OVERLOADED`
envelope carrying the backlog that shed it (`outstanding`) and the
`bound` (updates are never shed — they would diverge the replicas).

**Crash handling: breakers, quarantine, degraded answers.**  Worker
death normally respawns-and-replays (see the pool section).  A
`CircuitBreaker` per worker (threshold `breaker_failures`, exponential
backoff `backoff_base`·2ⁿ capped at `backoff_max`) detects crash loops:
once open, the cell's unacknowledged batches are *quarantined* instead
of replayed, and dispatch avoids the cell until a half-open respawn
trial readmits it (successfully replayed quarantined batches re-enter).
A batch that crashes the worker twice is poisoned and surfaced, never
replayed again.  When *every* cell of a partition column is
unavailable, the merge stops waiting: affected queries resolve as
`ResultStatus.PARTIAL` — `neighbors` is the canonical top-k over the
surviving columns and `missing_columns` names the dead `(layer,
column)` cells — instead of blocking the drain.  A stall watchdog
(`ResilienceConfig.stall_timeout`) converts a live-but-silent worker
process (e.g. SIGSTOP) into the crash path; thread workers, which no
signal can clear, are exempt from it.

Observability: eight counters (`RESILIENCE_COUNTERS`:
`resilience.hedges`, `.shed`, `.degraded`, `.breaker_open`,
`.deadline_misses`, `.duplicate_acks`, `.quarantined`, `.stall_kills`)
plus matching `pool.metrics` fields.  `drain(timeout=...)` raises a
`TimeoutError` listing every outstanding `(worker, seq)` batch, and
`close(timeout=...)` escalates join → SIGTERM → SIGKILL while always
unlinking the shared-memory graph segment, if the pool published one.

Real w-cores and real signals prove all of this in the tests:
`tests/test_process_pool_faults.py` (SIGKILL mid-batch → respawn +
replay, a poison batch, a w-core that exits before acking and
crash-loops every replay until its breakers degrade the one query),
`tests/test_pool_resilience.py` (a SIGKILLed column degrades instead
of hanging, the SIGSTOP watchdog, hedges racing slow replicas) and
`tests/test_transport_contract.py` (what each transport promises when a
w-core dies).  Every interleaving of those faults is explored without
processes by the protocol machine over the fake transport,
`tests/test_pool_protocol.py`.  CI's `chaos` job runs the three
real-signal modules twice and the protocol machine at the thorough
hypothesis profile.
""",
    ),
    (
        "Live reconfiguration",
        """\
`repro.mpr.reconfig` changes a running pool's `(x, y, z)` shape with
zero downtime, and holds both halves of doing so: the decisions
(`ReconfigPolicy`, `ReconfigManager`) and the mechanism the pool
delegates to (private: a shape is one `_Fleet` — config, router,
batcher, worker ledgers, role — and `_Reconfigurer` rotates fleets,
retiring ← serving ← warming).  `ProcessPoolService.reconfigure(new_config)` (or
`MPRSystem.reconfigure`, which serializes the transition through the
completion pump as a cycle boundary so async futures keep resolving) runs a supervised
state machine:

1. **Warm** — the new shape's workers spawn and attach to the shared
   graph/cache segments *before any old worker stops*.  Each warming
   cell is preloaded with an exact snapshot of the current object set
   (the pool keeps a submit-time object ledger, so the snapshot is
   consistent with everything already dispatched), then proves itself
   by acknowledging a probe batch.  Meanwhile every update keeps
   flowing to *both* shapes — the old router applies it live, the
   warming router's batcher queues it as catch-up (counted in
   `ReconfigEvent.catchup_ops`) — so the new cells are current the
   moment they take over.
2. **Cutover** — atomic, inside the supervisor: once every probe is
   acked, the pool flushes both batchers, rotates the fleets, bumps
   the generation counter, and re-points resilience state (breakers
   cleared, admission ledger reset) at the new shape.  A breaker-open
   old worker's whole log — quarantined batches and anything sent
   since — dies with the shape (its queries degrade, naming the
   column; its updates are already in the new cells).
   `ReconfigEvent.inflight_at_cutover` records how many queries were
   genuinely in flight across the swap; their answers still drain from
   the old workers and are merged normally.
3. **Retire** — old workers finish their outstanding batches, receive a
   stop sentinel, and are reaped; a retiring worker that dies or stalls
   with batches still unacked is respawned once to replay them (answers
   are never dropped).  A new transition requested meanwhile stops and
   reaps a fleet that owes nothing; it is rejected (`still retiring`)
   only while old workers still owe pre-cutover answers.

**Failure safety.**  A warming worker that dies, errors, or misses the
`warm_timeout` triggers **rollback**: the transition's workers are
killed, the old shape keeps serving uninterrupted (it never stopped),
(thread workers: told to stop), and the event records
`outcome="rolled_back"` with the reason.  Every
phase is timeout-bounded.  Repeated rollbacks trip a dedicated
reconfiguration circuit breaker — further attempts raise
`ReconfigRejected` until its backoff expires.  `tests/test_reconfig.py`
pins these invariants on real w-cores: SIGKILL a warming worker →
oracle-exact rollback without a serving gap, and a transition under
load whose every answer is oracle-exact.

**Automatic triggering.**  `ReconfigManager` closes the loop from
telemetry to shape: `poll()` (or `start(interval)` for a daemon thread)
reads the router's query/update counters as deltas, feeds them to its
`RateEstimator`, re-fits the profile and machine model from telemetry,
asks `configure_scheme(Scheme.MPR, ...)` for the Eq. 5/7 optimum, and
calls `system.reconfigure` when it beats the shape in `system.config`
by the relative margin `improvement_threshold` — a cost tie keeps the
incumbent, an escape from an overloaded shape bypasses threshold and
`cooldown`, and the cooldown counts from the last proposal handed to
`reconfigure()` whatever became of it.  `system.config` is the loop's
only notion of the current shape and `reconfig_history` the only record
of what was applied; the system's telemetry must be enabled (the
constructor refuses `NULL_TELEMETRY`, whose counters read 0 forever).
`ReconfigPolicy` bundles the knobs and validates them; pressure
counters (shed/degraded/breaker-open deltas) escalate the trigger to
`"auto+pressure"`.  `MPRSystem.enable_auto_reconfigure(profile,
machine)` wires this up in one call.

The background loop survives a failing poll and says so: each one
bumps `reconfig.poll_errors`, `ReconfigManager.last_error` keeps the
exception, and `MPRSystem.stats()["auto_reconfigure"]` shows both
(a `ReconfigRejected` is a kept shape, not an error).

Observability: `RECONFIG_COUNTERS` (`reconfig.attempts`, `.completed`,
`.rollbacks`, `.rejected`, `.breaker_open`, `.catchup_ops`,
`.poll_errors`), phase timings in `ReconfigEvent.phases`, and the full transition history via
`pool.reconfig_history` / `MPRSystem.reconfig_history`, surfaced by
`stats()`, `report()`, and `repro.cli stats`.  The standing gate is
`repro.validation.run_reconfig_soak` / `tools/reconfig_soak.py`
(`bash tools/ci.sh reconfig`): a non-stationary workload must
drive ≥2 automatic shape changes with zero dropped queries,
oracle-exact answers, and complete traces.
""",
    ),
    (
        "Serving",
        """\
`repro.serve` multiplexes thousands of remote clients onto one
`MPRSystem` over an asyncio TCP server, and the future-based query API
underneath it is usable in-process too.

**The `QueryResult` envelope.**  Every query outcome — in-process and
on the wire — is one frozen `QueryResult` carrying a `ResultStatus`:
`ok` (complete top-k), `partial` (degraded: top-k over the surviving
columns, `missing_columns` naming the dead `(layer, column)` cells),
`overloaded` (shed by admission control; retryable after
`retry_after`), `timeout` (in flight when the drain deadline expired —
queries are read-only, retrying is safe), and `error` (irrecoverable
executor failure).  `RETRYABLE_STATUSES` is `(overloaded, timeout)`.
An outcome is named once, where it is decided: the pool's query ledger
builds `ok` / `partial` / `overloaded`, so `executor.run()` and
`drain()` already return `dict[int, QueryResult]`; the completion pump
adds `timeout` (its drain timeout) and `error` (the pool failed under
the cycle).
`QueryResult.to_wire()` / `from_wire()` round-trip byte-for-byte under
the protocol's canonical JSON, so the library and the wire share one
result type.  Its `neighbors` are `Neighbor`s, a `typing.NamedTuple`
`(distance, object_id)`: they order, hash and pickle as that pair, and
a `Neighbor` *equals* its plain pair (`Neighbor(1.0, 7) == (1.0, 7)`).
`from_wire` is where outside input is checked (anything
malformed is a `ValueError`, which `ServeClient` turns into
`ServeError(code="protocol")` for that one request).

**The task surface.**  `MPRSystem.submit_async(task)` returns a
`concurrent.futures.Future` resolving to a `QueryResult` (queries) or
`None` (updates) — no `drain()` barrier.  First use starts a
completion pump that owns the executor until `close()`: a steppable
cycle machine (plan + submit + flush what is queued, `executor.step()`
when the pool's wait set — `ProcessPoolService.fileno()` — is readable
or its one timer is due, futures resolved in place, the next cycle
once the pool is `quiescent`) with no thread of its own.  An event
loop drives it: the server's own (`MPRSystem.attach_loop`, called by
`MPRServer.start()`; `detach_loop` by `stop()`), else a private loop
thread, `mpr-pump-loop`; only that loop's thread touches the executor,
other threads' calls are handed over with `call_soon_threadsafe`.
`run_results(tasks)` executes a whole stream and returns the envelopes
— through the pump once it is running, else it *is* `executor.run()`.
The blocking `submit`/`flush`/`drain`/`run` cycle is the executor's
(`system.executor`), not the facade's, and `executor.step()` is its
non-blocking step for a caller that waits on `fileno()` itself.  On
either substrate a `drain(timeout=)` expiry raises `QuiesceTimeout`
whose `query_ids` lists every affected query, and a pool that fails
irrecoverably raises `WorkerCrash`; the pump answers a cycle past its
drain timeout and a pool failure under a cycle as `timeout` (naming the
query) and `error` envelopes, the blocking cycle lets them propagate.

**Wire protocol.**  Frames are 4-byte big-endian length + canonical
JSON (`sort_keys`, no spaces), capped at `MAX_FRAME_BYTES` (1 MiB),
encoded by one module-level `json.JSONEncoder` built with
`json.dumps`'s canonical arguments (so the bytes are `json.dumps`'s).
Both ends parse per read, not per frame: a `FrameBuffer` holds what
one `read()` returned (at most 64 KiB) and yields each complete frame
in it, with `read_frame`'s refusals and texts (oversized length,
`NaN`/`Infinity`, a non-object body, end of stream inside a prefix or
a frame); `read_frame` itself reads exactly one frame.
Client ops: `hello` (tenant, SFQ weight, window), `query`, `insert`,
`delete`, `subscribe`/`unsubscribe` (standing kNN: the server pushes a
fresh `result` whenever updates change the answer), `stats`, `bye`.
Server frames: `welcome`, `result` (a `QueryResult` wire payload),
`error` (`code`, `retryable`, `retry_after`, and — for shed/timeout
queries — the embedded `result` envelope), `push`.  The non-retryable
`error` codes fail one request and leave the connection usable:
`bad-frame` (a malformed request, including a `location` that is not
an integer node of the served graph — `0 <= location <
MPRSystem.num_nodes` — a `k` or `object` that is not a non-negative
JSON integer, a `deadline` that is not a finite positive number, or a
`NaN`/`Infinity` literal anywhere, refused at the front door so it
never reaches a worker), `bad-op`, `rejected` (an `insert` of a live
object or a `delete` of an unknown one: the router refused it, nothing
was applied, the message names the cause) and `error` (the pool failed
under an update).  Only an applied update re-evaluates the
subscriptions.  Backpressure is
two-layer: a per-connection window (the server stops *reading* a
connection at its window — it parses no further frame of its buffer
and reads nothing more — letting TCP push back on floods) and a
global `max_inflight` semaphore whose tokens are released before
response writes, so a slow reader can never pin executor capacity.
Completions are coalesced: the pump resolves a step's outcomes on the
event loop, the first one parked schedules one flush, and it answers
them all with one socket write per connection (no task, wrapped future
or wake-up per op); a connection's ops leave its window at once unless its transport
is above the high-water mark, in which case they leave after one
`drain()`.  Scheduling between tenants is start-time fair queueing
(`WeightedFairQueue`): service under contention is proportional to the
`hello`-declared weight, so a flooding tenant cannot starve a light
one — "under contention" meaning while the `max_inflight` tokens are
exhausted: three saturating tenants weighted 4:2:1 complete 4:2:1 with
4 tokens and 1:1:1 at the default 512, where the fair queue never
holds a backlog and a tenant's share is its window.  Client deadlines propagate into `QueryTask.deadline` and the
executor's resilience machinery (`resilience.deadline_misses` moves).
`ServeClient` is the asyncio client: `query(..., retries=n)` honors
`retry_after` backoff hints and returns the final envelope either way.
The frames its coroutines issue in one event-loop iteration leave in
one `transport.write`; a request awaits `drain()` only while the
transport is above its high-water mark.
`repro.cli serve` starts a server; mprbench's `serve_open` and
`serve_closed` workloads (`bench/`) measure it end to end, and
`bash tools/ci.sh serve` runs `tests/test_serve.py`, including ~90
concurrent weighted-tenant clients that must all settle within a
watchdog, then `tests/test_protocol.py` (the encoder against
`json.dumps`, the frame buffer against `read_frame` at every split of a
stream) at the thorough hypothesis profile.
""",
    ),
    (
        "Workloads & model validation",
        """\
`repro.workload` generates the paper's inputs and nothing else:
stationary Poisson arrivals (`poisson_arrivals`, Section IV-B), the RU
and TH update modes of Section V-A (`generate_workload`; TH schedules
movements at λu/2, a delete and an insert each), the named X-Y
scenarios (`CASE_STUDY`, `FIGURE6_SCENARIOS`, … and `materialize` for
an executable scaled-down instance) and `replay_timed`, which paces a
stream against the wall clock so a live executor experiences its real
λq/λu.  A seed fixes the stream byte for byte
(`tests/test_workload_determinism.py` pins digests), and a rate or
duration that is negative, NaN or infinite is a `ValueError`.

`repro.validation` is the standing Fig. 4/5 contract: a
`GridSpec` sweep of `(λq, λu, x, y, z)` cells run against *both* the
discrete-event simulator and the live `ProcessPoolService`, comparing
measured response times against Eq. 5 `Rq` and measured capacity
against Eq. 7 `λ̂q` under a declared `ToleranceSpec`.  Enforcement
semantics: a cell is *enforced* only when the model itself predicts
under-capacity operation (finite `Rq`, worker utilization below
`utilization_cap`); over-capacity cells are recorded as informational.
A `CellVerdict`'s `ratio` is measured/model — the sim tolerance is a
two-sided factor (`sim_rq_factor`), the live tolerance a wider factor
plus an absolute slack (`live_rq_slack`) absorbing IPC jitter.  The
live comparison is *self-calibrating*: `profile_from_telemetry` and
`machine_spec_from_telemetry` from the same run feed the model, so
machine speed cancels out of the ratio.  `run_validation` returns a
`ValidationReport`; `write_report` snapshots it into
`benchmarks/results/validation.{json,txt}`, and `repro.cli validate`
is the CLI face (it writes those artifacts unless `--no-artifacts`).
`tests/test_validation.py` asserts the checked-in artifact covers at
least a 3×3 `(λq, x·y·z)` grid per backend with every enforced cell
in tolerance; CI re-runs the sweep as the `validate` job, and
`bash tools/ci.sh validate` runs it locally.
""",
    ),
    (
        "The simulator: one queueing network",
        """\
`repro.sim` evaluates the network Eq. 5/7 model — d-core → s-core →
w-cores → a-core — by discrete-event simulation.  Every station is an
`FCFSServer` advanced by the Lindley recurrence, and
`SimulatedMPRSystem.run` is the one walk of that network: each task is
routed by the same `MPRRouter` the live pool uses, and the walk charges
the d-core `dispatch_time` (z > 1), the s-core `x·queue_write_time` per
query and `y·queue_write_time` per update and layer, each w-core its
service time, and the a-core `merge_time` per partial (x > 1).  W-core
service times come from a private *service source*, asked once per
query and once per update and layer.  The default source draws them
from an `AlgorithmProfile` (gamma, mean `tq`/`tu`, variance `vq`/`vu`),
scaled by `speed_factors` and the `straggler` window.  Measured mode,
`simulate_with_execution`, is the same walk over the other source: each
op runs on a real per-worker solution instance and its wall time is its
service, so the answers are real (`InLoopResult.answers`) and the
queueing arithmetic treats every w-core as a real core.
`tests/test_sim_golden.py` pins the simulator's numbers exactly.
""",
    ),
]


def summarize(obj: object) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return first


def signature_of(obj: object) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def describe_class(cls: type) -> list[str]:
    lines = [f"### `{cls.__name__}`", "", summarize(cls), ""]
    methods = []
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if callable(member) or isinstance(member, (property, classmethod,
                                                   staticmethod)):
            target = member
            if isinstance(member, (classmethod, staticmethod)):
                target = member.__func__
            if isinstance(member, property):
                methods.append(f"- `{name}` (property) — {summarize(member)}")
            else:
                methods.append(
                    f"- `{name}{signature_of(target)}` — {summarize(target)}"
                )
    if methods:
        lines.extend(methods)
        lines.append("")
    return lines


def describe_module(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", "", summarize(module), ""]
    exported = getattr(module, "__all__", None)
    if exported is None:
        exported = [n for n in dir(module) if not n.startswith("_")]
    for name in exported:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            lines.extend(describe_class(obj))
        elif callable(obj):
            lines.append(f"### `{name}{signature_of(obj)}`")
            lines.append("")
            lines.append(summarize(obj))
            lines.append("")
        else:
            lines.append(f"### `{name}`")
            lines.append("")
            lines.append(f"Constant of type `{type(obj).__name__}`.")
            lines.append("")
    return lines


def collect_surface() -> dict[str, list[str]]:
    """The public surface: module -> sorted exported names."""
    surface: dict[str, list[str]] = {}
    for package in PACKAGES:
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", None)
        if exported is None:
            exported = [n for n in dir(module) if not n.startswith("_")]
        surface[package] = sorted(exported)
    return surface


def render_api() -> str:
    """The text of docs/API.md: the guides, then the reference."""
    lines = [
        "# API reference",
        "",
        "_Generated by `python tools/gen_api_docs.py`; do not edit by hand._",
        "",
    ]
    for title, text in GUIDES:
        lines.extend([f"## {title}", "", text.rstrip(), ""])
    for package in PACKAGES:
        lines.extend(describe_module(package))
    return "\n".join(lines) + "\n"


def main() -> None:
    text = render_api()
    out = ROOT / "docs" / "API.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text(text)
    print(f"wrote {out} ({text.count(chr(10))} lines)")

    surface_out = ROOT / "docs" / "api_surface.json"
    surface_out.write_text(json.dumps(collect_surface(), indent=2) + "\n")
    print(f"wrote {surface_out}")


if __name__ == "__main__":
    main()
