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
    "repro.mpr.chaos",
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
kernels over those arrays: single-source (`sssp`), bounded, multi-source
with owner tie-breaking (`sssp_multi`), early-terminating top-k
(`topk_objects`), and the resumable `IncrementalSSSP` expander IER uses.
Results are **bit-for-bit identical** to the `heapq` engines
(`tests/test_kernels.py` pins this property); large-graph speedups are
recorded in `benchmarks/results/knn_kernels.txt`.  The free functions
`dijkstra`/`multi_source_dijkstra` delegate to the kernels automatically
at `KERNEL_MIN_NODES` and above; `DijkstraKNN` and `IERKNN` always use
them.  `KERNEL_CALLS` counts kernel entries so tests can assert the
fast path is actually taken.

**Buffer-reuse contract**: a `CSRKernels` instance preallocates its
distance/owner buffers once and reuses them across calls, so an
instance is *not thread-safe*.  Use `RoadNetwork.kernels`, which caches
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
this); pass `ch=` to `DijkstraKNN`/`IERKNN` and queries whose plain
expansion would settle ≳ `ch_cutoff` nodes (expected `k·n/|objects|`)
are routed to the CH path automatically.  With the default
`ch_cutoff=None` the solution measures the real crossover on its own
graph (`calibrate_ch_cutoff`, a cheap sampled probe) at the first
routing decision and caches it; pass an explicit number to skip the
probe.  On float-weight networks `ch.exact` is False and auto-routing
stays off (last-ulp sums differ).

**Construction** is one batched vectorized pipeline: independent-set
batches scored by edge difference, witness searches run as bounded
multi-source array sweeps (merged per source, shrinking per-search
bounds), and a tiny scalar lazy-heap endgame for the last dense core
(`endgame_nodes`).  It measured 24x faster at 262k nodes than the
whole-graph lazy-heap builder it replaced (the historical `ch_build`
row in `benchmarks/results/graph_scale.json`; that builder is gone)
with the same bit-exactness story — contraction *order* is a free
variable, so shortcut sets may differ while every answer stays
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
batched-vs-lazy build, and kNN latency, CH vs plain kernels vs the
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
solution is batchable; `DijkstraKNN` and `IERKNN` override it to answer
the whole batch through `CSRKernels.knn_batch`, which deduplicates
sources, sorts them for locality, and runs each group of up to
`group_size` sources as a *single* delta-stepping sweep over the
flattened `(row, node)` product space.  Per-query results are
bit-identical to `topk_objects` (`tests/test_knn_batch.py` pins ≥200
randomized cases); duplicate sources may share result arrays, so treat
them as read-only.  `benchmarks/results/batch_knn.txt` records the
speedup (≥2x at batch ≥32 on the 102k-node grid), and mprbench
(`bench/`) tracks per-op latency as `knn.dijkstra_knn.query_batch_us`.

`KNNSolution.run_ops(ops, op_timings=None)` is the op-batch entry
point a w-core executes each dispatched batch through.  `ops` is the
worker's FCFS slice of the stream in the wire encoding (`("query",
query_id, location, k)` / `("insert", object_id, location)` /
`("delete", object_id)`), the result is one `(query_id, answer)` pair
per query, and the contract is serial equivalence with one
`query`/`insert`/`delete` call per op — an op that raises leaves every
earlier op applied and no later one.  The base-class default groups
maximal runs of consecutive queries into one `query_batch` call and
takes the per-op path for updates and singleton queries.
`DijkstraKNN` overrides it with a **whole-batch sweep**: distances do
not depend on the object set, so all of a batch's queries share *one*
`CSRKernels.knn_batch` sweep whatever updates interleave them.
`knn_batch` takes, besides the base `object_counts`, an ordered list
of `patches` (`(node, ±count)`, one per update) and a per-query
`versions` (how many patches the query has seen); row `r` of the sweep
reads counts — the object-bearing test, the `found` tally and the
k-th-distance refresh, all through one helper — as if the first
`versions[r]` patches were applied, sources de-duplicate on `(source,
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

A cycle fills a sweep before it spreads over replica rows.  A caller
that holds a whole cycle declares it with `pool.plan(tasks)` before
submitting it — `run()` and the completion pump do — and a layer whose
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

`repro.mpr.chaos` is the fault-injection harness that proves all of
this: `run_scenario(name)` builds a pool, injects a scripted fault
(SIGKILL one worker or a full column, a crash loop, SIGSTOP stalls,
universal slowness, a poison batch, dropped acks — see `SCENARIOS`),
drains, and returns a `ChaosReport` asserting the invariants: the drain
terminated, `OK` answers equal the serial oracle, `PARTIAL` answers are
internally consistent, traces are complete, and the deadline-miss rate
is bounded.  `repro.cli chaos` runs the sweep from the command line
(`--repeat N` for a soak); CI runs it as the `chaos` job.
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
completion pump so async futures keep resolving) runs a supervised
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
`ReconfigRejected` until its backoff expires.  The chaos scenarios
`reconfig-kill-new-worker` (SIGKILL a warming worker → oracle-exact
rollback) and `reconfig-under-load` (transition inside a flash crowd)
pin these invariants.

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
adds `timeout` / `error` for the drains that raised.
`QueryResult.to_wire()` / `from_wire()` round-trip byte-for-byte under
the protocol's canonical JSON, so the library and the wire share one
result type; `from_wire` is where outside input is checked (anything
malformed is a `ValueError`, which `ServeClient` turns into
`ServeError(code="protocol")` for that one request).

**The task surface.**  `MPRSystem.submit_async(task)` returns a
`concurrent.futures.Future` resolving to a `QueryResult` (queries) or
`None` (updates) — no `drain()` barrier.  First use starts a
completion pump that owns the executor until `close()`;
`run_results(tasks)` executes a whole stream and returns the envelopes
— through the pump once it is running, else it *is* `executor.run()`.
The blocking `submit`/`flush`/`drain`/`run` cycle is the executor's
(`system.executor`), not the facade's.  On either substrate a
`drain(timeout=)` expiry raises `QuiesceTimeout` whose `query_ids`
lists every affected query, and a pool that fails irrecoverably raises
`WorkerCrash`; the pump turns those into `timeout` and `error`
envelopes, the blocking cycle lets them propagate.

**Wire protocol.**  Frames are 4-byte big-endian length + canonical
JSON (`sort_keys`, no spaces), capped at `MAX_FRAME_BYTES` (1 MiB).
Client ops: `hello` (tenant, SFQ weight, window), `query`, `insert`,
`delete`, `subscribe`/`unsubscribe` (standing kNN: the server pushes a
fresh `result` whenever updates change the answer), `stats`, `bye`.
Server frames: `welcome`, `result` (a `QueryResult` wire payload),
`error` (`code`, `retryable`, `retry_after`, and — for shed/timeout
queries — the embedded `result` envelope), `push`.  The non-retryable
`error` codes fail one request and leave the connection usable:
`bad-frame` (a malformed request, including a `location` that is not
an integer node of the served graph — `0 <= location <
MPRSystem.num_nodes` — or a negative `k`, refused at the front door so
it never reaches a worker), `bad-op`, `rejected` (an `insert` of a live
object or a `delete` of an unknown one: the router refused it, nothing
was applied, the message names the cause) and `error` (the pool failed
under an update).  Only an applied update re-evaluates the
subscriptions.  Backpressure is
two-layer: a per-connection window (the server stops *reading* a
connection at its window, letting TCP push back on floods) and a
global `max_inflight` semaphore whose tokens are released before
response writes, so a slow reader can never pin executor capacity.
Completions are coalesced: the pump thread parks outcomes and wakes
the event loop once per burst, and one flush answers them all with one
socket write per connection (no task, wrapped future or wake-up per
op); a connection's ops leave its window at once unless its transport
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
`repro.cli serve` starts a server; `tools/serve_loadtest.py` drives
≥1000 concurrent clients with non-stationary arrivals and records
qps/p50/p99, shed rate, and fairness spread into
`benchmarks/results/serve.{json,txt}` (`bash tools/ci.sh serve` runs
the smoke-sized version).
""",
    ),
    (
        "Workloads & model validation",
        """\
`repro.workload.processes` generates *non-stationary* arrival streams.
An `ArrivalProcess` is an intensity function λ(t) sampled by
Lewis–Shedler thinning against its `peak_rate` envelope; the catalog
covers `ConstantRate`, the rush-hour `SinusoidRate` (closed-form
integrated intensity), `SpikeTrain` (flash crowds as non-overlapping
`Spike` windows), `PiecewiseRate` schedules, and `RenewalProcess`
(i.i.d. gaps from any distribution — notably `Hyperexponential`).
Every process is deterministic under a seed, supports `scaled(f)`
intensity scaling, and reports `integrated_rate`/`mean_rate` so tests
can check empirical counts against Λ = ∫λ.  The hyperexponential
family also bridges measurements back into the analytical model:
`hyperexponential_from_moments(mean, scv)` is an exact balanced-means
H2 fit, `fit_hyperexponential(samples)` fits observed service times,
and `profile_from_distributions` turns two fitted distributions into
an `AlgorithmProfile` whose γ terms carry the overdispersion into
Eq. 5.  Pass `query_process=`/`update_process=` to `generate_workload`
(or set them on a `Scenario`) to drive the generator; the default
homogeneous-Poisson path is byte-identical to previous releases.
`mobility_workload` builds correlated update streams from a fleet of
moving objects (delete+insert pairs from a geometric random walk),
and `rush_hour_fleet` is the one-call sinusoidal variant.

`repro.workload.continuous` adds standing (subscription) kNN queries:
`generate_continuous_workload` produces a `ContinuousWorkload` whose
`lower(every=n)` compiles subscriptions into an ordinary task stream —
re-issuing every subscription after each `n` updates, never splitting
a movement's delete+insert pair — so both executors answer it with no
new machinery.  `IncrementalKNNMonitor` is the efficient path: one
`sssp` field per subscription at construction, then O(#subscriptions)
dictionary work per update, with `searches_performed`/`searches_saved`
counters.  Its answers are **bit-identical** to fresh queries of the
lowered stream (`tests/test_continuous_knn.py` pins this at every
epoch).  `replay_timed` paces any task stream against the wall clock
so a live executor experiences the stream's real λ(t).

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


def main() -> None:
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
    out = ROOT / "docs" / "API.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(lines)} lines)")

    surface_out = ROOT / "docs" / "api_surface.json"
    surface_out.write_text(json.dumps(collect_surface(), indent=2) + "\n")
    print(f"wrote {surface_out}")


if __name__ == "__main__":
    main()
