"""The benchmark's target process: build a workload's system, say READY.

``python3 bench/launcher.py --workload W [--serve]`` builds W's graph,
places its objects, starts its process pool and — with ``--serve`` —
binds an ``MPRServer`` on an ephemeral port, timing each step.  It then
prints one READY line (JSON: pids, port, per-step seconds) and obeys its
control channel, one command per stdin line:

``stats``  print one JSON line of the public ledgers
           (``MPRSystem.stats()``, ``PoolMetrics.to_dict()``,
           ``KERNEL_CALLS``, ``MPRServer.stats()``);
``quit``   (or EOF, or SIGTERM) stop the server, close the pool, exit 0.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from repro.knn import DijkstraKNN  # noqa: E402
from repro.mpr import MPRConfig, MPRSystem  # noqa: E402
from repro.serve import MPRServer, ServeConfig  # noqa: E402

from mprbench import inputs  # noqa: E402
from mprbench.proc import ledgers  # noqa: E402
from mprbench.spec import BY_NAME  # noqa: E402


def say(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def main(workload_name: str, serve: bool) -> None:
    workload = BY_NAME[workload_name]
    steps = {"import_s": time.perf_counter() - _STARTED}

    def step(name: str, started: float) -> float:
        now = time.perf_counter()
        steps[name] = now - started
        return now

    mark = time.perf_counter()
    network = inputs.build_network(workload)
    mark = step("graph_build_s", mark)
    objects = inputs.fleet(workload, network, 0.0).initial_objects
    solution = DijkstraKNN(network)
    mark = step("solution_s", mark)
    system = MPRSystem(
        MPRConfig(*workload.shape), solution, objects, mode="process"
    ).start()
    mark = step("pool_start_s", mark)
    server = None
    try:
        if serve:
            server = await MPRServer(system, ServeConfig(port=0)).start()
        step("bind_s", mark)

        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stopping.set)
        commands = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
        )
        say({
            "pid": os.getpid(),
            "worker_pids": sorted(system.executor.worker_pids().values()),
            "port": server.address[1] if server is not None else None,
            "steps": steps,
        })

        async def obey() -> None:
            while True:
                line = await commands.readline()
                command = line.decode().strip()
                if command == "stats":
                    say(ledgers(system, server))
                elif not line or command == "quit":
                    return

        control = asyncio.ensure_future(obey())
        stop = asyncio.ensure_future(stopping.wait())
        await asyncio.wait({control, stop}, return_when=asyncio.FIRST_COMPLETED)
        for task in (control, stop):
            task.cancel()
    finally:
        if server is not None:
            await server.stop()
        system.close()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--serve", action="store_true")
    args = parser.parse_args()
    asyncio.run(main(args.workload, args.serve))
