"""The benchmark's four traffic mixes.

Every mix is closed loop with one client thread: the client waits for its
replies before it sends more.  Every server runs on ``kaveri`` with one
worker (two one-worker shards for ``sharded-fresh``), ``backend="auto"``,
functional execution and no lease dwell.  Inputs come from the seed.

The scalar oracle is slow, 3 to 90 ms for one launch at these sizes, so
each mix draws its inputs from a small set of seeded argument sets.  The
oracle runs once for each distinct input, and every launch's outputs are
compared with the oracle's for its input:

* ``mix14`` re-launches one argument set per kernel.  Between launches,
  outside the clock, the harness records the outputs and copies the
  initial contents back into the same arrays.
* ``shapes-loaded`` copies its shape's seeded argument set into fresh
  buffers for every launch.
* ``fdtd-graph`` draws each chain's seed from a pool of four.
* ``sharded-fresh`` copies its kernel's seeded argument set into one
  new allocation for every launch.  Every fresh allocation stays pinned
  in shared memory, with two open descriptors, until the server closes;
  one allocation per buffer would pin 3.4 segments (7 descriptors) per
  launch, and a 12 s run on a fast host would exhaust a 20000-descriptor
  limit and fail launches.

A launch counts as failed if it raised, timed out or produced outputs
that differ from the oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.analysis.profile import profile_kernel
from repro.core.predictor import DopPredictor
from repro.core.runtime import execute_chain_serial, execute_workload_serial
from repro.serve import DopiaServer, ShardedServer
from repro.sim.contention import config_slowdown
from repro.sim.engine import DopSetting, simulate_execution
from repro.workloads import (
    SCALED_REAL_FACTORIES,
    make_atax1,
    make_bicg2,
    make_fdtd_chain,
    make_gesummv,
    make_mvt1,
    make_spmv,
)

perf = time.perf_counter

#: Deadline of every single wait; a handle still unsettled after it
#: counts as failed and ends the run's timed region.
WAIT_S = 20.0
#: dop_regret is taken over the first this many timed launches in
#: submission order, a multiple of both the 14-kernel round and the
#: 48-launch FDTD round, so it does not depend on how many launches a
#: run completes.
REGRET_LAUNCHES = 672

#: shapes-loaded: problem sizes 33..48 with 32-item work-groups, so every
#: launch spans 64 work-items and the ``auto`` backend JIT-compiles each
#: shape.  Set-up warms all 80 shapes under the co-runner, so JIT
#: compiles, kernel profiles and simulations show in ``setup_s`` and the
#: timed region does not speed up as it runs.
SHAPE_SIZES = (33, 49)
SHAPE_WG = 32
SHAPE_KERNELS: dict[str, Callable] = {
    "GESUMMV": make_gesummv,
    "ATAX1": make_atax1,
    "MVT1": make_mvt1,
    "BICG2": make_bicg2,
    "SpMV": lambda n, wg: make_spmv(n, wg, nnz_per_row=4),
}
#: The background co-runner of ``repro.ml.online.replay``: 75% of the
#: GPU's processing elements, leased for the whole timed region.
CO_RUNNER = DopSetting(cpu_threads=0, gpu_fraction=0.75)

CHAIN_STEPS, CHAIN_GRID, CHAIN_SEEDS = 8, 12, 4
SHARDS, SHARD_WINDOW = 2, 2


def _derive(*parts: Any) -> int:
    """A stable 31-bit seed from ``parts``."""
    raw = hashlib.blake2b(repr(parts).encode(), digest_size=4).digest()
    return int.from_bytes(raw, "little") >> 1


def digest(args: dict[str, Any]) -> bytes:
    """Hash of every buffer in ``args``, the oracle's comparison unit."""
    hasher = hashlib.blake2b(digest_size=16)
    for name in sorted(args):
        value = args[name]
        if isinstance(value, np.ndarray):
            hasher.update(name.encode())
            hasher.update(value.tobytes())
    return hasher.digest()


def copy_args(args: dict[str, Any]) -> dict[str, Any]:
    return {name: value.copy() if isinstance(value, np.ndarray) else value
            for name, value in args.items()}


def copy_into_one_block(args: dict[str, Any]) -> dict[str, Any]:
    """``copy_args``, with every array a view of one new allocation.

    The sharded router adopts buffers into shared memory per base
    allocation, so this costs one segment per launch instead of one per
    buffer.
    """
    arrays = [(name, value) for name, value in args.items()
              if isinstance(value, np.ndarray)]
    offsets, size = [], 0
    for _, value in arrays:
        offsets.append(size)
        size += -(-value.nbytes // 64) * 64
    block = np.empty(size, dtype=np.uint8)
    fresh = dict(args)
    for (name, value), offset in zip(arrays, offsets):
        view = block[offset:offset + value.nbytes].view(value.dtype)
        fresh[name] = view.reshape(value.shape)
        fresh[name][...] = value
    return fresh


def scalars_of(args: dict[str, Any]) -> dict[str, Any]:
    return {name: value for name, value in args.items()
            if not isinstance(value, np.ndarray)}


@dataclass
class Pass:
    """What one timed region did."""

    #: time inside the clock; input generation and output hashing
    #: between closed-loop launches run outside it
    seconds: float = 0.0
    latencies_s: list = field(default_factory=list)
    #: kernel name of each latency sample
    kernels: list = field(default_factory=list)
    #: clock time each latency sample ended at
    ends: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    hung: bool = False
    errors: list = field(default_factory=list)
    #: input key -> (launches, digest of the served outputs) per
    #: completed launch, or per chain for ``fdtd-graph``
    outputs: dict = field(default_factory=lambda: defaultdict(list))
    #: (workload, scalars, service_time_s, cpu_load, gpu_load) of the
    #: first REGRET_LAUNCHES launches in submission order
    decisions: list = field(default_factory=list)
    #: filled in after the pass: in-clock time and latencies scaled by
    #: the speed probe, resident memory, shm segments left alive
    scaled_seconds: float = 0.0
    scaled_latencies_s: list = field(default_factory=list)
    rss_mb: float = 0.0
    shm_segments: int = 0

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    def served(self, workload, latency_s: float, end_s: float) -> None:
        self.latencies_s.append(latency_s)
        self.kernels.append(workload.kernel_name)
        self.ends.append(end_s)

    def decide(self, workload, args, service_time_s: float,
               load=None) -> None:
        if len(self.decisions) < REGRET_LAUNCHES:
            cpu, gpu = (load.cpu_util, load.gpu_util) if load else (0.0, 0.0)
            self.decisions.append(
                (workload, scalars_of(args), service_time_s, cpu, gpu))

    def fail(self, error: BaseException, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(repr(error))


def closed_loop(session, next_launch, settled, seconds: float, rec,
                probe) -> Pass:
    """One launch at a time until ``seconds`` of in-clock time.

    ``next_launch()`` gives ``(key, workload, args)``; after a launch its
    outputs are hashed, ``settled(key, args)`` runs if given, and the
    speed probe samples when due.  All of that runs outside the clock.
    """
    run = Pass()
    while run.seconds < seconds:
        key, workload, args = next_launch()
        run.attempted += 1
        started = perf()
        try:
            handle = session.launch(workload, args)
            submitted = perf()
            result = handle.result(timeout=WAIT_S)
        except TimeoutError as error:
            run.seconds += perf() - started
            run.fail(error)
            run.hung = True
            break
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            run.seconds += perf() - started
            run.fail(error)
            continue
        done = perf()
        run.seconds += done - started
        run.served(workload, done - started, run.seconds)
        if rec is not None:
            rec.add("serve.submit", submitted - started)
            rec.resolved(handle.node, done)
        run.decide(workload, args, result.service_time_s, result.load)
        run.outputs[key].append((1, digest(args)))
        if settled is not None:
            settled(key, args)
        probe.tick(run.seconds)
    return run


def in_process_server(platform, model) -> DopiaServer:
    return DopiaServer(platform, model, workers=1, backend="auto",
                       functional=True)


class Mix14:
    """The 14 scaled registry kernels, round-robin, one arg set each."""

    name = "mix14"
    sharded = False

    def __init__(self, seed: int):
        self.kernels = []
        for name, factory in SCALED_REAL_FACTORIES.items():
            workload = factory()
            data_seed = _derive(seed, name)
            self.kernels.append((name, workload, data_seed))
        self.workloads = {name: w for name, w, _ in self.kernels}
        self.pristine = {name: w.full_args(s) for name, w, s in self.kernels}

    def server(self, platform, model):
        return in_process_server(platform, model)

    def warm_up(self, server) -> None:
        session = server.session("warm-up")
        for name, workload, data_seed in self.kernels:
            session.launch(workload, workload.full_args(data_seed + 1)).result(
                timeout=WAIT_S)

    def run(self, server, seconds: float, rec, probe) -> Pass:
        live = {name: copy_args(args) for name, args in self.pristine.items()}
        order = itertools.cycle(self.kernels)

        def next_launch():
            name, workload, _ = next(order)
            return name, workload, live[name]

        def restore(name, args):
            for key, value in self.pristine[name].items():
                if isinstance(value, np.ndarray):
                    np.copyto(args[key], value)

        return closed_loop(server.session(), next_launch, restore, seconds,
                           rec, probe)

    def expected(self, name: str) -> bytes:
        args = copy_args(self.pristine[name])
        execute_workload_serial(self.workloads[name], args, backend="scalar")
        return digest(args)


class ShapesLoaded:
    """Five kernels at a problem size drawn per launch, under a co-runner."""

    name = "shapes-loaded"
    sharded = False

    def __init__(self, seed: int):
        self.seed = seed
        self.shapes = {}
        for name, factory in SHAPE_KERNELS.items():
            for n in range(*SHAPE_SIZES):
                workload = factory(n, SHAPE_WG)
                self.shapes[name, n] = (
                    workload, workload.full_args(_derive(seed, name, n)))

    def server(self, platform, model):
        return in_process_server(platform, model)

    def warm_up(self, server) -> None:
        session = server.session("warm-up")
        lease = server.ledger.acquire(CO_RUNNER)
        try:
            for workload, args in self.shapes.values():
                session.launch(workload, copy_args(args)).result(
                    timeout=WAIT_S)
        finally:
            server.ledger.release(lease)

    def run(self, server, seconds: float, rec, probe) -> Pass:
        rng = np.random.default_rng(self.seed)
        names = list(SHAPE_KERNELS)

        def next_launch():
            key = (names[int(rng.integers(len(names)))],
                   int(rng.integers(*SHAPE_SIZES)))
            workload, args = self.shapes[key]
            return key, workload, copy_args(args)

        lease = server.ledger.acquire(CO_RUNNER)
        try:
            return closed_loop(server.session(), next_launch, None, seconds,
                               rec, probe)
        finally:
            server.ledger.release(lease)

    def expected(self, key) -> bytes:
        workload, args = self.shapes[key]
        args = copy_args(args)
        execute_workload_serial(workload, args, backend="scalar")
        return digest(args)


class FdtdGraph:
    """Rounds of two independent 8-step FDTD chains via ``submit_chain``."""

    name = "fdtd-graph"
    sharded = False

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = [_derive(seed, "fdtd", i) for i in range(CHAIN_SEEDS)]

    def _chain(self, chain_seed: int):
        return make_fdtd_chain(steps=CHAIN_STEPS, grid=CHAIN_GRID,
                               seed=chain_seed)

    def server(self, platform, model):
        return in_process_server(platform, model)

    def warm_up(self, server) -> None:
        server.submit_chain(server.session("warm-up"),
                            self._chain(_derive(self.seed, "warm-up"))
                            ).result(timeout=WAIT_S)

    def run(self, server, seconds: float, rec, probe) -> Pass:
        rng = np.random.default_rng(self.seed)
        session = server.session()
        run = Pass()
        while run.seconds < seconds and not run.hung:
            seeds = [self.pool[int(rng.integers(CHAIN_SEEDS))]
                     for _ in range(2)]
            chains = [self._chain(s) for s in seeds]
            launches = sum(len(chain) for chain in chains)
            run.attempted += launches
            stamps: dict = {}
            started = perf()
            try:
                graphs = [server.submit_chain(session, chain)
                          for chain in chains]
            except Exception as error:  # noqa: BLE001 - counted
                run.seconds += perf() - started
                run.fail(error, launches)
                continue
            submitted = perf()
            round_at = run.seconds
            for graph in graphs:
                for handle in graph.handles.values():
                    handle.add_done_callback(
                        lambda h: stamps.__setitem__(h, perf()))
            for graph in graphs:
                try:
                    graph.result(timeout=WAIT_S)
                except TimeoutError:
                    run.hung = True
                except Exception:  # noqa: BLE001 - counted per handle below
                    pass
            run.seconds += perf() - started
            if rec is not None:
                rec.add("serve.submit", submitted - started, launches)
            for seed, chain, graph in zip(seeds, chains, graphs):
                ok = True
                for task in chain.tasks:
                    handle = graph[task.key]
                    try:
                        result = handle.result(timeout=0)
                    except Exception as error:  # noqa: BLE001 - counted
                        run.fail(error)
                        ok = False
                        continue
                    latency = stamps[handle] - started
                    run.served(task.workload, latency, round_at + latency)
                    run.decide(task.workload, task.args,
                               result.service_time_s, result.load)
                    if rec is not None:
                        rec.resolved(handle.node, stamps[handle])
                if ok:
                    run.outputs[seed].append(
                        (len(chain), digest(chain.buffers)))
            probe.tick(run.seconds)
        return run

    def expected(self, chain_seed: int) -> bytes:
        chain = self._chain(chain_seed)
        execute_chain_serial(chain, backend="scalar")
        return digest(chain.buffers)


class ShardedFresh:
    """The 14-kernel mix through two one-worker shards, fresh buffers."""

    name = "sharded-fresh"
    sharded = True

    def __init__(self, seed: int):
        self.mix = Mix14(seed)

    def server(self, platform, model):
        return ShardedServer(platform, model, shards=SHARDS,
                             workers_per_shard=1, backend="auto",
                             functional=True, warm_start=False)

    def warm_up(self, server) -> None:
        session = server.session("warm-up")
        handles = [session.launch(workload, workload.full_args(seed + 1))
                   for _, workload, seed in self.mix.kernels]
        for handle in handles:
            handle.result(timeout=WAIT_S)

    def run(self, server, seconds: float, rec, probe) -> Pass:
        session = server.session()
        order = itertools.cycle(self.mix.kernels)
        window: deque = deque()
        stamps: dict = {}
        served = []
        run = Pass()

        def settle(entry) -> bool:
            name, workload, args, handle, started = entry
            try:
                result = handle.result(timeout=WAIT_S)
            except TimeoutError as error:
                run.fail(error)
                run.hung = True
                return False
            except Exception as error:  # noqa: BLE001 - counted
                run.fail(error)
                return True
            run.served(workload, stamps[handle] - started,
                       stamps[handle] - clock - probe.paused_s)
            run.decide(workload, args, result.service_time_s)
            served.append((name, args))
            return True

        def clock_s() -> float:
            return perf() - clock - probe.paused_s

        clock = perf()
        while clock_s() < seconds and not run.hung:
            if probe.due(clock_s()):
                # drain the window so the probe runs while the shards idle
                while window and settle(window.popleft()):
                    pass
                probe.sample(clock_s())
            name, workload, _ = next(order)
            args = copy_into_one_block(self.mix.pristine[name])
            run.attempted += 1
            started = perf()
            try:
                handle = session.launch(workload, args)
            except Exception as error:  # noqa: BLE001 - counted
                run.fail(error)
                continue
            if rec is not None:
                rec.add("shard.submit", perf() - started)
            handle.add_done_callback(lambda h: stamps.__setitem__(h, perf()))
            window.append((name, workload, args, handle, started))
            if len(window) >= SHARD_WINDOW and not settle(window.popleft()):
                break
        while window and not run.hung:
            settle(window.popleft())
        run.seconds = clock_s()
        for name, args in served:
            run.outputs[name].append((1, digest(args)))
        return run

    def expected(self, name: str) -> bytes:
        return self.mix.expected(name)


MIXES = {mix.name: mix for mix in (Mix14, ShapesLoaded, FdtdGraph,
                                   ShardedFresh)}


def check(mix, runs: list[Pass]) -> tuple[int, int]:
    """``(checked, mismatched)`` launches against the scalar oracle.

    Each distinct input runs through the oracle once; a mismatched chain
    counts all of its launches.
    """
    keys = {key for run in runs for key in run.outputs}
    expected = {key: mix.expected(key) for key in keys}
    checked = mismatched = 0
    for run in runs:
        for key, outputs in run.outputs.items():
            for launches, served in outputs:
                checked += launches
                if served != expected[key]:
                    mismatched += launches
    return checked, mismatched


def dop_regret(decisions: list, platform, model) -> float:
    """Geometric mean of chosen over best feasible modelled time.

    Taken over the first :data:`REGRET_LAUNCHES` launches.  The chosen
    config's modelled time is the launch's ``service_time_s`` without the
    model's inference cost, that is its ``simulate_execution`` time times
    the contention slowdown.  The best is taken over the configs
    ``DopPredictor.feasible_mask`` allows at the launch's bucketed load,
    simulated the way the server does.  A shard's result carries no load;
    with one worker per shard and no co-runner it is always idle.  1.0
    means every launch got the oracle's choice.
    """
    predictor = DopPredictor(model, platform)
    overhead = model.inference_cost_s(len(predictor.configs))
    infos: dict = {}
    best: dict = {}
    logs = []
    for workload, scalars, service_time_s, cpu_load, gpu_load in decisions:
        key = (workload.source, workload.kernel_name, workload.global_size,
               workload.local_size, tuple(sorted(scalars.items())),
               cpu_load, gpu_load)
        if key not in best:
            info = infos.get(key[:2])
            if info is None:
                info = infos[key[:2]] = workload.kernel_info()
            ndrange = workload.ndrange()
            profile = profile_kernel(
                info, {name: scalars[name] for name in info.scalar_params},
                ndrange.total_work_items, ndrange.work_items_per_group,
                work_dim=ndrange.work_dim,
                irregular_trip_hint=workload.irregular_trip_hint)
            feasible = predictor.feasible_mask(cpu_load, gpu_load)
            if not feasible.any():
                feasible[:] = True
            best[key] = min(
                simulate_execution(
                    profile, platform, config.setting, scheduler="dynamic",
                    chunk_divisor=10, run_key=(workload.kernel_name, "serve"),
                ).time_s * config_slowdown(
                    config.cpu_util, config.gpu_util, cpu_load, gpu_load,
                    fairness=platform.arbitration_fairness)
                for config, ok in zip(predictor.configs, feasible) if ok)
        logs.append(math.log((service_time_s - overhead) / best[key]))
    return math.exp(sum(logs) / len(logs)) if logs else 0.0

