"""Functional serving benchmark for the Dopia reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload mix14 --seed 1 --seconds 16 --trace 0

Workloads are ``mix14``, ``shapes-loaded``, ``fdtd-graph`` and
``sharded-fresh`` (see ``perfbench/mixes.py``).  ``--trace 0`` reports:

* ``launches_per_s``: completed launches per second of timed time;
* ``latency_p50_ms``: client-side latency from the submit call until the
  handle settles, as the geometric mean over kernels of each kernel's
  median;
* ``latency_p99_ms``: the 99th percentile over all launches;
* ``setup_s``: the median of five set-ups, each a read of the primed
  dataset cache, the ``dt`` fit, server construction and an untimed
  warm-up round;
* ``dop_regret``: see ``mixes.dop_regret``;
* ``rss_mb``: resident memory of this process and its children at the
  end of the timed region.

The first four are scaled to a reference machine speed measured by a
probe (``perfbench/speed.py``); the report prints the raw figures beside
them.  ``--trace 1`` reports the per-layer metrics instead, from a pass
with hooks around each layer's public calls (``perfbench/layers.py``),
and the tracing overhead against an equal pass without hooks, each on a
freshly set-up server.  Both modes check every launch's outputs against
the scalar oracle.  The last line of standard output is one JSON object;
the exit code is 1 when any launch failed or any output differs from the
oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Settings that would change what is measured; cleared before the
#: program is imported.
PINNED_ENV = ("DOPIA_TRACE", "DOPIA_VERIFY", "DOPIA_BACKEND", "DOPIA_MP_START")
#: The dataset cache lives in the checkout (``.cache`` is git-ignored).
CACHE_DIR = ROOT / ".cache"
#: Set-ups measured per run; setup_s is their median.
SETUPS = 5
#: Speed probes taken on each side of a set-up; a few alone are too
#: short to scale it steadily.
SETUP_PROBES = 8

END_TO_END = {
    "launches_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "dop_regret": "ratio",
    "rss_mb": "MB",
}

perf = time.perf_counter


def rss_mb() -> float:
    """Resident memory of this process and all its descendants."""
    pending, total_kb = [os.getpid()], 0
    while pending:
        pid = pending.pop()
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmRSS:"):
                    total_kb += int(line.split()[1])
            for task in Path(f"/proc/{pid}/task").iterdir():
                pending.extend(
                    int(child) for child in
                    (task / "children").read_text().split())
        except OSError:
            continue
    return total_kb / 1024.0


def child_pids() -> list:
    """Process ids of this process's children, from ``/proc``."""
    pids = []
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids.extend(int(pid) for pid in
                        (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``ShardedServer.close`` joins its shards, but the resource tracker
    that the first shared-memory segment starts (and a forkserver, under
    that start method) only exits once its pipe closes, which otherwise
    happens after this process has gone.  Anything still alive after
    that is killed and reaped.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            continue


def shm_segments() -> set:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {entry.name for entry in shm.iterdir()
            if entry.name.startswith("dopia-")}


class Bench:
    """One workload's set-up, timed passes and checks."""

    def __init__(self, workload: str, seed: int):
        from repro.core.training import collect_dataset
        from repro.sim.platforms import get_platform
        from repro.workloads.synthetic import training_workloads

        from perfbench.mixes import MIXES
        from perfbench.speed import SpeedProbe

        self.platform = get_platform("kaveri")
        # The Table-4 slice the online-retraining replay trains on.
        self.training = training_workloads(sizes=(16384,), wg_sizes=(256,))
        self.mix = MIXES[workload](seed)
        # Prime the dataset cache once, outside every timed region.
        collect_dataset(self.training, self.platform, cache=True,
                        cache_dir=CACHE_DIR)
        self.probe = SpeedProbe()

    def set_up(self):
        """``(server, model, setup_s, fit_s)``: fit, construct, warm up."""
        from repro.core.training import collect_dataset
        from repro.ml import make_model

        started = perf()
        dataset = collect_dataset(self.training, self.platform, cache=True,
                                  cache_dir=CACHE_DIR)
        model = make_model("dt")
        fit_started = perf()
        model.fit(dataset.feature_matrix(), dataset.targets())
        fit_s = perf() - fit_started
        server = self.mix.server(self.platform, model)
        try:
            self.mix.warm_up(server)
        except BaseException:
            server.close(timeout=10.0)
            raise
        return server, model, perf() - started, fit_s

    def timed_set_up(self):
        """``(server, model, setup_s, scaled setup_s)``: :meth:`set_up`,
        with its time also scaled by the probes around it."""
        self.probe.start()
        for _ in range(SETUP_PROBES - 1):
            self.probe.sample()
        server, model, setup_s, fit_s = self.set_up()
        for _ in range(SETUP_PROBES):
            self.probe.sample()
        return server, model, setup_s, setup_s / self.probe.factor()

    def timed(self, server, seconds: float, rec=None):
        """One timed pass plus the resources it left behind."""
        before = shm_segments()
        self.probe.start()
        run = self.mix.run(server, seconds, rec, self.probe)
        run.scaled_seconds = self.probe.scale_seconds(run.seconds)
        run.scaled_latencies_s = self.probe.scale_latencies(
            run.ends, run.latencies_s)
        run.rss_mb = rss_mb()
        run.shm_segments = len(shm_segments() - before)
        return run


def lps(run) -> float:
    return run.completed / run.seconds if run.seconds > 0 else 0.0


def scaled_lps(run) -> float:
    return (run.completed / run.scaled_seconds if run.scaled_seconds > 0
            else 0.0)


def p99_ms(kernels: list, latencies_s: list) -> float:
    import numpy as np

    if not latencies_s:
        return 0.0
    return float(np.percentile(latencies_s, 99)) * 1e3


def p50_ms(kernels: list, latencies_s: list) -> float:
    """Geometric mean over kernels of each kernel's median latency.

    In a round-robin mix every kernel has the same share of samples, so
    the plain median of all samples, and the median of the kernels'
    medians, fall on the gap between a fast and a slow kernel and jump
    across it from run to run.
    """
    if not latencies_s:
        return 0.0
    by_kernel: dict = {}
    for kernel, latency in zip(kernels, latencies_s):
        by_kernel.setdefault(kernel, []).append(latency)
    return statistics.geometric_mean(
        statistics.median(samples) for samples in by_kernel.values()) * 1e3


def untraced(bench: Bench, seconds: float):
    from perfbench.mixes import dop_regret
    from perfbench.speed import REFERENCE_S

    setups, raw_setups = [], []
    for index in range(SETUPS):
        server, model, raw_s, setup_s = bench.timed_set_up()
        raw_setups.append(raw_s)
        setups.append(setup_s)
        if index < SETUPS - 1:
            server.close(timeout=10.0)
    try:
        run = bench.timed(server, seconds)
    finally:
        server.close(timeout=10.0)
    scaled = (run.kernels, run.scaled_latencies_s)
    raw = (run.kernels, run.latencies_s)
    metrics = {
        "launches_per_s": scaled_lps(run),
        "latency_p50_ms": p50_ms(*scaled),
        "latency_p99_ms": p99_ms(*scaled),
        "setup_s": statistics.median(setups),
        "dop_regret": dop_regret(run.decisions, bench.platform, model),
        "rss_mb": run.rss_mb,
    }
    units = dict(END_TO_END)
    notes = [
        f"speed     mean probe factor {bench.probe.factor():.4f} (over "
        f"{REFERENCE_S * 1e3:g} ms); raw launches_per_s {lps(run):.4f}, "
        f"latency_p50_ms {p50_ms(*raw):.4f}, "
        f"latency_p99_ms {p99_ms(*raw):.4f}",
        f"setups    raw {', '.join(f'{s:.3f}' for s in raw_setups)} s, "
        f"scaled {', '.join(f'{s:.3f}' for s in setups)} s",
        f"segments  {run.shm_segments} /dev/shm segments left alive"]
    return [run], metrics, units, notes


def cache_counts(server) -> dict:
    """Hit/miss and graph counters to difference across a pass."""
    counts = {"graph": server.graph.snapshot()}
    if hasattr(server, "cache"):
        counts["pred"] = server.cache.stats()
        counts["sim"] = server.sim_cache.stats()
    if hasattr(server.stats, "snapshot"):
        counts["router"] = server.stats.snapshot()
    return counts


def hit_frac(before: dict, after: dict, cache: str) -> float:
    if cache not in after:
        return 0.0
    hits = after[cache]["hits"] - before[cache]["hits"]
    misses = after[cache]["misses"] - before[cache]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def traced(bench: Bench, seconds: float):
    from perfbench.layers import METRICS, Recorder, layer_metrics

    half = seconds / 2.0
    setup_rec = Recorder()
    setup_rec.install_modules()
    try:
        server, _, _, fit_s = bench.set_up()
    finally:
        setup_rec.uninstall()
    rec = Recorder()
    try:
        before = cache_counts(server)
        rec.install_modules()
        if not bench.mix.sharded:
            rec.install_server(server)
        try:
            traced_run = bench.timed(server, half, rec)
        finally:
            rec.uninstall()
        after = cache_counts(server)
    finally:
        server.close(timeout=10.0)
    server, _, _, _ = bench.set_up()
    try:
        plain_run = bench.timed(server, half)
    finally:
        server.close(timeout=10.0)

    graph = {key: after["graph"][key] - before["graph"][key]
             for key in ("parked", "submitted")}
    launches = traced_run.completed
    router = {key: after.get("router", {}).get(key, 0)
              - before.get("router", {}).get(key, 0)
              for key in ("escalated", "submitted")}
    measured = {
        "serve.pred_cache_hit_frac": hit_frac(before, after, "pred"),
        "serve.sim_cache_hit_frac": hit_frac(before, after, "sim"),
        "serve.park_frac": (graph["parked"] / graph["submitted"]
                            if graph["submitted"] else 0.0),
        "serve.latency_mean_us": (statistics.fmean(traced_run.latencies_s)
                                  * 1e6 if launches else 0.0),
        "ml.fit_s": fit_s,
        "shard.escalated_frac": (router["escalated"] / router["submitted"]
                                 if router["submitted"] else 0.0),
        "shard.shm_segments_per_klaunch": (
            traced_run.shm_segments * 1000.0 / launches
            if bench.mix.sharded and launches else 0.0),
        "trace.overhead_ratio": (scaled_lps(traced_run) / scaled_lps(plain_run)
                                 if lps(plain_run) else 0.0),
    }
    metrics, absent = layer_metrics(rec, setup_rec, launches, measured)
    units = {name: unit for name, (unit, _, _) in METRICS.items()}
    notes = [f"traced    {scaled_lps(traced_run):.2f} launches/s over {half:g} s"
             f", untraced {scaled_lps(plain_run):.2f} launches/s over "
             f"{half:g} s (both scaled by the speed probe)"]
    notes += [f"absent    {name}: {reason}"
              for name, reason in sorted(absent.items())]
    return [traced_run, plain_run], metrics, units, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    cleared = [name for name in PINNED_ENV if os.environ.pop(name, None)]
    # Every thread and process of the run shares one CPU with the speed
    # probe: the CPUs of a shared host can differ in speed by 1.4x, and
    # a probe on one CPU does not see a worker slowed down on another.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    # sharded-fresh holds two descriptors per launch until its server
    # closes (every fresh allocation stays adopted in shared memory)
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < hard:
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.mixes import MIXES, check

    if args.workload not in MIXES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(MIXES)}")
    try:
        bench = Bench(args.workload, args.seed)
        runs, metrics, units, notes = (traced if args.trace else untraced)(
            bench, args.seconds)
        checked, mismatched = check(bench.mix, runs)
    finally:
        stop_children()
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs) + mismatched
    samples = sum(run.completed for run in runs)

    print(f"workload  {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print(f"env       platform kaveri, model dt, backend auto; cleared "
          f"{', '.join(PINNED_ENV)} (were set: {', '.join(cleared) or 'none'})"
          f"; open-file limit {resource.getrlimit(resource.RLIMIT_NOFILE)[0]}"
          f"; pinned to CPU {cpu}")
    print(f"launches  attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / max(1, attempted):.4f}), "
          f"latency samples {samples}")
    print(f"oracle    {checked} launches checked against the scalar "
          f"oracle, {mismatched} mismatched")
    for run in runs:
        for error in run.errors:
            print(f"error     {error}")
        if run.hung:
            print("hung      a launch did not settle within the deadline")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6f} {units[name]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
