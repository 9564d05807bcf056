"""Benchmark harness for ap3: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mod-table --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

A run repeats the workload while one more repetition still fits in
``--seconds`` of timed work; there is always one.  Each repetition is a
fresh worker process, as each ``ap3`` command is for its users: it imports
ap3 from ``src/`` of this checkout, builds the inputs from the seed (the
set-up), runs the workload's calls one by one under the clock, and checks
every result against references that do not come from ap3.  Nothing a
repetition caches carries over to the next.

--trace 0 reports the end-to-end metrics, each a median over the
repetitions: wall_s, setup_s (with extra set-up-only workers so that there
are at least SETUP_SAMPLES) and peak_rss_mb, the worker's peak resident set.
wall_s is scaled by a speed probe (see REFERENCE_PROBE_S).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones (see tracer.py), plus
trace_overhead_share, the traced median wall_s over the untraced one, minus
one, and checks that both return the same results.

Every run writes perfbench/results/<workload>-seed<seed>-trace<0|1>.json
with the per-repetition data and provenance.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
failed_share, failed / attempted, is printed above it; it is not an
end-to-end metric because it is 0 on a correct program.

--workload all runs each workload in its own process, one after another,
and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("mod-table", "int-search", "density-bounds")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "sets.canonicalize.calls": "count",
    "sets.canonicalize.self_s": "s",
    "sets.affine_orbit_transversal.self_s": "s",
    "sets.affine_orbit_transversal.orbits": "count",
    "sets.orbit_yield": "ratio",
    "counting.t3_naive.calls": "count",
    "counting.t3_naive.self_s": "s",
    "counting.t3_fast.calls": "count",
    "counting.t3_fast.self_s": "s",
    "counting.cyclic_convolution_exact.calls": "count",
    "counting.cyclic_convolution_exact.self_s": "s",
    "counting.additive_energy.self_s": "s",
    "search.max3ap_integers.self_s": "s",
    "search.max3ap_integers.pruned": "count",
    "search.extremal_mod.calls": "count",
    "search.extremal_mod.self_s": "s",
    "search.classify_extremal.self_s": "s",
    "constructions.optimize_wraparound.self_s": "s",
    "constructions.generate_family.calls": "count",
    "constructions.generate_family.self_s": "s",
    "constructions.embed_mod.self_s": "s",
    "structure.rectify.calls": "count",
    "structure.rectify.self_s": "s",
    "structure.check_t3_energy_inequality.self_s": "s",
    "bounds.submultiplicative_closure.self_s": "s",
    "bounds.records_added": "count",
    "suites.run_suite.self_s": "s",
    "cli.main.self_s": "s",
    "parallel.pmap.calls": "count",
    "parallel.pmap.self_s": "s",
    "trace_overhead_share": "ratio",
}
RESULT_COUNTERS = {
    "search.max3ap_integers": ("search.max3ap_integers.pruned", lambda r: r.pruned_count),
    "bounds.submultiplicative_closure": ("bounds.records_added", lambda added: added),
}

# The machine this benchmark was built on shares its cores: its speed
# switches by up to 1.7x within seconds and drifts over minutes.  While a
# worker runs its calls, a SIGALRM timer interrupts it every PROBE_PERIOD_S
# to time a short fixed pure-Python loop, the probe; a probe is also taken
# before the first call and after every call.  Each call loses the time of
# the probes inside it and is scaled by REFERENCE_PROBE_S over the mean
# probe time sampled during it and at its two ends, so a call that runs for
# seconds is scaled by the speed the machine had while it ran.  wall_s
# therefore reads as seconds on a machine where a probe takes
# REFERENCE_PROBE_S; the unscaled times, with the probes taken out, are kept
# in the result file.  The set-up runs without probes and is not scaled:
# it is mostly imports, whose speed the probe does not follow.
REFERENCE_PROBE_S = 0.003
PROBE_ITERATIONS = 1000
PROBE_PERIOD_S = 0.1


def reference_loop() -> float:
    """One timing of a fixed loop of the kind of work ap3 does most:
    sorting small tuples, comparing them, set insertion."""
    t0 = perf_counter()
    best, seen = (), set()
    for i in range(PROBE_ITERATIONS):
        pts = sorted((i * x) % 101 for x in (1, 5, 17, 33, 64))
        gaps = tuple(b - a for a, b in zip(pts, pts[1:]))
        if not best or gaps < best:
            best = gaps
        seen.add(i % 97)
    return perf_counter() - t0


class SpeedProbe:
    """Inside ``with SpeedProbe():``, probes every PROBE_PERIOD_S and on
    ``sample()``; each probe is kept as (start, end, loop seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a timer signal that lands inside a probe
            return
        self._busy = True
        start = perf_counter()
        loop = reference_loop()
        self.samples.append((start, perf_counter(), loop))
        self._busy = False

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """The seconds of [start, end] outside probes, unscaled and scaled."""
        inside = [s for s in self.samples if start <= s[0] < end]
        before = [s for s in self.samples if s[1] <= start][-1:]
        after = [s for s in self.samples if s[0] >= end][:1]
        net = end - start - sum(b - a for a, b, _ in inside)
        loops = [loop for *_, loop in before + inside + after]
        return net, net * REFERENCE_PROBE_S / statistics.mean(loops)


def layer_metrics(tracer) -> dict[str, float]:
    stats = tracer.stats()
    orbits = stats.get("sets.affine_orbit_transversal.yields", 0)
    under = tracer.calls_under("sets.canonicalize", "sets.affine_orbit_transversal")
    stats["sets.affine_orbit_transversal.orbits"] = orbits
    stats["sets.orbit_yield"] = orbits / under if under else 0.0
    return stats


def worker(args) -> dict:
    """One repetition in this process: set-up, timed calls, checks."""
    with tempfile.TemporaryDirectory(dir=HERE, prefix="work-") as work:
        t_start = perf_counter()
        sys.path.insert(0, str(SRC))
        import ap3
        import workloads
        from tracer import Tracer

        wl = workloads.WORKLOADS[args.workload](args.seed, Path(work))
        out = {"setup_s": perf_counter() - t_start}
        if not Path(ap3.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"ap3 was imported from {ap3.__file__}, not {SRC}")
        if args.setup_only:
            return out

        results, spans = {}, []
        tracer = Tracer(RESULT_COUNTERS) if args.trace else contextlib.nullcontext()
        with SpeedProbe() as probe, tracer:
            for key, call in wl.calls():
                t0 = perf_counter()
                results[key] = workloads.attempt(call)
                spans.append((t0, perf_counter()))
                probe.sample()
        checks = wl.check(results)

    times = [probe.scaled(start, end) for start, end in spans]
    out["wall_s"] = sum(net for net, _ in times)
    out["scaled_wall_s"] = sum(scaled for _, scaled in times)
    out["call_s"] = {repr(key): net for key, (net, _) in zip(results, times)}
    out["probes"] = len(probe.samples)
    out["probe_s"] = statistics.mean(loop for *_, loop in probe.samples)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["failures"] = [label for label, ok in checks if not ok]
    out["attempted"] = len(checks)
    out["digest"] = hashlib.sha256(repr(results).encode()).hexdigest()
    if args.trace:
        out["layers"] = layer_metrics(tracer)
    return out


def spawn(args, trace: int, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def measure(args) -> dict:
    """Repeat while one more round fits in --seconds of unscaled timed work,
    judged by the round before it.  A traced run's rounds are an untraced
    repetition followed by a traced one."""
    reps: list[dict] = []
    attempted, failures = 0, []
    while True:
        round_ = [spawn(args, 0)] + ([spawn(args, 1)] if args.trace else [])
        for rep in round_:
            attempted += rep["attempted"]
            failures += rep["failures"]
        if args.trace:
            attempted += 1
            if round_[0]["digest"] != round_[1]["digest"]:
                failures.append("traced results differ from untraced results")
        reps += round_
        elapsed = sum(rep["wall_s"] for rep in reps)
        if elapsed + sum(rep["wall_s"] for rep in round_) > args.seconds:
            break
    setups = [rep for rep in reps if "layers" not in rep]
    while len(setups) < SETUP_SAMPLES and not args.trace:
        setups.append(spawn(args, 0, setup_only=True))
    return {"reps": reps, "setups": setups, "attempted": attempted, "failures": failures}


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"commit": commit_id(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": nproc, "cpu_model": cpu_model(),
            "seed": seed}


def report(args, run: dict) -> dict:
    untraced = [rep for rep in run["reps"] if "layers" not in rep]
    if args.trace:
        traced = [rep for rep in run["reps"] if "layers" in rep]
        values = {name: statistics.median(rep["layers"].get(name, 0) for rep in traced)
                  for name in PER_LAYER if name != "trace_overhead_share"}
        values["trace_overhead_share"] = (
            statistics.median(rep["scaled_wall_s"] for rep in traced)
            / statistics.median(rep["scaled_wall_s"] for rep in untraced) - 1)
        units = PER_LAYER
    else:
        values = {"wall_s": statistics.median(rep["scaled_wall_s"] for rep in untraced),
                  "setup_s": statistics.median(rep["setup_s"] for rep in run["setups"]),
                  "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced)}
        units = END_TO_END
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:15} run failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:15} {metric:45} {m['value']:<14.6g} {m['unit']}")
        share = result["failed"] / result["attempted"]
        print(f"{name:15} {'failed_share':45} {share:<14.6g} share "
              f"({result['failed']}/{result['attempted']})")
        status |= not result["correct"]
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description="ap3 benchmark harness")
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ap3" / "__init__.py").is_file():
        print(f"error: no ap3 sources under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    if args.workload == "all":
        return run_all(args)

    run = measure(args)
    metrics = report(args, run)
    failed = len(run["failures"])
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args.seed), "metrics": metrics,
              "attempted": run["attempted"], "failures": run["failures"],
              "repetitions": run["reps"], "setups": run["setups"]}
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for label in run["failures"][:20]:
        print(f"check failed: {label}", file=sys.stderr)
    walls = [rep["wall_s"] for rep in run["reps"] if "layers" not in rep]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(run['reps'])} commit={record['provenance']['commit']}")
    print(f"# unscaled median wall {statistics.median(walls)!r} s, set-up "
          f"{statistics.median(rep['setup_s'] for rep in run['setups'])!r} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_share {failed / run['attempted']!r} share ({failed}/{run['attempted']})")
    print(json.dumps({"correct": failed == 0, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
