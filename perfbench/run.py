#!/usr/bin/env python3
"""graspkit benchmark: plan and robust-evaluation speed on three workloads.

    python3 perfbench/run.py --workload {corpus,scan,robust,all} --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one caller in one single-threaded
process (BLAS/OpenMP threads pinned to 1): every op waits for the previous
one. Ops run in whole passes over the workload's inputs, as many as end
nearest to ``--seconds``, so every input is measured equally often. Op
times are divided by the machine's speed at the time (see ``reference``).
Every output is checked (see ``workloads``), and a failed check is
counted, never fatal.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half with span wrappers on graspkit's public functions, prints
the per-layer metrics and the tracing overhead, and checks that the traced
plans are byte-identical to the untraced ones. Human-readable lines come
first; the last stdout line is one JSON object. Details (metadata, per-op
samples, spans) are written under perfbench/out/.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3


def _import_graspkit():
    """Import graspkit from this checkout's src/, never from anywhere else."""
    if not (SRC / "graspkit" / "__init__.py").is_file():
        sys.exit(f"error: no graspkit sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import graspkit
    if Path(graspkit.__file__).resolve().parent != SRC / "graspkit":
        sys.exit(f"error: imported graspkit from {graspkit.__file__}, not from {SRC}")


def _git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(workload: str, seed: int, seconds: float, trace: bool, trials: int) -> dict:
    import numpy
    import scipy
    source = hashlib.sha256()
    for path in sorted((SRC / "graspkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "trials": trials,
    }


class Loop:
    """Runs ops in whole passes and records per-op times and check results.

    ``first`` maps each input key to the output of its first op in this
    process; a later op on the same input must reproduce it byte for byte.
    The reference kernel runs at the start and then every
    ``reference.INTERVAL_S`` between ops, outside the op times. After each
    run of it the loop moves to the next CPU it may use: one CPU of a shared
    machine can be slower than another for a whole run, and a process left
    alone stays on one. The kernel runs before the move, not after it,
    because the first milliseconds on a CPU just moved to are slow and would
    read as a slow machine.
    """

    def __init__(self, ops, first: dict):
        self.ops = ops
        self.first = first
        self.samples: list[dict] = []
        self.results: dict = {}  # key -> raw result of the first op on it
        self.outputs: list[str] = []  # serialized outputs of this loop's first pass
        self.reference_ms: list[float] = []
        self.passes = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def _reference(self) -> None:
        import reference
        self.reference_ms.append(reference.kernel_ms())
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[len(self.reference_ms) % len(self.cpus)]})

    def run(self, seconds: float, tracer=None) -> None:
        try:
            self._run(seconds, tracer)
        finally:
            os.sched_setaffinity(0, self.cpus)

    def _run(self, seconds: float, tracer) -> None:
        import reference
        perf_counter = time.perf_counter
        start = last_reference = perf_counter()
        self._reference()
        # Stop at the whole number of passes whose end is nearest to ``seconds``.
        while self.passes == 0 or (perf_counter() - start) * (1 + 0.5 / self.passes) < seconds:
            for op in self.ops:
                if tracer is not None:
                    tracer.op = len(self.samples)
                t0 = perf_counter()
                try:
                    text, reason, result = op.run()
                except Exception as exc:  # a failed op is counted; the run goes on
                    text, reason, result = None, f"raised {type(exc).__name__}: {exc}", None
                wall = (perf_counter() - t0) * 1e3
                if tracer is not None:
                    tracer.op = None
                if reason is None and self.first.setdefault(op.key, text) != text:
                    reason = "output differs from the first op on the same input"
                # "ref": index of the reference run just before this op
                self.samples.append({"key": op.key, "wall_ms": wall, "fail": reason,
                                     "ref": len(self.reference_ms) - 1})
                if self.passes == 0:
                    self.outputs.append(text or "")
                    self.results[op.key] = result
                if perf_counter() - last_reference >= reference.INTERVAL_S:
                    self._reference()
                    last_reference = perf_counter()
            self.passes += 1

    @property
    def speed(self) -> float:
        import reference
        return reference.speed(self.reference_ms)

    def wall_ms(self) -> list[float]:
        return [s["wall_ms"] for s in self.samples]

    def scaled_ms(self) -> list[float]:
        """Per-op wall times divided by the speed of the 3 reference runs before and the 3 after each op."""
        import reference
        refs = self.reference_ms
        return [s["wall_ms"] / reference.speed(refs[max(0, s["ref"] - 2):s["ref"] + 4]) for s in self.samples]

    def throughput(self) -> float:
        """Ops per second of scaled op time."""
        return len(self.samples) / (sum(self.scaled_ms()) / 1e3)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()


def _percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all order statistics.

    The ops of a plan workload fall in one cluster per input, and a single
    order statistic (what ``statistics.quantiles`` interpolates) jumps from
    one cluster to the next between runs; the weighted mean moves smoothly.
    """
    import numpy as np
    from scipy.special import betainc
    n = len(values)
    weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ np.sort(values))


def closure_prob_mean(workload: str, loop: Loop, inputs, trials: int) -> tuple[float, int]:
    """Mean robust closure probability of the outputs, and how many grasps it covers."""
    import workloads
    from graspkit.robustness import robust_force_closure
    if workload == "robust":
        probs = [r.probability for r in loop.results.values() if r is not None]
    else:
        spec = workloads.spec_for(workloads.QUALITY_SIGMA, workloads.QUALITY_SEED, trials)
        probs = [
            robust_force_closure(r.best.candidate, inputs.eval_clouds[key], spec,
                                 mu=workloads.CONFIG.mu, mode=workloads.CONFIG.closure_mode).probability
            for key, r in loop.results.items() if r is not None and r.best is not None
        ]
    return (statistics.fmean(probs) if probs else 0.0), len(probs)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, objects=None,
                 expected=None, trials: int | None = None, write_out: bool = True) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    import reference
    import workloads
    from tracing import Tracer, layer_metrics

    trials = trials or workloads.TRIALS
    import_s = time.perf_counter() - _T0
    tracer = Tracer() if trace else None
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, setup_reference, fingerprints = [], [], set()
        if tracer is not None:
            tracer.install()
        for k in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.op = f"setup{k}"
            t0 = time.perf_counter()
            inputs = workloads.build(workload, seed, workdir, objects, expected, trials)
            setup_times.append(time.perf_counter() - t0)
            fingerprints.add(inputs.fingerprint)
            setup_reference.append(reference.kernel_ms())
        if tracer is not None:
            tracer.op = None
            tracer.restore()
        setup_speed = reference.speed(setup_reference)

        # One untimed op first, so that lazy initialisation in the libraries
        # is not timed; should it fail, the same op fails again in the loop.
        try:
            inputs.ops[0].run()
        except Exception:
            pass
        first: dict = {}
        checks = {"setup_repeatable": len(fingerprints) == 1}
        if not trace:
            loop = Loop(inputs.ops, first)
            loop.run(seconds)
            measured = [loop]
            prob, n_prob = closure_prob_mean(workload, loop, inputs, trials)
            wall, scaled = loop.wall_ms(), loop.scaled_ms()
            raw_setup = import_s + statistics.median(setup_times)
            metrics = {
                "setup_s": raw_setup / setup_speed,
                "latency_ms_p50": _percentile(scaled, 0.5),
                "latency_ms_p90": _percentile(scaled, 0.9),
                "throughput_ops_s": loop.throughput(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "closure_prob_mean": prob,
            }
            beyond = sum(v > metrics["latency_ms_p90"] for v in scaled)
            notes = {
                "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups = {raw_setup:.3f} s "
                           f"wall, speed {setup_speed:.3f}",
                "latency_ms_p50": f"n={len(wall)} ops; wall {_percentile(wall, 0.5):.1f} ms, "
                                  f"speed {loop.speed:.3f} ({len(loop.reference_ms)} reference runs)",
                "latency_ms_p90": f"n={len(wall)} ops, {beyond} beyond; wall {_percentile(wall, 0.9):.1f} ms",
                "throughput_ops_s": f"{len(wall)} ops, {loop.passes} passes; "
                                    f"wall {len(wall) / (sum(wall) / 1e3):.4f} ops/s",
                "peak_rss_mb": "ru_maxrss of this process",
                "closure_prob_mean": f"{n_prob} evaluations" + (
                    "" if workload == "robust" else
                    f", sigma {workloads.QUALITY_SIGMA} relative, {trials} trials, seed {workloads.QUALITY_SEED}"),
            }
            digest = loop.digest()
        else:
            untraced = Loop(inputs.ops, first)
            untraced.run(seconds / 2)
            traced = Loop(inputs.ops, first)
            tracer.install()
            try:
                traced.run(seconds / 2, tracer)
            finally:
                tracer.restore()
            measured = [untraced, traced]
            checks["traced_digest_matches"] = traced.digest() == untraced.digest()
            raw = layer_metrics(tracer.spans, list(range(len(traced.samples))),
                                [f"setup{k}" for k in range(SETUP_REPEATS)])
            metrics = {name: value / (setup_speed if name.startswith("shapes.") else traced.speed)
                       if name.endswith(("_ms", ".ms_per_trial")) else value
                       for name, value in raw.items()}
            metrics["trace.overhead_frac"] = 1.0 - traced.throughput() / untraced.throughput()
            notes = {"trace.overhead_frac": (
                f"untraced {untraced.throughput():.4f} ops/s ({len(untraced.samples)} ops), "
                f"traced {traced.throughput():.4f} ops/s ({len(traced.samples)} ops), "
                f"speed {traced.speed:.3f}")}
            digest = untraced.digest()
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [s for loop in measured for s in loop.samples]
    record = {
        "metadata": None,
        "metrics": metrics,
        "notes": notes,
        "attempted": len(samples),
        "failed": sum(s["fail"] is not None for s in samples),
        "checks": checks,
        "plan_digest": digest,
        "setup_times_s": setup_times,
        "reference_ms": {"setup": setup_reference, "loops": [loop.reference_ms for loop in measured]},
        "samples": samples,
    }
    if write_out:
        OUT.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        record["metadata"] = metadata(workload, seed, seconds, trace, trials)
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if tracer is not None:
            tracer.write(OUT / f"{stem}.spans.jsonl")
    return record


def _print_report(workload: str, record: dict, units: dict) -> None:
    meta = record["metadata"] or {}
    print(f"# graspkit benchmark: workload={workload} seed={meta.get('seed')} "
          f"seconds={meta.get('seconds')} trace={meta.get('trace')}")
    if meta:
        print("# metadata " + json.dumps({k: v for k, v in meta.items()
                                          if k not in ("workload", "seed", "seconds", "trace")}))
    for name, value in record["metrics"].items():
        note = record["notes"].get(name, "")
        print(f"{name:28s} {value:14.6g} {units.get(name, ''):8s} {note}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{'fail_frac':28s} {failed / attempted:14.6g} {'ratio':8s} {failed} of {attempted} ops")
    print(f"{'plan_digest':28s} {record['plan_digest']}")
    for name, ok in record["checks"].items():
        print(f"{'check.' + name:28s} {'ok' if ok else 'FAILED'}")
    for s in [s for s in record["samples"] if s["fail"] is not None][:5]:
        print(f"# fail {s['key']}: {s['fail']}")


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for workload in ("corpus", "scan", "robust"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "scan", "robust", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_graspkit()
    if args.workload == "all":
        return _run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = declared_units(bool(args.trace))
    _print_report(args.workload, record, units)
    print(json.dumps(result_line(record, units)))
    return 0


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(record: dict, units: dict[str, str]) -> dict:
    """The result object printed as the last line of standard output."""
    return {
        "correct": record["failed"] == 0 and all(record["checks"].values()),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
