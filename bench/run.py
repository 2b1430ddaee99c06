"""phaselearn benchmark: end-to-end timings, output checks and a traced run.

One workload in this process (the form the BENCHMARK.json command uses):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

prints each metric with its unit and sample count, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` measures for about S seconds with tracing off and reports the
end-to-end metrics, timed in seconds at a fixed host speed (``refclock.py``)
with the wall-clock figures printed beside them; ``--trace 1`` runs one unit
of work untraced and the same unit traced, checks that both wrote identical
outputs, and reports the per-layer metrics, including the tracing overhead.

Every workload, each in its own process, untraced and then traced:

    python3 bench/run.py [--seconds S] [--record PATH]

prints every metric of every workload; ``--record`` also writes the results
with the host facts as one JSON document (a point of the trajectory).

Outputs go to fresh directories under ``.bench_out/`` at the repository root,
removed when the run ends.  Output digests persist in
``.bench_out/digests.json``, keyed by the program's source digest, so every run
of the same program on a workload at one seed must write the same bytes,
traced or not.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# One BLAS thread, set before numpy loads: on a 2-core host two threads made the
# n=5 battery slower and its run-to-run spread wider.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import workloads  # noqa: E402  (fails without the program's sources)
from refclock import RefClock  # noqa: E402

ROOT = workloads.ROOT
SCRATCH = ROOT / ".bench_out"
SETUP_PROBES = 9
# Metrics the result line carries with --trace 0; the others are printed only.
END_TO_END = ("setup_s", "run_s", "peak_rss_mb")


class Run:
    """Operations attempted and failed, stage timings and output digests of one run.

    With ``scaled`` each stage call also runs under a ``RefClock``, and its
    time at the reference host speed is kept beside its wall time."""

    def __init__(self, workload, seed: int, scaled: bool = False):
        self.workload = workload
        self.seed = seed
        self.scaled = scaled
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = {}  # wall seconds
        self.scaled_times: dict[str, list[float]] = {}
        self.slowdowns: list[float] = []
        self.digests: dict[int, str] = {}
        self.median_abs_error: float | None = None
        self.peak_rss_mb: float | None = None

    def note_peak_rss(self) -> None:
        """Keep the high-water mark after the first unit of work only, so that
        the number of extra predicts a fast run fits in does not move it."""
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def op(self, kind: str, call, check) -> bool:
        """One stage call, timed, then its output check.  A failure drops the timing."""
        self.attempted += 1
        clock = RefClock() if self.scaled else None
        try:
            with clock.running() if clock else contextlib.nullcontext():
                t0 = time.monotonic()
                call()
                t1 = time.monotonic()
            check()
        except Exception as exc:  # a failed operation is a result, not a crash
            self.failed += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return False
        self.times.setdefault(kind, []).append(t1 - t0)
        if clock:
            self.scaled_times.setdefault(kind, []).append(clock.scaled(t0, t1))
            self.slowdowns.append(clock.slowdown())
        return True

    def record_digest(self, seed: int, out_dir: Path) -> None:
        value = workloads.digest(out_dir)
        if self.digests.setdefault(seed, value) != value:
            raise workloads.CheckFailed(f"seed {seed}: outputs differ between passes")

    def unit_seconds(self, scaled: bool = False) -> float:
        """Seconds of one unit of work: train + predict, or one battery."""
        times = self.scaled_times if scaled else self.times
        kinds = ("train", "predict") if self.workload.learning else ("diagnose",)
        return sum(statistics.median(times[k]) for k in kinds)


def fresh_dir() -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="out-", dir=SCRATCH))


def learning_pass(run: Run, stage, deadline: float | None = None, on_bundle=None) -> None:
    """train, then predict from that bundle; more predicts until ``deadline``."""
    out = fresh_dir()
    try:
        cfg = run.workload.config(run.seed, out)

        def check_predict():
            workloads.check_learning(run.workload, cfg, out)
            run.record_digest(run.seed, out)
            if run.median_abs_error is None:
                run.median_abs_error = workloads.median_abs_error(out)

        if not run.op("train", lambda: workloads.train(cfg, stage), lambda: None):
            return
        if on_bundle is not None:
            on_bundle(out)
        while run.op("predict", lambda: workloads.predict(cfg, stage), check_predict):
            run.note_peak_rss()
            if deadline is None or time.monotonic() + run.times["predict"][-1] > deadline:
                break
    finally:
        shutil.rmtree(out, ignore_errors=True)


def battery_pass(run: Run, seed: int, stage) -> None:
    out = fresh_dir()
    try:
        cfg = run.workload.config(seed, out)

        def check():
            workloads.check_battery(out)
            run.record_digest(seed, out)

        run.op("diagnose", lambda: workloads.diagnose(cfg, stage), check)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure_setup(workload, seed: int, count: int) -> list[tuple[float, float]]:
    """(scaled, wall) seconds from process start to a built model, once per probe
    process."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed),
             repr(time.monotonic())],
            capture_output=True, text=True, timeout=120, check=True,
        )
        scaled, wall = proc.stdout.split()[-2:]
        samples.append((float(scaled), float(wall)))
    return samples


def untraced(workload, seed: int, seconds: float) -> tuple[Run, dict]:
    """End-to-end metrics from about ``seconds`` of work with tracing off.

    The set-up probes are spread over the run: a third before the work, a third
    after its first unit and the rest after the work, so that one slow spell of
    the host moves few of them."""
    start = time.monotonic()
    batch = SETUP_PROBES // 3
    setup = measure_setup(workload, seed, batch)
    # The later probes take their share of the budget.
    deadline = start + seconds - (SETUP_PROBES - batch) * statistics.mean(
        wall for _, wall in setup)
    run = Run(workload, seed, scaled=True)

    def middle_probes(_out: Path | None = None) -> None:
        setup.extend(measure_setup(workload, seed, batch))

    if workload.learning:
        learning_pass(run, workloads.plain_stage, deadline=deadline, on_bundle=middle_probes)
    else:
        # Consecutive seeds, one battery each, while the next one fits.
        s = seed
        while True:
            battery_pass(run, s, workloads.plain_stage)
            run.note_peak_rss()
            if s == seed:
                middle_probes()
            s += 1
            done = run.times.get("diagnose")
            if not done or time.monotonic() + statistics.median(done) > deadline:
                break
    setup.extend(measure_setup(workload, seed, SETUP_PROBES - len(setup)))
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s", len(setup)),
        "setup_wall_s": (statistics.median(w for _, w in setup), "s", len(setup)),
    }
    if not run.failed:
        n = len(run.times["predict" if workload.learning else "diagnose"])
        metrics["run_s"] = (run.unit_seconds(scaled=True), "s", n)
        metrics["run_wall_s"] = (run.unit_seconds(), "s", n)
    for kind in ("train", "predict"):
        if run.scaled_times.get(kind):
            metrics[f"{kind}_s"] = (statistics.median(run.scaled_times[kind]), "s",
                                    len(run.scaled_times[kind]))
    if run.slowdowns:
        metrics["host_slowdown"] = (statistics.median(run.slowdowns), "ratio",
                                    len(run.slowdowns))
    if run.peak_rss_mb is not None:
        metrics["peak_rss_mb"] = (run.peak_rss_mb, "MB", 1)
    if run.median_abs_error is not None:
        metrics["median_abs_error"] = (run.median_abs_error, "1", 1)
    metrics["failed_fraction"] = (run.failed / max(run.attempted, 1), "1", run.attempted)
    return run, metrics


def traced(workload, seed: int) -> tuple[Run, dict]:
    """One unit of work untraced, the same unit traced; per-layer metrics."""
    from tracing import Tracer, layer_metrics

    plain, traced_run = Run(workload, seed), Run(workload, seed)
    traced_run.digests = plain.digests  # the traced unit must write the same bytes
    tracer = Tracer()

    def bundle_bytes(out: Path) -> None:
        tracer.counters["bundle_bytes"] = (out / "training.shadows").stat().st_size

    if workload.learning:
        learning_pass(plain, workloads.plain_stage)
        with tracer.installed():
            learning_pass(traced_run, tracer.stage, on_bundle=bundle_bytes)
    else:
        battery_pass(plain, seed, workloads.plain_stage)
        with tracer.installed():
            battery_pass(traced_run, seed, tracer.stage)
    tracer.write(SCRATCH / f"trace-{workload.name}-{seed}.json")
    metrics = {}
    if not (plain.failed or traced_run.failed):
        plain_s, traced_s = plain.unit_seconds(), traced_run.unit_seconds()
        metrics = {k: (v, u, 1) for k, (v, u)
                   in layer_metrics(tracer, plain_s, traced_s).items()}
    plain.attempted += traced_run.attempted
    plain.failed += traced_run.failed
    plain.errors += traced_run.errors
    return plain, metrics


def _blas_threads() -> dict:
    """Thread count and build string of each OpenBLAS loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        info = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in info:
                    get_threads.restype = ctypes.c_int
                    info["threads"] = get_threads()
                if get_config is not None and "config" not in info:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
        found[Path(lib).name] = info
    return found


def _git_commit() -> str:
    """HEAD of the repository when it is a git checkout, else "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "git_commit": _git_commit(),
    }


def _check_digests(run: Run) -> None:
    """Compare this run's digests with earlier runs of the same program at the
    same seeds, then store them."""
    store = SCRATCH / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    threads = os.environ["OPENBLAS_NUM_THREADS"]  # the bytes depend on it
    code = workloads.code_digest()[:16]  # a change to the program may move bytes
    for seed, value in sorted(run.digests.items()):
        key = f"{run.workload.name}:{seed}:blas_threads={threads}:code={code}"
        if known.setdefault(key, value) != value:
            run.failed += 1
            run.errors.append(f"seed {seed}: outputs differ from an earlier run")
            print(f"{key}: outputs differ from an earlier run", file=sys.stderr)
    SCRATCH.mkdir(exist_ok=True)
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def one_workload(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.trace:
        run, metrics = traced(workload, seed)
        wanted = None
    else:
        run, metrics = untraced(workload, seed, args.seconds)
        wanted = END_TO_END
    _check_digests(run)
    seeds = sorted(run.digests) or [seed]
    record = {
        "workload": workload.name, "trace": args.trace, "seconds": args.seconds,
        "seeds": seeds, "attempted": run.attempted, "failed": run.failed,
        "errors": run.errors, "digests": {str(s): d for s, d in run.digests.items()},
        "op_seconds": run.times,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "host": host_facts(),
    }
    for name, (value, unit, n) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit} (n={n})")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                    if wanted is None or k in wanted},
    }
    print(json.dumps(result))
    return 0


def suite(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    records = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            for line in lines:
                if line.startswith(name + " "):
                    print(line, flush=True)
            rec = next((json.loads(ln[7:]) for ln in lines if ln.startswith("record ")),
                       None)
            if proc.returncode != 0 or rec is None:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                return 1
            records.append(rec)
    if args.record:
        doc = {"host": records[0]["host"], "runs": records}
        Path(args.record).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name in workloads.WORKLOADS:
        plain, tr = (r for r in records if r["workload"] == name)
        if plain["failed"] or tr["failed"]:
            print(f"{name}: failed operations: {plain['errors'] + tr['errors']}")
            continue
        overhead = tr["metrics"]["trace.overhead_s"]["value"]
        print(f"{name} tracing overhead = {overhead:.3f} s over "
              f"{tr['metrics']['trace.untraced_run_s']['value']:.3f} s untraced; "
              f"end-to-end run_s = {plain['metrics']['run_s']['value']:.3f} s")
    return 0 if all(r["failed"] == 0 for r in records) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="one workload; all when omitted")
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the shipped seed)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measurement budget of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None,
                    help="suite mode: write every result to this JSON file")
    args = ap.parse_args(argv)
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    return one_workload(args) if args.workload else suite(args)


if __name__ == "__main__":
    sys.exit(main())
