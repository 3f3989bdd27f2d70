"""ricci-lab benchmark: one workload, one closed loop, checked outputs.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload theta_scan --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (BENCHMARK.json "end_to_end"), with
every time scaled to a reference machine speed (see SPEED_LOOP below);
--trace 1 prints the per-layer metrics ("per_layer") from a separate run in
which every other cycle of the workload's mix is traced, plus the tracing
overhead.  A report
goes to stdout first; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
STARTED = perf_counter()

# Machine speed.  On a shared host the same code runs up to 1.6x slower for
# seconds at a time, and every timing swings with it.  A speed sample is the
# wall time of a fixed pure-Python loop that no change to the package can
# touch.  After every operation samples are taken for SPEED_SHARE of its
# time (1 to SPEED_SAMPLES_MAX samples), and the end-to-end times are scaled
# by REFERENCE_SPEED_S / (median of the samples taken within SPEED_WINDOW_S
# of the operation): seconds at the reference speed.  The host switches
# between a fast and a slow state every few seconds; a window much wider
# than SPEED_WINDOW_S mixes the two and mis-scales the operations next to a
# switch, which then crowd the tail.
SPEED_LOOP = 6000
REFERENCE_SPEED_S = 0.0006
SPEED_WINDOW_S = 0.05
SPEED_SHARE = 0.03
SPEED_SAMPLES_MAX = 15


def pin_environment():
    """The defaults users get: RICCI_LAB_THREADS unset, one BLAS thread.

    The benchmark and every process it starts run on one CPU, the same one
    the speed samples are taken on (the package runs serially by default,
    one operation at a time, so one CPU is all the work can use).  Returns
    nproc and that CPU.
    """
    os.environ.pop("RICCI_LAB_THREADS", None)
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    return len(cpus), cpu


def environment(nproc, cpu_id):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "pinned_cpu": cpu_id,
            "cpu": cpu,
            "RICCI_LAB_THREADS": os.environ.get("RICCI_LAB_THREADS")}


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def inject_theta_error():
    """Self-check hook: every Theta comes back 1e-6 too large."""
    from ricci_lab import immersion

    real = immersion.big_theta

    def perturbed(params):
        return real(params) * (1.0 + 1e-6)

    perturbed.cache_info = real.cache_info
    perturbed.cache_clear = real.cache_clear
    immersion.big_theta = perturbed


def speed_sample():
    """Wall time of SPEED_LOOP rounds of a fixed pure-Python loop."""
    t0 = perf_counter()
    acc = 0.0
    for k in range(SPEED_LOOP):
        acc += math.sqrt(k + 0.5)
    return perf_counter() - t0


def speed_after(seconds):
    """Median speed sample over SPEED_SHARE of an operation's time."""
    samples = [speed_sample()]
    while (len(samples) < SPEED_SAMPLES_MAX
           and sum(samples) < SPEED_SHARE * seconds):
        samples.append(speed_sample())
    return median(samples)


def at_reference_speed(ops):
    """Each operation's time scaled to the reference speed.

    The local speed is the median of the samples taken from SPEED_WINDOW_S
    before the operation started to SPEED_WINDOW_S after it ended, always
    including the samples just before and just after it.
    """
    ends = [op.end for op in ops]
    scaled = []
    for j, op in enumerate(ops):
        lo = min(bisect_left(ends, op.end - op.seconds - SPEED_WINDOW_S),
                 max(j - 1, 0))
        hi = bisect_right(ends, op.end + SPEED_WINDOW_S)
        local = median(o.speed_s for o in ops[lo:hi])
        scaled.append(op.seconds * REFERENCE_SPEED_S / local)
    return scaled


def tail(values):
    """(percentile, value): the highest percentile with >= 10 samples beyond.

    With fewer than 20 samples no percentile above the median qualifies and
    the median is reported.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return 50.0, float(median(xs))
    return 100.0 * (n - 10) / n, xs[n - 11]


def measure(wl, seconds, traced, count=None):
    """Closed loop: one operation at a time for `seconds`.

    The cycle in progress when time is up is completed, so every run weighs
    the workload's mix of operations the same.  A traced run traces every
    other cycle and runs at least two; with `count`, exactly that many
    operations run, all traced (the census).
    """
    from tracer import Tracer
    from workloads import Op

    tracer = Tracer(wl.targets, wl.record) if traced else None
    ops = []
    i = 0
    deadline = perf_counter() + seconds

    def more():
        if count is not None:
            return i < count
        return (perf_counter() < deadline or i % wl.cycle
                or (traced and i < 2 * wl.cycle))

    while more():
        on = traced and (count is not None or (i // wl.cycle) % 2 == 1)
        out = err = None
        if on:
            tracer.reset()
            tracer.install()
        t0 = perf_counter()
        try:
            out = wl.run_op(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            err = exc
        end = perf_counter()
        op = Op(end - t0, end, speed_after(end - t0), wl.units_of(i))
        if on:
            tracer.uninstall()
            op.traced = True
            op.stats = tracer.snapshot()
        if err is None:
            try:
                wl.check_op(i, out, op)
            except Exception as exc:  # output of an unexpected shape
                wl.mark_wrong(op, f"check raised {type(exc).__name__}: {exc}")
        else:
            op.fail(f"{type(err).__name__}: {err}")
        ops.append(op)
        i += 1
    return ops


def overhead(ops):
    """Median over op kinds of (traced / untraced median op time - 1).

    Times at the reference speed, so a change of machine speed between the
    traced and the untraced cycles does not show as overhead.
    """
    times = at_reference_speed(ops)
    ratios = []
    for kind in {op.kind for op in ops}:
        plain = [t for t, op in zip(times, ops)
                 if op.kind == kind and not op.traced]
        traced = [t for t, op in zip(times, ops)
                  if op.kind == kind and op.traced]
        if plain and traced:
            ratios.append(median(traced) / median(plain) - 1.0)
    return float(median(ratios)) if ratios else math.nan


def setup_seconds(workload, seed):
    """Median time of fresh processes that only set up this workload.

    Each is scaled to the reference speed by nine speed samples taken just
    before it and nine just after.  Returns (scaled, wall) medians.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES):
        before = [speed_sample() for _ in range(9)]
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        dt = perf_counter() - t0
        after = [speed_sample() for _ in range(9)]
        wall.append(dt)
        scaled.append(dt * REFERENCE_SPEED_S / median(before + after))
    return float(median(scaled)), float(median(wall))


def end_to_end(wl, ops, setup_s, rss_mb):
    times = at_reference_speed(ops)
    wall = [op.seconds for op in ops]
    units = sum(op.units for op in ops)
    ok_units = sum(op.ok_units for op in ops)
    pct, tail_s = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (float(median(times)), "s"),
        "op_s.tail": (tail_s, "s"),
        "units_per_s": (ok_units / sum(times), "units/s"),
        "ok_frac": (ok_units / units, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report = [
        f"workload {wl.name}: {len(ops)} ops, unit = {wl.unit}, "
        f"{units} units attempted, {units - ok_units} failed "
        f"(fail_frac {(units - ok_units) / units:.6f})",
        f"op_s.tail is p{pct:.2f} of n={len(ops)} ops",
        f"times at the reference speed (speed sample {REFERENCE_SPEED_S} s); "
        f"speed sample median {median(op.speed_s for op in ops):.6f} s, "
        f"wall op_s.p50 {median(wall):.6g} s, wall op_s.tail "
        f"{tail(wall)[1]:.6g} s, wall units_per_s {ok_units / sum(wall):.6g}",
    ]
    return metrics, report


def census(seed, ref, workdir, skip):
    """Layer metrics of the other workloads, from a few traced ops of each.

    A traced run's result lists every per-layer metric BENCHMARK.json
    declares, and most layers are reached by one workload only.  Returns
    the metrics and the number of census ops that failed their checks.
    """
    from workloads import WORKLOADS

    metrics = {}
    failed = 0
    for name, cls in WORKLOADS.items():
        if name == skip:
            continue
        wl = cls(seed, ref, workdir)
        wl.setup()
        try:
            ops = measure(wl, 0.0, True, count=wl.census_ops)
            wl.finish(ops)
            metrics.update(wl.layer_metrics(ops))
        finally:
            wl.close()
        failed += wl.wrong + sum(not op.ok for op in ops)
    return metrics, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up the workload and exit (times setup_s)")
    ap.add_argument("--inject", choices=("theta", "cli_exit"),
                    help="self-check only: inject a wrong output")
    args = ap.parse_args(argv)

    nproc, cpu_id = pin_environment()
    if not os.path.isfile(os.path.join(SRC, "ricci_lab", "__init__.py")):
        print(f"error: no ricci_lab package under {SRC}", file=sys.stderr)
        return 2
    import ricci_lab
    from workloads import WORKLOADS, CliCold

    if os.path.dirname(os.path.abspath(ricci_lab.__file__)) != os.path.join(
            SRC, "ricci_lab"):
        print(f"error: imported {ricci_lab.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    census_failed = 0
    wl = None
    try:
        ref = load_reference()
        if args.inject == "theta":
            inject_theta_error()
        wl = WORKLOADS[args.workload](args.seed, ref, workdir, args.inject)
        wl.setup()
        own_setup = perf_counter() - STARTED
        if args.setup_only:
            return 0

        ops = measure(wl, args.seconds, bool(args.trace))
        rss_mb = wl.peak_rss_mb()
        report = wl.finish(ops)

        if args.trace:
            metrics = wl.layer_metrics(ops)
            if not isinstance(wl, CliCold):
                wl.overhead = overhead(ops)
            metrics["trace.overhead_frac"] = (wl.overhead, "ratio")
            layers, census_failed = census(args.seed, ref, workdir, wl.name)
            metrics.update(layers)
            report.append(f"tracing overhead (traced/untraced op time - 1): "
                          f"{wl.overhead:+.4f}")
            report.append(f"census ops of the other workloads that failed "
                          f"their checks: {census_failed}")
        else:
            setup_s, setup_wall = setup_seconds(args.workload, args.seed)
            metrics, lines = end_to_end(wl, ops, setup_s, rss_mb)
            report = lines + report
            report.append(f"setup_s: median of {SETUP_SAMPLES} fresh "
                          f"set-ups, {setup_wall:.3f} s wall; this process "
                          f"set up in {own_setup:.3f} s")
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    bad = sorted(k for k, (v, _) in metrics.items() if not math.isfinite(v))
    if bad:
        print(f"error: no finite value for {', '.join(bad)}", file=sys.stderr)
        return 3
    failed = [op for op in ops if not op.ok]
    for op in failed[:5]:
        report.append(f"failed op: {op.note}")
    correct = wl.wrong == 0 and not failed and not census_failed
    print("env " + json.dumps(environment(nproc, cpu_id), sort_keys=True))
    for line in report:
        print(line)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
