"""Self-check of the benchmark itself.

1. Every workload prints exactly the metrics BENCHMARK.json declares, with
   their units: the end-to-end set with --trace 0, the per-layer set with
   --trace 1.
2. Injected wrong outputs count as failures: a Theta perturbed by 1e-6
   (theta_scan, closure_solve) and a CLI child that exits non-zero
   (cli_cold) must raise failed, lower ok_frac and clear `correct`.
3. Without a ricci_lab package next to it the benchmark exits non-zero and
   prints no result.

Run from the repository root (about five minutes):

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--seed", "7", "--seconds", SECONDS, *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for wl in spec["workloads"]:
            code, res, proc = bench("--workload", wl["name"], "--trace",
                                    str(trace))
            if code != 0 or res is None:
                expect(False, f"{wl['name']} --trace {trace} ran: "
                              f"{proc.stderr[-400:]}")
                continue
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(printed == declared,
                   f"{wl['name']} --trace {trace} prints the {key} metrics "
                   f"(extra {sorted(set(printed) - set(declared))}, missing "
                   f"{sorted(set(declared) - set(printed))})")
            expect(res["correct"] and res["failed"] == 0,
                   f"{wl['name']} --trace {trace} is correct")

    for wl, fault in (("theta_scan", "theta"), ("closure_solve", "theta"),
                      ("cli_cold", "cli_exit")):
        code, res, _ = bench("--workload", wl, "--inject", fault)
        expect(code == 0 and res is not None and not res["correct"]
               and res["failed"] > 0
               and res["metrics"]["ok_frac"]["value"] < 1.0,
               f"{wl} with injected {fault} error counts failures "
               f"({res and {k: res[k] for k in ('correct', 'failed')}})")

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        code, res, _ = bench("--workload", "theta_scan", cwd=bare)
        expect(code != 0 and res is None,
               "without src/ricci_lab the benchmark fails without a result")
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bare))

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
