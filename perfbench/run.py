"""dwgan benchmark: end-to-end metrics per workload, or a traced run with
per-layer metrics.

    python3 perfbench/run.py --workload train_gate --seed 0 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --make-reference          # rewrite reference/

Run it from the root of a dwgan checkout; it builds nothing and imports
the package from ``src/``. Load is closed-loop: one caller in one process
runs one op at a time. Each workload runs in fresh processes of its own,
one after another, never two at once (a lock file refuses a second
launcher), with the BLAS thread count pinned to the CPUs this process may
use. The timed loop of a run lasts ``run_seconds`` of BENCHMARK.json and
at least MIN_OPS ops; ``--seconds`` is accepted only as that same value.
``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer ones. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (an op is one train step, one dehazed image, or one
synthesized-and-scored pair):
  setup_s      process start to the first timed op (import, inputs, model),
               median over the timed run and SETUP_PROBES set-up-only runs
  op_ms_p50    median op latency
  op_ms_p90    nearest-rank 90th percentile op latency
  ops_per_s    completed ops / wall time from first op start to last op end
  peak_rss_mb  ru_maxrss of the measuring process at the end of the run
The failed-op share is ``failed / attempted``; it is printed, and carried
by those two fields of the JSON line rather than as a metric, since it is
0 on a correct program.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / ".run"
WORKLOADS = ("train_gate", "dehaze_96", "synth_score_256")
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_PROBES = 6        # set-up-only processes per run, half before and
                        # half after the timed run, so a slow spell of the
                        # machine does not hit them all
TOTAL_BUDGET_S = 170    # everything a launch starts ends within this
UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
         "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """This environment with the BLAS thread count pinned to the CPUs
    this process may use, and the package and harness importable."""
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def spawn(workload: str, mode: str, deadline: float, seed: int = 0,
          seconds: int = 0, trace: int = 0) -> dict:
    """Run worker.py in a fresh process and return its result JSON."""
    tag = f"{workload}.{mode}"
    result = RUN_DIR / f"{tag}.json"
    result.unlink(missing_ok=True)
    # emptied here, not in the child, so set-up time holds no clean-up
    workdir = RUN_DIR / "work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--spawned-at", repr(spawned),
           "--workdir", str(workdir),
           "--result", str(result)]
    with open(RUN_DIR / f"{tag}.out.log", "wb") as out, \
            open(RUN_DIR / f"{tag}.err.log", "wb") as err:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=out,
                                  stderr=err, timeout=deadline - spawned)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} did not finish within the time budget")
    if proc.returncode != 0 or not result.exists():
        tail = (RUN_DIR / f"{tag}.err.log").read_text(errors="replace")
        raise BenchError(f"{tag} exited {proc.returncode}:\n{tail[-3000:]}")
    return json.loads(result.read_text())


def run_workload(name: str, args, deadline: float) -> dict:
    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = [spawn(name, "probe", deadline)["setup_s"] for _ in range(probes)]
    res = spawn(name, "run", deadline, args.seed, args.run_seconds,
                args.trace)
    setups.append(res["setup_s"])
    setups += [spawn(name, "probe", deadline)["setup_s"]
               for _ in range(probes)]
    res["setup_samples"] = setups
    res["workload"] = name
    res["attempted"] = res["ops"] + res["reference_ops"]
    res["failed"] = res["failed_ops"] + (1 if res["reference_errors"] else 0)
    res["correct"] = res["failed"] == 0
    if args.trace:
        res["metrics"] = res["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "op_ms_p50": res["op_ms_p50"],
                  "op_ms_p90": res["op_ms_p90"],
                  "ops_per_s": res["ops"] / res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        res["metrics"] = {k: {"value": v, "unit": UNITS[k]}
                          for k, v in values.items()}
    return res


def report(res: dict, args) -> None:
    name, m, env = res["workload"], res["metrics"], res["env"]
    print(f"[{name}] seed={args.seed} seconds={args.run_seconds} "
          f"trace={args.trace} input: {res['size']}")
    print(f"  env: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} "
          f"cpu_steal_share={env['cpu_steal_share']}")
    if args.trace:
        print(f"  {res['traced_ops']} traced ops of {res['ops']}; values are "
              "per traced op (self time unless noted); no layer has a "
              "queue, so no waiting time is reported")
        for key, v in m.items():
            print(f"  {key:34s} {v['value']:12.4f} {v['unit']}")
        print(f"  {'span':34s} {'calls/op':>9s} {'self ms/op':>11s} "
              f"{'incl ms/op':>11s}   outside ops: calls, incl ms")
        n = res["traced_ops"]
        for span, row in sorted(res["span_table"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"  {span:34s} {row['calls'] / n:9.2f} "
                  f"{1e3 * row['self_s'] / n:11.3f} "
                  f"{1e3 * row['incl_s'] / n:11.3f}   "
                  f"{row['calls_outside']}, {1e3 * row['incl_s_outside']:.1f}")
        if "holdout_eval_step" in res:
            print(f"  train.holdout_psnr_gain_db is taken after step "
                  f"{res['holdout_eval_step']} of seed {args.seed}")
        if res["missing_targets"]:
            print(f"  not traced (not found): {res['missing_targets']}")
    else:
        n = res["ops"]
        setups = res["setup_samples"]
        print(f"  setup_s     {m['setup_s']['value']:10.4f} s    median of "
              f"{len(setups)} set-ups ({min(setups):.4f} to {max(setups):.4f})")
        print(f"  op_ms_p50   {m['op_ms_p50']['value']:10.3f} ms   n={n} ops")
        print(f"  op_ms_p90   {m['op_ms_p90']['value']:10.3f} ms   "
              f"{res['beyond_p90']} ops beyond it")
        print(f"  ops_per_s   {m['ops_per_s']['value']:10.4f} 1/s  "
              f"{n} ops in {res['wall_s']:.2f} s")
        print(f"  peak_rss_mb {m['peak_rss_mb']['value']:10.1f} MB")
    print(f"  fail_frac   {res['failed'] / res['attempted']:.4f}       "
          f"{res['failed']} of {res['attempted']} ops failed "
          f"({res['reference_ops']} reference ops)")
    for line in res["failures"] + res["reference_errors"]:
        print(f"  FAILED {line}")


def make_reference(deadline: float) -> None:
    for name in WORKLOADS:
        spawn(name, "reference", deadline)
        print(f"wrote reference for {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="dwgan benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        args.run_seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read run_seconds from {BENCHMARK_JSON}: {exc}",
              file=sys.stderr)
        return 2
    if args.seconds not in (None, args.run_seconds):
        parser.error(f"--seconds {args.seconds}: the run length is fixed at "
                     f"run_seconds = {args.run_seconds} of BENCHMARK.json")
    if not (ROOT / "src" / "dwgan" / "__init__.py").is_file():
        print(f"error: no dwgan sources under {ROOT / 'src'}; run the "
              "benchmark from a dwgan checkout", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    budget = TOTAL_BUDGET_S * len(names)
    deadline = time.monotonic() + budget
    with open(RUN_DIR / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("error: another benchmark run holds "
                  f"{RUN_DIR / 'lock'}; workloads never run concurrently",
                  file=sys.stderr)
            return 3
        try:
            if args.make_reference:
                make_reference(deadline)
                return 0
            results = [run_workload(n, args, deadline) for n in names]
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(RUN_DIR / "work", ignore_errors=True)
    for res in results:
        report(res, args)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
