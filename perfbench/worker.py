"""One workload in one process; started by run.py, never by hand.

The launcher pins the BLAS thread count in this process's environment
before numpy is imported, and passes the monotonic time at which it
started the process, so set-up is timed from process start to the first
timed op. The result goes to a JSON file; stdout and stderr belong to the
package (the CLI prints, ms_ssim logs warnings).

Modes:
  run        time ops for --seconds and at least MIN_OPS ops, check them,
             then check the reference case
  probe      set up, stop at the first op, report the set-up time only
  reference  run the reference case and store its outputs in reference/
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads
from stats import OpClock, beyond, percentile

# Ops a timed run makes at least, however long they take: a nearest-rank
# p90 of 100 or more samples has 10 or more beyond it.
MIN_OPS = 100
# train_gate: the traced run evaluates the held-out PSNR gain after this
# many steps (outside the op times), so the value depends on the seed only.
HOLDOUT_EVAL_STEP = 100


def cpu_times() -> list[int] | None:
    """The machine-wide ``cpu`` line of /proc/stat, in clock ticks."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    cpu_times() readings; high values explain slow runs."""
    if before is None or after is None or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return round((after[7] - before[7]) / total, 4) if total > 0 else None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def reference_check(name: str, workdir: Path) -> tuple[int, list[str]]:
    """Run the fixed-seed reference case; returns (ops, mismatches)."""
    wl = workloads.WORKLOADS[name]()
    wl.setup(workloads.REF_SEED, workloads.fresh_dir(workdir / "reference"))
    clock = OpClock(max_ops=wl.ref_ops)
    wl.run(clock)
    errors = [f"op {op}: {why}" for op, why in clock.failures]
    errors += wl.compare(wl.fingerprint(), workloads.load_reference(name))
    return clock.ops, errors


def write_reference(name: str, workdir: Path) -> None:
    wl = workloads.WORKLOADS[name]()
    wl.setup(workloads.REF_SEED, workloads.fresh_dir(workdir / "reference"))
    clock = OpClock(max_ops=wl.ref_ops)
    wl.run(clock)
    if clock.failures:
        raise SystemExit(f"reference case failed: {clock.failures}")
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / "reference.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    refs[name] = workloads.reference_record(name, wl.fingerprint())
    path.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def timed_run(args, wl) -> dict:
    tracer = tracing.Tracer() if args.trace else None

    # A traced run traces every odd op and leaves the even ones untraced,
    # so the overhead compares ops spread over the same stretch of time
    # (early ops are slower while the allocator warms up).
    def on_start(op: int) -> None:
        if tracer is not None and op % 2:
            tracer.install()
            tracer.op = op

    def on_end() -> None:
        if tracer is not None and tracer.active:
            tracer.uninstall()

    holdout_gain = None
    if tracer is not None and hasattr(wl, "holdout_gain"):
        def holdout_eval() -> None:
            nonlocal holdout_gain
            tracer.install()  # op is None: counted outside the ops
            holdout_gain = wl.holdout_gain()
            tracer.uninstall()
        wl.after_step = (HOLDOUT_EVAL_STEP, holdout_eval)

    clock = OpClock(seconds=args.seconds, min_ops=MIN_OPS,
                    on_start=on_start, on_end=on_end)
    cpu_before = cpu_times()
    wl.run(clock)
    result = {"setup_end": clock.first_start, "ops": clock.ops,
              "wall_s": clock.wall_s, "times_ms": clock.times_ms,
              "cpu_steal_share": steal_share(cpu_before, cpu_times())}

    # the high-water mark of the timed workload alone, before the
    # reference case runs in this process too
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        traced = clock.times_ms[1::2]
        untraced = clock.times_ms[0::2]
        layers = tracing.per_layer(tracer, len(traced))
        if holdout_gain is not None:
            layers["train.holdout_psnr_gain_db"] = (holdout_gain, "dB")
            result["holdout_eval_step"] = HOLDOUT_EVAL_STEP
        else:
            layers["train.holdout_psnr_gain_db"] = (0.0, "dB")
        layers["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced), "ratio")
        result["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layers.items()}
        result["traced_ops"] = len(traced)
        result["span_table"] = tracer.table()
        result["missing_targets"] = tracer.missing
        tracer.write(Path(args.result).with_name(f"spans_{wl.name}.jsonl.gz"))
    result["failures"] = [f"op {op}: {why}" for op, why in clock.failures]
    result["failed_ops"] = len({op for op, _ in clock.failures})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--mode", choices=("run", "probe", "reference"),
                        default="run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True,
                        help="length of the timed loop (mode run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="launcher's time.monotonic() at process start")
    parser.add_argument("--workdir", required=True,
                        help="an empty directory for the workload's files")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    if args.mode == "reference":
        write_reference(args.workload, workdir)
        Path(args.result).write_text("{}")
        return 0
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed, workdir)
    if args.mode == "probe":
        clock = OpClock(probe=True)
        wl.run(clock)
        result = {"setup_s": clock.first_start - args.spawned_at}
    else:
        result = timed_run(args, wl)
        result["setup_s"] = result.pop("setup_end") - args.spawned_at
        ref_ops, ref_errors = reference_check(args.workload, workdir)
        result["reference_ops"] = ref_ops
        result["reference_errors"] = ref_errors
        times = result["times_ms"]
        result["op_ms_p50"] = statistics.median(times)
        result["op_ms_p90"] = percentile(times, 90)
        result["beyond_p90"] = beyond(len(times), 90)
        result["size"] = wl.size
        result["env"] = environment()
        result["env"]["cpu_steal_share"] = result.pop("cpu_steal_share")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
