"""One workload in one fresh process: set up, run passes, check, report.

Started by ``run.py``; not meant to be run by hand.  Set-up is everything
from process start (``--t0``, a ``time.monotonic`` reading taken by the
parent just before it started this process) to the first job: importing
every fpplab module and what they load lazily, and writing the configs.
A pass runs the workload's job list once through ``fpplab.cli.main``, back
to back in this process (a closed loop with one client, no threads).
After one untimed warm-up pass, passes repeat until ``--seconds`` have
gone by.  Before each job the calibration kernel runs once, outside the
job's timing, to measure the host's speed at that moment.  Outputs are checked
after each pass, outside the timed section.  The result is one JSON line
on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import calibration
import workloads


def _import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import jsonschema  # noqa: F401  (cli.main imports it lazily)
    import scipy.stats.qmc  # noqa: F401  (functional imports it lazily)

    import fpplab
    import fpplab.cli
    import fpplab.elementary_rate  # noqa: F401
    import fpplab.functional  # noqa: F401
    import fpplab.geometry  # noqa: F401
    import fpplab.model  # noqa: F401
    import fpplab.oracle  # noqa: F401
    import fpplab.passage_time  # noqa: F401

    where = Path(fpplab.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit(f"fpplab was imported from {where}, not from {root / 'src'}")
    return fpplab.cli


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def run_pass(cli, jobs, tracer=None) -> dict:
    """Run every job once, with the calibration kernel before each job.

    Returns the summed wall and CPU seconds of the jobs and of the kernels,
    and each job's exit status (or its traceback).
    """
    out = {"wall": 0.0, "cpu": 0.0, "cal_wall": 0.0, "cal_cpu": 0.0, "statuses": []}
    sink = io.StringIO()
    for job in jobs:
        cal_wall, cal_cpu = calibration.kernel()
        out["cal_wall"] += cal_wall
        out["cal_cpu"] += cal_cpu
        if tracer is not None:
            tracer.job = job.name
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = cli.main(job.argv)
        except (Exception, SystemExit):
            status = traceback.format_exc(limit=3)
        out["wall"] += time.perf_counter() - wall0
        out["cpu"] += time.process_time() - cpu0
        out["statuses"].append(status)
        sink.seek(0)
        sink.truncate()
    return out


def check_pass(jobs, statuses) -> list[str]:
    """One message per job that failed: non-zero exit, exception or bad output."""
    failures = []
    for job, status in zip(jobs, statuses):
        if status != 0:
            failures.append(f"{job.name}: exit status {status}")
            continue
        try:
            problems = job.check(job)
        except Exception:
            problems = [f"check raised {traceback.format_exc(limit=3)}"]
        if problems:
            failures.append(f"{job.name}: " + "; ".join(problems))
    return failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path(args.root).resolve()
    cli = _import_program(root)
    jobs = workloads.build(args.workload, args.seed, Path(args.workdir))
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, summarize

        tracer = Tracer()
    # The first pass fills lazy imports and caches; it is checked, not timed.
    failures = check_pass(jobs, run_pass(cli, jobs)["statuses"])
    attempted = len(jobs)
    passes, traced_walls, layer_runs = [], [], []
    start = time.monotonic()
    k = 0
    # With tracing, passes alternate untraced / traced and at least one of each runs.
    while (time.monotonic() - start < args.seconds or not passes
           or (tracer is not None and not traced_walls)):
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.spans.clear()
            tracer.install()
        try:
            res = run_pass(cli, jobs, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_walls.append(res["wall"])
            layer_runs.append(summarize(tracer.spans) | {"trace.spans": len(tracer.spans)})
        else:
            passes.append(res)
        attempted += len(jobs)
        failures.extend(check_pass(jobs, res["statuses"]))
        k += 1
    if tracer is not None and args.spans:
        tracer.dump(args.spans)

    result.update({
        "wall_s": [p["wall"] for p in passes], "cpu_s": [p["cpu"] for p in passes],
        "wall_rel": [p["wall"] / p["cal_wall"] for p in passes],
        "cpu_rel": [p["cpu"] / p["cal_cpu"] for p in passes],
        "traced_wall_s": traced_walls,
        "layers": layer_runs,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "jobs": len(jobs), "machine": machine_info(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
