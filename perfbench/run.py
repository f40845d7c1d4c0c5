"""fpplab benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-enum --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` reports the end-to-end metrics (wall_rel, setup_s, cpu_rel,
peak_rss_mib; see ``calibration.py``) and prints the raw wall_s and cpu_s
medians on the line before; ``--trace 1`` reports the per-layer metrics of
``layers.py`` and writes the spans of one traced pass as JSON lines to
``.perfbench/spans-<workload>.jsonl``.  ``--workload all`` runs every
workload in turn and prints one table with fail_frac.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

Each workload runs in a fresh worker process with BLAS and OpenMP pinned to
one thread.  Set-up is measured in several more fresh processes and
reported as the median.  Artifacts go to a temporary directory under
``.perfbench/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4          # set-up-only processes, besides the measuring one
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"wall_rel": "ratio", "setup_s": "s", "cpu_rel": "ratio",
                    "peak_rss_mib": "MiB"}


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("FPPLAB_OUTPUT_DIR", None)
    return env


def _spawn(root: Path, args: list[str]) -> dict:
    """Start a worker, wait for it, and return its JSON result."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(root), "--t0", repr(t0),
         *args],
        cwd=root, env=_worker_env(root), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object printed by ``main``."""
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        setups = []
        if not trace:
            for i in range(SETUP_PROBES):
                probe = _spawn(root, common + ["--workdir", str(tmp / f"setup{i}"),
                                               "--setup-only"])
                setups.append(probe["setup_s"])
        spans = base / f"spans-{workload}.jsonl"
        traced = ["--trace", "1", "--spans", str(spans)] if trace else []
        res = _spawn(root, common + ["--workdir", str(tmp / "run"), *traced])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if trace:
        units = metric_units()
        runs = res["layers"]
        counts = [n for n in runs[0] if units[n] == "count"]
        values = {n: statistics.median(run[n] for run in runs) for n in runs[0]}
        values.update({n: runs[0][n] for n in counts})
        values["trace.overhead_s"] = (statistics.median(res["traced_wall_s"])
                                      - statistics.median(res["wall_s"]))
        if any(run[n] != runs[0][n] for run in runs for n in counts):
            res["failures"].append("traced counts differ between passes")
            res["failed"] += 1
    else:
        units = END_TO_END_UNITS
        values = {"wall_rel": statistics.median(res["wall_rel"]),
                  "setup_s": statistics.median(setups + [res["setup_s"]]),
                  "cpu_rel": statistics.median(res["cpu_rel"]),
                  "peak_rss_mib": res["peak_rss_mib"]}
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "info": {"machine": res["machine"], "jobs": res["jobs"],
                 "wall_s": statistics.median(res["wall_s"]),
                 "cpu_s": statistics.median(res["cpu_s"]),
                 "pass_wall_s": res["wall_s"], "pass_wall_rel": res["wall_rel"],
                 "traced_pass_wall_s": res["traced_wall_s"],
                 "failures": res["failures"],
                 **({"spans_file": str(spans.relative_to(root))} if trace else {})},
    }


def _print_table(results: dict, infos: dict) -> None:
    """Every metric by name with its unit; untraced runs add the raw medians."""
    print(f"{'workload':<18}{'metric':<14}{'value':>14}  unit")
    for workload, r in results.items():
        rows = [(k, m["value"], m["unit"]) for k, m in r["metrics"].items()]
        if "wall_rel" in r["metrics"]:
            rows += [("wall_s", infos[workload]["wall_s"], "s"),
                     ("cpu_s", infos[workload]["cpu_s"], "s")]
        rows.append(("fail_frac", r["failed"] / r["attempted"], "ratio"))
        for name, value, unit in rows:
            print(f"{workload:<18}{name:<14}{value:>14.6g}  {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "fpplab" / "__init__.py").is_file():
        print(f"no fpplab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, infos = {}, {}
    for name in names:
        results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        infos[name] = results[name].pop("info")
        print(json.dumps({"workload": name, **infos[name]}))
        for failure in infos[name]["failures"]:
            print(f"FAILED {name}: {failure}")
    if args.workload == "all":
        _print_table(results, infos)
        merged = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
        print(json.dumps(merged))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
