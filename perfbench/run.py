"""Harpocrates campaign benchmark: one command per workload and seed.

Run from the repository root::

    python3 perfbench/run.py --workload fp_mul-converge --seed 1 \\
        --seconds 30 --trace 0

With ``--trace 0`` the benchmark measures set-up time, then repeats the
workload's campaign (GA loop, then fault injection on the final elite)
back to back until ``--seconds`` would be exceeded, at least once.  It
checks every campaign's outputs and prints each end-to-end metric with
its unit.  With ``--trace 1`` it runs the campaign once untraced and
once with spans around every layer (both grading inline), and prints
the per-layer metrics instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--out FILE`` appends the full record (environment, input sizes,
result digest, metrics) to a JSON-lines file; ``compare.py`` reads two
such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Traces and scratch checkpoints; ignored by git.
OUT = os.path.join(HERE, "out")
#: Set-up is measured this many times per run; the median is reported.
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "loop_instr_per_s": "instr/s",
    "inject_per_s": "1/s",
    "peak_rss_mb": "MB",
    "best_coverage": "ratio",
    "success_rate": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record here")
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: the seconds-fast variant the benchmark's tests run",
    )
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def commit_id(source: str) -> str:
    """The git commit, or the ``src/`` digest outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "src-" + source[:12]


def environment(source: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_id(source),
        "source": source[:12],
        "machine": platform.machine(),
    }


def measure_setup(args, probe_host, reference_s) -> float:
    """Median time from starting a fresh interpreter until it has
    imported the program, built the target and built the Manager,
    scaled to the reference host speed like every campaign step."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size]
    times = []
    before = probe_host()
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as probe:
            ready = probe.stdout.readline().strip()
            elapsed = time.perf_counter() - started
            probe.stdout.read()
        if probe.returncode != 0 or ready != "ready":
            raise RuntimeError(f"set-up probe failed ({probe.returncode})")
        after = probe_host()
        times.append(elapsed * 2 * reference_s / (before + after))
        before = after
    return statistics.median(times)


def correctness(results, workload, check):
    """(attempted, failed, problems) over every campaign of a run.

    Failures are quarantined candidates, injections whose campaign
    raised, and failed output checks.  All campaigns of one run must
    agree on the result digest."""
    attempted = failed = 0
    problems = []
    for result in results:
        mismatches = check(result, workload)
        attempted += (result.evaluations + result.injections
                      + result.raised_injections + len(result.elite))
        failed += (result.quarantined + result.raised_injections
                   + len(mismatches))
        problems.extend(result.failures + mismatches)
    digests = sorted({result.digest() for result in results})
    if len(digests) > 1:
        failed += 1
        problems.append(f"campaigns disagree: digests {digests}")
    return attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import campaign

    if args.workload not in campaign.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(campaign.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = campaign.WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = campaign.tiny(workload)
    if args.setup_probe:
        from repro.core.manager import Manager

        Manager(campaign.build_target(workload, args.seed),
                workers=workload.workers).close()
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(
        args, campaign.probe_host, campaign.REFERENCE_PROBE_S)
    target = campaign.build_target(workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    source = campaign.source_digest(SRC)
    start = campaign.start_checkpoint(workload, OUT, source)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if args.trace:
            results, metrics = traced_run(
                campaign, target, workload, args, start, workdir)
        else:
            results = []
            started = time.perf_counter()
            while True:
                results.append(campaign.run_campaign(
                    target, workload, args.seed, start, workdir))
                elapsed = time.perf_counter() - started
                if elapsed + results[-1].campaign_wall_s > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        campaign.wait_for_children()

    attempted, failed, problems = correctness(
        results, workload, campaign.check)
    for problem in problems:
        print(f"FAILED: {problem}")
    if args.trace:
        from spans import metric_names

        units = metric_names()
    else:
        metrics = end_to_end(results, setup_s, failed / attempted)
        units = END_TO_END
    best = results[0]
    print(f"workload {workload.name} seed {args.seed} "
          f"campaigns {len(results)} digest {best.digest()}")
    print(f"  best coverage {best.elite[0][1]!r}, detection "
          f"{best.detection!r}, elite {[name for name, _, _ in best.elite]}"
          f", verdicts {best.verdicts}, best cycles {best.best_cycles}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(source),
        "sizes": workload.sizes(),
        "digest": best.digest(),
        "best_coverage": best.elite[0][1],
        "detection": best.detection,
        "error_rate": failed / attempted,
        "campaigns": len(results),
        "loop_wall_s": [r.loop_wall_s for r in results],
        "inject_wall_s": [r.inject_wall_s for r in results],
        "campaign_wall_s": [r.campaign_wall_s for r in results],
    }
    print("info " + json.dumps(record, sort_keys=True))
    result_line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    if args.out:
        with open(args.out, "a") as stream:
            stream.write(json.dumps(dict(record, **result_line),
                                    sort_keys=True) + "\n")
    print(json.dumps(result_line))
    return 0


def end_to_end(results, setup_s: float, error_rate: float) -> dict:
    return {
        "setup_s": setup_s,
        "campaign_s": statistics.median(r.campaign_s for r in results),
        "loop_instr_per_s": statistics.median(
            r.instructions_graded / r.loop_s for r in results),
        "inject_per_s": statistics.median(
            r.injections / r.inject_s for r in results),
        "peak_rss_mb": max(r.peak_rss_mb for r in results),
        "best_coverage": results[0].elite[0][1],
        "success_rate": 1.0 - error_rate,
    }


def traced_run(campaign, target, workload, args, start, workdir):
    """An untraced and a traced campaign, both graded inline, so pool
    jobs are pickled in the traced process where the spans can see
    them.  Their difference is the tracing overhead."""
    from spans import Tracer

    untraced = campaign.run_campaign(
        target, workload, args.seed, start, workdir, workers=1, fine=False)
    tracer = Tracer()
    tracer.campaign = f"{workload.name}/{args.seed}"
    with tracer.instrument(pickle_jobs=workload.workers > 1), \
            tracer.span("campaign"):
        traced = campaign.run_campaign(
            target, workload, args.seed, start, workdir, workers=1,
            on_campaign=tracer.campaign_hook, fine=False)
    tracer.write(os.path.join(
        OUT, f"trace-{workload.name}-seed{args.seed}.json"))
    metrics = tracer.layer_metrics(
        traced, traced.campaign_s - untraced.campaign_s)
    return [untraced, traced], metrics


if __name__ == "__main__":
    sys.exit(main())
