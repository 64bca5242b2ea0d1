"""cartierv benchmark: one workload per run, every answer checked.

    python3 bench/run.py --workload scan --seed 3 --seconds 35 --trace 0
    python3 bench/run.py --all --seed 0 --seconds 35

A run generates the workload's query list from the seed, then times whole
passes over it, each pass in a fresh interpreter (bench/worker.py), until
`--seconds` have gone by and at least 100 query latencies are pooled.  Between
passes it starts extra interpreters that stop at the end of set-up, so
that set-up is timed many times across the run.  Answers are checked
against bench/oracles.py outside the timed region.

--trace 0 reports the end-to-end metrics.  Every time is taken with
host-speed probes on the same core (bench/probe.py) and scaled to the
reference speed, because the host's own speed drifts by up to 75 % over
seconds to minutes.  wall_s is the median over the passes of the summed query
latencies, query_p50_s and query_p90_s are pooled over the passes, setup_s
is the median over every set-up of the run (interpreter start, import,
input generation and construction up to the first query), and
peak_rss_mb is the median of the pass processes' peaks.  The run record
keeps the raw times and the probes beside the scaled ones.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced one (raw times); it checks that both passes
answered the same queries identically.  --all runs every workload both
ways and prints a table.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the run record (seed, input
digest, per-pass numbers, every failing query) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 100  # pooled latencies, so that ten lie beyond the p90
MIN_SETUPS = 15  # set-ups timed per run, for the median
EXTRA_SETUPS = 2  # set-up-only interpreters started before each pass
RUN_LIMIT_S = 150  # every pass of a run ends by then; the run must end within 180 s

END_TO_END = {"wall_s": "s", "query_p50_s": "s", "query_p90_s": "s",
              "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "cli.self_s": "s",
    "vfilt.compute_vfiltration.s": "s",
    "vfilt.verify_axioms.s": "s",
    "vfilt.self_s": "s",
    "testmod.tau.calls": "count",
    "testmod.tau.s": "s",
    "testmod.tau.distinct_frac": "ratio",
    "testmod.tau_left_limit.calls": "count",
    "testmod.jumping_numbers.tau_calls": "count/query",
    "testmod.fpt.tau_calls": "count/query",
    "testmod.t_independent.calls": "count",
    "testmod.self_s": "s",
    "cartier_mod.kappa_span.calls": "count",
    "cartier_mod.kappa_span.self_s": "s",
    "cartier_mod.functors.s": "s",
    "cartier_mod.self_s": "s",
    "frobenius.scaled_root.calls": "count",
    "frobenius.self_s": "s",
    "groebner.basis.runs": "count",
    "groebner.basis.reuse_frac": "ratio",
    "groebner.basis.self_s": "s",
    "groebner.normal_form.calls": "count",
    "groebner.elim.s": "s",
    "groebner.self_s": "s",
    "field_poly.cartier_trace.calls": "count",
    "field_poly.mul.calls": "count",
    "field_poly.self_s": "s",
    "trace.overhead_frac": "ratio",
    "oracle.known_wrong": "count",
}


class BenchError(Exception):
    pass


def run_pass(workload: str, seed: int, mode: str, cpu: int, deadline: float,
             spans: str = "-") -> dict:
    """One worker process on core `cpu`; mode is "time", "trace" or "setup".

    The runner pins itself to the same core, so the worker inherits it and
    the probe taken here just before the spawn runs where set-up runs."""
    env = dict(os.environ, PYTHONPATH=SRC)
    os.sched_setaffinity(0, {cpu})
    before = probe.probe()
    start = time.perf_counter()
    timeout = deadline - start
    if timeout <= 0:
        raise BenchError(f"no time left for a pass within {RUN_LIMIT_S} s")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py"), workload, str(seed),
             mode, spans],
            cwd=BENCH, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"pass failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    probes = record["probes"]
    record["cpu"] = cpu
    record["setup_raw_s"] = record["ready"] - start
    record["setup_s"] = probe.scale(record["setup_raw_s"], [before, probes[0]])
    if mode != "setup":
        lat = record["latencies"]
        record["wall_raw_s"] = sum(lat)
        ticks = record["ticks"] or [[]] * len(lat)
        record["scaled"] = [probe.scale(x, [probes[i], *ticks[i], probes[i + 1]])
                            for i, x in enumerate(lat)]
        record["wall_s"] = sum(record["scaled"])
    return record


def verdicts(workload: str, queries: list[dict], answers: list) -> tuple[list, list]:
    """(failures, known_wrong): index and reason of each wrong answer."""
    failures, known = [], []
    for i, (q, reason) in enumerate(zip(queries, oracles.check_all(workload, queries, answers))):
        if reason is not None:
            (known if q.get("known_defect") else failures).append((i, reason))
    return failures, known


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    compileall.compile_dir(os.path.join(SRC, "cartierv"), quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    queries = workloads.generate(workload, seed)
    digest = workloads.digest(queries)
    os.makedirs(OUT, exist_ok=True)
    began = time.perf_counter()
    deadline = began + RUN_LIMIT_S
    # The host slows each core by up to 75 % for seconds to minutes at a
    # time, independently of the other; alternate them so that a run sees
    # both.
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    passes, setups = [], []
    if trace:
        passes.append(run_pass(workload, seed, "time", next(cpus), deadline))
        traced = run_pass(workload, seed, "trace", next(cpus), deadline,
                          os.path.join(OUT, f"spans-{workload}.jsonl"))
    else:
        while True:
            setups += [run_pass(workload, seed, "setup", next(cpus), deadline)
                       for _ in range(EXTRA_SETUPS)]
            passes.append(run_pass(workload, seed, "time", next(cpus), deadline))
            elapsed = time.perf_counter() - began
            pooled = len(passes) * len(queries)
            last = elapsed / len(passes)
            if elapsed + last > RUN_LIMIT_S:
                break
            if elapsed + last > seconds and pooled >= MIN_SAMPLES and len(passes) >= 2:
                break
        while len(passes) + len(setups) < MIN_SETUPS:
            setups.append(run_pass(workload, seed, "setup", next(cpus), deadline))
    problems = []
    for rec in passes + setups + ([traced] if trace else []):
        if rec["digest"] != digest:
            problems.append(f"pass saw inputs {rec['digest']}, expected {digest}")
    first = passes[0]["answers"]
    unstable = sorted({i for rec in passes[1:] for i, a in enumerate(rec["answers"]) if a != first[i]})
    failures, known = verdicts(workload, queries, first)
    failures += [(i, "answer changed between passes") for i in unstable]
    if trace:
        if traced["answers"] != first:
            problems.append("traced answers differ from the untraced pass")
        if traced["top_level_queries"] != len(queries):
            problems.append(f"traced pass saw {traced['top_level_queries']} top-level "
                            f"queries, the untraced pass ran {len(queries)}")
    failed_queries = len({i for i, _ in failures})
    attempted = len(queries) * len(passes)
    latencies = [x for rec in passes for x in rec["scaled"]]
    setup_times = [rec["setup_s"] for rec in passes + setups]
    result = {
        "workload": workload, "seed": seed, "digest": digest, "trace": trace,
        "passes": len(passes), "samples": len(latencies), "setups": len(setup_times),
        "reference_probe_s": probe.REF_PROBE_S,
        "median_probe_s": statistics.median(x for rec in passes + setups for x in rec["probes"]),
        "attempted": attempted, "failed": failed_queries * len(passes),
        "failed_frac": failed_queries / len(queries),
        "known_wrong": known, "failures": failures, "problems": problems,
        "pass_cpus": [rec["cpu"] for rec in passes],
        "pass_wall_s": [rec["wall_s"] for rec in passes],
        "pass_wall_raw_s": [rec["wall_raw_s"] for rec in passes],
        "setup_s": setup_times,
        "setup_raw_s": [rec["setup_raw_s"] for rec in passes + setups],
        "pass_latencies_s": [rec["scaled"] for rec in passes],
        "pass_latencies_raw_s": [rec["latencies"] for rec in passes],
        "pass_probes_s": [rec["probes"] for rec in passes],
    }
    if trace:
        metrics = dict(traced["trace"])
        metrics["trace.overhead_frac"] = traced["wall_s"] / passes[0]["wall_s"] - 1
        metrics["oracle.known_wrong"] = len(known)
        result["patched_sites"] = traced["patched_sites"]
        result["metrics"] = {k: (metrics[k], unit) for k, unit in PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(rec["wall_s"] for rec in passes),
            "query_p50_s": statistics.median(latencies),
            "query_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in passes),
        }
        result["metrics"] = {k: (v, END_TO_END[k]) for k, v in values.items()}
    with open(os.path.join(OUT, f"run-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} inputs={result['digest']} "
          f"passes={result['passes']} latency samples={result['samples']} "
          f"set-ups={result['setups']} probe median={result['median_probe_s'] * 1e3:.3f} ms "
          f"(reference {probe.REF_PROBE_S * 1e3:g} ms)")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':38s} {result['failed_frac']:14.6g} ratio")
    for i, reason in result["failures"]:
        print(f"  FAILED query {i}: {reason}")
    for i, reason in result["known_wrong"]:
        print(f"  known defect, query {i}: {reason}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cartierv", "__init__.py")):
        print(f"run.py: no cartierv sources under {SRC}", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    runs = ([(w, t) for w in workloads.WORKLOADS for t in (False, True)] if args.all
            else [(args.workload, bool(args.trace))])
    try:
        results = [measure(w, args.seed, args.seconds, t) for w, t in runs]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    correct = all(not r["failures"] and not r["problems"] for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}.{k}" if args.all else k: {"value": v, "unit": u}
                    for r in results for k, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
