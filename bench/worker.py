"""One pass over a workload's query list, in a fresh interpreter.

    python3 bench/worker.py <workload> <seed> <mode time|trace|setup> <spans file or ->

Set-up (import, input generation, construction of rings, modules and
covers) ends at the first query; the time stamp `ready` marks it, on the
same monotonic clock as the parent's spawn time.  Mode `setup` stops
there and prints the input digest, `ready` and one host-speed probe
(probe.py).  Otherwise each query is timed on its own, with a probe before
each query and after the last and, untraced, probes every 0.1 s while it
runs (their time is taken out of its latency).  The worker prints one JSON
object: input digest, per-query latencies and answers, the probes, peak
RSS, and in mode `trace` the per-layer aggregates.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction

import workloads
from probe import Ticker, probe


def _peak_rss_mib() -> float:
    """High-water resident set of this process's own address space.  The
    rusage maximum would also count the parent's memory at spawn time."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _sub_payload(sub) -> list:
    return [[e.to_str() for e in v] for v in sub.groebner()]


class QueryMaker:
    """Turns query dicts into zero-argument callables; everything a query
    needs is constructed here, before the clock for that query starts."""

    def __init__(self):
        import cartierv
        from cartierv import cli, groebner

        self.cv = cartierv
        self.cli = cli
        self.gb = groebner

    def poly(self, text, ring):
        return self.cli.parse_polynomial(text, ring)

    def vectors(self, rows, ring):
        return [tuple(self.poly(e, ring) for e in row) for row in rows]

    def cover(self, p: int, g_text: str):
        P = self.cv.Ring(p, ("x", "y"))
        return self.cv.make_extension(P, self.poly(g_text, P))

    def module(self, spec):
        cv = self.cv
        kind = spec["type"]
        p = spec["p"]
        if kind == "twisted":
            R = cv.Ring(p, tuple(spec["vars"].split(",")))
            return cv.CartierModule.over_ring(R, self.poly(spec["u"], R))
        if kind == "perm2":
            R = cv.Ring(p, ("x",))
            swap = cv.CartierStructure(R, 2, ((R.zero(), R.one()), (R.one(), R.zero())))
            return cv.CartierModule.free(R, swap)
        if kind in ("as_ext", "as_pull", "as_push"):
            ext = self.cover(p, f"y^{p} - y - x")
            if kind == "as_ext":
                return ext.quotient_module()
            if kind == "as_pull":
                return cv.pullback_etale(ext, cv.CartierModule.over_ring(ext.base))
            return cv.pushforward_finite(ext, ext.quotient_module())
        if kind == "cusp_shriek":
            ext = self.cover(p, "y^2 - x^3")
            return cv.shriek_finite(ext, cv.CartierModule.over_ring(ext.base))
        raise ValueError(f"unknown module type {kind!r}")

    def build(self, q):
        kind = q["kind"]
        cv = self.cv
        if kind == "cli":
            argv = list(q["argv"])
            return lambda: self.run_cli(argv)
        if kind == "tau":
            M = self.module(q["module"])
            R = M.ring
            f = self.poly(q["f"], R)
            c = self.poly(q["c"], R) if q["c"] else None
            t = Fraction(q["t"])
            convention = q["convention"]
            return lambda: _sub_payload(cv.tau(M, f, t, c, convention=convention).value)
        if kind == "repro":
            name = q["name"]

            def repro():
                res = cv.run_repro(name)
                return {"ok": res.ok, "checks": [[c.name, c.ok] for c in res.checks]}
            return repro
        R = cv.Ring(q["p"], tuple(q["vars"].split(",")))
        if kind == "basis":
            ideal = cv.ideal(R, *(self.poly(g, R) for g in q["gens"]))
            return lambda: _sub_payload(ideal)
        sub = lambda rows: cv.FreeSubmodule(R, 2, self.vectors(rows, R))  # noqa: E731
        if kind == "intersect":
            W, V = sub(q["W"]), sub(q["V"])
            return lambda: _sub_payload(W.intersect(V))
        if kind == "colon":
            N, h = sub(q["N"]), self.poly(q["h"], R)
            return lambda: _sub_payload(N.colon_element(h))
        if kind == "eliminate":
            S, elim = sub(q["S"]), set(q["elim"])
            return lambda: _sub_payload(cv.eliminate(S, elim))
        if kind == "syzygies":
            vecs = self.vectors(q["vectors"], R)
            return lambda: _sub_payload(self.gb.syzygies(R, 2, vecs))
        raise ValueError(f"unknown query kind {kind!r}")

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        text = out.getvalue()
        result = json.loads(text)["result"] if text else None
        return {"rc": rc, "result": result}


def main(argv) -> int:
    workload, seed, mode, spans_path = argv[0], int(argv[1]), argv[2], argv[3]
    tracer = None
    maker = QueryMaker()
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        sites = tracer.install()
    queries = workloads.generate(workload, seed)
    calls = [maker.build(q) for q in queries]
    ready = time.perf_counter()
    probes = [probe()]
    if mode == "setup":
        sys.stdout.write(json.dumps({"digest": workloads.digest(queries), "ready": ready,
                                     "probes": probes}) + "\n")
        return 0
    # Per-layer times must not include the ticks; traced times are not scaled.
    ticker = None if tracer else Ticker()
    latencies, answers, ticks = [], [], []
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.query = i
        if i:
            probes.append(probe())
        if ticker:
            ticked, paused = len(ticker.probes), ticker.paused
            ticker.start()
        start = time.perf_counter()
        try:
            answer = call()
        except Exception as exc:  # reported per query; the oracle decides
            answer = {"error": type(exc).__name__, "detail": str(exc)}
        finally:
            if ticker:
                ticker.stop()
        latency = time.perf_counter() - start
        if ticker:
            latency -= ticker.paused - paused
            ticks.append(ticker.probes[ticked:])
        latencies.append(latency)
        answers.append(answer)
    probes.append(probe())
    out = {
        "digest": workloads.digest(queries),
        "ready": ready,
        "latencies": latencies,
        "probes": probes,
        "ticks": ticks,
        "answers": answers,
        "peak_rss_mb": _peak_rss_mib(),
    }
    if tracer is not None:
        out["trace"] = tracer.metrics()
        out["top_level_queries"] = tracer.top_level_queries()
        out["patched_sites"] = sites
        if spans_path != "-":
            tracer.dump(spans_path)
    sys.stdout.write(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
