"""Closed-loop, known-answer benchmark for orthoscope.

One client in one process sends requests back to back; a request is
`cli.run(command, text)` followed by `report.emit(report, "json")`, which
re-verifies every witness. Each answer is checked against the expectation
its input was built with. The loop ends on the first whole pass over the
workload's cells after --seconds have gone by, so every run sees the same
mix of inputs.

End-to-end times are scaled to a reference machine speed. The shared hosts
this runs on change speed by up to 1.6x for seconds at a time, which moves
raw times between runs far more than any input does. So a fixed integer
loop (`probe_ns`) is timed after every request and every set-up, and each
time is multiplied by PROBE_NS over the mean of the probes on either side
of it: the time it would have taken at the speed where the probe takes
PROBE_NS. systems_per_s is requests over their summed scaled times. The
raw figures are printed on a comment line; per-layer times are raw.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics. --trace 1 instead runs part of the
deck with every listed layer wrapped (see tracer.py), runs each request
again untraced to measure the tracing overhead, writes the spans to
bench/out/, and prints per-layer metrics. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# Deck length in passes over the cells: far more than a run can use today.
DECK_ROUNDS = {"corpus": 400, "simple-poles": 200, "multiple-poles": 100}
ERROR_KINDS = {"hypothesis": "HypothesisError", "parse": "ParseError", "shape": "ShapeError"}
# The traced pass stops after the first whole pass beyond this share of --seconds.
TRACE_SHARE = 0.5
# Enough requests that at least ten lie beyond the 90th percentile.
MIN_REQUESTS = 100
PROBE_ITERATIONS = 20_000
# Reference duration of the probe: about its median on a 2-vCPU Xeon host.
PROBE_NS = 1_500_000


def probe_ns() -> int:
    """Time of a fixed loop of small-integer arithmetic: how fast the
    machine runs Python right now. Allocates nothing the collector tracks."""
    start = time.perf_counter_ns()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i % 7
    return time.perf_counter_ns() - start


def at_reference_speed(elapsed: float, probe_before: int, probe_after: int) -> float:
    return elapsed * 2 * PROBE_NS / (probe_before + probe_after)


class Program:
    """The orthoscope modules a request goes through, freshly imported."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "orthoscope" or n.startswith("orthoscope.")]:
            del sys.modules[name]
        import orthoscope
        from orthoscope import cli, errors, fixtures, report

        if SRC not in Path(orthoscope.__file__).resolve().parents:
            raise SystemExit(f"orthoscope was imported from {orthoscope.__file__}, not {SRC}")
        self.cli, self.report, self.fixtures = cli, report, fixtures
        self.errors = {kind: getattr(errors, cls) for kind, cls in ERROR_KINDS.items()}

    def serve(self, req):
        """One request; returns the report, or the exception it raised."""
        try:
            report = self.cli.run(req.command, req.text, req.residue_class, req.gauge_h)
            self.report.emit(report, "json")
            return report
        except Exception as exc:  # an unexpected error is a failed request, not a crash
            return exc

    def mismatch(self, req, result):
        """None when the result is what the request was built to give."""
        want = req.expect
        if "error" in want:
            if isinstance(result, self.errors[want["error"]]):
                return None
            return f"expected a {want['error']} error, got {result!r}"
        if isinstance(result, Exception):
            return f"raised {type(result).__name__}: {result}"
        got = {"verdict": result.verdict, "beta": result.beta,
               "case": result.completeness_case,
               "scaling": None if result.witness is None else result.witness.scaling}
        bad = [f"{k}: wanted {v}, got {got[k]}" for k, v in want.items() if got[k] != v]
        return "; ".join(bad) or None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, req, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{req.cell}: {req.text!r}: {problem}")


def setup(workload: str, seed: int, tally: Tally):
    """Import orthoscope, build the deck, pre-check and warm up."""
    program = Program()
    fixtures = program.fixtures.load_corpus()
    deck = workloads.generate(
        workload, seed, DECK_ROUNDS[workload] * workloads.round_length(workload, fixtures),
        fixtures)
    if workload == "corpus":
        for fx in fixtures:
            outcome = program.fixtures.run_fixture(fx)
            tally.attempted += 1
            if not outcome.passed:
                tally.failures.append(f"fixture {fx.name}: {'; '.join(outcome.details)}")
    for req in workloads.warmup(workload, seed, fixtures):
        tally.record(req, program.mismatch(req, program.serve(req)))
    return program, deck, workloads.round_length(workload, fixtures)


def closed_loop(program, deck, round_len: int, seconds: float, tally: Tally):
    """Serve the deck in order until a whole pass ends after `seconds` and
    at least MIN_REQUESTS requests.

    Returns per-request latencies (ns) raw and at reference speed, and the
    wall time of the loop (s).
    """
    raw, scaled = [], []
    clock = time.perf_counter_ns
    start = clock()
    limit = start + int(seconds * 1e9)
    before = probe_ns()
    for i, req in enumerate(deck):
        t = clock()
        result = program.serve(req)
        raw.append(clock() - t)
        after = probe_ns()
        scaled.append(at_reference_speed(raw[-1], before, after))
        before = after
        tally.record(req, program.mismatch(req, result))
        if (i + 1) % round_len == 0 and i + 1 >= MIN_REQUESTS and clock() >= limit:
            break
    return raw, scaled, (clock() - start) / 1e9


def end_to_end(args, tally: Tally) -> dict:
    """Set up SETUP_REPEATS times (the first from the script's first
    statement), then run the closed loop; times at reference speed."""
    raw_setups, setups = [], []
    start, before = _T0, None
    for _ in range(SETUP_REPEATS):
        setup_tally = Tally()
        program, deck, round_len = setup(args.workload, args.seed, setup_tally)
        elapsed = time.perf_counter() - start
        after = probe_ns()
        raw_setups.append(elapsed)
        setups.append(at_reference_speed(elapsed, before or after, after))
        start, before = time.perf_counter(), after
    timed = Tally()
    raw, scaled, wall = closed_loop(program, deck, round_len, args.seconds, timed)
    for part in (setup_tally, timed):
        tally.attempted += part.attempted
        tally.failures += part.failures
    p50, p90 = (v / 1e6 for v in statistics.quantiles(scaled, n=10)[4::4])
    raw_p50, raw_p90 = (v / 1e6 for v in statistics.quantiles(raw, n=10)[4::4])
    failed_ratio = len(timed.failures) / timed.attempted
    print(f"# {timed.attempted} requests in {wall:.2f} s, failed_ratio = {failed_ratio:g}")
    print(f"# raw: systems_per_s = {len(raw) / (sum(raw) / 1e9):.6g} 1/s, "
          f"latency_p50_ms = {raw_p50:.6g} ms, latency_p90_ms = {raw_p90:.6g} ms, "
          f"setup_s = {statistics.median(raw_setups):.6g} s")
    return {
        "systems_per_s": (len(scaled) / (sum(scaled) / 1e9), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "ok_ratio": (1 - failed_ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(args, tally: Tally) -> dict:
    """Serve whole passes with the layers wrapped until TRACE_SHARE of
    --seconds has gone by, replaying each request untraced right after its
    traced run, so that both see the machine in the same state."""
    program, deck, round_len = setup(args.workload, args.seed, tally)
    trace = tracer.Tracer()
    clock = time.perf_counter_ns
    limit = clock() + int(args.seconds * TRACE_SHARE * 1e9)
    traced_ns = untraced_ns = count = 0
    for req in deck:
        with trace:
            trace.request = count
            t = clock()
            result = program.serve(req)
            traced_ns += clock() - t
        tally.record(req, program.mismatch(req, result))
        t = clock()
        result = program.serve(req)
        untraced_ns += clock() - t
        tally.record(req, program.mismatch(req, result))
        count += 1
        if count % round_len == 0 and clock() >= limit:
            break
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}.tsv"
    trace.spans.write(path)
    print(f"# traced {count} requests; {len(trace.spans)} spans written to {path}")
    metrics = trace.metrics(count, traced_ns)
    metrics["trace.overhead_ratio"] = (traced_ns / untraced_ns, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "orthoscope" / "__init__.py").is_file():
        print(f"no orthoscope sources under {SRC}", file=sys.stderr)
        return 2

    tally = Tally()
    metrics = (per_layer if args.trace else end_to_end)(args, tally)
    for problem in tally.failures[:20]:
        print(f"# FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
