"""Benchmark of runwords: seeded workloads, checked answers, per-layer trace.

Usage, from the repository root:

    python3 bench/run.py --workload counts|certify|battery --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

The library is imported from ``src/`` of this checkout; nothing is
installed.  One process, one client, closed loop: each request starts
when the previous one has returned.  A pass runs the workload's whole
request list; passes repeat while the next one is expected to finish
within ``--seconds`` (at least one pass always runs).

``--trace 0`` measures the end-to-end metrics with tracing off.  The
host is shared and its speed drifts by up to 2x between minutes, so
after every timed request (and every cold start) a fixed probe that does
not use runwords is timed, and each time is reported scaled to the
host speed at which the probe takes ``PROBE_REFERENCE_S``: the request's
seconds times ``PROBE_REFERENCE_S`` over the mean of the probes just
before and just after it.  A long request also pauses for a probe at
``PROBE_POINTS`` and is scaled stretch by stretch.  The unscaled times
are printed above the result line.
``--trace 1`` runs each request untraced and traced, back to back, for
at least one pass (so a traced battery run takes about twice
``--seconds``), and reports the per-layer metrics of the traced calls
and the tracing overhead; spans are written to ``bench/out/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import LAYERS, REFINE_LOOPS, Tracer  # noqa: E402
from workloads import FULL_CHECK_NAMES, WORKLOADS, Outcome, build_requests, classify  # noqa: E402

# Fresh interpreters started to measure set-up time, after one start that
# is not timed and fills the bytecode cache.
COLD_STARTS = {"full": 31, "smoke": 3}
COLD_START_ARGV = ["count", "--k", "2", "--n", "4"]
COLD_START_EXPECT = "|B_4(1^2)| = 8"

# The probe: an interpreter loop, big-int additions and big-int products,
# the three kinds of work the workloads do, about 20 ms in all.
# PROBE_REFERENCE_S is about its lower quartile on the host the baseline
# was made on (2 vCPUs of an Intel Xeon under KVM).
PROBE_REFERENCE_S = 0.018
_PROBE_FACTORS = (3 ** 6000, 7 ** 3500)

# Functions after whose calls a request pauses for a probe, so that a long
# request is scaled stretch by stretch: the sixteen ratio gaps that make
# up most of `verify full`.  The probes' own time is left out of the
# latency.  A name the library no longer has is skipped.
PROBE_POINTS = (("verify", "_ratio_gap"),)

END_TO_END_UNITS = {
    "wall_s": "s", "req_p50_s": "s", "req_p90_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1",
}

PER_LAYER_UNITS = {
    "core.calls": "count", "core.self_s": "s", "core.max_result_bits": "bits",
    "series.calls": "count", "series.self_s": "s", "series.terms": "count",
    "poly.evals": "count", "poly.self_s": "s",
    "interval.ops": "count", "interval.self_s": "s", "interval.max_endpoint_bits": "bits",
    "interval.render_decimal.calls": "count", "interval.render_decimal.rounds": "count",
    "interval.render_decimal.useful_ratio": "1",
    "numerics.self_s": "s",
    "numerics.bisect_root.calls": "count", "numerics.bisect_root.steps": "count",
    "numerics.bisect_root.self_s": "s",
    "numerics.refine_rounds": "count", "numerics.refine_useful_ratio": "1",
    "numerics.max_work_digits": "digits",
    "numerics.all_roots.calls": "count", "numerics.all_roots.poly_evals": "count",
    "numerics.all_roots.self_s": "s",
    "oracle.words_scanned": "count", "oracle.self_s": "s",
    "verify.self_s": "s",
    **{f"verify.{name}.s": "s" for name in FULL_CHECK_NAMES},
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "1",
}


def import_runwords():
    """Import the library from this checkout's source tree, or exit 1."""
    if not (SRC / "runwords" / "__init__.py").is_file():
        sys.exit(f"error: no runwords source tree at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import runwords
    import runwords.cli  # noqa: F401  (loads every layer)

    if Path(runwords.__file__).resolve().parent != SRC / "runwords":
        sys.exit(f"error: imported runwords from {runwords.__file__}, not {SRC}")
    return runwords


def probe() -> float:
    """Seconds for a fixed computation that does not use runwords."""
    start = time.perf_counter()
    x = 0
    for i in range(120_000):
        x += i * i
    a, b = 0, 1
    for _ in range(20_000):
        a, b = b, a + b
    left, right = _PROBE_FACTORS
    for _ in range(100):
        x ^= left * right
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor to the reference host speed for a time between two probes."""
    return 2 * PROBE_REFERENCE_S / (before + after)


@contextmanager
def probe_points(runwords, marks: list[tuple[float, float]]):
    """While active, a call of a PROBE_POINTS function is followed by a probe,
    whose start time and seconds are appended to `marks`."""
    saved = []
    for module_name, name in PROBE_POINTS:
        module = getattr(runwords, module_name)
        func = getattr(module, name, None)
        if func is None:
            continue

        @functools.wraps(func)
        def wrapper(*args, _func=func, **kwargs):
            result = _func(*args, **kwargs)
            marks.append((time.perf_counter(), probe()))
            return result

        saved.append((module, name, func))
        setattr(module, name, wrapper)
    try:
        yield
    finally:
        for module, name, func in saved:
            setattr(module, name, func)


def measure_setup(starts: int) -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to run one small CLI command, unscaled
    and scaled to the reference host speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import sys; from runwords.cli import main; sys.exit(main())",
           *COLD_START_ARGV]
    times, probes = [], []
    for i in range(starts + 1):
        if i:
            probes.append(probe())
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if done.returncode != 0 or COLD_START_EXPECT not in done.stdout:
            sys.exit(f"error: cold start failed ({done.returncode}): {done.stderr.strip()[:300]}")
        if i:
            times.append(elapsed)
    probes.append(probe())
    return times, [t * scale(*pair) for t, pair in zip(times, zip(probes, probes[1:]))]


def run_request(runwords, request) -> tuple[Outcome, float, float]:
    """Run one request; return its outcome and its start and end times."""
    outcome = Outcome()
    if request.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                outcome.rc = runwords.cli.main(list(request.argv))
        except SystemExit as exc:  # argparse rejects the argv
            outcome.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001  (an uncaught error is a failed request)
            outcome.error = exc
        end = time.perf_counter()
        outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
    else:
        func = getattr(runwords.core, request.func)
        start = time.perf_counter()
        try:
            outcome.value = func(*request.args)
        except Exception as exc:  # noqa: BLE001
            outcome.error = exc
        end = time.perf_counter()
    return outcome, start, end


class Pass:
    """Latency and verdict of every request of one pass.

    ``latencies`` are scaled to the reference host speed in a pass that ran
    probes (``run_pass``) and equal ``raw`` otherwise;
    ``seconds`` is the sum of the scaled latencies.
    """

    def __init__(self) -> None:
        self.rungs: list[str] = []
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.statuses: list[str] = []
        self.details: list[str] = []
        self.output_bytes = 0
        self.seconds = 0.0

    def record(self, request, outcome: Outcome, latency: float,
               scaled: float | None = None) -> None:
        status, detail = classify(request, outcome)
        self.rungs.append(request.rung)
        self.latencies.append(latency if scaled is None else scaled)
        self.raw.append(latency)
        self.statuses.append(status)
        self.details.append(f"{request.describe()}: {detail}" if detail else "")
        self.output_bytes += len(outcome.stdout.encode())


def run_pass(runwords, requests) -> Pass:
    """Run every request once, with a probe before the first and after each.

    A request is cut at its probe points into stretches, and each stretch
    is scaled by the probes that bound it.
    """
    result = Pass()
    marks: list[tuple[float, float]] = []
    before = probe()
    with probe_points(runwords, marks):
        for request in requests:
            marks.clear()
            outcome, start, end = run_request(runwords, request)
            after = probe()
            starts = [start] + [t + seconds for t, seconds in marks]
            ends = [t for t, _ in marks] + [end]
            probes = [before] + [seconds for _, seconds in marks] + [after]
            result.record(
                request, outcome, sum(e - s for s, e in zip(starts, ends)),
                sum((e - s) * scale(*pair) for s, e, pair in zip(starts, ends, zip(probes, probes[1:]))),
            )
            before = after
    result.seconds = sum(result.latencies)
    return result


def run_paired_pass(runwords, requests, tracer: Tracer) -> tuple[Pass, Pass]:
    """Run each request untraced and traced, back to back, so both calls share
    the host's speed.  Which call goes first alternates between requests: the
    second call of a pair runs warmer.

    The time of each of the two passes is the sum of its request latencies.
    """
    untraced, traced = Pass(), Pass()
    for i, request in enumerate(requests):
        for trace in ((True, False) if i % 2 == 0 else (False, True)):
            if not trace:
                outcome, start, end = run_request(runwords, request)
                untraced.record(request, outcome, end - start)
                continue
            tracer.install(runwords)
            try:
                outcome, start, end = run_request(runwords, request)
            finally:
                tracer.uninstall()
            traced.record(request, outcome, end - start)
    untraced.seconds, traced.seconds = sum(untraced.latencies), sum(traced.latencies)
    return untraced, traced


def repeat(step, seconds: float) -> list:
    """Closed loop: call `step` while the next call is expected to fit; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def p90(values: list[float]) -> float:
    """90th percentile as ``statistics.quantiles`` gives it; one sample is its own."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def tally(passes: list[Pass]) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, known-defect failures, failure details)."""
    statuses = [s for p in passes for s in p.statuses]
    details = sorted({d for p in passes for d, s in zip(p.details, p.statuses) if s != "ok"})
    failed = sum(s != "ok" for s in statuses)
    known = sum(s == "known_defect" for s in statuses)
    return len(statuses), failed, known, details


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    # Request percentiles are taken per pass, then the median over passes,
    # so they do not depend on how many passes fit in the run.
    attempted, failed, _, _ = tally(passes)
    return {
        "wall_s": statistics.median(p.seconds for p in passes),
        "req_p50_s": statistics.median(statistics.median(p.latencies) for p in passes),
        "req_p90_s": statistics.median(p90(p.latencies) for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(tracer: Tracer, traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    """Layer metrics of one traced pass: sums are divided by the pass count.

    The overhead is the median, over pass pairs, of the traced pass time
    over the untraced one, minus one.
    """
    c = tracer.counters
    layer_self = tracer.layer_self_seconds()
    refine_calls = sum(c[f"{name}.calls"] for name in REFINE_LOOPS)
    metrics: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        per_pass = True
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            value = layer_self[span] if span in LAYERS else tracer.self_s[span]
        elif name == "interval.render_decimal.useful_ratio":
            rounds = c["interval.render_decimal.rounds"]
            value, per_pass = (c["interval.render_decimal.calls"] / rounds if rounds else 0.0), False
        elif name == "numerics.refine_useful_ratio":
            rounds = c["numerics.refine_rounds"]
            value, per_pass = (refine_calls / rounds if rounds else 0.0), False
        elif name == "cli.output_bytes":
            value = sum(p.output_bytes for p in traced)
        elif name == "trace.overhead_ratio":
            ratios = [t.seconds / u.seconds for t, u in zip(traced, untraced)]
            value, per_pass = statistics.median(ratios) - 1, False
        else:
            value, per_pass = c[name], ".max_" not in name
        metrics[name] = value / len(traced) if per_pass else value
    return metrics


def report(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke is the smallest ladder, for the harness test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    runwords = import_runwords()
    requests = build_requests(args.workload, args.seed, args.size, runwords)
    print(f"workload={args.workload} seed={args.seed} size={args.size} seconds={args.seconds}"
          f" trace={args.trace} requests/pass={len(requests)}")
    print(f"python={platform.python_version()} nproc={os.cpu_count()}"
          f" runwords={runwords.__version__}")

    if args.trace:
        tracer = Tracer()
        pairs = repeat(lambda: run_paired_pass(runwords, requests, tracer), args.seconds)
        untraced, traced = [u for u, _ in pairs], [t for _, t in pairs]
        passes = untraced + traced
        metrics = per_layer(tracer, traced, untraced)
        units = PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "size": args.size, "passes": len(traced)})
        layer_self = tracer.layer_self_seconds()
        total = sum(layer_self.values()) or 1.0
        print(f"pass pairs={len(traced)}"
              f" untraced pass median={statistics.median(p.seconds for p in untraced):.4f} s"
              f" traced pass median={statistics.median(p.seconds for p in traced):.4f} s"
              f" spans written to {trace_path.relative_to(ROOT)}")
        print("layer self-time shares: " + "  ".join(
            f"{layer}={seconds / total:.1%}" for layer, seconds in
            sorted(layer_self.items(), key=lambda item: -item[1])))
    else:
        setup_raw, setup = measure_setup(COLD_STARTS[args.size])
        passes = repeat(lambda: run_pass(runwords, requests), args.seconds)
        metrics = end_to_end(passes, setup)
        units = END_TO_END_UNITS
        samples = sum(len(p.latencies) for p in passes)
        if len(passes) > 1:
            quartiles = "/".join(f"{q:.4f}" for q in statistics.quantiles(
                [p.seconds for p in passes], n=4))
        else:
            quartiles = f"{passes[0].seconds:.4f} (one pass)"
        raw_wall = statistics.median(sum(p.raw) for p in passes)
        print(f"passes={len(passes)} wall_s quartiles={quartiles} s"
              f" latency samples={samples} setup samples={len(setup)}")
        print(f"unscaled: wall_s={raw_wall:.4f} s setup_s={statistics.median(setup_raw):.4f} s"
              f" host speed (reference = 1): {statistics.median(sum(p.latencies) for p in passes) / raw_wall:.3f}")
        by_rung: dict[str, list[float]] = {}
        for p in passes:
            for rung, latency in zip(p.rungs, p.latencies):
                by_rung.setdefault(rung, []).append(latency)
        print("median latency by rung: " + "  ".join(
            f"{rung}={statistics.median(values):.4f}" for rung, values in
            sorted(by_rung.items(), key=lambda item: statistics.median(item[1]))))

    attempted, failed, known, details = tally(passes)
    print(f"attempted={attempted} failed={failed} (known defect: {known})"
          f" fail_ratio={failed / attempted:.4f}")
    for detail in details:
        print(f"  failure: {detail}")
    report(metrics, units)
    print(json.dumps({
        "correct": failed == known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
