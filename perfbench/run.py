#!/usr/bin/env python3
"""Benchmark of the chemin engine: seeded workloads, exactness-gated.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sweep,cli,montecarlo} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the per-layer metrics: each op runs untraced and
with spans around chemin's public functions, back to back, and a shorter
replay counts calls.  Every op's output is checked against
``tests/oracles.py`` after timing; an op that fails the check is counted
in ``failed`` and left out of the timings.  Every reported time is CPU
time (see ``cpu_time``), scaled to a reference machine speed (see
``Calibration``).  Details, provenance and (for
``--trace 1``) the spans go to ``.perfbench_out/``.  The last line of
standard output is one JSON object; the exit code is 0 only if every op
was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
REQUIRED = ("src/chemin/__init__.py", "tests/oracles.py", "scripts/full_report.py")

#: Set-ups timed per run, after one untimed one; ``setup_s`` is their median.
SETUP_SAMPLES = 11
#: Interpreter and import probes per traced ``cli`` run.
PROBE_SAMPLES = 5
#: Ops replayed with call counters in a traced run.
COUNT_OPS = 20
#: A timed loop runs on, in whole blocks, until this many samples lie
#: beyond its 90th percentile, but never more than HARD_EXTRA_S past
#: ``--seconds``.
MIN_TAIL = 10
HARD_EXTRA_S = 60
#: ``peak_rss_mb`` is read after this many ops, so that it does not grow
#: with the number of results a faster run holds for checking.
RSS_OPS = 100
#: Share of the measured time spent on the calibration loop.
CALIBRATION_SHARE = 0.1
#: Fewest calibration samples a run reports from.
CALIBRATION_MIN_SAMPLES = 50
#: The calibration loop's CPU time at the reference speed.  On the 2-CPU
#: machine where the benchmark was written it took 3.5-5.5 ms.
REFERENCE_CALIBRATION_MS = 5.0

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from workloads import COUPS, WORKLOADS, Scenario, run_child  # noqa: E402
import tracing  # noqa: E402

#: The last argument names the workload; the setup runs in a fresh process.
SETUP_PROBE = (
    "import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
    "from workloads import WORKLOADS; WORKLOADS[sys.argv[2]](Path(sys.argv[3]), int(sys.argv[4])).setup()"
)


def cpu_time() -> float:
    """CPU seconds used so far by this process and its waited-for children.

    Ops are timed in CPU time, not wall time: on a virtual machine the
    host may stop the vCPU for hundreds of ms (steal time), which shows
    in wall time only and has nothing to do with the program.  Each op is
    one thread's work, or one child process the op waits for, so its CPU
    time is its latency without the steal.  The wall times are kept in
    the details.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibration_loop() -> int:
    """Fixed pure-Python work that shares no code with chemin."""
    total, table = 0, {}
    for i in range(30_000):
        total += i * i % 7
        table[i & 255] = total
    return total


class Calibration:
    """The machine's speed over a run.

    On a shared host the CPU speed drifts by up to 40% over seconds to
    minutes, and every op's time drifts with it, so runs at different
    moments disagree far more than the program does.  Between timed
    ops, a fixed loop is timed too, taking ``CALIBRATION_SHARE`` of the
    CPU time the ops took.  Every reported time is multiplied by
    ``factor()``, the reference loop time over this run's median loop
    time: it reads as the time at the reference speed.  The raw values
    are kept in the details.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.measured = 0.0

    def sample(self) -> None:
        began = time.process_time()
        calibration_loop()
        took = time.process_time() - began
        self.samples.append(took)
        self.spent += took

    def after(self, seconds: float) -> None:
        """Account for ``seconds`` of measured work, sampling to keep up."""
        self.measured += seconds
        while self.spent < CALIBRATION_SHARE * self.measured:
            self.sample()

    def factor(self) -> float:
        while len(self.samples) < CALIBRATION_MIN_SAMPLES:
            self.sample()
        return REFERENCE_CALIBRATION_MS / 1000 / statistics.median(self.samples)


CALIBRATION = Calibration()


def scaled(value: float, unit: str, factor: float) -> float:
    """A measured value at the reference speed."""
    if unit in ("s", "ms", "ns"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


@dataclass
class Record:
    spec: object
    result: object
    error: str | None
    seconds: float  # CPU time
    wall: float


def tail_count(latencies: list[float]) -> int:
    if len(latencies) < 2:
        return 0
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return sum(value > p90 for value in latencies)


def timed(run, spec) -> Record:
    began, wall_began = cpu_time(), time.perf_counter()
    try:
        result, error = run(spec), None
    except Exception:
        result, error = None, traceback.format_exc(limit=4)
    seconds, wall = cpu_time() - began, time.perf_counter() - wall_began
    CALIBRATION.after(seconds)
    return Record(spec, result, error, seconds, wall)


def measure(run, specs, budget_s: float = math.inf, block: int = 1, min_tail: int = 0, on_op=None):
    """Closed loop: issue each op when the previous one returns.

    Stops at a block boundary once ``budget_s`` has passed and at least
    ``min_tail`` samples lie beyond the 90th percentile.  ``on_op`` is
    called with the number of ops done after each op, outside its timing.
    """
    records: list[Record] = []
    start = time.perf_counter()
    for spec in specs:
        records.append(timed(run, spec))
        if on_op:
            on_op(len(records))
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s + HARD_EXTRA_S:
            break
        if len(records) % block == 0 and elapsed >= budget_s:
            if tail_count([r.seconds for r in records]) >= min_tail:
                break
    return records, time.perf_counter() - start


def measure_pairs(plain, traced, specs, budget_s: float = math.inf):
    """Each op untraced and traced, back to back, in alternating order, so
    both halves of a pair see the same machine speed."""
    pairs = []
    start = time.perf_counter()
    for index, spec in enumerate(specs):
        if index % 2:
            traced_record, plain_record = timed(traced, spec), timed(plain, spec)
        else:
            plain_record, traced_record = timed(plain, spec), timed(traced, spec)
        pairs.append((plain_record, traced_record))
        if time.perf_counter() - start >= budget_s:
            break
    return [p for p, _ in pairs], [t for _, t in pairs]


def setup_samples(workload, seed: int) -> list[float]:
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        began = cpu_time()
        if workload.fresh_process:
            workload.setup()
        else:
            command = [sys.executable, "-c", SETUP_PROBE, str(BENCH), workload.name, str(ROOT), str(seed)]
            if run_child(command, ROOT).returncode:
                raise RuntimeError(f"{workload.name} set-up failed in a fresh process")
        if index:
            samples.append(cpu_time() - began)
            CALIBRATION.after(samples[-1])
    return samples


def probe_ms(code: str) -> float:
    """Median CPU time of ``python -c code`` in a fresh process."""
    samples = []
    for _ in range(PROBE_SAMPLES):
        began = cpu_time()
        if run_child([sys.executable, "-c", code], ROOT).returncode:
            raise RuntimeError(f"probe {code!r} failed")
        samples.append(cpu_time() - began)
        CALIBRATION.after(samples[-1])
    return statistics.median(samples) * 1000


def end_to_end(workload, seed: int, seconds: int):
    setups = setup_samples(workload, seed)
    if not workload.fresh_process:
        workload.setup()
    who = resource.RUSAGE_CHILDREN if workload.fresh_process else resource.RUSAGE_SELF
    peak_kb = []

    def read_rss(done: int) -> None:
        if done == RSS_OPS:
            peak_kb.append(resource.getrusage(who).ru_maxrss)

    records, elapsed = measure(workload.run, workload.ops(), seconds, workload.block, MIN_TAIL, read_rss)
    peak_rss_mb = (peak_kb or [resource.getrusage(who).ru_maxrss])[0] / 1024

    def metrics(passed: list[Record]) -> tuple[dict, dict]:
        latencies = [r.seconds * 1000 for r in passed] or [0.0]
        p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(passed) / sum(r.seconds for r in records), "1/s"),
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_p90_ms": (p90, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        details = {
            "setup_samples_s": setups,
            "elapsed_s": elapsed,
            "samples": len(latencies),
            "samples_beyond_p90": sum(value > p90 for value in latencies),
            "wall_p50_ms": statistics.median(r.wall * 1000 for r in passed) if passed else 0.0,
            "wall_p90_ms": statistics.quantiles([r.wall * 1000 for r in passed], n=10)[-1] if len(passed) > 1 else 0.0,
            "error_rate": (len(records) - len(passed)) / len(records),
        }
        return values, details

    return records, metrics, None


def traced(workload, seconds: int):
    """Per-layer metrics: each op untraced and with spans, then counted.

    For ``cli``, a pass of real processes comes first, then the interpreter
    and import probes; its commands are then replayed in this process.
    """
    if workload.fresh_process:
        untraced, _ = measure(workload.run, workload.ops(), seconds / 2, workload.block)
        interpreter_ms = probe_ms("pass")
        import_ms = probe_ms("import chemin.cli") - interpreter_ms
        specs, budget = [r.spec for r in untraced], math.inf
        run = workload.run_inprocess
    else:
        specs, budget = workload.ops(), seconds
        interpreter_ms = import_ms = 0.0
        run = workload.run
    cache = getattr(sys.modules["chemin.banker"], "best_response_table", None)
    fresh = workload.fresh_process and hasattr(cache, "cache_clear")

    def plain(spec):
        if fresh:
            cache.cache_clear()
        return run(spec)

    spans = tracing.Tracer()
    command = spans.span("cli.command", run) if workload.fresh_process else run
    root = spans.span("op", command)
    patch = tracing.Patch(tracing.span_wrappers(spans))

    def spanned(spec):
        spans.op += 1
        if fresh:
            cache.cache_clear()
        before = cache.cache_info() if hasattr(cache, "cache_info") else None
        with patch:
            result = root(spec)
        if before is not None:
            after = cache.cache_info()
            spans.counts["best_response_table.hits"] += after.hits - before.hits
            spans.counts["best_response_table.misses"] += after.misses - before.misses
        return result

    baseline, traced_records = measure_pairs(plain, spanned, specs, budget)
    if not workload.fresh_process:
        untraced = baseline
    replayed = [r.spec for r in traced_records]

    counters = tracing.Tracer()
    with tracing.Patch(tracing.counter_wrappers(counters)):
        counted_records = measure(plain, replayed[:COUNT_OPS])[0]

    all_records = [*untraced, *([] if baseline is untraced else baseline), *traced_records, *counted_records]

    def metrics(passed: list[Record]) -> tuple[dict, dict]:
        n, k = len(traced_records), len(counted_records)
        self_ns = spans.self_ns()
        counts = counters.counts

        def self_ms(name: str) -> float:
            return self_ns.get(name, 0) / n / 1e6

        def per_op(name: str) -> float:
            return counts[name] / k

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        layers = {}
        for name, ns in self_ns.items():
            layer = name.split(".")[0]
            if layer != "op":
                layers[layer] = layers.get(layer, 0.0) + ns / n / 1e6

        def mean_ms(records: list[Record]) -> float:
            return statistics.fmean(r.seconds for r in records) * 1000

        untraced_ms, traced_ms = mean_ms(untraced), mean_ms(traced_records)
        hits, misses = spans.counts["best_response_table.hits"], spans.counts["best_response_table.misses"]
        coups = sum(coups_of(spec) for spec in replayed)
        counted_coups = sum(coups_of(spec) for spec in replayed[:k])
        values = {
            "banker.cell_ev.calls": (per_op("banker.cell_ev"), "1/op"),
            "banker.cell_ev.self_ms": (self_ms("banker.cell_ev"), "ms"),
            "banker.mixed_best_response.self_ms": (self_ms("banker.mixed_best_response"), "ms"),
            "banker.best_response_table.hit_ratio": (ratio(hits, hits + misses), "ratio"),
            "banker.self_ms": (layers.get("banker", 0.0), "ms"),
            "five.five_stats.self_ms": (self_ms("five.five_stats"), "ms"),
            "five.walks_per_stats": (ratio(counts["five.five_functional"], counts["five.five_stats"]), "ratio"),
            "five.self_ms": (layers.get("five", 0.0), "ms"),
            "coup.coup_stats.calls": (per_op("coup.coup_stats"), "1/op"),
            "coup.coup_stats.self_ms": (self_ms("coup.coup_stats"), "ms"),
            "coup.solve_2x2.self_ms": (self_ms("coup.solve_2x2"), "ms"),
            "coup.self_ms": (layers.get("coup", 0.0), "ms"),
            "cards.pdf.calls": (per_op("cards.pdf"), "1/op"),
            "report.render.self_ms": (self_ms("report.render"), "ms"),
            "cli.interpreter_ms": (interpreter_ms, "ms"),
            "cli.import_ms": (import_ms, "ms"),
            "cli.command.self_ms": (self_ms("cli.command"), "ms"),
            "simulate.ns_per_coup": (ratio(self_ns.get("simulate.simulate", 0), coups), "ns"),
            "simulate.cards_per_coup": (ratio(counts["simulate.draw_card_value"], counted_coups), "1/coup"),
            "simulate.bernoulli.calls": (per_op("simulate.bernoulli"), "1/op"),
            "simulate.self_ms": (layers.get("simulate", 0.0), "ms"),
            "op.untraced_ms": (untraced_ms, "ms"),
            "op.traced_ms": (traced_ms, "ms"),
            "trace.overhead_ms": (statistics.median(
                t.seconds - b.seconds for t, b in zip(traced_records, baseline)) * 1000, "ms"),
            "trace.remainder_ms": (untraced_ms - interpreter_ms - import_ms - sum(layers.values()), "ms"),
        }
        details = {
            "untraced_ops": len(untraced),
            "traced_ops": n,
            "counted_ops": k,
            "hit_ratio_base_calls": hits + misses,
            "layer_self_ms": layers,
            "overhead_base": "in-process untraced replay" if workload.fresh_process else "untraced run of each op",
            "error_rate": (len(all_records) - len(passed)) / len(all_records),
        }
        return values, details

    return all_records, metrics, spans


def verdict(workload, oracle, records: list[Record]):
    """Split records into (spec, reason) failures and passed records.

    Only passed records are timed: a wrong answer is never a latency.
    """
    failures, passed = [], []
    for record in records:
        reason = record.error or workload.check(oracle, record.spec, record.result)
        if reason:
            failures.append((record.spec, reason))
        else:
            passed.append(record)
    check_pooled = getattr(workload, "check_pooled", None)
    if check_pooled:
        pooled = check_pooled(oracle, passed)
        failures += [(record.spec, pooled[id(record)]) for record in passed if id(record) in pooled]
        passed = [record for record in passed if id(record) not in pooled]
    return failures, passed


def coups_of(spec) -> int:
    if isinstance(spec, dict):
        return spec["coups"] if spec.get("cmd") == "simulate" else 0
    return COUPS if isinstance(spec, Scenario) else 0


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: not a chemin checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    if args.trace:
        if workload.fresh_process:
            workload.setup()
            workload.setup_inprocess()
        else:
            workload.setup()
        records, metrics, spans = traced(workload, args.seconds)
    else:
        records, metrics, spans = end_to_end(workload, args.seed, args.seconds)

    from tests import oracles
    from checks import Oracle
    import chemin

    oracle = Oracle(oracles)
    failures, passed = verdict(workload, oracle, records)
    # The first failure of each of up to ten kinds (reason up to its first colon).
    examples = {}
    for spec, reason in failures:
        kind = reason.split(":")[0]
        if kind not in examples and len(examples) < 10:
            examples[kind] = (spec, reason)
    values, details = metrics(passed)
    factor = CALIBRATION.factor()
    details["calibration"] = {
        "factor": factor,
        "median_ms": REFERENCE_CALIBRATION_MS / factor,
        "reference_ms": REFERENCE_CALIBRATION_MS,
        "samples": len(CALIBRATION.samples),
    }
    details["unscaled"] = {key: value for key, (value, _) in values.items()}
    values = {key: (scaled(value, unit, factor), unit) for key, (value, unit) in values.items()}

    provenance = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": args.seed,
        "chemin_version": getattr(chemin, "__version__", "unknown"),
        "card_model": oracle.card_model,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance, "details": details,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in values.items()},
        "failures": [{"spec": str(spec), "reason": reason} for spec, reason in examples.values()],
    }, indent=2, default=str))
    if spans is not None:
        with open(OUT / f"{name}-spans.jsonl", "w") as out:
            for span in spans.spans:
                out.write(json.dumps(span) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance: " + json.dumps(provenance))
    for key, (value, unit) in values.items():
        print(f"  {key:40s} {value:14.6f} {unit}")
    print("details: " + json.dumps(details, default=str))
    for spec, reason in examples.values():
        print(f"FAILED {spec}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
