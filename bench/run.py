"""Benchmark of qtoric, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  With ``--trace 0`` a run prints the
end-to-end metrics of one workload; with ``--trace 1`` it runs a fixed
number of rounds untraced and then traced, and prints per-layer counts and
self times.  Progress goes to standard error; the last line of standard
output is the result as one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_SAMPLES = 9  # cold set-ups per run; setup_s is their median
STARTUP_SAMPLES = 5  # fresh processes per cli.startup_ms / cli.import_ms


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, pct: int) -> float:
    """The pct-th percentile, interpolated as statistics.quantiles does with
    the inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")


def make_workload(name: str, seed: int):
    import workloads

    classes = {
        c.name: c
        for c in (workloads.EnumerateGrid, workloads.IsoSearch, workloads.PairAudit, workloads.CliSession)
    }
    return classes[name](ROOT, seed)


# -- set-up time -------------------------------------------------------------


def setup_only(name: str, seed: int) -> int:
    """Child side of a set-up sample: build the inputs, run the warm-up
    operation, say so, exit."""
    workload = make_workload(name, seed)
    workload.warmup()
    print("ready", flush=True)
    return 0


def setup_sample(name: str, seed: int) -> float:
    """Time from starting a fresh interpreter to the end of its warm-up
    operation."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=child_env())
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child exited with {proc.returncode}")
    return elapsed


def fresh_process_ms(argv) -> float:
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, check=True)
        samples.append((time.perf_counter() - t0) * 1000)
    return statistics.median(samples)


# -- the closed loop -----------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.latencies_ns = []
        self.slots = []  # the round slot of each operation, if rounds repeat
        self.round_rates = []  # operations per second of each round
        self.busy_ns = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add_error(self, message: str) -> None:
        if len(self.errors) < 20:
            log("check failed:", message)
        self.errors.append(message)


def run_round(workload, index: int, tally: Tally, by_kind=None):
    """Run one round: operations timed one by one, then checked untimed."""
    ops = workload.round(index)
    outs = []
    perf = time.perf_counter_ns
    start = perf()
    for position, op in enumerate(ops):
        t0 = perf()
        try:
            out = workload.run(op)
        except Exception as exc:  # a failing operation is counted, not fatal
            out = None
            tally.failed += 1
            log(f"operation {op!r} failed: {exc!r}")
        t1 = perf()
        tally.latencies_ns.append(t1 - t0)
        tally.slots.append(workload.slot(op, position))
        outs.append(out)
        if by_kind is not None:
            by_kind.setdefault(op[0][0], []).append(t1 - t0)
    busy = perf() - start
    tally.busy_ns += busy
    tally.round_rates.append(len(ops) / (busy / 1e9))
    tally.attempted += len(ops)
    for op, out in zip(ops, outs):
        if out is not None:
            for message in workload.check(op, out):
                tally.add_error(message)
    for message in workload.round_errors(ops, outs):
        tally.add_error(message)


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    workload = make_workload(name, seed)
    workload.warmup()
    tally = Tally()
    for message in workload.input_errors():
        tally.add_error(message)
    # cold set-ups are spread between rounds over the timed seconds, so a
    # burst of load from outside reaches few of them
    setups = [setup_sample(name, seed)]
    index = 0
    while tally.busy_ns < seconds * 1e9 or tally.attempted < workload.min_ops:
        run_round(workload, index, tally)
        index += 1
        while len(setups) < SETUP_SAMPLES * min(1.0, tally.busy_ns / (seconds * 1e9)):
            setups.append(setup_sample(name, seed))
    setup_s = statistics.median(setups)
    lat_ms = [x / 1e6 for x in tally.latencies_ns]
    if tally.slots[0] is None:
        # the median round, so a burst of load from outside moves it less
        ops_per_s = statistics.median(tally.round_rates)
    else:
        # every round fills the same slots with operations of the same
        # cost: each sample stands for its slot's median, so neither a burst
        # of outside load nor a quantile falling between two slots reads
        # extreme samples
        by_slot = {}
        for slot, x in zip(tally.slots, lat_ms):
            by_slot.setdefault(slot, []).append(x)
        typical = {slot: statistics.median(xs) for slot, xs in by_slot.items()}
        lat_ms = [typical[slot] for slot in tally.slots]
        ops_per_s = len(typical) / (sum(typical.values()) / 1e3)
    log(f"{name}: {index} rounds, {tally.attempted} operations, tail is p{workload.tail_pct}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (percentile(lat_ms, workload.tail_pct), "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    return result(tally, metrics)


# -- the traced run ------------------------------------------------------------

# per-layer metrics read from spans: "<group>_ms" is the group's self time
# and, for the groups in SPAN_CALLS, "<group>_calls" its call count
SPAN_GROUPS = {
    "lattice.hnf": ["lattice.hermite_normal_form", "lattice.lattice_from_generators", "lattice.kernel_basis"],
    "lattice.det": ["lattice.determinant"],
    "lattice.extendable": ["lattice.is_basis_extendable"],
    "lattice.snf": ["lattice.smith_normal_form"],
    "polyring.substitute": ["polyring.substitute_linear"],
    "polyring.ideal_lattice": ["polyring.ideal_degree_lattice"],
    "polyring.trunc_identity": ["polyring.trunc_product_identity"],
    "quasitoric.validate": ["quasitoric.validate"],
    "quasitoric.normalize": ["quasitoric.normalize"],
    "quasitoric.bruteforce": ["quasitoric.validate_bruteforce"],
    "quasitoric.presentation": ["quasitoric.cohomology_presentation"],
    "quasitoric.graded_ranks": ["quasitoric.graded_ranks"],
    "quasitoric.kernel_lattice": ["quasitoric.kernel_lattice"],
    "classify.canonical": ["classify.canonical_class"],
    "classify.same_class": ["classify.same_class"],
    "classify.tilde_equiv": ["classify.tilde_equiv"],
    "oracle.witness": ["oracle.witness_check"],
}
SPAN_CALLS = [
    "lattice.hnf",
    "lattice.det",
    "lattice.extendable",
    "lattice.snf",
    "polyring.substitute",
    "polyring.ideal_lattice",
    "polyring.trunc_identity",
    "quasitoric.validate",
    "quasitoric.bruteforce",
    "classify.canonical",
    "classify.same_class",
    "classify.tilde_equiv",
    "oracle.witness",
]
COUNTERS = {
    "lattice.matrix_builds": "lattice.matrix_builds",
    "lattice.equal_calls": "lattice.lattice_equal",
    "polyring.homog_mul_calls": "polyring.homog_mul",
    "quasitoric.pairs_generated": "quasitoric.all_char_pairs",
}
CLI_COMMANDS = (
    "validate",
    "classify",
    "compare",
    "enumerate",
    "count",
    "cohomology",
    "kernel",
    "oracle-iso",
    "witness-check",
)


def layer_metrics(agg: dict, cli_ms: dict, startup_ms: float, import_ms: float, overhead_pct: float) -> dict:
    spans, counts = agg["spans"], agg["counts"]

    def total(names, field):
        return sum(spans.get(n, (0, 0, 0))[field] for n in names)

    metrics = {}
    for group, names in SPAN_GROUPS.items():
        if group in SPAN_CALLS:
            metrics[group + "_calls"] = (total(names, 0), "count")
        metrics[group + "_ms"] = (total(names, 2) / 1e6, "ms")
    for metric, name in COUNTERS.items():
        metrics[metric] = (counts.get(name, 0), "count")
    searches = total(["oracle.ring_iso_search"], 0)
    tried = counts.get("oracle.substitutions", 0) // 2
    passed = counts.get("oracle.degree1_pieces", 0) - searches
    metrics.update(
        {
            "classify.enumerate_self_ms": (total(["classify.enumerate_classes"], 2) / 1e6, "ms"),
            "oracle.searches": (searches, "count"),
            "oracle.search_self_ms": (total(["oracle.ring_iso_search"], 2) / 1e6, "ms"),
            "oracle.search_hit_ms": (counts.get("oracle.search_hit_ns", 0) / 1e6, "ms"),
            "oracle.search_miss_ms": (counts.get("oracle.search_miss_ns", 0) / 1e6, "ms"),
            "oracle.candidates_tried": (tried, "count"),
            "oracle.prefilter_pass_ratio": (passed / tried if tried else 0.0, "ratio"),
            "cli.startup_ms": (startup_ms, "ms"),
            "cli.import_ms": (import_ms, "ms"),
        }
    )
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_ms"] = (cli_ms.get(command, 0.0), "ms")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def traced(name: str, seed: int) -> dict:
    import tracer as tracing

    workload = make_workload(name, seed)
    workload.warmup()
    tally = Tally()
    for message in workload.input_errors():
        tally.add_error(message)
    rounds = workload.trace_rounds
    by_kind = {} if name == "cli-session" else None
    for index in range(rounds):
        run_round(workload, index, tally, by_kind)
    plain_ns = tally.busy_ns

    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    if name == "cli-session":
        workload.trace_dir = OUT
    else:
        tracer.install()
    tally.busy_ns = 0
    try:
        for index in range(rounds):
            tracer.op = index
            run_round(workload, index, tally)
    finally:
        tracer.uninstall()
    overhead_pct = (tally.busy_ns / plain_ns - 1) * 100
    agg = tracer.aggregates()
    span_path = OUT / f"spans-{name}-seed{seed}.tsv.gz"
    rows = list(tracer.span_rows())
    if name == "cli-session":
        # each command process left its own record; its spans get fresh ids
        # and the command's place in the session as their operation
        records = sorted(OUT.glob(f"cli-{os.getpid()}-*.json"), key=lambda p: int(p.stem.rsplit("-", 1)[1]))
        for op, path in enumerate(records):
            record = json.loads(path.read_text())
            tracing.merge(agg, record)
            base = len(rows)
            rows += [(i + base, p + base if p >= 0 else -1, op) + tuple(rest) for i, p, _, *rest in record["rows"]]
            path.unlink()
    written = tracing.write_spans(span_path, rows)

    cli_ms = {}
    if by_kind:
        for command in CLI_COMMANDS:
            samples = by_kind.get(command, [])
            cli_ms[command] = statistics.median(samples) / 1e6 if samples else 0.0
    python = [sys.executable]
    startup_ms = fresh_process_ms(python + ["-m", "qtoric", "count", "--n", "3", "--m", "3"])
    bare_ms = fresh_process_ms(python + ["-c", "pass"])
    import_ms = fresh_process_ms(python + ["-c", "import qtoric.cli"]) - bare_ms
    log(f"{name}: {rounds} rounds untraced then traced, {written} spans in {span_path.relative_to(ROOT)}")
    log(f"{name}: tracing overhead {overhead_pct:.1f}% over {plain_ns / 1e9:.2f} s untraced")
    return result(tally, layer_metrics(agg, cli_ms, startup_ms, import_ms, overhead_pct))


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("enumerate-grid", "iso-search", "pair-audit", "cli-session")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "qtoric" / "__init__.py").is_file():
        log(f"error: no qtoric sources under {ROOT / 'src'}; run from a checkout of the repository")
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import qtoric

    if Path(qtoric.__file__).resolve().parent != ROOT / "src" / "qtoric":
        log(f"error: imported qtoric from {qtoric.__file__}, not from this checkout")
        return 2
    if args.setup_only:
        return setup_only(args.workload, args.seed)

    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "git_revision": git_revision(),
            }
        ),
        flush=True,
    )
    if args.trace:
        outcome = traced(args.workload, args.seed)
    else:
        outcome = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
