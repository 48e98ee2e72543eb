"""Benchmark of ltisec's four verdicts: certificates, extensions, stealthy
attack synthesis and windowed detection.

    python3 bench/run.py                       # all four workloads, in turn
    python3 bench/run.py --workload aircraft --seed 3 --seconds 28 --trace 0
    python3 bench/run.py --trace 1             # per-layer metrics
    python3 bench/run.py --smoke               # one checked round of each

One workload runs per process, as a closed loop with one client and one
operation at a time: in-process rounds (the five operation families,
interleaved) alternate with CLI rounds (``python -m ltisec.cli`` as
subprocesses), each kind taking a fixed share of the measured time.  Every
output is checked against ``oracle``.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

In-process times are reported at a fixed reference speed: each operation's
time is scaled by ``calibrate.NOMINAL_MS`` over the calibration kernel's
time measured around it (see ``calibrated_rounds``).  ``setup_s``,
``cli_round_ms`` and ``peak_rss_mb`` are raw.
"""

from __future__ import annotations

import os

# Fixed for the whole run, before numpy loads; child processes inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import bisect
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TMP = ROOT / ".bench_tmp"
WORKLOADS = ("aircraft", "long-horizon", "plant-sweep", "log-stream")
SETUP_PROBES = 2
IMPORT_PROBES = 3
CLI_TIMEOUT_S = 150
CAL_WINDOW_S = 0.25
CAL_EVERY_S = 0.05
PROBE_CODE = "import sys, ltisec\nfor f in sys.argv[1:]:\n    ltisec.load_scenario(f)\n"

END_TO_END = (
    ("setup_s", "s"),
    ("cli_round_ms", "ms"),
    ("analyze_round_ms", "ms"),
    ("certify_round_ms", "ms"),
    ("classify_round_ms", "ms"),
    ("synthesize_round_ms", "ms"),
    ("detect_epochs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
TIMED_FAMILIES = ("analyze", "certify", "classify", "synthesize")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def tail(xs: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it; none
    below forty samples, where it would be no tail."""
    if len(xs) < 40:
        return ""
    pct = int(math.floor(100.0 * (1.0 - 10.0 / len(xs))))
    return f" p{pct}={statistics.quantiles(xs, n=100)[pct - 1]:.6g}"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def check(self, label: str, check, *args) -> None:
        try:
            ok = bool(check(*args))
        except Exception as exc:  # a check that cannot even parse the output fails it
            ok = False
            label = f"{label} ({type(exc).__name__}: {exc})"
        if not ok:
            self.wrong.append(label)


@dataclass
class Samples:
    ops: list[tuple[int, str, float, float, int]] = field(default_factory=list)
    cal: list[tuple[float, float]] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    cli_s: list[float] = field(default_factory=list)
    cli_sub_s: list[dict[str, float]] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)

    def kernel(self) -> None:
        t = time.perf_counter()
        self.cal.append((t, calibrate.measure_ms()))


ALL_CPUS = frozenset(os.sched_getaffinity(0))
# In-process rounds run on one CPU: the two CPUs of the reference machine
# change speed independently, so the calibration kernel only speaks for
# operations that run where it runs.  Subprocesses keep every CPU.
PIN_CPU = max(ALL_CPUS)


@contextlib.contextmanager
def pinned():
    os.sched_setaffinity(0, {PIN_CPU})
    try:
        yield
    finally:
        os.sched_setaffinity(0, ALL_CPUS)


def run_ops(wl, tally: Tally, samples: Samples | None) -> float:
    """One in-process round; returns the summed wall time of its operations.

    With ``samples``, every operation's start and end are recorded, and the
    calibration kernel runs after each operation, once per 50 ms of it
    (at most ten times), so that ``calibrated_rounds`` can pair every
    operation with the kernel times around it.
    """
    with pinned():
        return _run_ops(wl, tally, samples)


def _run_ops(wl, tally: Tally, samples: Samples | None) -> float:
    wall = 0.0
    rnd = len(samples.round_s) if samples is not None else -1
    if samples is not None:
        samples.kernel()
    for op in wl.ops:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.fn()
            ok = True
        except Exception as exc:  # the operation failed; count it and go on
            tally.failed += 1
            tally.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            ok = False
        t1 = time.perf_counter()
        wall += t1 - t0
        if samples is not None:
            samples.ops.append((rnd, op.family, t0, t1, op.epochs if ok else 0))
            for _ in range(1 + min(9, int((t1 - t0) / CAL_EVERY_S))):
                samples.kernel()
        if ok:
            tally.check(op.label, op.check, out)
    if samples is not None:
        samples.round_s.append(wall)
    return wall


def calibrated_rounds(samples: Samples) -> tuple[list[dict], list[dict], list[int]]:
    """Per round and family: raw seconds, calibrated seconds, and epochs.

    An operation's time is scaled by ``NOMINAL_MS`` over the mean kernel
    time measured within ``max(CAL_WINDOW_S, 3 * duration)`` of it, after
    dropping kernel times above three times the window's median (a kernel
    call hit by an interrupt).  The machine's speed changes in phases of a
    tenth of a second to a second (other tenants), so a short window follows
    the phases; an operation longer than a phase sees a mix of speeds, which
    the mean over a wider window estimates better than any single sample.
    """
    stamps = [t for t, _ in samples.cal]
    kernel = [k for _, k in samples.cal]
    n = len(samples.round_s)
    raw = [defaultdict(float) for _ in range(n)]
    cal = [defaultdict(float) for _ in range(n)]
    epochs = [0] * n
    for rnd, family, t0, t1, ep in samples.ops:
        reach = max(CAL_WINDOW_S, 3.0 * (t1 - t0))
        window = kernel[bisect.bisect_left(stamps, t0 - reach):bisect.bisect_right(stamps, t1 + reach)]
        cut = 3.0 * statistics.median(window)
        speed = calibrate.NOMINAL_MS / statistics.fmean(k for k in window if k <= cut)
        raw[rnd][family] += t1 - t0
        cal[rnd][family] += (t1 - t0) * speed
        epochs[rnd] += ep
    return raw, cal, epochs


def run_cli_call(call, tally: Tally, traced: tuple[Path, Path] | None = None) -> float:
    if traced is None:
        cmd = [sys.executable, "-m", "ltisec.cli", *call.argv]
    else:
        cmd = [sys.executable, str(HERE / "traced.py"), str(traced[0]), str(traced[1]),
               "cli", *call.argv]
    for path in call.outputs:
        path.unlink(missing_ok=True)
    tally.attempted += 1
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode not in (0, 2):
        tally.failed += 1
        tally.errors.append(f"cli {call.label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    else:
        tally.check(f"cli {call.label}", call.check, proc.returncode, proc.stdout)
    return wall


def run_cli_round(wl, tally: Tally, samples: Samples | None,
                  traced: tuple[Path, dict] | None = None) -> float:
    """One CLI round; with ``traced`` = (directory, merged stats) each call
    runs under the tracer and its stats are merged."""
    per_sub: dict[str, float] = {}
    total = 0.0
    for i, call in enumerate(wl.cli):
        files = None
        if traced is not None:
            tag = f"cli{len(list(traced[0].glob('cli*.json')))}-{i}"
            files = (traced[0] / f"{tag}.json", traced[0] / f"{tag}.npz")
        wall = run_cli_call(call, tally, files)
        if files is not None and files[0].exists():
            tracer.merge(traced[1], json.loads(files[0].read_text()))
        per_sub[call.sub] = per_sub.get(call.sub, 0.0) + wall
        total += wall
    if samples is not None:
        samples.cli_s.append(total)
        samples.cli_sub_s.append(per_sub)
    return total


def setup_probe(wl, tally: Tally, traced: tuple[Path, Path] | None = None) -> float:
    """Fresh interpreter -> import ltisec + load_scenario of the workload's
    scenario files, timed from outside."""
    files = [str(f) for f in wl.scenario_files]
    if traced is None:
        cmd = [sys.executable, "-c", PROBE_CODE, *files]
    else:
        cmd = [sys.executable, str(HERE / "traced.py"), str(traced[0]), str(traced[1]),
               "probe", *files]
    tally.attempted += 1
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tally.failed += 1
        tally.errors.append(f"setup probe: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return wall


def import_times() -> dict[str, float]:
    """Cumulative import time of numpy, scipy.linalg and ltisec, from
    ``python -X importtime`` in fresh interpreters; median of a few."""
    runs: dict[str, list[float]] = {key: [] for key, _ in tracer.IMPORTS}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ltisec"],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=CLI_TIMEOUT_S)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1e3
        for key, module in tracer.IMPORTS:
            runs[key].append(cumulative.get(module, 0.0))
    return {f"import.{key}_ms": statistics.median(v) for key, v in runs.items()}


def timed_run(wl, seconds: float, smoke: bool, tally: Tally) -> dict:
    samples = Samples()
    for _ in range(1 if smoke else SETUP_PROBES):
        samples.setup_s.append(setup_probe(wl, tally))
    inproc = cli = 0.0
    took = {True: [], False: []}  # wall time of past rounds, in-process or not
    deadline = time.perf_counter() + seconds
    while True:
        in_process = inproc * (1.0 - wl.inproc_share) <= cli * wl.inproc_share
        left = deadline - time.perf_counter()
        done = samples.round_s and samples.cli_s
        # stop at the deadline, or before it when the next round would
        # mostly run past it, so that a run lasts about --seconds
        if done and (smoke or left < 0.5 * statistics.median(took[in_process])):
            break
        t0 = time.perf_counter()
        if in_process:
            inproc += run_ops(wl, tally, samples)
        else:
            cli += run_cli_round(wl, tally, samples)
            # set-up time is sampled across the run, not in one burst, so
            # that it sees the machine's slow and fast phases alike
            samples.setup_s.append(setup_probe(wl, tally))
        took[in_process].append(time.perf_counter() - t0)
    raw_rounds, cal_rounds, epochs = calibrated_rounds(samples)
    series, raw_series = {}, {}
    for out, rounds in ((series, cal_rounds), (raw_series, raw_rounds)):
        out["setup_s"] = samples.setup_s
        out["cli_round_ms"] = [x * 1e3 for x in samples.cli_s]
        for f in TIMED_FAMILIES:
            out[f"{f}_round_ms"] = [r[f] * 1e3 for r in rounds]
        out["detect_epochs_per_s"] = [e / r["detect"] for e, r in zip(epochs, rounds)]
    metrics = {k: statistics.median(v) for k, v in series.items()}
    raw = {k: statistics.median(v) for k, v in raw_series.items()}
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    q1, med, q3 = quartiles([k for _, k in samples.cal])
    print(f"# calibration: nominal {calibrate.NOMINAL_MS:.3f} ms, measured median {med:.4f} ms "
          f"(q1 {q1:.4f}, q3 {q3:.4f}, {len(samples.cal)} samples)")
    print(f"# rounds: in-process {len(samples.round_s)} x {len(wl.ops)} ops, "
          f"cli {len(samples.cli_s)} x {len(wl.cli)} calls, setup probes {len(samples.setup_s)}")
    print(f"# {'metric':<22} {'value':>14} {'unit':<5} {'raw':>14}  quartiles of calibrated rounds")
    for name, unit in END_TO_END:
        xs = series.get(name)
        spread = ""
        if xs:
            q1, _, q3 = quartiles(xs)
            spread = f"q1={q1:.6g} q3={q3:.6g} n={len(xs)}{tail(xs)}"
        print(f"# {name:<22} {metrics[name]:>14.6g} {unit:<5} {raw[name]:>14.6g}  {spread}")
    return metrics


def traced_run(wl, seconds: float, smoke: bool, tally: Tally, spans_dir: Path) -> dict:
    """Cycles of: untraced in-process round, traced in-process round, traced
    CLI round, untraced CLI round, traced set-up probe."""
    spans_dir.mkdir(parents=True, exist_ok=True)
    imports = import_times()
    merged = tracer.empty_stats()
    untraced, traced, spans = [], [], []
    cli_subs: list[dict[str, float]] = []
    run_ops(wl, tally, None)  # warm-up, so that the first pair compares like with like
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        untraced.append(run_ops(wl, tally, None))
        t = tracer.Tracer()
        t.install()
        try:
            traced.append(run_ops(wl, tally, None))
        finally:
            t.uninstall()
        tracer.merge(merged, t.stats())
        spans.append(t.spans())
        run_cli_round(wl, tally, None, (spans_dir, merged))
        samples = Samples()
        run_cli_round(wl, tally, samples)
        cli_subs.append(samples.cli_sub_s[0])
        probe = (spans_dir / f"probe-{rounds}.json", spans_dir / f"probe-{rounds}.npz")
        setup_probe(wl, tally, probe)
        if probe[0].exists():
            tracer.merge(merged, json.loads(probe[0].read_text()))
        rounds += 1
        if smoke or time.perf_counter() >= deadline:
            break
    for i, sp in enumerate(spans):
        np.savez(spans_dir / f"inproc-{i}.npz", **sp)
    vals = tracer.layer_values(merged, rounds)
    for sub in tracer.CLI_SUBCOMMANDS:
        vals[f"cli.{sub}.ms"] = statistics.median(c.get(sub, 0.0) for c in cli_subs) * 1e3
    vals.update(imports)
    vals["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    print(f"# traced rounds {rounds}: in-process traced median {statistics.median(traced) * 1e3:.2f} ms, "
          f"untraced median {statistics.median(untraced) * 1e3:.2f} ms; spans in {spans_dir}")
    for name, unit in tracer.layer_metrics():
        print(f"# {name:<48} {vals[name]:>14.6g} {unit}")
    return vals


def run_workload(args) -> int:
    if not (SRC / "ltisec" / "__init__.py").is_file():
        print(f"error: no ltisec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.lt.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: ltisec imported from {workloads.lt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    tally = Tally()
    try:
        t0 = time.perf_counter()
        wl = workloads.BUILDERS[args.workload](ROOT, tmp, args.seed)
        print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}; "
              f"python {platform.python_version()} numpy {np.__version__}; BLAS threads {BLAS_THREADS} "
              f"(nproc {os.cpu_count()}); in-process rounds pinned to CPU {PIN_CPU}; closed loop, 1 client")
        print(f"# inputs built and expected values computed in {time.perf_counter() - t0:.2f} s:")
        for line in wl.makeup:
            print(f"#   {line}")
        if args.trace:
            spans_dir = OUT / "spans" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
            metrics = traced_run(wl, args.seconds, args.smoke, tally, spans_dir)
        else:
            metrics = timed_run(wl, args.seconds, args.smoke, tally)
    except workloads.Inconclusive as exc:
        print(f"error: inconclusive input: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for label in tally.wrong[:20]:
        print(f"# WRONG {label}")
    for label in tally.errors[:20]:
        print(f"# FAILED {label}")
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in (tracer.layer_metrics() if args.trace else END_TO_END)},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result))
    print(json.dumps(result))
    if args.smoke and (tally.wrong or tally.failed):
        return 1
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so set-up time and peak
    resident set belong to that workload."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    traces = (0, 1) if args.smoke else (args.trace,)
    status = 0
    summary = []
    for name in WORKLOADS:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                status = 1
                summary.append(f"{name} trace={trace}: no result (exit {proc.returncode})")
                continue
            ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
            want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
            if set(result["metrics"]) != want:
                ok = False
                summary.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json "
                               f"{sorted(set(result['metrics']) ^ want)}")
            status |= 0 if ok else 1
            summary.append(f"{name} trace={trace}: correct={result['correct']} "
                           f"attempted={result['attempted']} failed={result['failed']}")
            if not trace:
                summary += [f"    {k:<22} {v['value']:>14.6g} {v['unit']}"
                            for k, v in result["metrics"].items()]
    print("== summary ==")
    print("\n".join(summary))
    print("result: " + ("pass" if status == 0 else "FAIL"))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="one checked round of each kind; exit 1 on any wrong or failed call")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
