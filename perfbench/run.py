"""Host-clock benchmark of the COMPSO reproduction (K-FAC + COMPSO).

    python3 perfbench/run.py --workload record-resnet --seed 1 --seconds 25 --trace 0

Run from the repository root.  One process runs one workload (see
``workloads.py`` and ``BENCHMARK.json``) as a closed loop for
``--seconds`` and prints a report, a ``details`` line with the run's
self-description, and, last, one JSON object with the correctness
verdict and the metrics.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced episodes with episodes that have
every layer probe installed, and reports the per-layer metrics,
including the tracing overhead (untraced over traced throughput).

Set-up (building inputs, model, cluster and trainer, plus warm-up
steps) runs several times and ``setup_s`` is the import time plus the
median set-up.  Every host time in the end-to-end metrics is scaled to
a nominal host by a reference kernel timed around it (``hostspeed.py``),
because this benchmark's hosts change speed by tens of percent from one
minute to the next; the unscaled figures go in the ``details`` line.
Ledgers, checkpoint stores and the span file live in a
temporary directory inside the checkout, removed at exit.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: on a small shared host a threaded BLAS on these small
# matrices mostly adds run-to-run noise.  A caller's setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "src"))

SETUP_REPS = 3
#: Candidate tail percentiles; the tail is the workload's
#: ``tail_percentile``, or the highest one below it with at least ten
#: samples beyond it if a run is too short for that.
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0)

E2E_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "sim_step_ms": "ms",
    "compression_ratio": "ratio",
    "loss_final": "loss",
    "compress_mb_s": "MB/s",
    "decompress_mb_s": "MB/s",
    "peak_rss_mb": "MB",
}
#: Printed in the report of the workloads they apply to; they are not
#: in BENCHMARK.json because the other workloads have no such quantity.
EXTRA_UNITS = {
    "decide_ms_p50": "ms",
    "fleet_makespan_s": "s",
    "fleet_goodput": "ratio",
    "failed_frac": "ratio",
}
DETERMINISTIC = (
    "sim_step_ms", "compression_ratio", "loss_final", "fleet_makespan_s", "fleet_goodput"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def describe(args) -> dict:
    import numpy as np

    # Look at this checkout only, and let ``git status`` leave the index alone.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_OPTIONAL_LOCKS="0")
    rev, dirty = "unknown", None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            rev = lines[1]
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
            )
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_phases(workload, host, seconds: float, modes: tuple[bool, ...]) -> list:
    """Run whole episodes, one per mode in turn, until ``seconds`` have
    passed and every mode has had as many episodes as the others.

    A mode is untraced (only the workload's meters installed) or traced
    (every layer probe installed).  Alternating the two lets both see
    the same host, so their throughput ratio is the tracing overhead.
    """
    from layers import install_layers
    from probe import Probe
    from workloads import Record

    recs = [Record(Probe(), tracing, host) for tracing in modes]
    start = time.perf_counter()
    while True:
        for rec in recs:
            if rec.tracing:
                install_layers(rec.probe)
            else:
                workload.meters(rec.probe)
            samples, spent, began = rec.samples, host.spent, time.perf_counter()
            try:
                workload.episode(rec)
            finally:
                rec.probe.uninstall()
            rec.episodes.append((rec.samples - samples, began, time.perf_counter(),
                                 host.spent - spent))
            # The last episode's trainer is garbage held in reference
            # cycles; collect it between episodes so that memory (and
            # the collector's pauses) do not pile up with run length.
            gc.collect()
            host.tick()
        if time.perf_counter() - start >= seconds:
            break
    for rec in recs:
        rec.wall = sum(end - began - spent for _, began, end, spent in rec.episodes)
    return recs


def tail(values: list[float], highest: float) -> tuple[float, float]:
    import numpy as np

    n = len(values)
    for p in TAIL_GRID:
        if p <= highest and n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.percentile(values, 50.0))


def unscaled(start: float, end: float, elasticity: float | None = None) -> float:
    return 1.0


def episode_rate(rec, scale) -> float:
    """Median samples per (scaled) second over the phase's episodes."""
    return statistics.median(
        n / ((end - began - spent) * scale(began, end)) for n, began, end, spent in rec.episodes
    )


def codec_rates(rec, scale) -> tuple[float, float]:
    """Dense MB per (scaled) second inside compress and inside decompress calls."""
    from hostspeed import CODEC_ELASTICITY as e

    if rec.round_trips:
        dense = sum(n for *_, n in rec.round_trips) / 1e6
        compress = sum((t1 - t0) * scale(t0, t1, e) for t0, t1, _, _ in rec.round_trips)
        decompress = sum((t2 - t1) * scale(t1, t2, e) for _, t1, t2, _ in rec.round_trips)
        return dense / compress, dense / decompress
    rates = []
    for name in ("compso.compress", "compso.decompress"):
        spans = [s for s in rec.probe.spans if s[0] == name and s[4]]
        seconds = sum((s[2] - s[1]) * scale(s[1], s[2], e) for s in spans)
        rates.append(sum(s[4]["dense"] for s in spans) / 1e6 / seconds)
    return rates[0], rates[1]


def timings(rec, scale, tail_pct: float) -> tuple[dict, dict]:
    """The phase's host-time metrics, each interval scaled by ``scale``."""
    steps_ms = [1e3 * (end - start) * scale(start, end) for start, end in rec.steps]
    pct, tail_ms = tail(steps_ms, tail_pct)
    compress, decompress = codec_rates(rec, scale)
    metrics = {
        "samples_per_s": episode_rate(rec, scale),
        "step_ms_p50": statistics.median(steps_ms),
        "step_ms_tail": tail_ms,
        "compress_mb_s": compress,
        "decompress_mb_s": decompress,
    }
    if rec.decides:
        metrics["decide_ms_p50"] = 1e3 * statistics.median(
            (end - start) * scale(start, end) for start, end in rec.decides
        )
    info = {"tail_percentile": pct, "steps": len(steps_ms), "episodes": len(rec.episodes)}
    return metrics, info


def end_to_end(rec, host, setup: tuple[float, float], tail_pct: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics (host times scaled to the nominal host), the
    same host times unscaled, and facts about the sample.  ``setup`` is
    the set-up time scaled and unscaled."""
    scaled, info = timings(rec, host.scale, tail_pct)
    raw = {"setup_s": setup[1]} | timings(rec, unscaled, tail_pct)[0]
    first = rec.summaries[0] if rec.summaries else {}
    metrics = {
        "setup_s": setup[0],
        "samples_per_s": scaled["samples_per_s"],
        "step_ms_p50": scaled["step_ms_p50"],
        "step_ms_tail": scaled["step_ms_tail"],
        "sim_step_ms": first.get("sim_step_ms", float("nan")),
        "compression_ratio": first.get("compression_ratio", float("nan")),
        "loss_final": first.get("loss_final", float("nan")),
        "compress_mb_s": scaled["compress_mb_s"],
        "decompress_mb_s": scaled["decompress_mb_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"failed_frac": rec.failed / max(rec.attempted, 1)}
    if "decide_ms_p50" in scaled:
        extra["decide_ms_p50"] = scaled["decide_ms_p50"]
    for key in ("fleet_makespan_s", "fleet_goodput"):
        if key in first:
            extra[key] = first[key]
    return metrics | extra, raw, info


def traced_metrics(base, traced, host, tmp: Path) -> dict:
    """Per-layer metrics of the traced phase.  Layer times are as
    measured; the overhead compares host-speed-scaled throughputs."""
    from layers import per_layer_metrics
    from probe import load_spans

    span_file = tmp / "spans.jsonl"
    traced.probe.dump(span_file)
    out = per_layer_metrics(
        load_spans(span_file),
        wall_s=traced.wall,
        steps=len(traced.steps),
        counts=traced.counts,
    )
    if base.decides:
        out["perf_model.decide_ms_p50"] = 1e3 * statistics.median(
            end - start for start, end in base.decides
        )
    first = base.summaries[0] if base.summaries else {}
    out["fleet.makespan_s"] = first.get("fleet_makespan_s", 0.0)
    out["fleet.goodput"] = first.get("fleet_goodput", 0.0)
    untraced_rate = episode_rate(base, host.scale)
    traced_rate = episode_rate(traced, host.scale)
    out["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    return out


def run(args, import_s: float, tmp: Path) -> int:
    from hostspeed import NEAREST, HostSpeed
    from layers import PER_LAYER, check_accounting
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tmp)
    # Set-up is one long call, so the reference runs in bursts around it.
    host = HostSpeed(workload.host_elasticity)
    for _ in range(NEAREST):
        host.tick(force=True)
    setups = [(_T0, _T0 + import_s)]
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup()
        setups.append((start, time.perf_counter()))
        gc.collect()
        for _ in range(NEAREST // 2 + 1):
            host.tick(force=True)
    imported, *built = [(end - start) * host.scale(start, end) for start, end in setups]
    setup = (
        imported + statistics.median(built),
        import_s + statistics.median(end - start for start, end in setups[1:]),
    )

    modes = (False, True) if args.trace else (False,)
    phases = run_phases(workload, host, args.seconds, modes)
    base, traced = phases[0], phases[-1]

    problems = [p for rec in phases for p in rec.problems]
    problems += workload.check()
    problems = [p.replace(str(ROOT), ".") for p in problems]
    summaries = [s for rec in phases for s in rec.summaries]
    if not summaries:
        problems.append("no episode completed")
    elif any(s != summaries[0] for s in summaries):
        problems.append("episodes of one run disagree on their deterministic results")
    attempted = sum(rec.attempted for rec in phases)
    failed = sum(rec.failed for rec in phases)

    metrics, raw, info = end_to_end(base, host, setup, workload.tail_percentile)
    info["host_speed"] = host.factor()
    layer = {}
    if args.trace:
        layer = traced_metrics(base, traced, host, tmp)
        problem = check_accounting(layer)
        if problem:
            problems.append(problem)
    correct = not problems and failed == 0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    units = E2E_UNITS | EXTRA_UNITS
    for name, value in metrics.items():
        note = ""
        if name == "step_ms_tail":
            note = f"  (p{info['tail_percentile']:g} of {info['steps']} steps)"
        print(f"  {name:24s} {value:14.6g} {units[name]}{note}")
    for name, value in layer.items():
        print(f"  {name:24s} {value:14.6g} {PER_LAYER[name][0]}")
    print(f"  host times above are scaled to the nominal host; this one ran at "
          f"{info['host_speed']:.3f}x its speed (unscaled figures in details)")
    verdict = "correct" if correct else "INCORRECT"
    print(f"  verdict: {verdict} ({failed} failed of {attempted} attempted)")
    for p in problems:
        print(f"  problem: {p}")
    info["wall_s"] = time.perf_counter() - _T0
    details = {
        "describe": describe(args) | info,
        "metrics": metrics,
        "unscaled": raw,
        "per_layer": layer,
        "deterministic": {k: metrics[k] for k in DETERMINISTIC if k in metrics},
        "problems": problems,
    }
    print("details " + json.dumps(details).replace(str(ROOT), "."))
    chosen = layer if args.trace else {k: metrics[k] for k in E2E_UNITS}
    unit_of = {k: v[0] for k, v in PER_LAYER.items()} if args.trace else E2E_UNITS
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in chosen.items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import numpy  # noqa: F401

        import layers  # noqa: F401
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    tempfile.tempdir = str(tmp)
    try:
        return run(args, import_s, tmp)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
