"""Layer probes for the traced run and the per-layer metrics they give.

Only the entry points the trainer, scheduler and benchmark call are
wrapped: the root model's forward/backward (per episode, in
``workloads``), ``Kfac``'s stages, the compressor, the encoder base
class, the perf model's decisions, the ``SimCluster`` collectives, the
stream runtime, guard, ledger writer, xray analyzer, fleet scheduler,
shared fabric and checkpoint store.  ``nn`` submodules are not wrapped,
to keep the tracing overhead small.
"""

from __future__ import annotations

from repro.compression.base import CompressedTensor
from repro.core import CompsoCompressor, PerformanceModel
from repro.distributed import SimCluster
from repro.distributed.plane import payload_nbytes
from repro.encoders.base import Encoder
from repro.fleet import FleetScheduler
from repro.fleet.fabric import SharedFabric
from repro.fleet.job import FleetJob
from repro.guard.guard import Guard
from repro.kfac_dist import DistributedKfacTrainer
from repro.obsv import LedgerWriter
from repro.optim.kfac import Kfac
from repro.runtime import StreamRuntime
from repro.runtime.bucketing import Bucketer
from repro.runtime.engine import CollectiveHandle
from repro.store import CheckpointStore
from repro.xray import XrayAnalyzer

from probe import attr_sum, self_times
from workloads import install_compress_meters

#: Per-layer metrics: name -> (unit, better, the end-to-end metric it
#: should move, the workloads it should move it on).  Times and counts
#: are per step of the workload: a trainer step, a fleet job-step, or a
#: layer's round trip on codec-catalog (with its share of the
#: perf-model decisions).  A layer a workload does not run reads 0.
_ENC = "compress_mb_s samples_per_s"
_DEC = "decompress_mb_s samples_per_s"
PER_LAYER = {
    "nn.forward_ms": ("ms", "lower", "step_ms_p50", "record-resnet bare-gpt"),
    "nn.backward_ms": ("ms", "lower", "step_ms_p50", "record-resnet bare-gpt"),
    "optim.factors_ms": ("ms", "lower", "step_ms_p50", "bare-gpt record-resnet"),
    "optim.precondition_ms": ("ms", "lower", "step_ms_p50", "bare-gpt record-resnet"),
    "optim.apply_ms": ("ms", "lower", "step_ms_p50", "bare-gpt record-resnet"),
    "optim.eigh_ms": ("ms", "lower", "step_ms_tail", "record-resnet bare-gpt"),
    "optim.eigh_calls": ("count", "lower", "step_ms_tail", "record-resnet bare-gpt"),
    "compso.compress_ms": ("ms", "lower", "compress_mb_s", "codec-catalog"),
    "compso.decompress_ms": ("ms", "lower", "decompress_mb_s", "codec-catalog"),
    "encoders.encode_ms": ("ms", "lower", _ENC, "codec-catalog bare-gpt"),
    "encoders.decode_ms": ("ms", "lower", _DEC, "codec-catalog bare-gpt"),
    "encoders.encode_mb_s": ("MB/s", "higher", _ENC, "codec-catalog bare-gpt"),
    "encoders.decode_mb_s": ("MB/s", "higher", _DEC, "codec-catalog bare-gpt"),
    "encoders.ratio": ("ratio", "higher", "compression_ratio", "codec-catalog bare-gpt"),
    "perf_model.profile_ms": ("ms", "lower", "samples_per_s", "codec-catalog"),
    "perf_model.calls": ("count", "lower", "samples_per_s", "codec-catalog"),
    "perf_model.decide_ms_p50": ("ms", "lower", "samples_per_s", "codec-catalog"),
    "distributed.collective_ms": ("ms", "lower", "samples_per_s", "bare-gpt fleet-chaos"),
    "distributed.collective_calls": ("count", "lower", "samples_per_s", "bare-gpt fleet-chaos"),
    "distributed.payload_mb": ("MB", "lower", "samples_per_s", "bare-gpt fleet-chaos"),
    "runtime.ms": ("ms", "lower", "step_ms_p50", "record-resnet"),
    "runtime.calls": ("count", "lower", "step_ms_p50", "record-resnet"),
    "guard.ms": ("ms", "lower", "step_ms_p50", "record-resnet"),
    "guard.remediations": ("count", "lower", "step_ms_p50", "record-resnet"),
    "obsv.ms": ("ms", "lower", "step_ms_p50", "record-resnet"),
    "obsv.ledger_bytes": ("B", "lower", "step_ms_p50", "record-resnet"),
    "xray.ms": ("ms", "lower", "step_ms_p50", "record-resnet"),
    "telemetry.spans": ("count", "lower", "step_ms_p50", "record-resnet"),
    "kfac_dist.self_ms": ("ms", "lower", "step_ms_p50", "record-resnet bare-gpt"),
    "fleet.scheduler_self_ms": ("ms", "lower", "samples_per_s setup_s", "fleet-chaos"),
    "fleet.fabric_ms": ("ms", "lower", "samples_per_s", "fleet-chaos"),
    "fleet.restarts": ("count", "lower", "samples_per_s", "fleet-chaos"),
    "fleet.preemptions": ("count", "lower", "samples_per_s", "fleet-chaos"),
    "fleet.makespan_s": ("s", "lower", "sim_step_ms", "fleet-chaos"),
    "fleet.goodput": ("ratio", "higher", "sim_step_ms", "fleet-chaos"),
    "store.save_ms": ("ms", "lower", "samples_per_s", "fleet-chaos"),
    "store.load_ms": ("ms", "lower", "samples_per_s", "fleet-chaos"),
    "store.saves": ("count", "lower", "samples_per_s", "fleet-chaos"),
    "store.loads": ("count", "lower", "samples_per_s", "fleet-chaos"),
    "store.fallbacks": ("count", "lower", "samples_per_s", "fleet-chaos"),
    "store.mb_written": ("MB", "lower", "samples_per_s", "fleet-chaos"),
    "untraced_ms": ("ms", "lower", "", ""),
    "trace.wall_ms": ("ms", "lower", "", ""),
    "trace.overhead_pct": ("%", "lower", "", ""),
}

#: Span name -> the ``*_ms`` metric its self time adds to.
SELF_MS = {
    "nn.forward": "nn.forward_ms",
    "nn.backward": "nn.backward_ms",
    "optim.factors": "optim.factors_ms",
    "optim.precondition": "optim.precondition_ms",
    "optim.apply": "optim.apply_ms",
    "optim.eigh": "optim.eigh_ms",
    "compso.compress": "compso.compress_ms",
    "compso.decompress": "compso.decompress_ms",
    "encoders.encode": "encoders.encode_ms",
    "encoders.decode": "encoders.decode_ms",
    "perf_model.decide": "perf_model.profile_ms",
    "perf_model.profile": "perf_model.profile_ms",
    "distributed.collective": "distributed.collective_ms",
    "runtime": "runtime.ms",
    "guard": "guard.ms",
    "obsv": "obsv.ms",
    "xray": "xray.ms",
    "kfac_dist.step": "kfac_dist.self_ms",
    "fleet.scheduler": "fleet.scheduler_self_ms",
    "fleet.job_step": "fleet.scheduler_self_ms",
    "fleet.fabric": "fleet.fabric_ms",
    "store.save": "store.save_ms",
    "store.load": "store.load_ms",
}

#: Span name -> the call-count metric it adds to.
CALLS = {
    "optim.eigh": "optim.eigh_calls",
    "perf_model.decide": "perf_model.calls",
    "perf_model.profile": "perf_model.calls",
    "distributed.collective": "distributed.collective_calls",
    "runtime": "runtime.calls",
    "store.save": "store.saves",
    "store.load": "store.loads",
}


def _nbytes(x) -> float:
    if isinstance(x, (list, tuple)) or hasattr(x, "payload"):
        return payload_nbytes(x)
    if isinstance(x, CompressedTensor):
        return float(x.nbytes)
    return float(getattr(x, "nbytes", 0.0))


def _tally_payload(args, kwargs, result):
    return {"bytes": _nbytes(args[1])}


def _tally_encode(args, kwargs, blob):
    data = args[1]
    n = data.nbytes if hasattr(data, "nbytes") else len(data)
    return {"raw": n, "coded": len(blob)}


def _tally_decode(args, kwargs, raw):
    return {"raw": len(raw), "coded": len(args[1])}


def _tally_save(args, kwargs, gen):
    return {"bytes": gen.nbytes}


def install_layers(probe) -> None:
    """Wrap every layer entry point (class-level; the root model is
    wrapped per episode by the training workloads)."""
    w = probe.wrap
    w(Kfac, "local_factors", "optim.factors")
    w(Kfac, "accumulate_factors", "optim.factors")
    w(Kfac, "compute_eigen", "optim.eigh")
    w(Kfac, "precondition", "optim.precondition")
    w(Kfac, "apply", "optim.apply")
    install_compress_meters(probe)
    w(Encoder, "encode", "encoders.encode", _tally_encode)
    w(Encoder, "decode", "encoders.decode", _tally_decode)
    w(PerformanceModel, "choose_aggregation", "perf_model.decide")
    w(PerformanceModel, "choose_encoder", "perf_model.decide")
    w(PerformanceModel, "profile", "perf_model.profile")
    for op in ("allreduce", "allgather", "broadcast", "reduce_scatter"):
        w(SimCluster, op, "distributed.collective", _tally_payload)
    for op in ("iallreduce", "iallgather", "ibroadcast", "ireduce_scatter", "assert_quiesced"):
        w(StreamRuntime, op, "runtime")
    w(CollectiveHandle, "wait", "runtime")
    w(Bucketer, "add", "runtime")
    w(Bucketer, "wait", "runtime")
    for op in ("begin_step", "active", "scan", "safe_decompress", "check_contract",
               "check_ef", "safe_eigen", "end_step"):
        w(Guard, op, "guard")
    for op in ("update_manifest", "record_step", "close"):
        w(LedgerWriter, op, "obsv")
    w(XrayAnalyzer, "end_step", "xray")
    w(DistributedKfacTrainer, "step", "kfac_dist.step")
    w(FleetScheduler, "run", "fleet.scheduler")
    w(FleetJob, "step", "fleet.job_step", lambda a, k, r: {"ok": 1})
    for op in ("resume", "checkpoint", "preempt", "crash_rollback"):
        w(FleetJob, op, "fleet.scheduler")
    w(SharedFabric, "acquire", "fleet.fabric")
    w(SharedFabric, "prune", "fleet.fabric")
    w(CheckpointStore, "save", "store.save", _tally_save)
    w(CheckpointStore, "load_latest", "store.load")


def per_layer_metrics(spans, *, wall_s: float, steps: int, counts: dict) -> dict:
    """Per-step layer metrics of a traced phase (without the overhead,
    which needs the untraced phase too)."""
    self_s, calls, top = self_times(spans)
    unknown = set(self_s) - set(SELF_MS)
    if unknown:
        raise ValueError(f"spans with no metric: {sorted(unknown)}")
    out = {name: 0.0 for name in PER_LAYER}
    for name, seconds in self_s.items():
        out[SELF_MS[name]] += 1e3 * seconds / steps
    for name, n in calls.items():
        if name in CALLS:
            out[CALLS[name]] += n / steps
    out["untraced_ms"] = 1e3 * (wall_s - top) / steps
    out["trace.wall_ms"] = 1e3 * wall_s / steps
    for key, n in counts.items():
        if key in out:
            out[key] = n / steps
    encode_s = self_s.get("encoders.encode", 0.0)
    decode_s = self_s.get("encoders.decode", 0.0)
    raw = attr_sum(spans, "encoders.encode", "raw")
    coded = attr_sum(spans, "encoders.encode", "coded")
    out["encoders.encode_mb_s"] = raw / 1e6 / encode_s if encode_s else 0.0
    decoded = attr_sum(spans, "encoders.decode", "raw")
    out["encoders.decode_mb_s"] = decoded / 1e6 / decode_s if decode_s else 0.0
    out["encoders.ratio"] = raw / coded if coded else 0.0
    out["distributed.payload_mb"] = attr_sum(spans, "distributed.collective", "bytes") / 1e6 / steps
    out["store.mb_written"] = attr_sum(spans, "store.save", "bytes") / 1e6 / steps
    return out


def check_accounting(metrics: dict) -> str | None:
    """The layers' self times plus ``untraced_ms`` must sum to the
    traced wall time; returns a problem description when they do not."""
    parts = sorted(set(SELF_MS.values())) + ["untraced_ms"]
    total = sum(metrics[p] for p in parts)
    wall = metrics["trace.wall_ms"]
    if abs(total - wall) > 1e-9 * max(wall, 1.0) or min(metrics[p] for p in parts) < -1e-9:
        return f"layer self times sum to {total!r} ms, traced wall is {wall!r} ms"
    return None
