"""The benchmark's four workloads.

Each workload is a closed loop in one process: the next step or
operation starts when the previous one returns.  A workload runs in
*episodes*; every episode builds its trainer (or scheduler, or
compressors) afresh from inputs made at set-up, so two episodes of one
run must produce identical deterministic results, which the benchmark
checks.  The codec workload is the exception by design: its round trips
always see gradients the run has not seen before.

Every random stream derives from ``--seed`` through :func:`subseed`
(``spawn_rng`` keyed by ``zlib.crc32`` of the stream's name), never
through ``hash()``, whose value changes with ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import CompsoCompressor, PerformanceModel
from repro.data import make_image_data, make_lm_data
from repro.data.loaders import batch_indices
from repro.distributed import PLATFORM1, SimCluster
from repro.guard.sentinels import contract_error
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import gpt_proxy, resnet_proxy
from repro.models.catalogs import MODEL_CATALOGS
from repro.train import ClassificationTask, LmTask
from repro.util.seeding import spawn_rng


def subseed(seed: int, name: str) -> int:
    """An int seed for the named sub-stream of ``seed``."""
    return int(spawn_rng(seed, zlib.crc32(name.encode())).integers(2**31))


class Record:
    """What one timed phase observed.

    Timings are kept as ``perf_counter`` intervals, so that each can be
    scaled by the host speed measured around it (see ``hostspeed``).
    """

    def __init__(self, probe, tracing: bool, host=None):
        self.probe = probe
        self.tracing = tracing
        #: The host-speed reference, timed between operations of untraced
        #: phases only (a traced phase's spans would count its time).
        self.host = None if tracing else host
        #: (start, end) of every step.
        self.steps: list[tuple[float, float]] = []
        #: (samples, start, end, reference-kernel seconds inside) of every episode.
        self.episodes: list[tuple[int, float, float, float]] = []
        #: (start, end) of every perf-model decision.
        self.decides: list[tuple[float, float]] = []
        self.samples = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Per-layer counts the workload reads off the program's objects.
        self.counts: dict[str, float] = {}
        #: One dict of deterministic results per completed episode.
        self.summaries: list[dict] = []
        #: Round trips timed directly (codec workload): compress start,
        #: compress end = decompress start, decompress end, dense bytes.
        self.round_trips: list[tuple[float, float, float, int]] = []

    def tick(self) -> None:
        """Time the host-speed reference if it is due; call between operations."""
        if self.host is not None:
            self.host.tick()

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + n

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def _tally_compress(args, kwargs, ct):
    x = args[1]
    dense = sum(np.asarray(t).nbytes for t in x) if isinstance(x, list) else np.asarray(x).nbytes
    return {"dense": dense, "wire": ct.nbytes}


def _tally_decompress(args, kwargs, out):
    if isinstance(out, list):
        return {"dense": sum(o.nbytes for o in out)}
    return {"dense": out.nbytes}


def install_compress_meters(probe) -> None:
    """Time the compressor's public calls (bytes in attrs)."""
    probe.wrap(CompsoCompressor, "compress", "compso.compress", _tally_compress)
    probe.wrap(CompsoCompressor, "compress_many", "compso.compress", _tally_compress)
    probe.wrap(CompsoCompressor, "decompress", "compso.decompress", _tally_decompress)
    probe.wrap(CompsoCompressor, "decompress_many", "compso.decompress", _tally_decompress)


class _Training:
    """Shared episode loop of the two training workloads."""

    #: How strongly this workload's host time follows the host-speed
    #: reference (see ``hostspeed``).
    host_elasticity = 0.5

    name = ""
    steps = 0
    warmup_steps = 3
    batch_size = 0

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.episodes = 0

    def meters(self, probe) -> None:
        install_compress_meters(probe)

    def setup(self) -> None:
        self.make_inputs()
        trainer = self.build(self.tmp / "warmup.ledger")
        for idx in self.batches[: self.warmup_steps]:
            trainer.step(idx)

    def episode(self, rec: Record) -> None:
        path = self.tmp / f"{self.name}-{self.episodes}.ledger"
        self.episodes += 1
        trainer = self.build(path)
        if rec.tracing:
            rec.probe.wrap(trainer.model, "forward", "nn.forward")
            rec.probe.wrap(trainer.model, "backward", "nn.backward")
        losses = self.run_steps(trainer, rec)
        if len(losses) == self.steps:
            rec.summaries.append(
                {
                    "loss_final": losses[-1],
                    "compression_ratio": sum(trainer.bytes_original) / sum(trainer.bytes_on_wire),
                    "sim_step_ms": 1e3 * trainer.cluster.time / self.steps,
                }
            )

    def run_steps(self, trainer, rec: Record) -> list[float]:
        losses = []
        for t, idx in enumerate(self.batches):
            rec.attempted += 1
            start = perf_counter()
            try:
                loss = trainer.step(idx)
            except Exception as exc:  # counted, and the episode ends
                rec.fail(f"{self.name} step {t} raised {type(exc).__name__}: {exc}")
                break
            rec.steps.append((start, perf_counter()))
            rec.tick()
            if not np.isfinite(loss):
                rec.fail(f"{self.name} step {t} returned loss {loss}")
                break
            rec.samples += len(idx)
            losses.append(loss)
        return losses

    def check(self) -> list[str]:
        return []


class RecordResnet(_Training):
    """``repro record --xray`` stack on a wider ResNet proxy."""

    name = "record-resnet"
    #: A multiple of the refresh period, so a third of all steps refresh.
    steps = 24
    batch_size = 64
    #: The tail percentile, the same in every run so that runs compare:
    #: the highest with at least ten steps beyond it in a short run.
    tail_percentile = 95.0
    inv_update_freq = 3

    def make_inputs(self) -> None:
        s = self.seed
        # Noisy 10-class images: the loss is still ~1.7 after an episode,
        # so a change in the arithmetic shows in loss_final, and it
        # varies little from seed to seed.
        self.task = ClassificationTask(
            make_image_data(2048, n_classes=10, size=8, noise=3.5, seed=subseed(s, "data"))
        )
        self.batches = list(
            batch_indices(
                self.task.n, self.batch_size, iterations=self.steps, seed=subseed(s, "batches")
            )
        )

    def build(self, ledger_path: Path):
        from repro.guard.guard import GuardConfig
        from repro.obsv import LedgerConfig
        from repro.runtime import ComputeModel, StreamRuntime

        s = self.seed
        cluster = SimCluster(2, 2, seed=subseed(s, "cluster"))
        runtime = StreamRuntime(
            cluster, overlap=True, n_comm_streams=2, compute=ComputeModel(train_flops=5e7)
        )
        return DistributedKfacTrainer(
            resnet_proxy(n_classes=10, channels=16, rng=subseed(s, "model")),
            self.task,
            cluster,
            lr=0.05,
            inv_update_freq=self.inv_update_freq,
            compressor=CompsoCompressor(4e-3, 4e-3, seed=subseed(s, "compressor")),
            runtime=runtime,
            guard=GuardConfig(),
            obsv=LedgerConfig(ledger_path, note="perfbench record-resnet"),
            xray=True,
            reliable_channel=False,
        )

    def setup(self) -> None:
        from repro import telemetry

        with telemetry.session():
            super().setup()

    def run_steps(self, trainer, rec: Record) -> list[float]:
        from repro import telemetry

        trainer.obsv.update_manifest(
            seed=self.seed, iterations=self.steps, batch_size=self.batch_size
        )
        with telemetry.session() as session:
            losses = super().run_steps(trainer, rec)
            path = trainer.obsv.close(final_metric=None)
        rec.count("telemetry.spans", len(session.tracer.spans()))
        rec.count("guard.remediations", len(trainer.guard.timeline))
        rec.count("obsv.ledger_bytes", path.stat().st_size)
        return losses

    def check(self) -> list[str]:
        from repro.obsv import fsck_ledger, load_ledger

        problems = []
        for i in range(self.episodes):
            path = self.tmp / f"{self.name}-{i}.ledger"
            n = len(load_ledger(path).steps)
            verdict = fsck_ledger(path)
            if n != self.steps or verdict.status != "ok":
                problems.append(
                    f"ledger {path.name}: {n} steps, fsck {verdict.status} {verdict.problems}"
                )
        return problems


class BareGpt(_Training):
    """The plain library path: no runtime, guard, ledger, xray or telemetry."""

    name = "bare-gpt"
    steps = 12
    batch_size = 32
    #: The tail percentile, the same in every run so that runs compare:
    #: the highest with at least ten steps beyond it in a short run.
    tail_percentile = 75.0
    inv_update_freq = 3

    def make_inputs(self) -> None:
        s = self.seed
        self.task = LmTask(make_lm_data(1024, seq=17, vocab=64, seed=subseed(s, "data")))
        self.batches = list(
            batch_indices(
                self.task.n, self.batch_size, iterations=self.steps, seed=subseed(s, "batches")
            )
        )

    def build(self, ledger_path: Path):
        s = self.seed
        return DistributedKfacTrainer(
            gpt_proxy(vocab=64, dim=64, rng=subseed(s, "model")),
            self.task,
            SimCluster(2, 4, seed=subseed(s, "cluster")),
            lr=0.05,
            inv_update_freq=self.inv_update_freq,
            compressor=CompsoCompressor(4e-3, 4e-3, seed=subseed(s, "compressor")),
        )


class CodecCatalog:
    """COMPSO round trips and perf-model decisions on catalog-shaped gradients."""

    #: How strongly this workload's host time follows the host-speed
    #: reference (see ``hostspeed``).
    host_elasticity = 1.0
    #: The tail percentile, the same in every run so that runs compare:
    #: the highest with at least ten steps beyond it in a short run.
    tail_percentile = 95.0

    name = "codec-catalog"
    layers_per_model = 8
    max_elems = 32768
    #: World sizes of the two aggregation decisions; the encoder
    #: decision uses the larger one.
    worlds = (16, 64)
    r_comm = 0.45

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.episodes = 0

    def meters(self, probe) -> None:
        pass  # round trips are timed directly in the loop

    def setup(self) -> None:
        self.shapes = {}
        for model, catalog_fn in MODEL_CATALOGS.items():
            catalog = catalog_fn()
            picks = np.linspace(0, len(catalog) - 1, self.layers_per_model).round().astype(int)
            self.shapes[model] = [min(catalog[i].grad_elems, self.max_elems) for i in picks]
        self.perf = {w: PerformanceModel(PLATFORM1.network, world_size=w) for w in self.worlds}
        model = next(iter(self.shapes))
        grads = self.gradients(model, -1)
        comp = CompsoCompressor(4e-3, 4e-3, seed=0)
        for g in grads:
            comp.decompress(comp.compress(g))

    def gradients(self, model: str, episode: int) -> list[np.ndarray]:
        """Heavy-tailed gradients (the fig09 generator), fresh per episode."""
        rng = spawn_rng(self.seed, zlib.crc32(model.encode()), episode + 1)
        out = []
        for n in self.shapes[model]:
            small = rng.standard_normal(n) * 1e-4
            big = rng.standard_normal(n) * np.exp(rng.standard_normal(n)) * 5e-2
            out.append(np.where(rng.random(n) < 0.12, big, small).astype(np.float32))
        return out

    def episode(self, rec: Record) -> None:
        e = self.episodes
        self.episodes += 1
        dense = wire = 0.0
        errors: list[float] = []
        sim_s: list[float] = []
        decisions: list = []
        ok = True
        for model in self.shapes:
            grads = self.gradients(model, e)
            comp = CompsoCompressor(4e-3, 4e-3, seed=subseed(self.seed, f"{model}/{e}"))
            cts = []
            for i, g in enumerate(grads):
                rec.attempted += 1
                try:
                    t0 = perf_counter()
                    ct = comp.compress(g)
                    t1 = perf_counter()
                    back = comp.decompress(ct)
                    t2 = perf_counter()
                except Exception as exc:
                    rec.fail(f"{model} layer {i} round trip raised {type(exc).__name__}: {exc}")
                    ok = False
                    continue
                rec.round_trips.append((t0, t1, t2, g.nbytes))
                rec.steps.append((t0, t2))
                rec.tick()
                if back.shape != g.shape or contract_error(g, back, comp) is not None:
                    rec.fail(f"{model} layer {i}: round trip broke shape or error bound")
                    ok = False
                    continue
                rec.samples += 1
                dense += g.nbytes
                wire += ct.nbytes
                cts.append(ct)
                # RMS error on the scale of COMPSO's relative bounds.
                errors.append(float(np.sqrt(np.mean((back - g) ** 2)) / np.abs(g).max()))
            pm = self.perf[max(self.worlds)]
            pipe = pm.pipeline
            sim_s.append(
                pm.lookup.time(pm.world_size, sum(ct.nbytes for ct in cts))
                + sum(pipe.compress_time(g.nbytes, pm.device) for g in grads)
                + sum(pipe.decompress_time(g.nbytes, pm.device) for g in grads)
            )
            chooser = CompsoCompressor(4e-3, 4e-3, seed=subseed(self.seed, f"{model}/{e}/decide"))
            calls = [
                (self.perf[w].choose_aggregation, {"r": self.r_comm}) for w in self.worlds
            ] + [(pm.choose_encoder, {})]
            for decide, kwargs in calls:
                rec.attempted += 1
                try:
                    t0 = perf_counter()
                    choice, _ = decide(grads, chooser, **kwargs)
                    rec.decides.append((t0, perf_counter()))
                    rec.tick()
                except Exception as exc:
                    rec.fail(f"{model} {decide.__name__} raised {type(exc).__name__}: {exc}")
                    ok = False
                    continue
                decisions.append(choice)
        if e == 0 and ok:
            # Later episodes draw other gradients, so the run's
            # deterministic results are those of its first episode.
            rec.summaries.append(
                {
                    "loss_final": float(np.mean(errors)),
                    "compression_ratio": dense / wire,
                    "sim_step_ms": 1e3 * float(np.mean(sim_s)),
                    "decisions": decisions,
                }
            )

    def check(self) -> list[str]:
        return []


class FleetChaos:
    """Timing-track fleet under seeded chaos with sealed checkpoint stores."""

    #: How strongly this workload's host time follows the host-speed
    #: reference (see ``hostspeed``).
    host_elasticity = 0.5

    name = "fleet-chaos"
    n_jobs = 12
    #: The tail percentile, the same in every run so that runs compare:
    #: the highest with at least ten steps beyond it in a short run.
    tail_percentile = 95.0
    #: A job crashes at most once, however long it runs; longer jobs make
    #: the restart work, whose amount the seed deals, a smaller share.
    iterations = 12
    max_concurrent = 6

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.episodes = 0

    def meters(self, probe) -> None:
        from repro.fleet.job import FleetJob

        install_compress_meters(probe)
        probe.wrap(FleetJob, "step", "fleet.job_step", lambda a, k, r: {"ok": 1})

    def make_specs(self):
        from repro.fleet import apply_chaos, fabric_degradations
        from repro.fleet.job import JobSpec

        rng = spawn_rng(self.seed, zlib.crc32(b"fleet"))
        # A fixed mix of sizes and priorities, dealt out by the seed: the
        # mix sets the simulated cost per step, the seed only its order.
        worlds = rng.permutation(np.repeat([1024, 2048, 4096], self.n_jobs // 3))
        high = rng.permutation(np.arange(self.n_jobs) < self.n_jobs // 4)
        arrivals = np.sort(rng.random(self.n_jobs)) * 0.04
        # The jobs' own model/data seeds are fixed by name: on the timing
        # track a job's numerics do not depend on its world size or on
        # chaos, so loss_final checks that restarts replay exactly.
        specs = [
            JobSpec(
                f"job{i:02d}",
                world_size=int(worlds[i]),
                iterations=self.iterations,
                priority=2.0 if high[i] else 1.0,
                seed=zlib.crc32(f"job{i:02d}".encode()) % 1000,
                arrival=float(arrivals[i]),
            )
            for i in range(self.n_jobs)
        ]
        chaos_seed = subseed(self.seed, "chaos")
        specs = apply_chaos(specs, rate=1.0, seed=chaos_seed)
        return specs, fabric_degradations(specs, rate=1.0, seed=chaos_seed)

    def scheduler(self, root: Path):
        from repro.fleet import FleetScheduler

        specs, brownouts = self.make_specs()
        return FleetScheduler(
            specs,
            checkpoint_dir=root / "ckpt",
            store_dir=root / "store",
            max_concurrent=self.max_concurrent,
            retry_budget=3,
            fabric_degradations=brownouts,
        )

    def setup(self) -> None:
        sched = self.scheduler(self.tmp / "warmup")
        job = sched.jobs[0]
        job.resume(job.spec.arrival)
        job.step()

    def episode(self, rec: Record) -> None:
        from repro.fleet.job import FleetJob

        sched = self.scheduler(self.tmp / f"fleet-{self.episodes}")
        self.episodes += 1
        if rec.host is not None:
            # Outermost wrapper: the job-step span closes before the reference runs.
            rec.probe.after(FleetJob, "step", rec.tick)
        spans_before = len(rec.probe.spans)
        result = sched.run()
        spans = rec.probe.spans[spans_before:]
        # A job-step span without attributes raised (a scheduled crash).
        rec.steps += [(s[1], s[2]) for s in spans if s[0] == "fleet.job_step" and s[4]]
        compress = [s[4] for s in spans if s[0] == "compso.compress" and s[4]]
        failed = [r.name for r in result.reports if r.state == "failed"]
        rec.attempted += len(result.reports)
        for name in failed:
            rec.fail(f"fleet job {name} failed")
        rec.samples += sum(
            job.spec.batch_size * r.steps for job, r in zip(sched.jobs, result.reports)
        )
        rec.count("fleet.restarts", result.total_restarts)
        rec.count("fleet.preemptions", result.total_preemptions)
        rec.count("store.fallbacks", sum(r.store_fallbacks for r in result.reports))
        if failed:
            return
        rec.summaries.append(
            {
                "loss_final": float(np.mean([r.final_loss for r in result.reports])),
                "compression_ratio": sum(c["dense"] for c in compress)
                / sum(c["wire"] for c in compress),
                # Useful simulated time: net of crash-lost work, fault
                # stalls, contention and brownouts, which the makespan
                # and goodput report.
                "sim_step_ms": 1e3
                * sum(job.useful_time for job in sched.jobs)
                / sum(r.steps for r in result.reports),
                "fleet_makespan_s": result.makespan,
                "fleet_goodput": float(np.mean([r.goodput for r in result.reports])),
            }
        )

    def check(self) -> list[str]:
        from repro.store import fsck_path

        problems = []
        for i in range(self.episodes):
            for v in fsck_path(self.tmp / f"fleet-{i}" / "store"):
                if v.problem:
                    problems.append(f"fleet-{i} store: {v.kind} {v.status} {v.detail}")
        return problems


WORKLOADS = {w.name: w for w in (RecordResnet, BareGpt, CodecCatalog, FleetChaos)}
