"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-kernel --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs untraced and traced repetitions side by side and
prints the per-layer ledger, including the tracing overhead, and writes
the spans to ``.perfbench/traces/``.  Every run checks its outputs (see
``README.md``); a failed check makes the run print ``"correct": false``
with no metrics and exit with status 1.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
# repro: allow-file[REPRO003] -- the benchmark's job is timing the
# program with the wall clock; nothing here feeds the simulated clock.

from __future__ import annotations

import argparse
import hashlib
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = Path(__file__).resolve().parents[1]
#: Environment knobs the program would otherwise read to pick its executor
#: width, its sanitizers or the benchmark-suite size.  The benchmark passes
#: them explicitly and removes them so they cannot change a run.
ISOLATED_ENV = ("REPRO_WORKERS", "REPRO_SANITIZE", "REPRO_BENCH_FULL")
#: The threads of one BLAS call, pinned to one: the executor already runs
#: ``WORKERS`` threads on as many cores, and BLAS threads nested inside them
#: would oversubscribe the cores and time the scheduler, not the program.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Executor width passed to every trainer and index (capped by the cores).
WORKERS = 2
#: Closed-loop passes a serving run always makes, whatever ``--seconds``
#: says (two are the least that can show a result repeats), and at most.
MIN_PASSES = 2
MAX_PASSES = 50
#: Set-ups a training run times at least; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def _bootstrap() -> None:
    """Import the program from ``src/`` and this package from the root.

    Runs before numpy is first imported, which reads the BLAS width from
    the environment.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure under {ROOT / 'src'}")
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    for var in ISOLATED_ENV:
        os.environ.pop(var, None)
    for var in BLAS_ENV:
        os.environ[var] = "1"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_sha256() -> str:
    """Digest of the program's sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, workers: int) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "executor_width": workers,
        "sanitize": False,
    }


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
class Gate:
    """Named pass/fail checks; a failed check is a failed operation."""

    def __init__(self) -> None:
        self.results: dict[str, bool] = {}
        self.notes: dict[str, str] = {}

    def check(self, name: str, ok: bool, note: str = "") -> None:
        self.results[name] = bool(ok)
        if not ok and note:
            self.notes[name] = note

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.results.values())


def load_pins() -> dict:
    return json.loads((Path(__file__).parent / "pinned.json").read_text())


def check_pinned(gate: Gate, workload: str, seed: int, values: dict) -> None:
    pinned = load_pins().get(workload, {}).get(str(seed))
    if pinned is None:
        return
    for key, want in pinned.items():
        got = values.get(key)
        gate.check(f"pinned.{key}", got == want, f"got {got!r}, pinned {want!r}")


# ----------------------------------------------------------------------
# Workload runners
# ----------------------------------------------------------------------
def keep_going(started: float, passes: list, seconds: float, durations: list[float]) -> bool:
    """Start another pass while it should still end inside the budget."""
    if len(passes) < MIN_PASSES:
        return True
    if len(passes) >= MAX_PASSES:
        return False
    typical = sorted(durations)[len(durations) // 2]
    return time.perf_counter() - started + typical <= seconds


def run_training(args, workers: int, gate: Gate, report: dict) -> tuple[dict, int]:
    import numpy as np

    from perfbench import training
    from perfbench.metrics import median, percentile
    from perfbench.tracing import Tracer

    workload = training.WORKLOADS[args.workload]
    params = training.params_for(workload)
    setup = training.set_up(workload, args.seed, workers)
    sample = training.EvalSample.draw(
        setup.trainer.corpus, args.seed, params.window, params.negatives
    )
    tracer = Tracer() if args.trace else None
    reps: list = []
    setups: list = []
    for i in range(training.repetitions(workload, args.seconds)):
        setup = setup or training.set_up(workload, args.seed, workers)
        setups.append((setup.corpus_s, setup.trainer_init_s))
        traced = bool(args.trace) and i % 2 == 1
        run_id = f"{args.workload}/rep{i}"
        reps.append(
            training.train_once(setup, sample, tracer if traced else None, run_id)
        )
        setup = None  # the trainer holds every replica; free it before the next set-up
    while len(setups) < SETUP_SAMPLES:
        extra = training.set_up(workload, args.seed, workers)
        training.close_executor(extra.trainer)
        setups.append((extra.corpus_s, extra.trainer_init_s))
        del extra
    rss_mb = peak_rss_mb()

    # -- correctness ---------------------------------------------------
    exact = reps[0].exact()
    gate.check(
        "train.counts_repeat",
        all(r.exact() == exact for r in reps),
        "pairs, per-phase bytes or message counts differ between repetitions",
    )
    gate.check(
        "train.model_sha256_repeats",
        len({r.model_sha256 for r in reps}) == 1,
        "final model differs between repetitions",
    )
    gate.check("train.replicas_finite", all(r.replicas_finite for r in reps))
    initial = sample.initial_loss()
    gate.check(
        "train.eval_loss_below_initial",
        all(np.isfinite(r.eval_loss) and r.eval_loss < initial for r in reps),
        f"loss {reps[0].eval_loss!r} not below the initial {initial!r}",
    )
    check_pinned(gate, args.workload, args.seed, exact)
    report["exact"] = exact
    report["model_sha256"] = reps[0].model_sha256

    # -- metrics ---------------------------------------------------------
    plain = [r for r in reps if not r.traced]
    epochs_ms = [ms for r in plain for ms in r.epoch_ms]
    human = {
        # Per epoch rather than per repetition: twice the samples for the
        # median, so one slow spell on the host moves it less.
        "train_pairs_per_s": (
            median(
                [1000.0 * n / ms for r in plain for n, ms in zip(r.epoch_pairs, r.epoch_ms)]
            ),
            "1/s",
        ),
        "modeled_epoch_s": (median([r.modeled_epoch_s for r in plain]), "s"),
        "eval_loss": (reps[0].eval_loss, "nats"),
        "epoch_p50_ms": (percentile(epochs_ms, 50), "ms"),
        "epoch_p99_ms": (percentile(epochs_ms, 99), "ms"),
        "epoch_samples": (len(epochs_ms), "count"),
    }
    end_to_end = {
        "throughput_per_s": human["train_pairs_per_s"],
        "latency_p50_ms": human["epoch_p50_ms"],
        "latency_p99_ms": human["epoch_p99_ms"],
        "setup_s": (median([corpus_s + init_s for corpus_s, init_s in setups]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    layers = {
        "text.corpus_s": median([corpus_s for corpus_s, _ in setups]),
        "w2v.trainer_init_s": median([init_s for _, init_s in setups]),
        "w2v.eval_loss": reps[0].eval_loss,
        "cluster.modeled_epoch_s": human["modeled_epoch_s"][0],
        "gluon.messages": reps[0].messages,
        "gluon.resent_bytes": reps[0].resent_bytes,
        "latency.samples": len(epochs_ms),
    }
    for bucket, nbytes in training.bytes_by_bucket(reps[0].bytes_by_phase).items():
        layers[f"gluon.bytes.{bucket}"] = nbytes
    for key in reps[0].breakdown:
        layers[f"cluster.{key}"] = median([r.breakdown[key] for r in plain])
    traced_reps = [r for r in reps if r.traced]
    if traced_reps:
        for key in traced_reps[0].layers:
            layers[key] = median([r.layers[key] for r in traced_reps])
        layers["trace.overhead_s"] = median([r.wall_s for r in traced_reps]) - median(
            [r.wall_s for r in plain]
        )
        layers["trace.spans"] = median([r.spans for r in traced_reps])
        tracer.write(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}")
    attempted = sum(r.rounds for r in reps)
    return {"human": human, "end_to_end": end_to_end, "layers": layers}, attempted


def run_serving(args, workers: int, gate: Gate, report: dict) -> tuple[dict, int]:
    import numpy as np

    from perfbench import serving
    from perfbench.metrics import median, median_percentile, supported_tail
    from perfbench.tracing import Tracer
    from repro.galois.do_all import SerialExecutor, ThreadPoolDoAll

    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
    executor = ThreadPoolDoAll(workers) if workers > 1 else SerialExecutor()
    try:
        inputs = serving.make_inputs(args.seed, workdir / "store")
        engine = serving.set_up(inputs, executor).engine
        tracer = Tracer() if args.trace else None
        started = time.perf_counter()
        layers: dict = {}
        if tracer is None:
            result = serving.run_open(inputs, engine)
        else:
            result, layers = serving.traced_open(inputs, engine, tracer, "open")
        open_tickets = result.tickets
        # Closed-loop passes keep only their wall time, answer digest and
        # unanswered count, so their tickets do not count towards peak RSS.
        passes: list[tuple[bool, float, str, int]] = []
        durations: list[float] = []
        while keep_going(started, passes, args.seconds, durations):
            began = time.perf_counter()
            fresh = serving.new_engine(engine.index)
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                wall, tickets = serving.traced_closed(
                    inputs, fresh, tracer, f"closed{len(passes)}"
                )
            else:
                wall, tickets = serving.run_closed(inputs, fresh)
            passes.append(
                (
                    traced,
                    wall,
                    serving.answers_sha256(inputs.words, tickets),
                    sum(not t.done for t in tickets),
                )
            )
            del fresh, tickets
            durations.append(time.perf_counter() - began)
        # Timed after the load, when the host has left any idle spell
        # (right after idling, set-up runs up to several times slower).
        # Only the timings are kept; each set-up is dropped once timed.
        setups = [
            (s.store_open_s, s.index_build_s)
            for s in (serving.set_up(inputs, executor) for _ in range(serving.SETUP_SAMPLES))
        ]
        rss_mb = peak_rss_mb()

        # -- correctness -------------------------------------------------
        unanswered = sum(not t.done for t in open_tickets) + sum(
            missing for _, _, _, missing in passes
        )
        gate.check("serve.all_answered", unanswered == 0, f"{unanswered} queries unanswered")
        fingerprint = serving.answers_sha256(inputs.words, open_tickets)
        gate.check(
            "serve.answers_repeat",
            all(sha == fingerprint for _, _, sha, _ in passes),
            "closed-loop answers differ from the open loop's",
        )
        mismatches = serving.reference_mismatches(inputs, open_tickets)
        gate.check(
            "serve.matches_exact_index",
            mismatches == 0,
            f"{mismatches} of {serving.REFERENCE_SAMPLE} sampled answers differ from ExactIndex",
        )
        exact = {"answers_sha256": fingerprint}
        check_pinned(gate, args.workload, args.seed, exact)
        report["exact"] = exact

        # -- metrics -----------------------------------------------------
        latency_ms = 1000.0 * result.latency
        stretches = np.array_split(latency_ms, serving.STRETCHES)
        tail = supported_tail(latency_ms)
        plain = [wall for traced, wall, _, _ in passes if not traced]
        n = len(inputs.words)
        human = {
            "serve_p50_ms": (median_percentile(stretches, 50), "ms"),
            "serve_p99_ms": (median_percentile(stretches, 99), "ms"),
            "serve_tail": (f"p{tail.pct:.2f}={tail.value:.3f}", "ms"),
            "serve_samples": (tail.samples, "count"),
            "serve_goodput": (
                float((latency_ms <= serving.LATENCY_LIMIT_MS).mean()), "ratio"
            ),
            "serve_capacity_qps": (median([n / wall for wall in plain]), "1/s"),
            "loadgen_late_ms_max": (1000.0 * result.late_max, "ms"),
        }
        end_to_end = {
            "throughput_per_s": human["serve_capacity_qps"],
            "latency_p50_ms": human["serve_p50_ms"],
            "latency_p99_ms": human["serve_p99_ms"],
            "setup_s": (median([opened + built for opened, built in setups]), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        layers.update(
            {
                "serve.store_open_s": median([opened for opened, _ in setups]),
                "serve.index_build_s": median([built for _, built in setups]),
                "serve.goodput": human["serve_goodput"][0],
                "latency.samples": tail.samples,
                "latency.tail_pct": tail.pct,
                "latency.tail_ms": tail.value,
            }
        )
        if tracer is not None:
            traced_walls = [wall for traced, wall, _, _ in passes if traced]
            layers["trace.overhead_s"] = median(traced_walls) - median(plain)
            # Spans of the open loop, the traced pass the ledger describes.
            layers["trace.spans"] = len(tracer.of_run("open"))
            tracer.write(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}")
        attempted = n * (1 + len(passes))
        return {"human": human, "end_to_end": end_to_end, "layers": layers}, attempted
    finally:
        getattr(executor, "close", lambda: None)()
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m for m in spec["end_to_end"]},
        {m["name"]: m for m in spec["per_layer"]},
    )


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from perfbench import serving, training

    names = sorted(training.WORKLOADS) + [serving.NAME]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workers = max(1, min(WORKERS, os.cpu_count() or 1))
    end_specs, layer_specs = metric_specs()
    gate = Gate()
    report: dict = {"provenance": provenance(args, workers)}
    runner = run_serving if args.workload.startswith("serve") else run_training
    measured, attempted = runner(args, workers, gate, report)
    measured["human"]["peak_rss_mb"] = measured["end_to_end"]["peak_rss_mb"]
    measured["human"]["setup_s"] = measured["end_to_end"]["setup_s"]
    measured["human"]["error_rate"] = (gate.failed / attempted, "ratio")

    if args.trace:
        # A layer a workload does not run through reads 0.
        specs, values = layer_specs, measured["layers"]
    else:
        specs = end_specs
        values = {name: value for name, (value, _unit) in measured["end_to_end"].items()}
    correct = gate.failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": min(gate.failed, attempted),
        "metrics": (
            {
                name: {"value": values.get(name, 0), "unit": spec["unit"]}
                for name, spec in specs.items()
            }
            if correct
            else {}
        ),
    }

    report.update(
        checks=gate.results, check_notes=gate.notes, summary=measured["human"],
        end_to_end=measured["end_to_end"], layers=measured["layers"], result=result,
    )
    out = ROOT / ".perfbench" / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")

    prov = report["provenance"]
    print(
        f"{args.workload} seed={args.seed} sha={prov['git_sha'] or 'n/a'} "
        f"src={prov['source_sha256'][:12]} nproc={prov['nproc']} "
        f"python={prov['python']} numpy={prov['numpy']} workers={workers}"
    )
    for name, (value, unit) in measured["human"].items():
        print(f"  {name:24s} {value} {unit}")
    for name, ok in gate.results.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED ' + gate.notes.get(name, '')}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
