"""gaitkit benchmark: three closed-loop workloads against the public API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload simulate_trot --seed 1 --seconds 38 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced rounds with the same inputs and reports the
per-layer metrics. Stdout ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. The line before it is a
report with provenance, sample counts, the result digest and the figures that
are kept out of the final line. Both are also written to ``perfbench/out/``,
with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from workloads import REF_PROBE_S, WORKLOADS, OpLog, Patches, RoundResult, speed_probe

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# Set-up samples per run: this process plus fresh child processes, each one
# importing numpy and gaitkit cold and building the workload's inputs.
SETUP_SAMPLES = 5

# Tail percentile per workload: the highest multiple of 5 that leaves at
# least ten operations above it at the operation counts a 40 s run holds on
# 2 cores (about 45, 60 and 24 operations). Fixed, so that a faster or slower
# build is compared at the same percentile.
TAIL_PERCENTILE = {"simulate_trot": 75, "map_sweep": 80, "strategy_compare": 55}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one cold set-up and print it")
    return parser.parse_args(argv)


def check_checkout() -> None:
    """Refuse to run anywhere but the root of a gaitkit source checkout."""
    needed = [ROOT / "src" / "gaitkit" / "__init__.py", ROOT / "maps" / "demo-map.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a gaitkit source checkout, missing {missing}",
              file=sys.stderr)
        sys.exit(2)


def setup(workload: str, seed: int, span):
    """Import gaitkit from the checkout and build the workload's inputs.

    Returns the workload, the set-up seconds and a speed probe taken right
    after it. ``workloads`` and ``tracing`` import from this script's own
    directory, which Python puts first on ``sys.path``.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (part of the import cost users pay)

    import gaitkit
    import gaitkit.cli  # noqa: F401

    if Path(gaitkit.__file__).resolve().parent != ROOT / "src" / "gaitkit":
        raise RuntimeError(f"gaitkit imported from {gaitkit.__file__}, not the checkout")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](gaitkit, ROOT, seed, workdir, span)
    elapsed = time.perf_counter() - t0
    return wl, elapsed, statistics.median(speed_probe() for _ in range(3))


def null_span(_name):
    return nullcontext()


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time and speed probe of a fresh process, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    elapsed, probe = proc.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(probe)


def run_checked(wl, oplog, r, log):
    """One round; an exception becomes a reported problem, not a crash.

    Speed probes taken at the operation boundaries inside the round are
    taken out of its work time.
    """
    probes_before = oplog.probe_total_s
    try:
        rr = wl.run_round(r)
    except Exception:  # the run must still report what failed
        trace = traceback.format_exc()
        print(trace, file=sys.stderr)
        log.append(trace.strip().splitlines()[-1])
        return RoundResult(0.0, "", [f"round {r} raised: {log[-1]}"])
    rr.work_s -= oplog.probe_total_s - probes_before
    return rr


def timed_rounds(wl, oplog, seconds: float, tracer=None):
    """Closed loop until the next round would pass the deadline.

    With a tracer, each round is run twice with the same inputs: untraced,
    then traced, so tracing overhead is measured on identical work.
    """
    deadline = time.perf_counter() + seconds
    rounds, traced, errors = [], [], []
    r = 0
    while True:
        t0 = time.perf_counter()
        oplog.round = r
        rounds.append(run_checked(wl, oplog, r, errors))
        if tracer is not None:
            tracer.install(wl.gk)
            oplog.tracer = tracer
            try:
                traced.append(run_checked(wl, oplog, r, errors))
            finally:
                oplog.tracer = None
                tracer.restore()
        r += 1
        now = time.perf_counter()
        if errors or now + (now - t0) > deadline:
            return rounds, traced


def failed_ops(records, rounds, traced=()) -> int:
    """Operations that raised, or belong to a round whose checks failed."""
    bad = {i for group in (rounds, traced) for i, rr in enumerate(group) if rr.problems}
    return sum(1 for rec in records if rec.error or rec.round in bad)


def scaler(normalize: bool):
    """Map (raw seconds, speed probe seconds) to a reported time.

    Normalized times are scaled to the core speed at which speed_probe()
    takes REF_PROBE_S, which cancels the host's speed swings.
    """
    if normalize:
        return lambda t, probe: t * REF_PROBE_S / probe
    return lambda t, _probe: t


def round_walls(rounds, records, normalize: bool, traced: bool = False) -> list[float]:
    """Work seconds of each round, scaled by its operations' mean probe."""
    scale = scaler(normalize)
    walls = []
    for r, rr in enumerate(rounds):
        probes = [rec.probe_s for rec in records if rec.round == r and rec.traced == traced]
        walls.append(scale(rr.work_s, statistics.fmean(probes) if probes else REF_PROBE_S))
    return walls


def timings(workload, records, rounds, setup_samples, normalize: bool):
    scale = scaler(normalize)
    ms = [scale(rec.ms, rec.probe_s) for rec in records]
    tail = statistics.quantiles(ms, n=100, method="inclusive")[TAIL_PERCENTILE[workload] - 1]
    return {
        "setup_s": (statistics.median(scale(s, p) for s, p in setup_samples), "s"),
        "wall_s": (statistics.median(round_walls(rounds, records, normalize)), "s"),
        "realtime_factor": (sum(rec.sim_s for rec in records) / (sum(ms) / 1e3), "s/s"),
        "trial_ms.p50": (statistics.median(ms), "ms"),
        "trial_ms.tail": (tail, "ms"),
    }, sum(1 for m in ms if m > tail)


def end_to_end(workload, records, rounds, setup_samples):
    """End-to-end metrics; times scaled to the reference core speed."""
    metrics, beyond = timings(workload, records, rounds, setup_samples, normalize=True)
    raw, _ = timings(workload, records, rounds, setup_samples, normalize=False)
    falls = sum(rec.fell for rec in records)
    failed = failed_ops(records, rounds)
    metrics.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "survival_ratio": (1.0 - falls / len(records), "ratio"),
        "ops_ok_ratio": (1.0 - failed / len(records), "ratio"),
    })
    extra = {
        "raw_timings": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "fall_ratio": {"value": falls / len(records), "unit": "ratio",
                       "falls": falls, "trials": len(records)},
        "ops_failed_ratio": {"value": failed / len(records), "unit": "ratio",
                             "failed": failed, "attempted": len(records)},
        "samples": {"setup_s": len(setup_samples), "wall_s": len(rounds),
                    "trial_ms": len(records), "realtime_factor": len(records)},
        "trial_ms.tail_percentile": TAIL_PERCENTILE[workload],
        "trial_ms.beyond_tail": beyond,
        "setup_samples": [{"setup_s": s, "probe_s": p} for s, p in setup_samples],
        "probe_s.median": statistics.median(rec.probe_s for rec in records),
        "simulated_s": sum(rec.sim_s for rec in records),
    }
    return metrics, extra


def per_layer(wl, tracer, records, rounds, traced):
    """Per-layer metrics of the traced rounds (see perfbench/README.md)."""
    from tracing import KINEMATICS, SpanStats

    st = SpanStats(tracer)
    ops = [rec for rec in records if rec.traced]
    n_ops = max(len(ops), 1)
    steps = st.calls("simulation.step")
    per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
    us, ms = 1e6, 1e3
    k_names = [f"forces.distribute.k{k}" for k in range(5)]
    it = list(tracer.qp_iterations)
    solved = [i for i, k in enumerate(tracer.qp_k) if k > 0]
    kin = [f"simulation.kin.{fn}" for fn in KINEMATICS]
    run_trial = "simulation.run_trial"
    untraced_s = sum(round_walls(rounds[:len(traced)], records, normalize=True))
    traced_s = sum(round_walls(traced, records, normalize=True, traced=True))
    csv_sizes = getattr(wl, "csv_sizes", [])
    m = {}
    for k in (0, 2, 3):
        m[f"forces.distribute.self_us.k{k}"] = (st.mean_self(k_names[k]) * us, "us")
    for k in range(5):
        m[f"forces.distribute.calls.k{k}"] = (st.calls(k_names[k]) / n_ops, "count/op")
    m["forces.solve_qp.self_us"] = (st.mean_self("forces.solve_qp") * us, "us")
    m["forces.qp_iterations.mean"] = (
        statistics.fmean(it[i] for i in solved) if solved else 0.0, "count")
    m["forces.qp_iterations.max"] = (max((it[i] for i in solved), default=0), "count")
    m["forces.infeasible_ratio"] = (
        sum(1 for i in solved if not tracer.qp_feasible[i]) / len(solved) if solved else 0.0,
        "ratio")
    m["forces.rel_residual.max"] = (
        max((tracer.qp_rel_residual[i] for i in solved), default=0.0), "ratio")
    m["simulation.step.self_us"] = (st.mean_self("simulation.step") * us, "us")
    m["simulation.run_trial.self_share"] = (
        st.self_s(run_trial) / st.dur(run_trial) if st.dur(run_trial) else 0.0, "ratio")
    m["simulation.kinematics.self_us"] = (per_step(st.self_s(*kin)) * us, "us/step")
    logged_steps = sum(rec.steps for rec in ops)  # StrideLog samples
    m["simulation.torque_saturation_per_step"] = (
        sum(rec.torque_flags for rec in ops) / logged_steps if logged_steps else 0.0,
        "count/step")
    m["robot.ik_clamps_per_step"] = (
        sum(rec.ik_clamps for rec in ops) / logged_steps if logged_steps else 0.0, "count/step")
    m["robot.terrain_query.calls_per_step"] = (
        per_step(st.calls_within("robot.terrain_query", run_trial)), "count/step")
    for name in ("robot.terrain_query", "robot.leg_ik", "robot.leg_jacobian",
                 "gaits.leg_contact", "transitions.fsm_advance"):
        m[f"{name}.self_us"] = (st.mean_self(name) * us, "us")
    m["transitions.events"] = (sum(rec.events for rec in ops) / n_ops, "count/op")
    m["transitions.action_windows"] = (
        sum(rec.action_windows for rec in ops) / n_ops, "count/op")
    m["metrics.stride_metrics.self_ms"] = (st.mean_self("metrics.stride_metrics") * ms, "ms")
    m["metrics.strides_scored"] = (st.calls("metrics.stride_metrics") / n_ops, "count/op")
    m["mapping.build_map.self_ms"] = (st.mean_self("mapping.build_map") * ms, "ms")
    m["mapping.save_ms"] = (st.mean_dur("mapping.save") * ms, "ms")
    m["mapping.to_csv_ms"] = (st.mean_dur("mapping.to_csv") * ms, "ms")
    m["mapping.load_ms"] = (st.mean_dur("mapping.load") * ms, "ms")
    selects = st.calls("mapping.select_gait")
    m["mapping.select.calls"] = (selects / n_ops, "count/op")
    m["mapping.select.self_us"] = (
        st.self_s("mapping.select_gait", "mapping.select_gait_hysteretic") / selects * us
        if selects else 0.0, "us")
    m["strategy.run_strategy.self_ms"] = (st.mean_self("strategy.run_strategy") * ms, "ms")
    m["strategy.trial_outcome.self_ms"] = (st.mean_self("strategy.trial_outcome") * ms, "ms")
    m["strategy.valueerror_falls"] = (
        sum(1 for rec in ops if rec.error and rec.error.startswith("ValueError")), "count")
    m["io.stride_logs_to_csv.ms"] = (st.mean_dur("io.stride_logs_to_csv") * ms, "ms")
    m["io.csv_bytes"] = (statistics.fmean(csv_sizes) if csv_sizes else 0.0, "B")
    m["io.write_json.ms"] = (st.mean_dur("io.write_json") * ms, "ms")
    m["cli.overhead_ms"] = (st.mean_self("cli.main") * ms, "ms")
    m["trace.overhead"] = (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "ratio")

    per_k = {}
    for k in range(5):
        idx = [i for i, kk in enumerate(tracer.qp_k) if kk == k]
        if idx:
            per_k[f"k{k}"] = {
                "calls": len(idx),
                "iterations_mean": statistics.fmean(it[i] for i in idx),
                "iterations_max": max(it[i] for i in idx),
                "infeasible": sum(1 for i in idx if not tracer.qp_feasible[i]),
                "rel_residual_max": max(tracer.qp_rel_residual[i] for i in idx),
            }
    extra = {
        "base": {"traced_ops": len(ops), "traced_rounds": len(traced), "steps": steps,
                 "logged_steps": logged_steps,
                 "qp_solves": len(solved), "spans": len(tracer.name),
                 "untraced_s": untraced_s, "traced_s": traced_s},
        "forces_by_stance_count": per_k,
    }
    return m, extra


def provenance(args) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "commit": commit,
        "noise_note": "shared 2-core Xeon host: one 8 s-simulated trot trial took "
                      "3.08-3.76 s wall over 4 repeats, CPU time equal to wall time",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()

    if args.setup_probe:
        wl, elapsed, probe = setup(args.workload, args.seed, null_span)
        shutil.rmtree(wl.workdir, ignore_errors=True)
        print(repr(elapsed), repr(probe))
        return 0

    tracer = None
    span = null_span
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        span = tracer.span
        tracer.active = True  # keeps set-up spans such as the demo-map load
    wl, own_setup, own_probe = setup(args.workload, args.seed, span)
    if tracer is not None:
        tracer.active = False
    try:
        setup_samples = [(own_setup, own_probe)]
        if not args.trace:
            setup_samples += [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES - 1)]
        oplog = OpLog()
        patches = Patches()
        wl.install(oplog, patches.patch)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            rounds, traced = timed_rounds(wl, oplog, args.seconds, tracer)
        finally:
            patches.restore()
        cpu_s, run_s = time.process_time() - cpu0, time.perf_counter() - t0
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)

    records = oplog.records
    if not records:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    problems = [p for rr in rounds + traced for p in rr.problems]
    problems += [f"traced round {i} digest differs from its untraced run"
                 for i, (a, b) in enumerate(zip(rounds, traced)) if a.digest != b.digest]
    if tracer is None:
        metrics, extra = end_to_end(args.workload, records, rounds, setup_samples)
    else:
        metrics, extra = per_layer(wl, tracer, records, rounds, traced)
    failed = failed_ops(records, rounds, traced)
    correct = not problems and failed == 0
    report = {
        "provenance": provenance(args),
        "digest": rounds[0].digest,
        "round_digests": [rr.digest for rr in rounds],
        "rounds": len(rounds), "run_s": run_s, "cpu_s": cpu_s,
        "problems": problems[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    result = {
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": report["metrics"],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**report, "result": result}, indent=1))
    if tracer is not None:
        tracer.save(OUT / f"spans-{args.workload}.npz")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
