"""Command line of the benchmark: run one workload, self-test, write the spec.

    python3 benchmark/run.py --workload det_step --seed 1 --seconds 20 --trace 0

Every workload is a closed loop: one caller in this process sends the next
step only after the previous one returned. Inputs come from ``--seed`` and are
built outside the timed region; outputs are checked outside it too. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from . import program, spec
from .reference import NOMINAL_S, Reference

SETUP_REPEATS = 7
GC_EVERY_S = 0.25
WALL_CAP_S = 120.0  # stop measuring past this, so a run always ends in time
SPAN_CAP = 200_000  # spans a traced run keeps in memory (about 50 bytes each)


def _workloads() -> dict:
    from . import det_step, eval_10k, oracle_verify, rec_step

    return {m.Workload.name: m.Workload for m in (eval_10k, det_step, rec_step, oracle_verify)}


def _p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def import_seconds(ref: Reference) -> float:
    """Median time to import lpcore in a fresh interpreter.

    numpy is imported first, untimed: its import is most of the total, is
    not lpcore's, and swings with the host's file and syscall latency.
    """
    code = (
        "import sys, time\n"
        "import numpy\n"
        f"sys.path.insert(0, {str(program.SRC)!r})\n"
        "t = time.perf_counter()\n"
        "import lpcore\n"
        "print(time.perf_counter() - t)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        ref.sample()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, check=True, cwd=program.ROOT)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def setup_seconds(wl, ref: Reference):
    """(median seconds to build the workload's program objects, objects)."""
    times = []
    objects = None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        ref.sample()
        start = time.perf_counter()
        objects = wl.setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times), objects


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)

    def check(self, wl, objects, inp, out, counters=None) -> None:
        counters = self.counters if counters is None else counters
        attempted, failed, problems = wl.check(objects, inp, out, counters)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems[: max(0, 10 - len(self.problems))]


class GcPacer:
    """Collects garbage between steps, at most every GC_EVERY_S of wall time.

    A full collection before a step keeps the harness's own garbage from
    being collected inside it; spacing them out keeps short steps cheap.
    """

    def __init__(self):
        self.last = -math.inf

    def __call__(self) -> None:
        if time.perf_counter() - self.last >= GC_EVERY_S:
            gc.collect()
            self.last = time.perf_counter()


def measure(wl, objects, seconds: float, tally: Tally,
            ref: Reference) -> tuple[list[float], int]:
    """Closed loop until the steps' own time reaches ``seconds``.

    Returns per-step latencies and the items processed. The first step warms
    caches and is checked but not timed. In the gaps before steps the
    reference kernel runs for about a twentieth of the step time.
    """
    inp = wl.step_input(0)
    tally.check(wl, objects, inp, wl.run(objects, inp))
    collect = GcPacer()
    latencies: list[float] = []
    items = 0
    busy = 0.0
    wall_start = time.perf_counter()
    index = 1
    while busy < seconds and time.perf_counter() - wall_start < WALL_CAP_S:
        inp = wl.step_input(index)
        collect()
        ref.sample(latencies[-1] if latencies else None)
        start = time.perf_counter()
        out = wl.run(objects, inp)
        latencies.append(time.perf_counter() - start)
        busy += latencies[-1]
        items += wl.items(inp, out)
        tally.check(wl, objects, inp, out)
        index += 1
    return latencies, items


def _timed_slice(wl, objects, steps: int, tracer=None) -> tuple[list[float], list]:
    """Run steps 1..steps; returns their latencies and (input, output) pairs."""
    collect = GcPacer()
    done = []
    latencies = []
    for index in range(1, steps + 1):
        inp = wl.step_input(index)
        collect()
        if tracer is not None:
            tracer.step = index
        start = time.perf_counter()
        out = wl.run(objects, inp)
        latencies.append(time.perf_counter() - start)
        done.append((inp, out))
    return latencies, done


def run_traced(wl, objects, seconds: float, tally: Tally, trace_path) -> dict[str, float]:
    """Per-layer metrics from rounds of the same steps, untraced then traced.

    Each round runs steps 1..trace_steps untraced, then again traced, until
    the rounds' step time reaches ``seconds`` or the spans kept in memory
    reach SPAN_CAP. Every round sees the same inputs, so per-step counts
    repeat exactly whatever the number of rounds.
    """
    from . import layers, tracing

    inp = wl.step_input(0)
    tally.check(wl, objects, inp, wl.run(objects, inp))
    tracer = tracing.Tracer()
    check_counters: dict[str, float] = defaultdict(float)
    untraced: list[float] = []
    traced: list[float] = []
    busy = 0.0
    wall_start = time.perf_counter()
    while not traced or (busy < seconds and tracer.span_count() < SPAN_CAP
                         and time.perf_counter() - wall_start < WALL_CAP_S):
        plain, done = _timed_slice(wl, objects, wl.trace_steps)
        for inp, out in done:
            tally.check(wl, objects, inp, out)
        del done
        layers.patch_lpcore(tracer, getattr(wl, "file_sizes", {}))
        try:
            if not traced:
                tracer.step = -1
                objects = wl.setup()
            spans, done = _timed_slice(wl, objects, wl.trace_steps, tracer)
        finally:
            tracer.restore()
        for inp, out in done:
            tally.check(wl, objects, inp, out, check_counters)
        del done
        untraced += plain
        traced += spans
        busy += sum(plain) + sum(spans)

    steps = len(traced)
    spans = tracer.spans()
    self_s = tracing.self_times(spans)
    tracing.write_trace(trace_path, tracer, spans, {
        "workload": wl.name, "steps_per_round": wl.trace_steps, "rounds": steps // wl.trace_steps,
        "untraced_step_s": untraced, "traced_step_s": traced,
    })
    counters = tracer.counters()
    for key, value in check_counters.items():
        counters[key] = counters.get(key, 0.0) + value
    # paired per step, so the ratio does not depend on which steps were slow
    overhead = statistics.median(t / u for t, u in zip(traced, untraced))
    return layers.values(tracer.names, spans, self_s, counters, steps, overhead)


def run_workload(args) -> int:
    from . import layers

    classes = _workloads()
    if args.workload not in classes:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(classes)}",
              file=sys.stderr)
        return 2
    os.environ.pop("LPCORE_THREADS", None)  # the users' default thread count
    env = program.environment()
    workdir = program.WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        gen_start = time.perf_counter()
        wl = classes[args.workload](args.seed, workdir)
        gen_s = time.perf_counter() - gen_start
        if args.trace:
            objects = wl.setup()
            trace_path = program.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            values = run_traced(wl, objects, args.seconds, tally, trace_path)
            units = {m.name: m.unit for m in layers.PER_LAYER}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
            summary = {"steps_per_round": wl.trace_steps, "trace_file": str(trace_path)}
        else:
            setup_ref, step_ref = Reference(), Reference()
            import_s = import_seconds(setup_ref)
            objects_s, objects = setup_seconds(wl, setup_ref)
            latencies, items = measure(wl, objects, args.seconds, tally, step_ref)
            busy = sum(latencies)
            wall = {
                "items_per_s": items / busy,
                "step_p50_ms": statistics.median(latencies) * 1e3,
                "step_p90_ms": _p90(latencies) * 1e3,
                "setup_s": import_s + objects_s,
            }
            # timing metrics corrected towards the nominal host speed (see reference.py)
            values = {
                "items_per_s": wall["items_per_s"] / step_ref.scale(),
                "step_p50_ms": wall["step_p50_ms"] * step_ref.scale(),
                "step_p90_ms": wall["step_p90_ms"] * step_ref.scale(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": wall["setup_s"] * setup_ref.scale(),
            }
            units = {m["name"]: m["unit"] for m in spec.END_TO_END}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
            summary = {"steps": len(latencies), "items": items, "import_s": import_s,
                       "objects_s": objects_s, "wall": wall,
                       "reference_ms": {"setup": setup_ref.median_s() * 1e3,
                                        "steps": step_ref.median_s() * 1e3,
                                        "samples": len(step_ref.times),
                                        "nominal": NOMINAL_S * 1e3}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps({"workload": wl.name, "seed": args.seed,
                                  "generate_s": gen_s, **wl.properties()}, ensure_ascii=False))
    print("run " + json.dumps(summary))
    for name, m in metrics.items():
        alias = wl.e2e_names.get(name) if not args.trace else None
        label = f"{name} ({alias})" if alias else name
        print(f"{label} = {m['value']:.6g} {m['unit']}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_ratio = {ratio:.6g} ({tally.failed}/{tally.attempted} {wl.item})")
    for problem in tally.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def selftest() -> int:
    """Checks catch a corrupted expected value; coverage and spec are whole."""
    from . import layers, tracing

    ok = True

    def report(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}{': ' + detail if detail else ''}")

    units = {m.name: m.unit for m in layers.PER_LAYER}
    for kernel, metric in layers.COVERAGE.items():
        report(f"coverage {kernel}", units.get(metric, "").endswith("_computed"), metric)
    spec_path = program.ROOT / "BENCHMARK.json"
    report("BENCHMARK.json matches the spec",
           spec_path.is_file() and spec_path.read_text(encoding="utf-8") == spec.render())

    sizes = {"eval_10k": {"n_images": 200}}
    probes = {"oracle_verify": [0], "eval_10k": [0], "det_step": [0], "rec_step": [0]}
    workdir = program.WORK_DIR / f"selftest-{os.getpid()}"
    computed = defaultdict(float)
    try:
        for name, cls in _workloads().items():
            wl = cls(7, workdir / name, **sizes.get(name, {}))
            objects = wl.setup()
            for index in probes[name]:
                inp = wl.step_input(index)
                tracer = tracing.Tracer()
                layers.patch_lpcore(tracer, getattr(wl, "file_sizes", {}))
                try:
                    out = wl.run(objects, inp)
                finally:
                    tracer.restore()
                for key, value in tracer.counters().items():
                    computed[key] += value
                _, failed, problems = wl.check(objects, inp, out, defaultdict(float))
                report(f"{name} step {index} passes its checks", failed == 0, "; ".join(problems))
                attempted, failed, _ = wl.check(objects, wl.corrupt(inp), out, defaultdict(float))
                # an oracle_verify round corrupts every check, one of each kind at least
                want = attempted if name == "oracle_verify" else 1
                report(f"{name} step {index} with a corrupted expected value fails", failed >= want,
                       f"{failed}/{attempted} failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    by_metric = {m.name: m.source[0] for m in layers.PER_LAYER if m.kind == "counter"}
    for kernel, metric in layers.COVERAGE.items():
        report(f"traced run counts {kernel}", computed.get(by_metric[metric], 0.0) > 0, metric)
    print("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmark/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that the checks catch corrupted expectations, then exit")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the in-code spec, then exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_spec:
        (program.ROOT / "BENCHMARK.json").write_text(spec.render(), encoding="utf-8")
        return 0
    try:
        program.load_lpcore()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)
