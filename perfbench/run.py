"""Benchmark of the cyclic-cdc command-line tool.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout.  One driver process runs one CLI child at a
time (closed loop, one client, default ``--threads 1``).  Every step's output
is checked against exact expected values.

--trace 0 runs the workload's step sequence again and again for about S
seconds (at least twice), with set-up probes before each pass, and reports
the end-to-end metrics of BENCHMARK.json.
--trace 1 runs the sequence once untraced and once traced, with spans
recorded around the calls into each layer, adds timed single calls into each
layer, and reports the per-layer metrics.  ``--workload all`` does both for
every workload.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Spans of a traced run are written to
.bench_build/perfbench/trace-WORKLOAD-seedN.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS, merge, self_counts, self_times
from workloads import TAIL_PERCENTILE, WORKLOADS, Step

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# set-up probes run before each pass, so that they sample the whole run
SETUP_PROBES_PER_PASS = 3
MIN_PASSES = 2
STARTUP_PROBES = 5
# children still running this long after a workload run started are stopped,
# so that a run ends within 180 s
RUN_DEADLINE_S = 170.0

VERIFY_TAGS = ("odd_2_2_10", "even_2_2_8", "even_2_3_12", "sub_3_2_8")
CONSTRUCT_TAGS = ("odd_2_2_10", "even_2_2_8", "even_2_3_12", "odd_3_3_15", "even_3_2_8")
SIDON_TAGS = ("odd_2_2_10", "even_2_2_8", "even_2_3_12", "odd_3_3_15")
COMMANDS = ("construct", "verify", "sidon-check", "poly", "simulate", "table")


class BenchError(Exception):
    """The benchmark itself cannot run (not a failure of a measured step)."""


@dataclass
class Child:
    code: int
    wall_s: float
    start_ns: int
    end_ns: int
    maxrss_mb: float


@dataclass
class StepResult:
    step: Step
    child: Child
    result: dict | None
    digest: str | None
    problems: list[str]

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def incorrect(self) -> bool:
        """Failed other than by the step's known defect."""
        return self.failed and self.child.code != self.step.known_defect_exit


@dataclass
class Pass:
    wall_s: float = 0.0
    steps: list[StepResult] = field(default_factory=list)
    # traced passes only: all spans, and the index of each step's own span
    spans: list[list] = field(default_factory=list)
    step_spans: list[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(r.child.code >= 0 for r in self.steps)


class Runner:
    """Starts the children of one workload run, one at a time, in its own
    work directory, and stops each at the run's deadline."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.workdir = OUT_DIR / f"work-{workload}-seed{seed}-{os.getpid()}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.pop("CYCLIC_CDC_THREADS", None)  # the CLI default, one thread
        self.env = env

    def __enter__(self) -> Runner:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def child(self, argv: list[str], log: str) -> Child:
        """Run one child to its end; its exit code is negative when it was
        stopped by a signal, including at the deadline."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Child(-9, 0.0, 0, 0, 0.0)
        with open(self.workdir / log, "wb") as fh:
            start = time.monotonic_ns()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, (end - start) / 1e9, start, end, usage.ru_maxrss / 1024)

    def log_tail(self, log: str, lines: int = 5) -> str:
        try:
            return "\n".join((self.workdir / log).read_text().splitlines()[-lines:])
        except OSError:
            return ""

    def prepare(self) -> dict:
        argv = [str(HERE / "probe.py"), "prepare", self.workload, str(self.seed),
                str(self.workdir)]
        c = self.child(argv, "prepare.log")
        if c.code != 0:
            raise BenchError(f"preparing inputs failed (exit {c.code}):\n"
                             + self.log_tail("prepare.log"))
        lines = (self.workdir / "prepare.log").read_text().splitlines()
        return json.loads(lines[-1])

    def probe_wall(self, argv: list[str], log: str) -> float:
        c = self.child(argv, log)
        if c.code != 0:
            raise BenchError(f"{' '.join(argv)} failed (exit {c.code}):\n" + self.log_tail(log))
        return c.wall_s

    def run_step(self, i: int, step: Step, spans_out: Path | None) -> StepResult:
        out = self.workdir / step.out
        for stale in (out, Path(f"{out}.manifest.json")):
            stale.unlink(missing_ok=True)
        args = [a.replace("{dir}", str(self.workdir)) for a in step.args]
        cli = [step.command, *args, "--out", str(out)]
        if spans_out is None:
            argv = ["-m", "cyclic_cdc.cli", *cli]
        else:
            argv = [str(HERE / "traced_cli.py"), str(spans_out), "--", *cli]
        log = f"step{i:02d}.{step.command}.{step.tag}.log"
        c = self.child(argv, log)
        result = digest = None
        problems = []
        if c.code != 0:
            problems.append(f"exit {c.code}")
        try:
            result = json.loads(out.read_text())
            digest = json.loads(Path(f"{out}.manifest.json").read_text())["result_digest"]
        except (OSError, ValueError, KeyError):
            if c.code == 0:
                problems.append("no result file")
        if result is not None:
            problems += step.check(result)
        if problems:
            print(f"# step {step.command} {step.tag}: " + "; ".join(problems)
                  + ("\n" + self.log_tail(log) if c.code != 0 else ""), file=sys.stderr)
        return StepResult(step, c, result, digest, problems)

    def run_pass(self, steps: list[Step], traced: bool = False) -> Pass:
        """All steps in order.  A traced pass records a span per step, with
        the child's spans merged under it."""
        p = Pass()
        t0 = time.monotonic()
        for i, step in enumerate(steps):
            spans_out = self.workdir / f"spans{i:02d}.json" if traced else None
            r = self.run_step(i, step, spans_out)
            p.steps.append(r)
            if traced:
                idx = len(p.spans)
                p.step_spans.append(idx)
                p.spans.append([f"cli.{step.command}", "cli", r.child.start_ns,
                                r.child.end_ns, None, {}])
                try:
                    merge(p.spans, json.loads(spans_out.read_text()), idx)
                except (OSError, ValueError):
                    pass  # the child died before writing its spans
            if r.child.code < 0:
                break  # stopped at the deadline: the run ends here
        p.wall_s = time.monotonic() - t0
        return p


# -- statistics ------------------------------------------------------------------

def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def describe(values: list[float]) -> str:
    samples = " ".join(f"{v:.4g}" for v in values)
    if len(values) < 2:
        return f"n={len(values)} [{samples}]"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} [{samples}]"


# -- untraced run: end-to-end metrics ----------------------------------------------

def run_untraced(runner: Runner, steps: list[Step], seconds: float) -> tuple[dict, list[Pass]]:
    """Passes (with set-up probes before each) until the next one would end
    after ``seconds``, but at least MIN_PASSES of them."""
    wl = runner.workload
    probe = [str(HERE / "probe.py"), "setup", wl, str(runner.workdir)]
    setup: list[float] = []
    passes: list[Pass] = []
    t0 = time.monotonic()
    while True:
        setup += [runner.probe_wall(probe, f"setup{len(setup)}.log")
                  for _ in range(SETUP_PROBES_PER_PASS)]
        p = runner.run_pass(steps)
        passes.append(p)
        elapsed = time.monotonic() - t0
        if not p.complete or (len(passes) >= MIN_PASSES
                              and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    walls = [p.wall_s for p in passes]
    rss = [r.child.maxrss_mb for p in passes for r in p.steps]
    print(f"# {wl}: setup_s {describe(setup)}; pass wall {describe(walls)}")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss),
    }
    return metrics, passes


# -- traced run: per-layer metrics -------------------------------------------------

def layer_metrics(untraced: Pass, traced: Pass, micro: dict, startup: list[float]) -> dict:
    spans = traced.spans
    own = self_times(spans)
    own_counts = self_counts(spans)
    # (step, indices of its spans) for each traced step
    ranges = [(r.step, range(start, end)) for r, start, end
              in zip(traced.steps, traced.step_spans, traced.step_spans[1:] + [len(spans)])]

    def dur(i: int) -> float:
        return (spans[i][3] - spans[i][2]) / 1e9

    def named(name: str, command: str | None = None, tag: str | None = None) -> list[int]:
        return [i for step, rng in ranges
                if (command is None or step.command == command) and (tag is None or step.tag == tag)
                for i in rng if spans[i][0] == name]

    def count(name: str, idx: list[int] | range = range(len(spans))) -> int:
        """Calls of a counted function made directly inside the spans."""
        return sum(own_counts[i].get(name, 0) for i in idx)

    m = dict(micro)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[i] for i in range(len(spans)) if spans[i][1] == layer) / 1e9
    m["build_tower_s"] = sum(map(dur, named("field_tower.build_tower")))

    for tag in VERIFY_TAGS:
        idx = named("orbit_codes.verify_code", "verify", tag)
        secs = sum(map(dur, idx))
        calls = count("rank_rows", idx)
        m[f"verify_code_s.{tag}"] = secs
        m[f"rank_calls.{tag}"] = calls
        m[f"scan_rate.{tag}"] = calls / secs if secs else 0.0
    m["table_s"] = sum(dur(i) for i in named("orbit_codes.compare_sizes", "table")
                       + named("orbit_codes.johnson_bound", "table"))

    for tag in CONSTRUCT_TAGS:
        m[f"construct_s.{tag}"] = sum(map(dur, named("sidon_constructions.make_subspace",
                                                       "construct", tag)))
    for tag in SIDON_TAGS:
        idx = named("sidon_constructions.is_sidon", "sidon-check", tag)
        m[f"is_sidon_ms.{tag}"] = statistics.mean(map(dur, idx)) * 1e3 if idx else 0.0
    m["is_sidon_calls"] = len(named("sidon_constructions.is_sidon"))

    m["criteria_s"] = sum(map(dur, named("linearized_poly.check_union_distance_criteria")))
    m["criteria_gf2_s"] = sum(map(dur, named("linearized_poly.check_union_distance_criteria_gf2")))
    m["distance_s"] = sum(map(dur, named("linearized_poly.poly_code_distance")))
    m["rank_matrices"] = count("field_matrix_rank")
    m["gcd_calls"] = count("dense_gcd")
    # one criteria scan needs alphas_checked x e^2 rank matrices
    needed = sum(r.result["criteria"]["alphas_checked"] * r.result["e"] ** 2
                 for r in traced.steps if r.step.command == "poly" and r.result)
    m["rank_matrices.useful_ratio"] = needed / m["rank_matrices"] if m["rank_matrices"] else 0.0

    m["materialize_s"] = sum(map(dur, named("channel_sim.materialize_codebook")))
    transmit = [dur(i) * 1e6 for i in named("channel_sim.transmit")]
    decode = [dur(i) * 1e3 for i in named("channel_sim.md_decode")]
    tail = f"p{TAIL_PERCENTILE}"
    m["transmit_us.p50"] = percentile(transmit, 50)
    m[f"transmit_us.{tail}"] = percentile(transmit, TAIL_PERCENTILE)
    m["md_decode_ms.p50"] = percentile(decode, 50)
    m[f"md_decode_ms.{tail}"] = percentile(decode, TAIL_PERCENTILE)
    sims = [r for r in untraced.steps if r.step.command == "simulate" and r.result]
    sim_wall = sum(r.child.wall_s for r in sims)
    m["trials_per_s"] = sum(r.result["trials"] for r in sims) / sim_wall if sim_wall else 0.0

    m["startup_s"] = statistics.median(startup)
    for command in COMMANDS:
        m[f"cli.{command.replace('-', '_')}_s"] = sum(map(dur, named(f"cli.{command}")))
    m["digest_unstable_steps"] = sum(
        1 for a, b in zip(untraced.steps, traced.steps)
        if a.digest is not None and b.digest is not None and a.digest != b.digest)
    m["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return m


def write_spans(path: Path, spans: list[list], workload_id: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([
        {"name": n, "layer": layer, "start_ns": s, "end_ns": e, "parent": up,
         "workload": workload_id, "counts": counts}
        for n, layer, s, e, up, counts in spans]))


def run_traced(runner: Runner, steps: list[Step]) -> tuple[dict, list[Pass]]:
    wl, seed = runner.workload, runner.seed
    untraced = runner.run_pass(steps)
    traced = runner.run_pass(steps, traced=True)
    write_spans(OUT_DIR / f"trace-{wl}-seed{seed}.json", traced.spans, f"{wl}/seed={seed}")

    micro_log = "micro.log"
    runner.probe_wall([str(HERE / "probe.py"), "micro", str(seed)], micro_log)
    micro = json.loads((runner.workdir / micro_log).read_text().splitlines()[-1])
    startup = [runner.probe_wall(["-m", "cyclic_cdc.cli", "--help"], f"startup{i}.log")
               for i in range(STARTUP_PROBES)]
    metrics = layer_metrics(untraced, traced, micro, startup)
    print(f"# {wl}: untraced {untraced.wall_s:.3f} s, traced {traced.wall_s:.3f} s, "
          f"{len(traced.spans)} spans")
    return metrics, [untraced, traced]


# -- driver ---------------------------------------------------------------------------

def declared_metrics() -> dict[str, dict[str, str]]:
    """Section name -> {metric name: unit} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {sec: {m["name"]: m["unit"] for m in spec[sec]} for sec in ("end_to_end", "per_layer")}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with Runner(workload, seed, time.monotonic() + RUN_DEADLINE_S) as runner:
        plan = runner.prepare()
        steps = WORKLOADS[workload](plan)
        if trace:
            metrics, passes = run_traced(runner, steps)
        else:
            metrics, passes = run_untraced(runner, steps, seconds)
    results = [r for p in passes for r in p.steps]
    attempted = len(results)
    failed = sum(r.failed for r in results)
    if trace:
        metrics["fail_ratio"] = failed / attempted
    section = "per_layer" if trace else "end_to_end"
    units = declared_metrics()[section]
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json {section}: "
                         f"{sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        print(f"{workload:12} {name:34} {metrics[name]:>16.6g} {unit}")
    return {
        "correct": not any(r.incorrect for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cyclic_cdc" / "cli.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'cyclic_cdc'}; "
              "run from the root of a cyclic-cdc checkout", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            runs = [(wl, trace, run_workload(wl, args.seed, args.seconds, trace))
                    for wl in WORKLOADS for trace in (False, True)]
            out = {
                "correct": all(r["correct"] for _, _, r in runs),
                "attempted": sum(r["attempted"] for _, _, r in runs),
                "failed": sum(r["failed"] for _, _, r in runs),
                "metrics": {f"{wl}.{name}": val for wl, _, r in runs
                            for name, val in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
