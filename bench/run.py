"""thinsieve benchmark: whole CLI workloads, timed in fresh child processes.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ball_sieve --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --self-test

A run is a closed loop with one client: it starts one child at a time
(``child.py``), each running every step of the workload through
``thinsieve.cli.main``, until the next child would end past ``--seconds``.
Children pay the cold caches a CLI user pays.  After each child, outside the
timed region, the correctness gate (``gate.py``) checks its artifacts.

``--trace 0`` reports the end-to-end metrics (medians over children);
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics from the traced ones.  Human-readable lines come first; the
last line of standard output is one JSON object.

The VM's speed drifts by 20% and more within minutes, so ``wall_s`` and
``setup_s`` are taken against references measured next to them
(``speed.py``): ``wall_s`` at the speed of a kernel sampled while the steps
run, ``setup_s`` as the time a spawn importing ``thinsieve.cli`` takes beyond
one importing only numpy, timed in turn with it.  The raw times are printed
next to them as ``raw_wall_s`` and ``raw_setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import speed
from layers import PER_LAYER, SUBCOMMANDS, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, Step, steps

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PAIRS = 2  # (thinsieve.cli, numpy) import-only spawn pairs before the first child and after each
HARD_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


# ---------------------------------------------------------------------------
# children


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _time_left(begin: float) -> float:
    return HARD_LIMIT_S - (time.monotonic() - begin)


def spawn_import(module: str, begin: float) -> float:
    """Seconds from spawning an interpreter to ``import <module>`` returning."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", f"import {module}, time; print(repr(time.monotonic()))"],
        env=_env(), cwd=WORK, capture_output=True, text=True, check=True,
        timeout=max(5.0, _time_left(begin)))
    return float(out.stdout) - t0


def setup_pairs(begin: float) -> list[tuple[float, float]]:
    """SETUP_PAIRS of (``import thinsieve.cli`` spawn, ``import numpy`` spawn)
    times, spawned in the order cli, numpy, numpy, cli, ..."""
    pairs = []
    for i in range(SETUP_PAIRS):
        if i % 2 == 0:
            pairs.append((spawn_import("thinsieve.cli", begin), spawn_import("numpy", begin)))
        else:
            numpy_s = spawn_import("numpy", begin)
            pairs.append((spawn_import("thinsieve.cli", begin), numpy_s))
    return pairs


def run_child(directory: Path, plan: list[Step], trace: bool, begin: float) -> dict:
    """Run every step in one fresh child and return its result, or ``died`` if it crashed."""
    directory.mkdir(parents=True)
    spec, result = directory / "spec.json", directory / "result.json"
    spec.write_text(json.dumps({"steps": [s.argv for s in plan], "trace": trace}))
    t0 = time.monotonic()
    with open(directory / "child.err", "w") as err:
        try:
            code = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(spec), str(result)],
                env=_env(), cwd=directory, stdout=subprocess.DEVNULL, stderr=err,
                timeout=max(5.0, _time_left(begin))).returncode
        except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
            code = None
    elapsed = time.monotonic() - t0
    if code != 0 or not result.is_file():
        return {"died": True, "elapsed": elapsed, "trace": trace}
    out = json.loads(result.read_text())
    out.update(died=False, elapsed=elapsed, trace=trace)
    return out


class Gate:
    """Gate verdicts per (step, artifact digest), so equal artifacts are checked once."""

    def __init__(self, workload: str, seed: int, plan: list[Step]):
        import thinsieve  # from SRC, which main() puts on sys.path

        self.lib = thinsieve
        self.workload, self.seed, self.plan = workload, seed, plan
        self.reference = json.loads(gate.REFERENCE.read_text())
        self.verdicts: dict[tuple[int, str], list[str]] = {}

    def failures(self, child: dict, directory: Path) -> list[str]:
        """One line per failed step of a child: nonzero exit, traceback or bad artifact."""
        if child["died"]:
            return [f"child died: {s.command}" for s in self.plan]
        out = []
        for i, (step, run) in enumerate(zip(self.plan, child["steps"])):
            problems = []
            if run["code"] != 0:
                problems.append(f"exit {run['code']}")
            if run["traceback"]:
                problems.append("traceback")
            path = directory / step.artifact
            if not problems:
                key = (i, gate.sha256(path) if path.is_file() else "")
                if key not in self.verdicts:
                    self.verdicts[key] = gate.check_step(
                        self.workload, self.seed, step, path, self.reference, self.lib)
                problems = self.verdicts[key]
            if problems:
                out.append(f"{step.command} ({step.artifact}): {'; '.join(problems)}")
        return out


# ---------------------------------------------------------------------------
# metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def speed_factors(child: dict) -> list[float]:
    """Per step, the factor that scales its seconds to the reference speed, from
    the probe samples taken during it (a step too short for one: all of the child's)."""
    every = [x for s in child["steps"] for x in s["speed"]] or [speed.REF_S]
    return [speed.at_ref(1.0, s["speed"] or every) for s in child["steps"]]


def wall_at_ref(child: dict) -> float:
    return sum(s["wall_s"] * f for s, f in zip(child["steps"], speed_factors(child)))


def step_walls(children: list[dict], plan: list[Step]) -> dict[str, float]:
    """cli.<subcommand>.wall_s: median over children of the subcommand's steps
    at the reference speed."""
    out = {f"cli.{c}.wall_s": 0.0 for c in SUBCOMMANDS}
    for c in {s.command for s in plan}:
        per_child = [sum(r["wall_s"] * f for s, r, f in zip(plan, ch["steps"], speed_factors(ch))
                         if s.command == c)
                     for ch in children]
        out[f"cli.{c}.wall_s"] = statistics.median(per_child)
    return out


# ---------------------------------------------------------------------------
# a run


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    begin = time.monotonic()
    plan = steps(workload, seed)
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checker = Gate(workload, seed, plan)
    # setup_s is only reported by untraced runs; --seconds bounds the time
    # spent in children and spawns, the gate runs outside it.
    t0 = time.monotonic()
    pairs = [] if trace else setup_pairs(begin)
    spent = time.monotonic() - t0
    children, failures, artifact_bytes = [], [], 0
    while True:
        traced = trace and len(children) % 2 == 1
        directory = work / f"child{len(children)}"
        child = run_child(directory, plan, traced, begin)
        failures += checker.failures(child, directory)
        artifact_bytes = sum((directory / s.artifact).stat().st_size
                             for s in plan if (directory / s.artifact).is_file())
        children.append(child)
        if child["died"]:
            break
        shutil.rmtree(directory)
        t0 = time.monotonic()
        if not trace:
            pairs += setup_pairs(begin)
        spent += child["elapsed"] + time.monotonic() - t0
        need_more = trace and len(children) < 2
        if not need_more and (spent + child["elapsed"] > seconds
                              or 2 * child["elapsed"] > _time_left(begin)):
            break

    plain = [c for c in children if not c["died"] and not c["trace"]]
    traced = [c for c in children if not c["died"] and c["trace"]]
    attempted = len(children) * len(plan)
    e2e = {}
    if plain:
        e2e = {
            "wall_s": [wall_at_ref(c) for c in plain],
            "raw_wall_s": [c["wall_s"] for c in plain],
            "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        }
    if pairs:
        e2e.update(setup_s=[speed.setup_at_ref(cli, numpy_s) for cli, numpy_s in pairs],
                   raw_setup_s=[cli for cli, _ in pairs],
                   numpy_spawn_s=[numpy_s for _, numpy_s in pairs])
    print(f"workload {workload} seed {seed}: {len(children)} children "
          f"({len(traced)} traced), {attempted} steps, {len(pairs)} import-only spawn pairs")
    for name, unit in [*END_TO_END, ("raw_wall_s", "s"), ("raw_setup_s", "s"),
                       ("numpy_spawn_s", "s")]:
        if name in e2e:
            q1, q2, q3 = quartiles(e2e[name])
            print(f"  {name:<12} {q2:12.6g} {unit:<5} median of {len(e2e[name])}, "
                  f"quartiles {q1:.6g} .. {q3:.6g}")
    print(f"  {'error_rate':<12} {len(failures) / attempted:12.6g} ratio {len(failures)} "
          f"failed of {attempted} steps")
    for line in failures:
        print(f"  FAILED {line}")

    metrics = {}
    if trace and traced and plain:
        per_child = [layer_metrics(c["spans"], speed_factors(c)) for c in traced]
        layer = {name: statistics.median_low(m[name] for m in per_child) for name in per_child[0]}
        layer.update(step_walls(plain, plan))
        layer["cli.artifact_bytes"] = artifact_bytes
        (WORK / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(traced[-1]["spans"]))
        for name, unit in PER_LAYER:
            print(f"  {name:<32} {layer[name]:14.6g} {unit}")
        # A difference of two noisy medians, so it can come out negative: a
        # diagnostic line, not a metric.
        overhead = (statistics.median(wall_at_ref(c) for c in traced)
                    - statistics.median(e2e["wall_s"]))
        print(f"  {'trace.overhead_s':<32} {overhead:14.6g} s (diagnostic)")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    elif not trace and plain:
        metrics = {name: {"value": statistics.median(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END}
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not failures and bool(metrics), "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# maintenance modes


def self_test() -> int:
    """Show that the gate passes real artifacts and fails tampered ones."""
    plan = steps("fiber_forms", DEFAULT_SEED)
    checker = Gate("fiber_forms", DEFAULT_SEED, plan)
    work = WORK / f"self-test-{os.getpid()}"
    child = run_child(work, plan, False, time.monotonic())
    ok = True

    def expect(label: str, problems: list[str], fail: bool) -> None:
        nonlocal ok
        ok &= bool(problems) == fail
        print(f"{'ok ' if bool(problems) == fail else 'BAD'} {label}: {problems or 'passes'}")

    def problems(artifact: str, seed: int = DEFAULT_SEED) -> list[str]:
        step = next(s for s in plan if s.artifact == artifact)
        return gate.check_step("fiber_forms", seed, step, work / artifact,
                               checker.reference, checker.lib)

    expect("untouched artifacts", checker.failures(child, work), False)
    with open(work / "discriminants.csv", "a") as fh:
        fh.write("7,45,1\n")
    expect("exact artifact with one extra row", problems("discriminants.csv"), True)
    dim = work / "dimension.csv"
    dim.write_text(dim.read_text().replace("0.5168", "0.5169", 1))
    expect("float column moved beyond its tolerance", problems("dimension.csv"), True)
    fiber = work / "trace_fiber.jsonl"
    fiber.write_text("".join(fiber.read_text().splitlines(keepends=True)[1:]))
    expect("fiber short of one element, oracle alone (seed 1)",
           problems("trace_fiber.jsonl", DEFAULT_SEED + 1), True)
    shutil.rmtree(work)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "thinsieve" / "cli.py").is_file():
        print(f"no thinsieve sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
