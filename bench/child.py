"""One timed workload run, in a fresh interpreter: ``python3 child.py SPEC RESULT``.

The parent starts this process and reads back RESULT (JSON).  Each CLI step
is timed from its start to its return, after its artifact and manifest are written, less the time of the
speed probe (``speed.Probe``) that samples the CPU speed during the step.
With ``"trace": true`` in SPEC, the library's public functions are wrapped
from here (nothing under ``src/`` changes) and the spans are written to RESULT;
span times include the probe's share, about 3%.
"""

import contextlib
import functools
import io
import json
import sys
import time
import traceback

import thinsieve.cli as cli

import speed
from layers import SELF_METRIC

# Work counts taken from a span's result.
_COUNTS = {
    "semigroup.trace_fiber": len,
    "sieve.sift_values": lambda seq: [seq.source_size, len(seq.values)],
    "sieve.remainder_profile": lambda prof: len(prof.rows),
    "sieve.discriminant_census": len,
}


class Tracer:
    """Spans [name, start, end, busy, parent, step, count] kept in memory.

    ``busy`` is end - start for a call; for a generator it is the time spent
    inside its ``next`` calls, so the consumer's own work is not counted.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step = -1

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, 0.0, parent, self.step, None])
        return len(self.spans) - 1

    def call(self, name: str, fn, count=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span = self.spans[idx]
                span[2] = time.perf_counter()
                span[3] = span[2] - span[1]
            if count is not None:
                self.spans[idx][6] = count(result)
            return result

        return functools.wraps(fn)(wrapper)

    def generator(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self._timed(name, fn(*args, **kwargs))

        return functools.wraps(fn)(wrapper)

    def _timed(self, name: str, gen):
        # The wrapped generators (iter_ball, iter_traces) call no wrapped
        # function, so the span is not pushed on the stack while they run.
        idx = self._open(name)
        clock = time.perf_counter
        busy, n = 0.0, 0
        t0 = clock()
        try:
            for item in gen:
                busy += clock() - t0
                n += 1
                yield item
                t0 = clock()
            busy += clock() - t0
        finally:
            span = self.spans[idx]
            span[2], span[3], span[6] = clock(), busy, n

    def install(self) -> None:
        """Wrap each function named in SELF_METRIC, in every thinsieve namespace
        that binds it (``cli`` and ``sieve`` import names directly)."""
        semigroup = sys.modules["thinsieve.semigroup"]
        wrapped = {}
        for name in SELF_METRIC:
            mod_name, fn_name = name.split(".")
            if mod_name == "cli" or fn_name == "iter_traces":
                continue
            fn = getattr(sys.modules["thinsieve." + mod_name], fn_name)
            if fn_name == "iter_ball":  # the generator behind enumerate_ball and every ball walk
                wrapped[fn] = self.generator(name, fn)
            else:
                wrapped[fn] = self.call(name, fn, _COUNTS.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "thinsieve":
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
        bilinear = semigroup.BilinearSet
        bilinear.iter_traces = self.generator("semigroup.iter_traces", bilinear.iter_traces)


def peak_rss_mb() -> float:
    """This process's peak RSS, from VmHWM (Linux only).  ru_maxrss is no
    substitute: Linux keeps it across exec, so it can report the parent's size."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer, run_step = None, cli.main
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        run_step = tracer.call("cli.main", cli.main)
    steps = []
    with speed.Probe() as probe:
        for i, argv in enumerate(spec["steps"]):
            if tracer is not None:
                tracer.step = i
            err = io.StringIO()
            n0, spent0, t0 = len(probe.samples), probe.spent, time.monotonic()
            try:
                with contextlib.redirect_stderr(err):
                    code = run_step(argv)
            except Exception:  # a traceback is a failed step, never a crash of the run
                code = None
                err.write(traceback.format_exc())
            wall = time.monotonic() - t0 - (probe.spent - spent0)
            text = err.getvalue()
            steps.append({"argv": argv, "code": code, "wall_s": wall, "stderr": text[-2000:],
                          "traceback": "Traceback (most recent call last)" in text,
                          "speed": probe.samples[n0:]})
    result = {
        "wall_s": sum(s["wall_s"] for s in steps),
        "peak_rss_mb": peak_rss_mb(),
        "steps": steps,
    }
    if tracer is not None:
        keys = ("name", "start", "end", "busy", "parent", "step", "count")
        result["spans"] = [dict(zip(keys, s)) for s in tracer.spans]
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
