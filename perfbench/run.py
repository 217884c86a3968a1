"""joinlab benchmark: one workload, measured three ways.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports and runs the program from
``src/``.  Inputs are generated from ``--seed`` under ``.perfbench/``.

--trace 0 (end-to-end metrics):
  setup_s      cold ``python -m joinlab --help``;
  wall_s       the workload's argv sequence run as cold subprocesses, one
               at a time (a closed loop with one client);
  api_s        the same sequence through ``joinlab.cli.main`` in this
               process, untraced, after the import;
  peak_rss_mb  median over cold passes of the largest child ``ru_maxrss``
               (children are started by spawner.py, which see);
  ok_frac      share of runs whose exit code and checked reports are right.
  Cold passes, in-process passes and set-up runs alternate until
  --seconds have passed.  Every step's time is scaled by host probes
  taken around it (``host_scaled``), and a sequence's time is
  ``median_sequence`` of its scaled passes.

--trace 1 (per-layer metrics): untraced and traced in-process passes
  alternate (at least two traced); see tracer.py.  Counts must repeat
  exactly between traced passes.

Every report must be byte-identical to the first one seen for its argv,
cold, in-process or traced, and pass its workload check.

The last stdout line is the result JSON; the line before it holds the
environment.  Failed checks are listed on stderr and counted in
``failed``; they never abort the run.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

SETUP_RUNS = 7
JOINLAB = [sys.executable, "-m", "joinlab"]
HELP_ARGV = ["--help"]
PYCACHE = os.path.join(".perfbench", "pycache")
SPAWNER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawner.py")
PROBE_LOOPS, PROBE_FRACTIONS = 100_000, 750
PROBE_REF_S = 0.010  # about the fastest host_probe() on the 2-CPU VM of the baseline


class Spawner:
    """Client of spawner.py, the lean process that starts every cold
    child, so that a child's ``ru_maxrss`` is its own (see spawner.py)."""

    def __init__(self, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", SPAWNER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._send({"env": env})

    def _send(self, message: dict):
        self._proc.stdin.write(json.dumps(message) + "\n")
        self._proc.stdin.flush()

    def run(self, argv: list[str]) -> tuple[int, str, float, int]:
        """Run argv to completion: (exit code, stdout, wall seconds,
        ru_maxrss in KiB)."""
        self._send({"argv": argv})
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self._proc.wait()}")
        reply = json.loads(line)
        return reply["code"], reply["stdout"], reply["seconds"], reply["maxrss_kib"]

    def close(self):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def start_spawner() -> Spawner:
    """Start the spawner before joinlab, the workloads or SciPy are
    imported here, and compile ``src/joinlab`` once through it.

    Bytecode goes to .perfbench/pycache, for this process and every
    child, whatever the caller's PYTHONDONTWRITEBYTECODE: no timed run
    compiles, and none writes into ``src/``."""
    prefix = os.path.abspath(PYCACHE)
    sys.pycache_prefix, sys.dont_write_bytecode = prefix, False
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONPYCACHEPREFIX=prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawner = Spawner(env)
    code, *_ = spawner.run([sys.executable, "-m", "compileall", "-q", os.path.join("src", "joinlab")])
    if code != 0:
        spawner.close()
        raise RuntimeError(f"compiling src/joinlab failed with exit code {code}")
    return spawner


def host_probe() -> float:
    """Seconds of fixed pure-Python work: an integer loop and a loop of
    Fraction arithmetic whose denominators stay below 10**30.  It does not
    depend on the program, so a change in it is the host's.  The Fraction
    half makes it slow down more like joinlab's exact arithmetic does."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    x, q = Fraction(0), Fraction(1, 7)
    for i in range(1, PROBE_FRACTIONS):
        x += Fraction(i, 3 * i + 1) * q
        if i % 50 == 0:
            x = Fraction(x.numerator % 10**30, x.denominator % 10**30 + 1)
    return time.perf_counter() - start


def host_scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled to a host on which host_probe() takes PROBE_REF_S,
    by the mean of the probes just before and just after it.

    The CPUs of a shared machine change speed by up to 2x over seconds
    and minutes, and that moves whole runs; timing a program-independent
    loop around each step and dividing cancels most of it."""
    return [t * 2 * PROBE_REF_S / (a + b) for t, a, b in zip(times, probes, probes[1:])]


class Session:
    """Runs one workload's passes and judges every report."""

    def __init__(self, workload, spawner: Spawner):
        self.workload = workload
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[int, tuple] = {}
        self._verdict: dict[int, str | None] = {}
        import joinlab.cli

        self._cli = joinlab.cli
        for problem in workload.cap_violations():
            self.fail("input generation", problem)

    def fail(self, where: str, problem: str):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{where}: {problem}")

    def record(self, index: int, code, text: str):
        step = self.workload.steps[index]
        first = self._first.setdefault(index, (code, text))
        if first != (code, text):
            problem = "report differs from the first run of the same argv"
        else:
            if index not in self._verdict:
                self._verdict[index] = self._judge(step, code, text)
            problem = self._verdict[index]
        if problem is None:
            self.attempted += 1
        else:
            self.fail(" ".join(step.argv), problem)

    @staticmethod
    def _judge(step, code, text: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(text)
        except ValueError:
            return "stdout is not one JSON report"
        try:
            return step.check(report)
        except Exception as exc:  # a malformed report must count, not crash
            return f"check raised {type(exc).__name__}: {exc}"

    # -- passes --------------------------------------------------------------

    # Every pass returns the seconds of each of its steps and host probes
    # taken before the first step and after each one.

    def setup_run(self) -> tuple[list[float], list[float]]:
        probes = [host_probe()]
        code, text, elapsed, _ = self.spawner.run(JOINLAB + HELP_ARGV)
        probes.append(host_probe())
        if code != 0 or not text.startswith("usage: joinlab"):
            self.fail("--help", f"exit code {code}, stdout {text[:40]!r}")
        else:
            self.attempted += 1
        return [elapsed], probes

    def cold_pass(self) -> tuple[list[float], list[float], float]:
        """Also returns the largest child ru_maxrss in MiB."""
        outs, times, probes, peak = [], [], [host_probe()], 0
        for step in self.workload.steps:
            code, text, elapsed, rss = self.spawner.run(JOINLAB + step.argv)
            probes.append(host_probe())
            times.append(elapsed)
            outs.append((code, text))
            peak = max(peak, rss)
        for i, (code, text) in enumerate(outs):
            self.record(i, code, text)
        return times, probes, peak / 1024

    def api_pass(self, tracer=None) -> tuple[list[float], list[float]]:
        """Steps through ``joinlab.cli.main`` in-process."""
        outs, times = [], []
        gc.collect()
        probes = [host_probe()]
        for i, step in enumerate(self.workload.steps):
            if tracer is not None:
                tracer.request = i
            out = io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    code = self._cli.main(list(step.argv))
                except Exception as exc:  # an internal fault is a failed run
                    code = f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - start)
            probes.append(host_probe())
            outs.append((code, out.getvalue()))
        for i, (code, text) in enumerate(outs):
            self.record(i, code, text)
        return times, probes


def median_sequence(passes: list[list[float]]) -> float:
    """Sum over the steps of each step's median over the passes.

    A minimum would pick the pass whose probes happened to run slowest,
    so it falls as a run holds more passes; the median does not."""
    return sum(statistics.median(step) for step in zip(*passes))


# -- the two modes -------------------------------------------------------------


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    session.setup_run()  # warm-up: loads the interpreter and package files
    samples = {"setup_s": [], "wall_s": [], "api_s": [], "peak_rss_mb": [], "host_probe_s": []}
    scaled = {"setup_s": [], "wall_s": [], "api_s": []}

    def add(metric, times, probes):
        samples[metric].append(times)
        scaled[metric].append(host_scaled(times, probes))
        samples["host_probe_s"] += probes

    deadline = time.perf_counter() + seconds
    # Interleave everything, so that a slow spell of a shared machine
    # lands on every metric alike.
    while len(samples["api_s"]) < 2 or time.perf_counter() < deadline:
        if len(samples["wall_s"]) <= len(samples["api_s"]):
            times, probes, peak = session.cold_pass()
            add("wall_s", times, probes)
            samples["peak_rss_mb"].append(peak)
        else:
            add("api_s", *session.api_pass())
        add("setup_s", *session.setup_run())
    while len(samples["setup_s"]) < SETUP_RUNS:
        add("setup_s", *session.setup_run())
    metrics = {m: (median_sequence(passes), "s") for m, passes in scaled.items()}
    metrics["peak_rss_mb"] = (statistics.median(samples["peak_rss_mb"]), "MiB")
    metrics["ok_frac"] = (1 - session.failed / session.attempted, "ratio")
    samples["scaled"] = scaled
    return metrics, samples


def per_layer(session: Session, seconds: float) -> tuple[dict, dict, list]:
    from tracer import COUNT_METRICS, TIME_METRICS, Tracer

    tracer = Tracer()
    samples = {"untraced_s": [], "traced_s": [], "host_probe_s": [], **{m: [] for m in TIME_METRICS}}
    counts = None
    deadline = time.perf_counter() + seconds
    while len(samples["traced_s"]) < 2 or time.perf_counter() < deadline:
        times, probes = session.api_pass()
        samples["untraced_s"].append(host_scaled(times, probes))
        samples["host_probe_s"] += probes
        since, before = tracer.mark()
        tracer.install()
        try:
            times, probes = session.api_pass(tracer)
        finally:
            tracer.uninstall()
        samples["traced_s"].append(host_scaled(times, probes))
        samples["host_probe_s"] += probes
        for metric, value in tracer.self_times(since).items():
            samples[metric].append(value)
        pass_counts = tracer.counts - before
        for step in session.workload.steps:
            pass_counts["serialize.bytes_in"] += step.bytes_in
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            session.fail("traced pass", f"counts {dict(pass_counts)} != first pass {dict(counts)}")
    for name in tracer.missing:
        session.fail("tracer", f"{name} not found; its layer reads 0")
    metrics = {m: (min(samples[m]), "s") for m in TIME_METRICS}
    metrics.update({m: (counts[m], unit) for m, unit in COUNT_METRICS.items()})
    coords = counts["polytope.coords"]
    metrics["simplex.lps_per_coord"] = (counts["simplex.lps"] / coords if coords else 0.0, "ratio")
    base = median_sequence(samples["untraced_s"])
    metrics["trace.overhead_frac"] = ((median_sequence(samples["traced_s"]) - base) / base, "ratio")
    return metrics, samples, tracer.to_json()


def environment(seed: int, probes: list[float]) -> dict:
    import importlib.util

    from joinlab import rationals

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rational_type": rationals.fast_rational_type()[1],
        "commit": "unknown",
        "seed": seed,
        "host_probe_s": {"min": min(probes), "median": statistics.median(probes)},
    }
    if importlib.util.find_spec("joinlab.kernels") is not None:
        from joinlab import kernels

        env["kernel_backend"] = kernels.backend_name()
    if os.path.isdir(".git"):
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return env


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            spawner: Spawner) -> tuple[dict, dict]:
    """Run one workload from the repository root: (result, environment)."""
    import workloads

    workdir = os.path.join(".perfbench", f"{workload_name}-{seed}")
    workload = workloads.build(workload_name, seed, workdir)
    session = Session(workload, spawner)
    spans = None
    if trace:
        metrics, samples, spans = per_layer(session, seconds)
    else:
        metrics, samples = end_to_end(session, seconds)
    for problem in session.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    # whole passes, unscaled except for untraced_s and traced_s
    for name in ("setup_s", "wall_s", "api_s", "untraced_s", "traced_s", "host_probe_s"):
        values = [v if isinstance(v, float) else sum(v) for v in samples.get(name, [])]
        if values:
            print(f"{name}: n={len(values)} min={min(values):.4f} "
                  f"median={statistics.median(values):.4f} max={max(values):.4f}", file=sys.stderr)
    with open(os.path.join(workdir, f"samples-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump({"samples": samples, "spans": spans}, fh)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, environment(seed, samples["host_probe_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="joinlab benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "joinlab", "__init__.py")):
        print("error: src/joinlab not found; run from the repository root", file=sys.stderr)
        return 2
    with start_spawner() as spawner:
        sys.path.insert(0, os.path.abspath("src"))
        import workloads

        if args.workload not in workloads.NAMES:
            parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
        result, env = measure(args.workload, args.seed, args.seconds, bool(args.trace), spawner)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
