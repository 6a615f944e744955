"""Closed-loop benchmark of the gaussgreen CLI, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One client sends each op (an in-process ``gaussgreen.cli.main`` call) only
after the previous one returned.  The op list of a workload is a fixed
round that repeats until the measured op time reaches ``--seconds``; only
whole rounds are measured.  Every output is checked by numpy-only oracles
(``oracle.py``).  ``--trace 1`` alternates untraced and traced rounds and
reports per-layer metrics instead of end-to-end ones.  ``--workload all``
runs every workload in its own fresh process and prints every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import os

# Pin BLAS before numpy loads: threaded OpenBLAS stalls the small-matrix
# inverses in some processes and not in others (see README.md).
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"
RUN_DIR = ROOT / ".bench_run"
# Set-up repeats at least SETUP_REPS_MIN times and until SETUP_SECONDS have
# passed, so that the median of a cheap set-up rests on enough samples.
SETUP_REPS_MIN, SETUP_REPS_MAX, SETUP_SECONDS = 5, 30, 3.0
# The warm set-ups above find numpy and scipy loaded; the package's cold
# import, its dependencies included, is timed in this many fresh interpreters.
COLD_IMPORTS = 5
IMPORT_CHILD = ("import time; t0 = time.perf_counter(); import gaussgreen.cli; "
                "print(time.perf_counter() - t0); print(gaussgreen.__file__)")
TAIL_PERCENTILES = (50, 75, 90, 99)
SETUP_OP = "setup"
# Calls per round printed for each input of a traced run.
TRACE_COUNTS = ("linalg.invert", "linalg.cholesky", "linalg.spectral_radius",
                "criteria.classify_green")


class BenchError(Exception):
    """The benchmark itself cannot run or cannot judge an output."""


class _Sink:
    """Discards the CLI's one-line stderr summaries during measurement."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def import_gaussgreen():
    """Import the package from this checkout's ``src``, discarding earlier imports."""
    src = ROOT / "src"
    if not (src / "gaussgreen" / "__init__.py").is_file():
        raise BenchError(f"no gaussgreen sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "gaussgreen" or m.startswith("gaussgreen.")]:
        del sys.modules[name]
    gg = importlib.import_module("gaussgreen")
    importlib.import_module("gaussgreen.cli")
    if Path(gg.__file__).resolve().parent != (src / "gaussgreen").resolve():
        raise BenchError(f"imported gaussgreen from {gg.__file__}, not from {src}")
    return gg


def layer_modules(gg):
    return [importlib.import_module(f"{gg.__name__}.{layer}") for layer in tracer.LAYERS]


def git_commit():
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    threads = None
    with contextlib.suppress(OSError):
        threads = len(os.listdir("/proc/self/task"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "process_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def tail(latencies):
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        k = int(np.ceil(p / 100.0 * n)) - 1
        if 0 <= k and n - 1 - k >= 10:
            best = (p, ordered[k])
    if best is None:
        return 100, ordered[-1]
    return best


class Probe:
    """Fixed reference work, timed between ops to track the host's speed.

    A shared virtual machine has slow phases lasting tens of seconds; on a
    2-vCPU Xeon VM the same op took up to 1.6 times as long in them, and a
    statistic over the rounds of one run cannot remove a phase that covers
    the whole run.  The probe does the
    kinds of work the ops do (LU inverse and product of a 250 x 250 matrix,
    an interpreter loop) and no gaussgreen code.  In one measured window,
    the op time divided by the probe time varied by about 6 % where the op
    time alone varied by about 15 %.
    """

    REF_S = 0.015  # probe time that end-to-end timings are scaled to
    EVERY_S = 0.2  # op time between probes

    def __init__(self):
        rng = np.random.default_rng(0)
        self.M = rng.standard_normal((250, 250)) + 250.0 * np.eye(250)
        self.times = []

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(3):
            np.linalg.inv(self.M) @ self.M
        acc = 0
        for i in range(30_000):
            acc += i * i
        self.times.append(time.perf_counter() - t0)

    def slowdown(self):
        """First quartile of the probe times over the reference time."""
        return lower_quartile(self.times) / self.REF_S


def lower_quartile(xs):
    xs = list(xs)
    return statistics.quantiles(xs, n=4)[0] if len(xs) > 1 else xs[0]


class Runner:
    """One workload in one process: set-up, measured rounds, oracle checks."""

    def __init__(self, name, seed, seconds, trace):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.work = RUN_DIR / f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
        self.recorder = tracer.Recorder()
        self.gg = None
        self.first = {}  # op index -> (digest, rc, path) of round 0
        self.judged = []  # (round, op index, reason or None for "as round 0")
        self.attempted = 0
        self.probe = Probe()
        self.setup_probe = Probe()
        self.since_probe = 0.0

    def cli(self, argv):
        return self.gg.cli.main(argv)

    def setup(self):
        """Set up repeatedly (once when tracing); returns each set-up's time."""
        times = []
        while not times or not self.trace and len(times) < SETUP_REPS_MAX and (
                len(times) < SETUP_REPS_MIN or sum(times) < SETUP_SECONDS):
            shutil.rmtree(self.work / "inputs", ignore_errors=True)
            t0 = time.perf_counter()
            self.gg = import_gaussgreen()
            if self.trace:
                self.recorder.install(layer_modules(self.gg))
                self.recorder.op = SETUP_OP
            try:
                with contextlib.redirect_stderr(_Sink()):
                    self.inputs, self.ops = workloads.build(
                        self.name, self.seed, self.gg, str(self.work / "inputs"), self.cli)
            finally:
                self.recorder.uninstall()
                self.recorder.op = None
            times.append(time.perf_counter() - t0)
            self.setup_probe()
        return times

    def cold_imports(self):
        """Times of ``import gaussgreen.cli`` in fresh interpreters."""
        src = ROOT / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        times = []
        for _ in range(COLD_IMPORTS):
            proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=120)
            lines = proc.stdout.split()
            if proc.returncode != 0 or len(lines) != 2:
                raise BenchError(f"cold import failed: {proc.stderr.strip()[-500:]}")
            if Path(lines[1]).resolve().parent != (src / "gaussgreen").resolve():
                raise BenchError(f"cold import loaded {lines[1]}, not {src}")
            times.append(float(lines[0]))
            self.setup_probe()
        return times

    def round(self, r, traced):
        out_dir = self.work / ("r0" if r == 0 else "rk")
        out_dir.mkdir(parents=True, exist_ok=True)
        latencies = []
        if traced:
            self.recorder.install(layer_modules(self.gg))
        try:
            for k, op in enumerate(self.ops):
                out = str(out_dir / f"{k:03d}-{op.kind}.json")
                if traced:
                    self.recorder.op = (r, k)
                argv = op.argv(out)
                t0 = time.perf_counter()
                try:
                    rc = self.cli(argv)
                except Exception as err:  # a crash is a failed op, not a crashed benchmark
                    rc = f"{type(err).__name__}: {err}"
                latencies.append(time.perf_counter() - t0)
                self.recorder.op = None
                self.attempted += 1
                self.record(r, k, op, rc, out)
                self.since_probe += latencies[-1]
                if not traced and self.since_probe >= Probe.EVERY_S:
                    self.probe()
                    self.since_probe = 0.0
        finally:
            self.recorder.uninstall()
        leftover = tracer.wrapped_bindings(layer_modules(self.gg))
        if leftover:
            raise BenchError(f"wrappers left installed: {leftover[:5]}")
        return latencies

    def record(self, r, k, op, rc, out):
        """Keep round 0's outputs for the oracle; later rounds must repeat them.

        A later output that differs from round 0's is judged by the oracle
        at once, before the next round overwrites it.
        """
        try:
            digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        except OSError:
            digest = None
        if r == 0:
            self.first[k] = (digest, rc, out)
        elif (digest, rc) == self.first[k][:2]:
            self.judged.append((r, k, None))
        else:
            self.judged.append((r, k, self.verify(op, rc, out) if digest else f"no report ({rc})"))

    def verify(self, op, rc, out):
        """Oracle failure reason for one output, or ``None`` when it is right."""
        if isinstance(rc, str):
            return rc
        inp = op.input
        if op.kind == "check":
            return oracle.check_report(inp.expect, rc, out)
        if op.kind == "decompose":
            return oracle.decompose_report(inp.expect, inp.G, rc, out)
        if op.kind == "simulate":
            return oracle.simulate_report(op.chain, op.ct, op.paths, rc, out)
        return oracle.laplace_report(inp.G, op.t, op.samples, rc, out)

    def prepare_oracle(self):
        """Confirm each input's expected verdict with numpy alone."""
        for inp in self.inputs:
            if inp.expect == "id":
                if not oracle.id_certificate(inp.G, inp.signs):
                    raise BenchError(f"{inp.label}: construction signature fails the direct test")
            else:
                rows = oracle.find_witness(inp.G, inp.hint)
                if rows is None:
                    raise BenchError(f"{inp.label}: no refuting submatrix of at most 8 rows")
                inp.hint = rows

    def judge(self):
        """Failures as ``(round, op index, reason)``, round 0 judged here."""
        first = {}
        for k, (digest, rc, out) in self.first.items():
            first[k] = self.verify(self.ops[k], rc, out) if digest else f"no report ({rc})"
        failures = [(0, k, why) for k, why in first.items() if why]
        for r, k, why in self.judged:
            why = first[k] if why is None else why
            if why:
                failures.append((r, k, why))
        return failures

    def measure(self):
        """Whole rounds until the untraced (and traced) op time reaches the budget."""
        plain, traced = [], []
        r = 0
        with contextlib.redirect_stderr(_Sink()):
            while True:
                for use_trace in ((False, True) if self.trace else (False,)):
                    lat = self.round(r, use_trace)
                    (traced if use_trace else plain).append(lat)
                    r += 1
                budget = self.seconds / 2 if self.trace else self.seconds
                if sum(map(sum, plain)) >= budget and sum(map(sum, traced)) >= (budget if self.trace else 0):
                    break
        return plain, traced, r


def end_to_end(runner, import_times, setup_times, plain):
    """End-to-end metrics; timings are scaled to the probe's reference speed.

    ``setup_s`` is the median cold import plus the median warm set-up.

    Each op is represented by the first quartile of its times over the
    rounds, and the probe by the first quartile of its times, so a slow
    phase shifts neither unless it covers most of the run, and then both.
    """
    typical = [lower_quartile(rnd[k] for rnd in plain) for k in range(len(runner.ops))]
    raw_ops_per_s = len(typical) / sum(typical)
    # The geometric mean weighs every op alike, so it shows a change in the
    # small ops that ops_per_s, dominated by the largest ops, hides.
    raw_geomean_ms = 1e3 * statistics.geometric_mean(typical)
    slowdown = runner.probe.slowdown()
    raw_setup_s = statistics.median(import_times) + statistics.median(setup_times)
    values = {
        "setup_s": raw_setup_s / runner.setup_probe.slowdown(),
        "ops_per_s": raw_ops_per_s * slowdown,
        "op_geomean_ms": raw_geomean_ms / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lat = [x for rnd in plain for x in rnd]
    p_tail, v_tail = tail(lat)
    extra = {
        "raw_setup_s": raw_setup_s,
        "raw_ops_per_s": raw_ops_per_s,
        "raw_op_geomean_ms": raw_geomean_ms,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "probe_median_ms": 1e3 * statistics.median(runner.probe.times),
        "probes": len(runner.probe.times),
        "op_tail_ms": 1e3 * v_tail,
        "tail_percentile": p_tail,
        "samples": len(lat),
        "rounds": len(plain),
        "cold_import_s": import_times,
        "setup_reps_s": setup_times,
    }
    by_kind = {}
    for rnd in plain:
        for op, x in zip(runner.ops, rnd):
            by_kind.setdefault(op.kind, []).append(x)
    for kind, xs in by_kind.items():
        p, v = tail(xs)
        extra[f"{kind}_p50_ms"] = 1e3 * statistics.median(xs)
        extra[f"{kind}_tail_ms"] = 1e3 * v
        extra[f"{kind}_tail_percentile"] = p
        extra[f"{kind}_samples"] = len(xs)
    sim_time = sum(x for rnd in plain for op, x in zip(runner.ops, rnd) if op.kind == "simulate")
    if sim_time:
        # Work is counted from numpy's inv(I - T), so it stays fixed when streams change.
        visits = sum(
            op.paths * float(oracle.visit_moments(_chain_T(op.chain), False, 1.0)[0].sum())
            for op in runner.ops if op.kind == "simulate"
        )
        extra["visits_per_s"] = visits * len(plain) / sim_time
    return values, extra


def _chain_T(path):
    with open(path) as fh:
        return np.asarray(json.load(fh)["T"], dtype=float)


def per_layer(runner, names, plain, traced):
    spans = runner.recorder.spans
    selfs = tracer.self_times(spans)
    n_ops = len(runner.ops)
    ops = {(2 * i + 1, k) for i in range(len(traced)) for k in range(n_ops)}
    overhead = (sum(map(sum, traced)) / len(traced)) / (sum(map(sum, plain)) / len(plain))
    values = {
        name: tracer.layer_metric(name, spans, selfs, ops, SETUP_OP, overhead) for name in names
    }
    return values, breakdown(runner, spans, selfs, ops)


def breakdown(runner, spans, selfs, ops):
    """Per-input counts and self-time leaders, to read single facts off the trace."""
    rows = {}
    for k, rec in enumerate(spans):
        if rec[tracer.OP] not in ops:
            continue
        op = runner.ops[rec[tracer.OP][1]]
        row = rows.setdefault(op.input.label, {"ops": set(), "calls": {}, "self": {}, "noconv": 0})
        row["ops"].add(rec[tracer.OP])
        name = rec[tracer.NAME]
        row["calls"][name] = row["calls"].get(name, 0) + 1
        row["self"][name] = row["self"].get(name, 0.0) + selfs[k]
        row["noconv"] += rec[tracer.EXC] == "NoConvergenceError"
    out = {}
    for label, row in rows.items():
        total = sum(row["self"].values())
        top = max(row["self"], key=row["self"].get)
        rounds = len({op[0] for op in row["ops"]})
        out[label] = {
            "ops": sorted({runner.ops[k].kind for _, k in row["ops"]}),
            "calls_per_round": {n: c / rounds for n, c in sorted(row["calls"].items())},
            "noconv_per_round": row["noconv"] / rounds,
            "top_self": top,
            "top_self_share": row["self"][top] / total,
            "simulate_self_share": sum(
                v for n, v in row["self"].items() if n.startswith("simulate.")) / total,
        }
    return out


def load_manifest():
    with open(MANIFEST) as fh:
        return json.load(fh)


def run_one(name, seed, seconds, trace):
    manifest = load_manifest()
    runner = Runner(name, seed, seconds, trace)
    try:
        setup_times = runner.setup()
        import_times = [] if trace else runner.cold_imports()
        plain, traced, rounds = runner.measure()
        if trace:
            names = [m["name"] for m in manifest["per_layer"]]
            units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
            values, extra = per_layer(runner, names, plain, traced)
        else:
            names = [m["name"] for m in manifest["end_to_end"]]
            units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
            values, extra = end_to_end(runner, import_times, setup_times, plain)
        runner.prepare_oracle()
        failures = runner.judge()
        env = environment()
        out_dir = RUN_DIR / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = out_dir / f"{name}-seed{seed}-trace{int(trace)}"
        if trace:
            runner.recorder.dump(f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    unknown = [f for f in failures if not runner.ops[f[1]].input.known_defect]
    attempted, failed = runner.attempted, len(failures)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {name} seed {seed}: {attempted} ops in {rounds} rounds, "
          f"failed {failed}, error_rate {failed / attempted:.4f}")
    seen = set()
    for r, k, why in failures:
        op = runner.ops[k]
        if (k, why) in seen:
            continue
        seen.add((k, why))
        note = f" [known defect: {op.input.known_defect}]" if op.input.known_defect else ""
        print(f"failure {op.kind} {op.input.label}: {why}{note}")
    for key, val in extra.items():
        if isinstance(val, dict):  # per-input trace breakdown
            calls = val["calls_per_round"]
            print(f"trace {key} ({'+'.join(val['ops'])}): "
                  + " ".join(f"{fn}={calls.get(fn, 0):g}" for fn in TRACE_COUNTS)
                  + f" noconv={val['noconv_per_round']:g}"
                  + f" top_self={val['top_self']} ({val['top_self_share']:.0%})"
                  + f" simulate_share={val['simulate_self_share']:.1%}")
        else:
            print(f"info {key} = {json.dumps(val)}")
    for metric in names:
        print(f"metric {metric} = {values[metric]:.6g} {units[metric]}")
    metrics = {m: {"value": float(values[m]), "unit": units[m]} for m in names}
    result = {"correct": not unknown, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(f"{stem}.json", "w") as fh:
        json.dump({"env": env, "result": result, "info": extra,
                   "failures": [[r, runner.ops[k].input.label, runner.ops[k].kind, why]
                                for r, k, why in failures]}, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(seed, seconds, trace):
    """Every workload in its own fresh process; prints each metric by name."""
    manifest = load_manifest()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in manifest["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            if not line.startswith("env "):
                print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, val in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    # A benchmark harness calls `run.py --workload W --seed N --seconds S
    # --trace T` with S = run_seconds of BENCHMARK.json; by hand S may be left out.
    parser.add_argument("--seconds", type=int, default=load_manifest()["run_seconds"],
                        help="measured op time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
