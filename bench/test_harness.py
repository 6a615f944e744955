"""Self-tests of the benchmark harness: tracing, wrappers, oracles, manifest.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import tracer
import workloads


@pytest.fixture
def scratch():
    """A fresh directory inside the checkout's benchmark run directory."""
    path = run.RUN_DIR / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bindings(modules):
    return {(m.__name__, attr): fn for m in modules for attr, fn in vars(m).items()}


def test_self_time_arithmetic_on_nested_calls():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 8.0, 10.0])
    rec = tracer.Recorder(clock=lambda: next(ticks))

    leaf = rec.wrap("m.leaf", lambda: None)
    inner = rec.wrap("m.inner", lambda deep: leaf() if deep else None)
    outer = rec.wrap("m.outer", lambda: (inner(True), inner(False)))
    rec.op = "op"
    outer()

    names = [s[tracer.NAME] for s in rec.spans]
    assert names == ["m.outer", "m.inner", "m.leaf", "m.inner"]
    assert [s[tracer.PARENT] for s in rec.spans] == [None, 0, 1, 0]
    assert tracer.self_times(rec.spans) == [5.0, 2.0, 2.0, 1.0]
    selfs = tracer.self_times(rec.spans)
    metric = lambda name: tracer.layer_metric(name, rec.spans, selfs, {"op"}, "setup", 1.0)  # noqa: E731
    assert metric("m.inner.calls_per_op") == 2
    assert metric("m.inner.self_ms") == 3000.0
    assert metric("m.inner.total_ms") == 5000.0
    assert metric("m.outer.setup_ms") == 0.0


def test_exceptions_and_iterations_are_recorded():
    class Stop(Exception):
        iterations = 17

    def boom():
        raise Stop

    rec = tracer.Recorder()
    wrapped = rec.wrap("linalg.spectral_radius", boom)
    with pytest.raises(Stop):
        wrapped()
    assert rec.spans[0][tracer.EXC] == "Stop"
    assert rec.spans[0][tracer.ITER] == 17
    assert rec.stack == []


def _cli_ops(gg, directory):
    """Small check, decompose, simulate and laplace invocations."""
    inputs, ops = workloads.build("verify_mc", 5, gg, str(directory / "in"), gg.cli.main)
    small = inputs[0].path  # Brownian, n = 3
    argvs = [["check", "--input", small], ["decompose", "--input", small]]
    argvs += [op.argv("")[:-2] for op in ops[:2]]  # simulate, discrete and --ct
    argvs += [ops[-3].argv("")[:-2]]  # laplace on the smallest fBm
    return argvs


def _reports(gg, argvs, directory):
    out = []
    for k, argv in enumerate(argvs):
        path = directory / f"{k}.json"
        rc = gg.cli.main(argv + ["--out", str(path)])
        out.append((rc, path.read_bytes()))
    return out


def test_reports_are_byte_identical_with_wrappers(scratch, capsys):
    gg = run.import_gaussgreen()
    argvs = _cli_ops(gg, scratch)
    (scratch / "plain").mkdir()
    (scratch / "traced").mkdir()
    plain = _reports(gg, argvs, scratch / "plain")
    rec = tracer.Recorder()
    assert rec.install(run.layer_modules(gg)) > 0
    try:
        traced = _reports(gg, argvs, scratch / "traced")
    finally:
        rec.uninstall()
    assert [rc for rc, _ in plain] == [0] * len(argvs)
    assert traced == plain
    assert {s[tracer.NAME] for s in rec.spans} >= {
        "cli.main", "linalg.invert", "simulate.simulate_green", "simulate.laplace_mc"}


def test_wrappers_are_removed_after_traced_run():
    runner = run.Runner("decide_small", 2, 1, True)
    try:
        runner.setup()
        modules = run.layer_modules(runner.gg)
        before = _bindings(modules)
        plain, traced, _ = runner.measure()
        failures = runner.judge()
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    assert plain and traced
    assert tracer.wrapped_bindings(modules) == []
    assert _bindings(modules) == before
    assert runner.recorder.spans
    assert failures == []


def test_cold_import_runs_in_fresh_interpreters():
    runner = run.Runner("decide_small", 1, 1, False)
    times = runner.cold_imports()
    assert len(times) == run.COLD_IMPORTS and all(t > 0 for t in times)
    assert len(runner.setup_probe.times) == run.COLD_IMPORTS


def test_install_refuses_to_stack_wrappers():
    gg = run.import_gaussgreen()
    rec = tracer.Recorder()
    rec.install(run.layer_modules(gg))
    try:
        with pytest.raises(RuntimeError):
            rec.install(run.layer_modules(gg))
    finally:
        rec.uninstall()
    assert tracer.wrapped_bindings(run.layer_modules(gg)) == []


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_oracle_rejects_wrong_verdicts(scratch):
    good = _write(scratch / "c.json", {"verdict": "green"})
    assert oracle.check_report("id", 0, good) is None
    assert oracle.check_report("not_id", 0, good) is not None
    indet = _write(scratch / "i.json", {"verdict": "indeterminate"})
    assert oracle.check_report("id", 2, indet) is not None
    assert oracle.check_report("id", 0, indet) is not None


def test_witness_search_refutes_counterexample_not_brownian():
    points = np.array([[1.0, 2.0], [3.0, 4.0], [2.0, 3.0], [4.0, 1.0]])
    x, s = points[:, 0], points[:, 1]
    G = np.minimum(x[:, None], x[None, :]) * np.minimum(s[:, None], s[None, :])
    assert oracle.refutes_id(G, (0, 1, 2, 3))
    grid = np.arange(1.0, 7.0)
    B = np.minimum(grid[:, None], grid[None, :])
    assert oracle.find_witness(B) is None
    assert oracle.id_certificate(B, np.ones(6))


def _brownian_decomposition(gg, scratch):
    G = np.minimum.outer(np.arange(1.0, 5.0), np.arange(1.0, 5.0))
    path = scratch / "g.csv"
    np.savetxt(path, G, fmt="%.17g", delimiter=",")
    out = scratch / "dec.json"
    assert gg.cli.main(["decompose", "--input", str(path), "--out", str(out)]) == 0
    return G, json.loads(out.read_text())


def test_decompose_oracle_rejects_corrupted_chains(scratch, capsys):
    gg = run.import_gaussgreen()
    G, doc = _brownian_decomposition(gg, scratch)
    assert oracle.decompose_report("id", G, 0, _write(scratch / "ok.json", doc)) is None
    assert oracle.decompose_report("not_id", G, 0, _write(scratch / "ok.json", doc))
    bad = json.loads(json.dumps(doc))
    bad["T"][0][1] -= 1e-3
    bad["kappa"][0] += 1e-3
    assert "reconstruction" in oracle.decompose_report("id", G, 0, _write(scratch / "b.json", bad))
    bad = json.loads(json.dumps(doc))
    bad["kappa"][1] += 1e-6
    assert "rows" in oracle.decompose_report("id", G, 0, _write(scratch / "b.json", bad))


def test_simulate_and_laplace_oracles_reject_biased_estimates(scratch, capsys):
    gg = run.import_gaussgreen()
    G, doc = _brownian_decomposition(gg, scratch)
    chain = _write(scratch / "chain.json", doc)
    sim = scratch / "sim.json"
    assert gg.cli.main(["simulate", "--input", chain, "--paths", "4000", "--seed", "3",
                        "--out", str(sim)]) == 0
    assert oracle.simulate_report(chain, False, 4000, 0, str(sim)) is None
    assert oracle.simulate_report(chain, True, 4000, 0, str(sim)) is not None
    report = json.loads(sim.read_text())
    report["estimate"][0][0] *= 1.2
    assert oracle.simulate_report(chain, False, 4000, 0, _write(scratch / "b.json", report))

    t = np.array([0.3, 0.2, 0.1, 0.4])
    lap = scratch / "lap.json"
    assert gg.cli.main(["laplace", "--input", str(scratch / "g.csv"), "--t", "0.3,0.2,0.1,0.4",
                        "--samples", "20000", "--seed", "4", "--out", str(lap)]) == 0
    assert oracle.laplace_report(G, t, 20000, 0, str(lap)) is None
    report = json.loads(lap.read_text())
    report["mc"]["estimate"] *= 1.05
    assert oracle.laplace_report(G, t, 20000, 0, _write(scratch / "b.json", report))


def test_inputs_depend_only_on_seed(scratch):
    gg = run.import_gaussgreen()
    first, _ = workloads.build("decide_small", 9, gg, str(scratch / "a"), gg.cli.main)
    again, _ = workloads.build("decide_small", 9, gg, str(scratch / "b"), gg.cli.main)
    other, _ = workloads.build("decide_small", 10, gg, str(scratch / "c"), gg.cli.main)
    assert all(np.array_equal(a.G, b.G) for a, b in zip(first, again))
    assert [a.G.shape for a in first] == [c.G.shape for c in other]
    assert not all(np.array_equal(a.G, c.G) for a, c in zip(first, other))
    assert all(np.array_equal(np.loadtxt(a.path, delimiter=",", ndmin=2), a.G) for a in first)


def test_manifest_matches_the_runner():
    with open(run.MANIFEST) as fh:
        manifest = json.load(fh)
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == workloads.WORKLOADS
    probe = run.Probe()
    probe.times = [0.01, 0.02]
    runner = type("R", (), {"ops": [workloads.Op("check", None)], "probe": probe,
                            "setup_probe": probe})()
    values, _ = run.end_to_end(runner, [0.4, 0.5], [0.2, 0.1, 0.3], [[0.01], [0.02]])
    assert {m["name"] for m in manifest["end_to_end"]} == set(values)
    for metric in manifest["per_layer"]:
        value = tracer.layer_metric(metric["name"], [], [], set(), "setup", 1.0)
        assert isinstance(value, float | int)


def test_refuses_to_run_without_sources(scratch):
    bare = scratch / "bare"
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.MANIFEST, bare / "BENCHMARK.json")
    for path in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(path, bare / "bench" / path.name)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
