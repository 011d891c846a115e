"""The benchmark's own test. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks, with input sizes shrunk (except for the command checks in 5):

1. a traced pass of each workload records every span that workload exercises,
   none of the training spans on ``score_n4000``, and none of the calls that
   ``--trace 0`` passes repeat for rate samples; per-layer totals read per pass;
2. ``uninstall`` restores every binding site, so untraced runs execute the
   program's own functions;
3. a span whose function was deleted or renamed is reported as missing, by
   name, without crashing the traced pass or changing an untraced one;
4. the metric names the benchmark prints match ``BENCHMARK.json``;
5. ``run.py`` prints the contract's result line, and exits non-zero without
   one when the program's sources are absent.

Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TRAINING = {
    "model.train", "model.batch_objective", "model.encode_ts", "model.posterior",
    "model.reparameterize", "model.loss_align", "model.loss_recon", "model.loss_dist",
    "model.loss_kl", "autodiff.backward", "optim.adam_step",
}
SCORING = {
    "model.generate", "model.encode_graph", "model.decode",
    "accel.min_dist_to_set", "accel.nn_dist_excl_self", "accel.medoid_index",
    "accel.transition_counts", "metrics.evaluate", "metrics.proto_err", "metrics.mdr",
    "metrics.coverage", "metrics.tail_stats", "quantile_graph.windows_to_graphs",
}
EXPECTED = {
    "score_n4000": SCORING,
    "cli_artifacts": {s.name for s in tracing.SPANS},
}
ABSENT = {"score_n4000": TRAINING}
# calls that --trace 0 passes repeat for rate samples; a traced pass makes each once
ONCE = {"score_n4000": ("model.generate",)}
# class constants overridden on the instance so in-process passes take seconds
SMALL = {
    "score_n4000": {"N_TRAIN": 300, "N_REAL": 300, "GENERATE_REPEATS": 2},
    "cli_artifacts": {"N_WINDOWS": 2000},
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def small_workload(name: str, workdir: Path):
    wl = workloads.WORKLOADS[name](1, workdir)
    for attr, value in SMALL[name].items():
        setattr(wl, attr, value)
    return wl


def traced_pass(name: str, workdir: Path, spans=tracing.SPANS):
    wl = small_workload(name, workdir)
    wl.setup()
    tracer = tracing.Tracer()
    inst = tracing.install(tracer, spans)
    try:
        wl.run_once(0, False)
    finally:
        tracing.uninstall(inst)
    checks = wl.check(0)
    getattr(wl, "cleanup", lambda _k: None)(0)
    return wl, tracer, inst, checks


def test_spans_per_workload(workdir: Path) -> None:
    for name, expected in EXPECTED.items():
        _, tracer, inst, checks = traced_pass(name, workdir / name)
        seen = set(tracing.span_table(tracer))
        expect(not inst.missing, f"{name}: no span missing ({inst.missing})")
        expect(expected <= seen, f"{name}: spans recorded ({sorted(expected - seen)} absent)")
        extra = ABSENT.get(name, set()) & seen
        expect(not extra, f"{name}: no training spans ({sorted(extra)})")
        table = tracing.span_table(tracer)
        calls = {s: table[s]["calls"] for s in ONCE.get(name, ())}
        expect(all(c == 1 for c in calls.values()),
               f"{name}: traced pass skips rate repeats ({calls})")
        expect(all(ok for _, ok in checks), f"{name}: correctness checks pass under tracing")
        expect(tracing.leftover_wrappers() == [], f"{name}: wrappers removed afterwards")


def test_uninstall_restores_originals() -> None:
    import graph2ts
    from graph2ts import autodiff, cli, model, optim

    originals = [(model, "adam_step"), (optim, "adam_step"), (cli, "train"),
                 (model, "train"), (graph2ts, "train"), (cli, "windows_to_graphs"),
                 (model, "fit_boundaries")]
    before = [getattr(o, a) for o, a in originals]
    method_before = (autodiff.Tape.__dict__["backward"], model.Graph2TS.__dict__["generate"])
    inst = tracing.install(tracing.Tracer())
    wrapped = [getattr(o, a) for o, a in originals]
    expect(all(hasattr(w, "__wrapped_span__") for w in wrapped),
           "every binding site of a shared function is wrapped")
    expect(len(tracing.leftover_wrappers()) > 0, "leftover_wrappers sees installed wrappers")
    tracing.uninstall(inst)
    after = [getattr(o, a) for o, a in originals]
    method_after = (autodiff.Tape.__dict__["backward"], model.Graph2TS.__dict__["generate"])
    expect(all(a is b for a, b in zip(after, before)) and method_after == method_before,
           "uninstall restores the original objects")
    expect(tracing.leftover_wrappers() == [], "no wrapper left anywhere after uninstall")


def test_per_pass_values(workdir: Path) -> None:
    wl = small_workload("cli_artifacts", workdir)
    wl.setup()
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    per_layer = []
    try:
        for k in range(2):
            tracer.request = k
            wl.run_once(k, False)
            wl.cleanup(k)
            per_layer.append(tracing.per_layer_metrics(tracer, [], 1.0))
    finally:
        tracing.uninstall(inst)
    one, two = (m["autodiff.backward.calls"]["value"] for m in per_layer)
    expect(one == two > 0, f"calls read per pass after one and two passes ({one}, {two})")


def test_missing_function(workdir: Path) -> None:
    gone = (
        tracing.Span("model.renamed_away", "graph2ts.model", "no_such_function", "-"),
        tracing.Span("model.gone_method", "graph2ts.model", "Graph2TS.no_such_method", "-"),
        tracing.Span("gone.module", "graph2ts.no_such_module", "anything", "-"),
    )
    spans = tracing.SPANS[:1] + gone + tracing.SPANS[1:]
    try:
        _, tracer, inst, checks = traced_pass("score_n4000", workdir / "gone", spans)
    except Exception as err:  # the point of the check is that nothing escapes
        expect(False, f"traced pass survives missing functions ({err!r})")
        return
    names = [s.name for s in gone]
    expect(inst.missing == names, f"missing spans reported by name ({inst.missing})")
    metrics = tracing.per_layer_metrics(tracer, inst.missing, 1.0)
    expect(metrics["trace.missing_spans"]["value"] == 3, "trace.missing_spans counts them")
    expect("model.generate.ms" in metrics and "model.renamed_away.ms" not in metrics,
           "present spans still report, missing ones are left out")
    expect(all(ok for _, ok in checks), "checks still pass")
    wl = small_workload("score_n4000", workdir / "plain")
    wl.setup()
    wl.run_once(0, True)
    expect(all(ok for _, ok in wl.check(0)), "an untraced pass afterwards is unaffected")


def test_names_match_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
           "workload names match")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS,
           "end-to-end names and units match")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == tracing.per_layer_spec(), "per-layer names, units and directions match")


def _run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli_artifacts",
           "--seed", "3", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command_contract(workdir: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        res = _run(ROOT, "--trace", trace)
        last = json.loads(res.stdout.strip().splitlines()[-1])
        expect(res.returncode == 0 and set(last) == {"correct", "attempted", "failed", "metrics"}
               and last["correct"] and last["failed"] == 0,
               f"--trace {trace}: exit 0 and a correct result line")
        expect(set(last["metrics"]) == {m["name"] for m in spec[section]},
               f"--trace {trace}: prints every {section} metric")
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    res = _run(bare, "--trace", "0")
    expect(res.returncode != 0 and '"correct"' not in res.stdout,
           "without src/ it exits non-zero and prints no result")


def main() -> int:
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        workdir = Path(tmp)
        for name in EXPECTED:
            (workdir / name).mkdir()
        (workdir / "gone").mkdir()
        (workdir / "plain").mkdir()
        (workdir / "passes").mkdir()
        test_uninstall_restores_originals()
        test_spans_per_workload(workdir)
        test_per_pass_values(workdir / "passes")
        test_missing_function(workdir)
        test_names_match_benchmark_json()
        test_command_contract(workdir)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
