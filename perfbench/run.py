"""graph2ts benchmark: end-to-end and per-layer metrics for two workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {score_n4000,cli_artifacts}
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/``. Inputs are generated from ``--seed``.
Whole passes of the workload are timed until the next one would overrun
``--seconds`` (at least one pass runs). Every pass is checked for correctness
and gives one value per metric (and per-call times, which only the detail line
summarises). Every pass of a workload does the same work, so a metric's result
is the run's pooled value: the mean of the pass times, or for a rate the
harmonic mean of the pass rates (all work over all its seconds). Where a shared
host's speed flips between states for seconds at a time, a median over passes
jumps between those states, while the pooled value averages them.
Standard output ends with one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones. With ``--trace 1`` they are the per-layer
ones: half the budget runs untraced and half with span wrappers installed,
and ``trace.overhead_ratio`` compares the two halves. The line before it
holds the environment record, sample summaries (median, tail percentile,
count) and, when traced, the full span table.

``setup_s`` is the import time plus the median of ``SETUP_REPEATS`` set-ups
(inputs, checkpoint and warm-up) in this process, half made before the timed
passes and half after them, so that the median spans the run; a single
set-up, or a few back to back, spread too much from run to run to compare two
programs by. The detail line holds each set-up's seconds. Traced runs, which
do not report ``setup_s``, make only the first half.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("score_n4000", "cli_artifacts")
SETUP_REPEATS = 4

E2E_UNITS = {
    "setup_s": "s",
    "train_windows_per_s": "1/s",
    "generate_windows_per_s": "1/s",
    "eval_windows_per_s": "1/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import the program from src/; returns the seconds it took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: F401  (imports numpy and every graph2ts module)
    return time.perf_counter() - t0 + (t0 - _T_START)


class Runner:
    """Runs whole passes of one workload, collecting samples and check results."""

    def __init__(self, wl, repeats: bool):
        self.wl = wl
        self.repeats = repeats  # let passes re-run calls so rates cover more time
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes = 0
        self.peak_rss_mb = None  # after set-up and the first pass, so pass count cannot move it

    def add(self, name: str, value) -> None:
        vals = value if isinstance(value, list) else [value]
        self.samples.setdefault(name, []).extend(vals)

    def record_checks(self, checks) -> None:
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(f"pass {self.passes}: {name}")

    def phase(self, seconds: float, tracer=None) -> list[float]:
        """Whole passes until the next would overrun ``seconds``; returns pass times."""
        times: list[float] = []
        t0 = time.perf_counter()
        while True:
            k = self.passes
            self.passes += 1
            if tracer is not None:
                tracer.request = k
                tracer.active = True
            self.attempted += self.wl.operations(self.repeats)
            try:
                t = time.perf_counter()
                got = self.wl.run_once(k, self.repeats)
                times.append(time.perf_counter() - t)
                if self.peak_rss_mb is None:
                    self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            except Exception:  # the benchmark must report a failing program, not die
                self.failed += 1
                self.failures.append(f"pass {k}: {traceback.format_exc(limit=3)}")
                return times
            finally:
                if tracer is not None:
                    tracer.active = False
            try:
                self.record_checks(self.wl.check(k))
            finally:
                getattr(self.wl, "cleanup", lambda _k: None)(k)
            for name, value in got.items():
                self.add(name, value)
            elapsed = time.perf_counter() - t0
            if elapsed + statistics.median(times) > seconds:
                return times


def _emit(detail: dict, result: dict) -> None:
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import_s = _import_program()
    except ImportError as err:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2
    import envinfo
    import tracing
    import workloads

    work_parent = HERE / "_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups: list[float] = []

        def set_up(times: int) -> None:
            for _ in range(times):
                t0 = time.perf_counter()
                wl.setup()
                setups.append(time.perf_counter() - t0)

        set_up(SETUP_REPEATS // 2)

        # traced runs compare traced with untraced passes of the same work
        runner = Runner(wl, repeats=args.trace == 0)
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": envinfo.environment(ROOT),
                  "import_s": import_s, "setups_s": setups}

        if args.trace == 0:
            runner.phase(args.seconds)
            if runner.peak_rss_mb is not None:
                runner.add("peak_rss_mb", runner.peak_rss_mb)
            set_up(SETUP_REPEATS - SETUP_REPEATS // 2)
            runner.add("setup_s", import_s + statistics.median(setups))
        else:
            untraced = runner.phase(args.seconds / 2.0)
            tracer = tracing.Tracer()
            inst = tracing.install(tracer)
            try:
                traced = runner.phase(args.seconds / 2.0, tracer)
            finally:
                tracing.uninstall(inst)
            runner.record_checks([("trace wrappers removed after the traced phase",
                                   tracing.leftover_wrappers() == [])])
            overhead = (statistics.median(traced) / statistics.median(untraced)
                        if traced and untraced else 0.0)
            if inst.missing:
                print(f"perfbench: spans missing from the program: {', '.join(inst.missing)}",
                      file=sys.stderr)
            detail["traced_passes"] = len(traced)
            detail["trace_missing"] = inst.missing
            detail["spans"] = tracing.span_table(tracer)
            detail["moves"] = {s.name: s.moves for s in tracing.SPANS}
            per_layer = tracing.per_layer_metrics(tracer, inst.missing, overhead)

        detail["samples"] = {k: tracing.summarize_samples(v) for k, v in runner.samples.items()}
        detail["error_rate"] = {"value": runner.failed / max(1, runner.attempted),
                                "unit": "ratio"}
        detail["failures"] = runner.failures
        for msg in runner.failures:
            print(f"perfbench: FAILED {msg}", file=sys.stderr)

        if args.trace == 0:
            metrics = {}
            for name, unit in E2E_UNITS.items():
                vals = runner.samples.get(name)
                if vals:
                    value = (statistics.harmonic_mean(vals) if unit == "1/s"
                             else statistics.fmean(vals))
                    metrics[name] = {"value": value, "unit": unit}
        else:
            metrics = per_layer
        correct = runner.failed == 0 and (
            args.trace == 1 or set(metrics) == set(E2E_UNITS))
        _emit(detail, {"correct": correct, "attempted": max(1, runner.attempted),
                       "failed": runner.failed, "metrics": metrics})
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
