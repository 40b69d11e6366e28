"""Benchmark for forestfuse: one workload per run.

    python3 ffbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread (FORESTFUSE_THREADS and the BLAS pools pinned to
1), one caller in a closed loop: each operation starts when the previous
one has returned. The run sets up its inputs `setup_repeats` times
(timed; the median is setup_s), runs one warm-up round whose outputs are
checked, then repeats whole rounds until `--seconds` have passed. Every
later round's outputs must be byte-identical to the warm-up round's.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`). Earlier lines
describe the run for a reader; a fuller report, and the spans of a
traced run, go to `.ffbench_out/` at the root of the checkout.

The program is imported from `src/` of the checkout this file sits in;
the run stops with exit code 1, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".ffbench_out")
THREAD_VARS = ("FORESTFUSE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
MIN_TIMED_ROUNDS = 4


def load_program():
    """Import forestfuse from this checkout's src/, or exit 1."""
    sys.path[:0] = [SRC, ROOT]
    try:
        import forestfuse
    except ImportError as exc:
        sys.exit(f"ffbench: cannot import forestfuse from {SRC}: {exc}")
    if not os.path.abspath(forestfuse.__file__).startswith(SRC + os.sep):
        sys.exit(f"ffbench: forestfuse came from {forestfuse.__file__}, "
                 f"not from {SRC}")
    return forestfuse


# -- run facts, for information only --------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout read from .git, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    pkg = os.path.join(SRC, "forestfuse")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def digest(obj, h=None) -> str:
    """Content hash of an operation's output (files by their bytes)."""
    import numpy as np

    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, str):
        with open(obj, "rb") as fh:
            h.update(fh.read())
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif hasattr(obj, "trees"):  # Forest
        for tree in obj.trees:
            for f in ("feature", "threshold", "left", "right", "leaf_id",
                      "n_node", "value", "split_gain"):
                digest(getattr(tree, f), h)
        for arr in (obj.inbag_counts, obj.leaf_of_train):
            digest(arr, h)
        h.update(repr(obj.oob_error).encode())
    elif hasattr(obj, "dataset"):  # ImputationResult
        digest(obj.dataset.values, h)
        h.update(repr((obj.trace, obj.converged, obj.fallback_cells)).encode())
    elif hasattr(obj, "ranking"):  # ValidationReport
        h.update(repr((sorted(obj.scores.items()), obj.ranking,
                       obj.reference_oob)).encode())
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")
    return h.hexdigest() if top else ""


# -- the run ----------------------------------------------------------------------

class Run:
    def __init__(self, workload, seed, seconds, tracer):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.rundir = os.path.join(
            OUT, f"{workload.name}-seed{seed}-trace{int(tracer is not None)}")
        self.workdir = os.path.join(self.rundir, "work")
        self.problems: list[str] = []
        from ffbench.probe import Probe, factor

        self.probe, self.speed_factor = Probe(), factor

    def _phase(self, phase, traced):
        tr = self.tracer
        if tr is None:
            return
        tr.phase = phase
        if traced and not tr.installed:
            tr.install(extra=[("cli.main", sys.modules["forestfuse.cli"].main)])
        elif not traced and tr.installed:
            tr.uninstall()

    def timed(self, fn, *args):
        """(result, seconds corrected for machine speed, raw seconds).

        Garbage is collected first; the speed probe runs just before and
        just after the call (see probe.py). Spans recorded during the call
        get the same correction.
        """
        gc.collect()
        first_span = len(self.tracer.spans) if self.tracer else 0
        before = self.probe.seconds()
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        factor = self.speed_factor(before, self.probe.seconds())
        if self.tracer is not None:
            for span in self.tracer.spans[first_span:]:
                span.factor = factor
        return result, raw * factor, raw

    def setup(self):
        self.setup_times, self.setup_raw = [], []
        for k in range(self.wl.setup_repeats):
            self._phase(f"setup{k}", True)
            self.ctx, scaled, raw = self.timed(self._setup_once)
            self.setup_raw.append(raw)
            self.setup_times.append(scaled)

    def _setup_once(self):
        return self.wl.setup(self.wl.make_inputs(self.seed), self.workdir)

    def round(self, phase, traced, outdir):
        self._phase(phase, traced)
        os.makedirs(outdir, exist_ok=True)
        record = []

        def op(step, fn, *args):
            result, scaled, raw = self.timed(fn, *args)
            record.append((step, scaled, result, raw))
            return result

        self.wl.run_round(self.ctx, op, outdir)
        return record

    def execute(self):
        os.makedirs(self.workdir)
        self.setup()
        warm = self.round("round0", True, os.path.join(self.workdir, "round0"))
        self.outputs = [(step, res) for step, _, res, _ in warm]
        self.digests = [digest(res) for _, res in self.outputs]
        timed, traced_flags, self.raw = [], [], []
        start = time.perf_counter()
        r = 1
        while (time.perf_counter() - start < self.seconds
               or len(timed) < MIN_TIMED_ROUNDS):
            # a traced run alternates traced and untraced rounds
            traced = self.tracer is not None and r % 2 == 1
            rec = self.round(f"round{r}", traced,
                             os.path.join(self.workdir, "latest"))
            self._phase(f"round{r}", False)
            for i, (step, _, res, _) in enumerate(rec):
                if digest(res) != self.digests[i]:
                    self.problems.append(
                        f"round {r}: output of {step} differs from round 0")
            timed.append([(step, s) for step, s, _, _ in rec])
            self.raw.append([(step, s) for step, _, _, s in rec])
            traced_flags.append(traced)
            r += 1
        self.timed, self.traced_flags = timed, traced_flags
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        found, failed = self.wl.check(self.ctx, self.outputs)
        self.problems += found
        self.failed_ops = [step for (step, _), bad in zip(self.outputs, failed)
                           if bad]
        self.n_rounds = 1 + len(timed)

    # -- reading the run ---------------------------------------------------------

    def steps(self, traced):
        from ffbench.metrics import Steps

        return Steps([rnd for rnd, tr in zip(self.timed, self.traced_flags)
                      if tr == traced])

    def end_to_end(self):
        steps = self.steps(False)
        return {
            "setup_s": statistics.median(self.setup_times),
            "job_s": steps.job_s(),
            "op_gmean_s": steps.gmean(),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def op_metrics(self, steps):
        from ffbench.metrics import OPS

        found = {f"op.{k}": v for k, v in self.wl.step_metrics(steps).items()}
        return {name: found.get(name, 0.0) for name in OPS}

    def per_layer(self):
        from ffbench import metrics, spans

        setups = [f"setup{k}" for k in range(self.wl.setup_repeats)]
        traced = [f"round{r}" for r, tr in
                  enumerate(self.traced_flags, start=1) if tr]
        out = spans.per_layer(self.tracer, setups, traced,
                              {k: v[2] for k, v in metrics.LAYERS.items()})
        calls = out["splitfind.find_node_split.calls"]
        out["splitfind.find_node_split.hit_share"] = \
            out["splitfind.find_node_split.hits"] / calls if calls else 0.0
        out["trace.overhead_s"] = \
            self.steps(True).job_s() - self.steps(False).job_s()
        out.update(self.op_metrics(self.steps(False)))
        return out


def describe(run, metrics_out, units, info):
    """Human-readable lines printed before the result."""
    from ffbench.metrics import OPS, quartiles

    steps = run.steps(False)
    lines = [f"workload {run.wl.name}, seed {run.seed}: {run.n_rounds} rounds "
             f"(1 warm-up), setup x{run.wl.setup_repeats}"]
    for name, value in metrics_out.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")
    for step in steps.names():
        q1, med, q3 = quartiles(steps.times(step))
        lines.append(f"  step {step}: median {med:.6g} s "
                     f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(steps.times(step))})")
    if not run.tracer:
        for name, value in run.op_metrics(steps).items():
            if value:
                lines.append(f"  {name} = {value:.6g} {OPS[name][0]}")
    for k, v in info.items():
        lines.append(f"  {k}: {v}")
    for p in run.problems:
        lines.append(f"  PROBLEM: {p}")
    for step in dict.fromkeys(run.failed_ops):
        lines.append(f"  FAILED: {step} x{run.failed_ops.count(step)} per round "
                     "(counted in failed)")
    return lines


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(prog="ffbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import numpy as np

    from ffbench import metrics, spans, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    tracer = spans.Tracer() if args.trace else None
    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
              tracer)
    shutil.rmtree(run.rundir, ignore_errors=True)
    try:
        run.execute()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run.workdir, ignore_errors=True)

    if args.trace:
        values = run.per_layer()
        units = {k: v[0] for k, v in
                 {**metrics.LAYERS, **metrics.DERIVED, **metrics.OPS}.items()}
    else:
        values = run.end_to_end()
        units = {k: v[0] for k, v in metrics.END_TO_END.items()}
    info = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines(),
        "output_digest": hashlib.sha256(
            "".join(run.digests).encode()).hexdigest(),
    }
    steps = run.steps(False)
    report = {
        "workload": run.wl.name, "seed": run.seed, "trace": args.trace,
        "seconds": args.seconds, "info": info,
        "metrics": values,
        "ops": run.op_metrics(steps) if not args.trace else None,
        "setup_times": run.setup_times, "setup_raw_times": run.setup_raw,
        "rounds": [{"traced": tr, "steps": rnd, "raw_steps": raw}
                   for rnd, tr, raw in zip(run.timed, run.traced_flags,
                                           run.raw)],
        "problems": run.problems, "failed_ops": run.failed_ops,
    }
    with open(os.path.join(run.rundir, "report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(run.rundir, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump([s.as_list() for s in tracer.spans], fh)
    for line in describe(run, values, units, info):
        print(line)

    n_ops = len(run.outputs)
    result = {
        "correct": not run.problems,
        "attempted": n_ops * run.n_rounds,
        "failed": len(run.failed_ops) * run.n_rounds,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
