"""hjdirac benchmark: one workload of CLI invocations, timed and checked.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {verify,simulate,ensemble} \\
        --seed N --seconds S --trace {0,1}

The program is imported from ./src and driven through hjdirac.cli.main in
this process, with HJDIRAC_THREADS and the BLAS thread pools held at 1.
Whole rounds of the workload's invocations repeat until S seconds have
passed (at least two rounds). The first successful output of each invocation
goes through an independent check (checks.py); every later round must write
byte-identical files. Times are scaled to a reference machine speed
(speed.py). The last line of standard output is one JSON object:
with --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics of spans.py plus trace.overhead_s, measured on rounds that
alternate untraced and traced.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
THREAD_ENV = {"HJDIRAC_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)   # before numpy is imported

import checks      # noqa: E402
import spans       # noqa: E402
import speed       # noqa: E402
import workloads   # noqa: E402

MIN_ROUNDS = 2      # byte stability needs a second round to compare
SETUP_REPEATS = 7


def import_program():
    """hjdirac.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import hjdirac.cli
    origin = os.path.realpath(hjdirac.cli.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError("hjdirac imported from %s, not %s" % (origin, SRC))
    return hjdirac.cli


SETUP_CHILD = ("import time; t0 = time.perf_counter(); import hjdirac.cli; "
               "t = time.perf_counter() - t0; import speed; "
               "print(t, sum(speed.reference_seconds() for _ in range(3)) / 3)")


def setup_seconds():
    """Median time to import hjdirac.cli in a fresh interpreter, scaled to
    the reference speed by samples the child takes right after the import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout
        seconds, sample = (float(v) for v in out.split())
        times.append(seconds * speed.REFERENCE_S / sample)
    return statistics.median(times)


class Outcome:
    def __init__(self, ok, wall, seconds, errors, digests=None):
        self.ok = ok
        self.wall = wall          # wall seconds
        self.seconds = seconds    # at the reference speed (speed.py)
        self.errors = errors
        self.digests = digests


def _invoke(cli, argv, err):
    try:
        return cli.main(argv)
    except Exception as exc:   # an escaped exception is a failed op
        err.write("uncaught %s: %s" % (type(exc).__name__, exc))
        return None


def run_op(cli, probe, op, out_dir):
    """One CLI invocation in this process. A probe is ok when refused with a
    usage error; any other op when it exits 0."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = op.argv + ["--out", out_dir]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code, wall, seconds = probe.time(lambda: _invoke(cli, argv, err))
    if op.expect_usage:
        errors = checks.check_usage_error(code, err.getvalue())
        return Outcome(not errors, wall, seconds, errors)
    if code != 0:
        return Outcome(False, wall, seconds, [
            "exit code %r: %s" % (code, err.getvalue().strip()[-300:])])
    return Outcome(True, wall, seconds, [], checks.file_digests(out_dir))


class Run:
    """Rounds of a workload's ops, with checks and byte-stability tracking."""

    def __init__(self, cli, ops, out_root):
        self.cli = cli
        self.ops = ops
        self.out_root = out_root
        self.probe = speed.SpeedProbe()
        self.rounds = []          # per round: [Outcome per op]
        self.first_digests = {}   # op name -> digests of its first success
        self.errors = []

    def round(self):
        outcomes = []
        for op in self.ops:
            out_dir = os.path.join(self.out_root, op.name)
            outcome = run_op(self.cli, self.probe, op, out_dir)
            outcomes.append(outcome)
            if not outcome.ok or op.expect_usage:
                continue
            first = self.first_digests.setdefault(op.name, outcome.digests)
            if first is outcome.digests:
                self.errors += ["%s: %s" % (op.name, e)
                                for e in op.check(out_dir, op.config)]
            elif first != outcome.digests:
                self.errors.append("%s: artifacts differ from the first round "
                                   "with the same config and seed" % op.name)
        self.rounds.append(outcomes)

    def round_seconds(self, rounds, attr="seconds"):
        return [sum(getattr(o, attr) for o in self.rounds[r]) for r in rounds]

    def failures(self):
        return [(op.name, o.errors) for outcomes in self.rounds
                for op, o in zip(self.ops, outcomes) if not o.ok]

    def rates(self):
        """Work per second of the per-command figures named in the README,
        from the median over rounds of each figure's invocation times."""
        groups = {}
        for i, op in enumerate(self.ops):
            if op.rate:
                groups.setdefault(op.rate[:2], []).append((i, op.rate[2]))
        out = {}
        for (metric, unit), members in groups.items():
            seconds = statistics.median(
                sum(outcomes[i].seconds for i, _ in members)
                for outcomes in self.rounds)
            out[metric] = (sum(work for _, work in members) / seconds, unit)
        return out


def measure(run, seconds, tracer):
    """Repeat rounds for the given time. With a tracer, odd rounds are
    traced, and the run ends on a traced round."""
    start = time.perf_counter()
    while (len(run.rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds
           or (tracer and len(run.rounds) % 2)):
        if tracer and len(run.rounds) % 2:
            tracer.install(len(run.rounds))
            try:
                run.round()
            finally:
                tracer.remove()
        else:
            run.round()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_program()
    except ImportError as exc:
        print("cannot import hjdirac from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2

    work = os.path.join(WORK, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, os.path.join(work, "configs"))
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (setup_seconds(), "s")
    tracer = spans.Tracer() if args.trace else None
    run = Run(cli, ops, os.path.join(work, "out"))
    measure(run, args.seconds, tracer)
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    rounds = range(len(run.rounds))
    if args.trace:
        traced, plain = rounds[1::2], rounds[0::2]
        per_round = [tracer.round_stats(r) for r in traced]
        for metric in spans.PER_LAYER:
            metrics[metric] = (statistics.median(v[metric] for v in per_round),
                               spans.metric_unit(metric))
        metrics["trace.overhead_s"] = (
            statistics.median(run.round_seconds(traced))
            - statistics.median(run.round_seconds(plain)), "s")
        tracer.save(os.path.join(work, "spans.npz"), args.workload)
    else:
        metrics["round_s"] = (statistics.median(run.round_seconds(rounds)), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        print("info wall_round_s %.6g s" % statistics.median(
            run.round_seconds(rounds, "wall")))
        for metric, (value, unit) in run.rates().items():
            print("info %s %.6g %s" % (metric, value, unit))

    failed = run.failures()
    for name, errors in failed[:len(ops)]:
        print("failed %s: %s" % (name, "; ".join(errors)), file=sys.stderr)
    for error in run.errors:
        print("check %s" % error, file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print("%s %.6g %s" % (metric, value, unit))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": len(run.rounds) * len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
