#!/usr/bin/env python3
"""flatcheck benchmark: time to verdict and fixed-j verification.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_fixtures --seed 0 --seconds 35 --trace 0

Each workload is a list of generated `.flt` systems (see workloads.py). One
process runs a closed loop, one operation at a time:

* analyze: `analyze(sysdef, Budgets(seed))` then `emit_report`, per system;
* verify: per flat system, `cns_check` at the expected j on a fresh
  Context, then `verify_flat_output` of the declared flat outputs on
  `build_prolonged(j)`.

With `--trace 0` the run repeats analyze and verify passes for about
`--seconds` seconds and reports end-to-end medians. With `--trace 1` it runs
one round (parse, analyze pass, verify pass) untraced and the same round
traced, and reports the per-layer metrics of tracer.py for the traced round.

Every answer is checked against expected.json. An operation is one system
under analyze or under verify; it is checked on every pass, and `failed`
counts each operation that raised or whose answer differed from it on any
pass, including a null `flat_outputs` where declared outputs lie within the
default ansatz degree. `attempted` and `failed` therefore depend on the
workload and seed only, not on how many passes fit into `--seconds`.
Such a null is an incomplete answer, not a false one, so `correct` turns
false only for a wrong verdict, index or verification, an exception, or
report JSON that changes between passes at one seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name each metric with its
unit and give run metadata and report digests.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15
VERIFY_SHARE = 0.5

# Runs in a fresh interpreter: import the package, then generate and parse
# the workload's systems. Prints the elapsed seconds.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import flatcheck, workloads
for _, text in workloads.workload(sys.argv[4], sys.argv[3]):
    flatcheck.parse_system(text)
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or inputs)."""


def load_flatcheck():
    if not os.path.isfile(os.path.join(SRC, "flatcheck", "__init__.py")):
        raise BenchError("no flatcheck sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import flatcheck
    if not os.path.abspath(flatcheck.__file__).startswith(SRC + os.sep):
        raise BenchError("flatcheck imported from %s, not from the checkout"
                         % flatcheck.__file__)
    return flatcheck


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)["systems"]


class SetupProbe:
    """Seconds to import flatcheck and generate and parse the workload, each
    sample in a fresh interpreter. The first probe only warms caches.

    The host's speed changes over seconds, so a timed run spreads its samples
    over the whole run (`due`) instead of taking them in one burst."""

    def __init__(self, workload):
        self.cmd = [sys.executable, "-c", SETUP_PROBE, SRC, HERE, ROOT, workload]
        self.samples = []
        self._probe()

    def _probe(self):
        out = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise BenchError("set-up probe failed: %s" % out.stderr.strip())
        return float(out.stdout.split()[-1])

    def due(self, share=1.0):
        """Take samples until SETUP_SAMPLES * share of them are taken."""
        while len(self.samples) < SETUP_SAMPLES * share:
            self.samples.append(self._probe())

    def median(self):
        return statistics.median(self.samples)


class Bench:
    """One workload's systems, their expected answers and the checks."""

    def __init__(self, fc, texts, seed):
        self.fc = fc
        self.seed = seed
        self.texts = texts
        expected = load_expected()
        self.expected = [expected[name] for name, _ in self.texts]
        self.sysdefs = self.parse()
        self.flat = [i for i, exp in enumerate(self.expected)
                     if exp["verdict"] == "p2_flat"]
        self.outcomes = {}     # (system, op) -> ok on every pass so far
        self.wrong = []        # false answers and exceptions
        self.missed = []       # flat outputs not found though declared
        self.digests = {}      # system -> sha256 of its analyze JSON
        self.op_times = {name: {"analyze": [], "verify": []}
                         for name, _ in self.texts}

    def parse(self):
        return [self.fc.parse_system(text) for _, text in self.texts]

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failed(self):
        return sum(not ok for ok in self.outcomes.values())

    def _record(self, name, op, ok):
        self.outcomes[name, op] = self.outcomes.get((name, op), True) and ok

    def _fail(self, bucket, name, op, what):
        msg = "%s %s: %s" % (name, op, what)
        if msg not in bucket:
            bucket.append(msg)

    def analyze_one(self, i):
        """Analyze system i and check the answer; returns the seconds spent
        in analyze and emit_report."""
        fc = self.fc
        name, _ = self.texts[i]
        exp = self.expected[i]
        t0 = time.perf_counter()
        try:
            rep = fc.analyze(self.sysdefs[i], fc.Budgets(seed=self.seed))
            text = fc.emit_report(rep)
        except Exception as err:
            self._record(name, "analyze", False)
            self._fail(self.wrong, name, "analyze", "raised %r" % err)
            return self._timed(name, "analyze", t0)
        elapsed = self._timed(name, "analyze", t0)
        got = {"verdict": rep.verdict,
               "j_min": list(rep.j_min) if rep.j_min is not None else None,
               "k_star": rep.k_star,
               "kappa": list(rep.kappa) if rep.kappa is not None else None}
        ok = True
        for key, value in got.items():
            if key in exp and exp[key] != value:
                self._fail(self.wrong, name, "analyze", "%s = %s, expected %s"
                           % (key, value, exp[key]))
                ok = False
        if exp.get("finds_declared_outputs") and rep.flat_outputs is None:
            self._fail(self.missed, name, "analyze",
                       "flat_outputs = null, declared outputs are within "
                       "the default ansatz degree")
            ok = False
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(name, digest) != digest:
            self._fail(self.wrong, name, "analyze",
                       "JSON differs between passes at the same seed")
            ok = False
        self._record(name, "analyze", ok)
        return elapsed

    def verify_one(self, i):
        fc = self.fc
        name, _ = self.texts[i]
        sysdef = self.sysdefs[i]
        j = self.expected[i]["j_min"]
        t0 = time.perf_counter()
        try:
            cns = fc.cns_check(sysdef, j, seed=self.seed)
            ps = fc.build_prolonged(sysdef, j, seed=self.seed,
                                    base_point=sysdef.base_point().resolved())
            ok, cert = fc.verify_flat_output(ps, sysdef.declared_flat_outputs)
        except Exception as err:
            self._record(name, "verify", False)
            self._fail(self.wrong, name, "verify", "raised %r" % err)
            return self._timed(name, "verify", t0)
        elapsed = self._timed(name, "verify", t0)
        if not cns.ok:
            self._fail(self.wrong, name, "verify", "cns_check rejects j=%s: %s"
                       % (j, cns.violation))
        if not ok:
            self._fail(self.wrong, name, "verify",
                       "verify_flat_output rejects the declared outputs: %s" % cert)
        self._record(name, "verify", cns.ok and ok)
        return elapsed

    def _timed(self, name, op, t0):
        elapsed = time.perf_counter() - t0
        self.op_times[name][op].append(elapsed)
        return elapsed

    def verify_pass(self):
        return sum(self.verify_one(i) for i in self.flat)

    def round(self):
        """Parse, then one analyze pass and one verify pass."""
        self.sysdefs = self.parse()
        for i in range(len(self.texts)):
            self.analyze_one(i)
        self.verify_pass()


def run_timed(bench, seconds, setup):
    """Analyze passes until the next one would end after `seconds`, at least
    one. Returns the seconds of each analyze pass and each verify pass.

    A verify pass is short, so verify passes are interleaved with the
    analyze operations, keeping verify time at VERIFY_SHARE of analyze time:
    their samples then spread over the whole run instead of one noisy
    stretch of it. The
    set-up samples are spread the same way, in proportion to elapsed time."""
    analyze_s, verify_s = [], []
    busy_analyze = 0.0
    start = time.perf_counter()

    def sample_setup():
        setup.due(min(1.0, (time.perf_counter() - start) / seconds))

    while True:
        gc.collect()
        t0 = time.perf_counter()
        bench.sysdefs = bench.parse()
        pass_s = 0.0
        for i in range(len(bench.texts)):
            elapsed = bench.analyze_one(i)
            pass_s += elapsed
            busy_analyze += elapsed
            sample_setup()
            while sum(verify_s) < VERIFY_SHARE * busy_analyze:
                verify_s.append(bench.verify_pass())
                sample_setup()
        analyze_s.append(pass_s)
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            setup.due()
            return analyze_s, verify_s


def run_traced(bench):
    """One untraced round, then the same round traced."""
    gc.collect()
    t0 = time.perf_counter()
    bench.round()
    untraced = time.perf_counter() - t0
    gc.collect()
    tr = tracer.Tracer()
    with tr:
        t0 = time.perf_counter()
        bench.round()
        traced = time.perf_counter() - t0
    metrics = tr.metrics(traced)
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    return metrics, {"untraced_s": untraced, "traced_s": traced}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        fc = load_flatcheck()
        bench = Bench(fc, workloads.workload(args.workload, ROOT), args.seed)
        setup = SetupProbe(args.workload)
    except (BenchError, OSError, KeyError, subprocess.SubprocessError) as err:
        print("benchmark cannot run: %s" % err, file=sys.stderr)
        return 2

    info = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "setup_samples_s": setup.samples}
    notes = {}
    if args.trace:
        setup.due()
        metrics, info["trace"] = run_traced(bench)
    else:
        analyze_s, verify_s = run_timed(bench, args.seconds, setup)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "analyze_s": (statistics.median(analyze_s), "s"),
            "verify_s": (statistics.median(verify_s), "s"),
            "setup_s": (setup.median(), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        notes["setup_s"] = "median of %d interpreters" % len(setup.samples)
        notes["analyze_s"] = "median of %d passes" % len(analyze_s)
        notes["verify_s"] = "median of %d passes" % len(verify_s)
        info["analyze_pass_s"] = analyze_s
        info["verify_pass_s"] = verify_s

    fail_rate = bench.failed / bench.attempted
    notes["fail_rate"] = "%d of %d operations" % (bench.failed, bench.attempted)
    info["wrong"] = bench.wrong
    info["missed_flat_outputs"] = bench.missed
    info["system_s"] = {name: {op: statistics.median(t) for op, t in ops.items() if t}
                        for name, ops in bench.op_times.items()}
    info["report_sha256"] = {name: {str(args.seed): d}
                             for name, d in bench.digests.items()}

    for name, (value, unit) in list(metrics.items()) + [("fail_rate", (fail_rate, "ratio"))]:
        print("metric %-36s %14.6g %-5s %s" % (name, value, unit, notes.get(name, "")))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
