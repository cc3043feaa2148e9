"""gavekit benchmark: one workload, one closed-loop client, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-tables --seed 1 --seconds 10 --trace 0

Workloads: exact-tables, inexact-tables, alpha-sweep, certify (see
``workloads.py``). A run sets its inputs up ``setup_reps`` times, then runs
whole passes over the workload's ops, in an order shuffled by ``--seed``,
until ``--seconds`` have elapsed and at least ``min_passes`` have run.
Ops run serially, with BLAS/OpenMP pinned to one thread. Every op is checked
against ``reference.json``; an op that fails is printed by name and reason,
and one that reproduces a defect recorded in ``known_failures.json`` is
printed as KNOWN-DEFECT.

Times are normalized by ``SpeedProbe`` to a reference machine speed; the
raw times are in the ``info`` line, with the environment.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (see
``layers.py``) of one set-up plus one pass, with the tracing overhead; the
spans go to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
ops that fail their check and are not a recorded defect.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy or scipy load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
KNOWN_FAILURES = os.path.join(HERE, "known_failures.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Metrics whose per-run value is a ratio, not a sum over set-up and pass.
RATIO_METRICS = ("linalg.lsqr.target_met_ratio", "bench.tune_alpha.converged_ratio")


def import_gavekit():
    """Import gavekit from this checkout's ``src``, never from elsewhere."""
    package = os.path.join(SRC, "gavekit", "__init__.py")
    if not os.path.isfile(package):
        raise SystemExit(f"perfbench: {package} not found; run from a gavekit checkout")
    sys.path.insert(0, SRC)
    import gavekit

    if os.path.realpath(gavekit.__file__) != os.path.realpath(package):
        raise SystemExit(f"perfbench: imported gavekit from {gavekit.__file__}")
    return gavekit


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def quantiles(values, probs):
    """Harrell-Davis quantile estimates.

    Each is a Beta-weighted mean of all order statistics, so a few dozen
    samples of unlike ops give steadier percentiles than one order
    statistic does.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    edges = np.arange(n + 1) / n
    return [
        float(np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), edges)) @ ordered)
        for p in probs
    ]


class SpeedProbe:
    """A fixed scipy kernel, never touched by gavekit, timed between ops
    and every ``TICK_S`` during them.

    The hosts this benchmark runs on change speed by 20-30% within seconds
    (shared cores and caches), and the probe slows down with them. Each
    timed interval (an op, a set-up) is divided by its local slow-down: the
    median of the probe times during and next to it, over ``REF_S``. The
    reported seconds are thus seconds at the probe's reference speed; the
    raw seconds are printed in the info line.
    """

    # Typical probe time on the machine the bounds were set on
    # (2-vCPU Intel Xeon guest, Python 3.11, scipy 1.17).
    REF_S = 0.025
    # Probe period inside an op: 5% of its time goes to probing.
    TICK_S = 0.5

    def __init__(self):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        m = 80
        tri = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(m, m))
        off = sp.diags([-1.0, -1.0], [-1, 1], shape=(m, m))
        self._matrix = (sp.kron(sp.eye(m), tri) + sp.kron(off, sp.eye(m))).tocsc()
        self._splu = spla.splu  # bound before the tracer rebinds splu
        self._x = np.ones(m * m)
        self.samples = []

    def __call__(self):
        """Time the kernel once; returns the index of the new sample."""
        t0 = time.perf_counter()
        lu = self._splu(self._matrix)
        y = self._x
        for _ in range(3):
            y = lu.solve(y)
        for _ in range(30):
            y = self._matrix @ y
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def slowdown(self, before, after):
        """Slow-down of an interval that probe ``before`` precedes and probe
        ``after`` follows: the median of the probes run during it and of
        the two probes on each side."""
        near = self.samples[max(0, before - 1) : after + 2]
        return statistics.median(near) / self.REF_S

    @contextlib.contextmanager
    def during(self, active=True):
        """Probe every ``TICK_S`` while the body runs.

        A timer signal runs the probe between two bytecodes of the body.
        Yields a list of (start, seconds) of these probes, whose time the
        caller takes off the body's time. The tracer's spans would count
        that time too, so traced runs pass ``active=False``.
        """
        probes = []
        if not active:
            yield probes
            return

        def tick(signum, frame):
            t0 = time.perf_counter()
            self()
            probes.append((t0, time.perf_counter() - t0))

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        try:
            yield probes
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def timed_call(fn, probe, active):
    """(fn(), seconds fn took, not counting the probes run during it)."""
    with probe.during(active) as probes:
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
    return out, t1 - t0 - sum(s for start, s in probes if start < t1)


def run_op(op):
    """The op's summary; an op that raises is a failed op, not a crash."""
    try:
        return op.run()
    except Exception as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def time_op(op, probe, tracer, traced):
    """Run one op; returns (seconds, summary)."""
    root = tracer.begin_op(op.name) if traced else None
    summary, elapsed = timed_call(lambda: run_op(op), probe, tracer is None)
    if traced:
        tracer.end_op(root)
    return elapsed, summary


def run_setups(workload, sizes, probe, tracer, workloads, layers):
    """Set the inputs up ``setup_reps`` times, with a probe around each.

    Returns (ops, raw seconds per set-up, normalized seconds, layer dicts).
    """
    os.makedirs(TMP_DIR, exist_ok=True)
    raw, normalized, layer_reps = [], [], []
    ops = None
    before = probe()
    for _ in range(sizes.setup_reps[workload]):
        workdir = tempfile.mkdtemp(dir=TMP_DIR)
        try:
            if tracer is not None:
                tracer.reset()
                tracer.active = True
                root = tracer.begin_op("setup")
            ops, elapsed = timed_call(
                lambda: workloads.setup(workload, workdir, sizes), probe, tracer is None
            )
            raw.append(elapsed)
            if tracer is not None:
                tracer.end_op(root)
                tracer.active = False
                layer_reps.append(layers.layer_metrics(tracer))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        after = probe()
        normalized.append(raw[-1] / probe.slowdown(before, after))
        before = after
    return ops, raw, normalized, layer_reps


class Sample:
    __slots__ = ("op", "raw_s", "seconds", "summary")

    def __init__(self, op, raw_s, seconds, summary):
        self.op = op
        self.raw_s = raw_s
        self.seconds = seconds
        self.summary = summary


class Pass:
    """One pass over every op, in the pass's order."""

    def __init__(self, traced):
        self.traced = traced
        self.samples = []
        self.layers = None

    @property
    def raw_s(self):
        return sum(s.raw_s for s in self.samples)

    @property
    def seconds(self):
        return sum(s.seconds for s in self.samples)


def run_passes(ops, seed, seconds, min_passes, probe, tracer, layers):
    """Whole passes in seed-shuffled order until ``seconds`` have elapsed
    and at least ``min_passes`` passes have run.

    A probe runs before the first op of a pass and after every op. With a
    tracer, even passes run untraced and odd passes traced.
    """
    rng = random.Random(seed)
    order = list(range(len(ops)))
    passes = []
    t_begin = time.perf_counter()
    while True:
        current = Pass(tracer is not None and len(passes) % 2 == 1)
        rng.shuffle(order)
        before = probe()
        if current.traced:
            tracer.reset()
            tracer.active = True
        timed = []
        for i in order:
            elapsed, summary = time_op(ops[i], probe, tracer, current.traced)
            after = probe()
            timed.append((ops[i], elapsed, summary, before, after))
            before = after
        if current.traced:
            tracer.active = False
            current.layers = layers.layer_metrics(tracer)
        for op, elapsed, summary, before, after in timed:
            current.samples.append(
                Sample(op, elapsed, elapsed / probe.slowdown(before, after), summary)
            )
        passes.append(current)
        if time.perf_counter() - t_begin >= seconds and len(passes) >= min_passes:
            return passes


def check_samples(passes, reference, known_failures, workloads):
    """Classify every op sample; returns (status counts, lines to print)."""
    counts = {"ok": 0, "known-defect": 0, "failed": 0}
    by_op = {}
    for current in passes:
        for sample in current.samples:
            op = sample.op
            status, reason = workloads.classify(
                op, sample.summary, reference.get(op.name), known_failures.get(op.name)
            )
            counts[status] += 1
            if status != "ok":
                key = (status, op.name, reason)
                by_op[key] = by_op.get(key, 0) + 1
    lines = []
    for (status, name, reason), n in sorted(by_op.items()):
        label = "FAIL" if status == "failed" else "KNOWN-DEFECT"
        lines.append(f"{label} {name} (x{n}): {reason}")
    return counts, lines


def median_merge(setup_layers, pass_layers):
    """Per-layer value of one set-up plus one pass (medians over reps)."""
    merged = {}
    for key in pass_layers[0]:
        in_pass = statistics.median(d[key] for d in pass_layers)
        if key in RATIO_METRICS:
            merged[key] = in_pass
        else:
            merged[key] = statistics.median(d[key] for d in setup_layers) + in_pass
    return merged


def run(workload, seed, seconds, trace, sizes=None, reference=None, known_failures=None):
    """Run one workload; returns (result dict, lines to print before it)."""
    gk = import_gavekit()
    import layers
    import workloads

    sizes = sizes or workloads.FULL
    if reference is None:
        reference = load_json(REFERENCE)["ops"]
    if known_failures is None:
        known_failures = load_json(KNOWN_FAILURES)["ops"]
    units = {
        m["name"]: m["unit"]
        for key in ("end_to_end", "per_layer")
        for m in load_json(BENCHMARK_JSON)[key]
    }

    probe = SpeedProbe()
    tracer = None
    if trace:
        tracer = layers.Tracer()
        tracer.install()
    try:
        ops, setup_raw, setup_s, setup_layers = run_setups(
            workload, sizes, probe, tracer, workloads, layers
        )
        passes = run_passes(
            ops, seed, seconds, sizes.min_passes[workload], probe, tracer, layers
        )
        if tracer is not None:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl.gz"))
    finally:
        if tracer is not None:
            tracer.uninstall()

    counts, lines = check_samples(passes, reference, known_failures, workloads)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(len(p.samples) for p in passes)
    op_s = [s.seconds for p in untraced for s in p.samples]
    op_raw = [s.raw_s for p in untraced for s in p.samples]
    p50, p90 = quantiles(op_s, [0.5, 0.9])
    if trace:
        values = median_merge(setup_layers, [p.layers for p in traced])
        values["trace.overhead_s"] = statistics.median(
            p.seconds for p in traced
        ) - statistics.median(p.seconds for p in untraced)
    else:
        values = {
            "wall_s": statistics.median(p.seconds for p in untraced),
            "op_s.p50": p50,
            "op_s.p90": p90,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": counts["ok"] / attempted,
        }
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops_per_pass": len(ops),
        "passes": [
            {"traced": p.traced, "raw_s": p.raw_s, "seconds": p.seconds} for p in passes
        ],
        "op_samples_timed": len(op_s),
        "op_samples_beyond_p90": sum(1 for t in op_s if t > p90),
        "raw": {
            "wall_s": statistics.median(p.raw_s for p in untraced),
            "op_s.p50": quantiles(op_raw, [0.5])[0],
            "op_s.p90": quantiles(op_raw, [0.9])[0],
            "setup_s": statistics.median(setup_raw),
        },
        "setup": {"raw_s": setup_raw, "seconds": setup_s},
        "probe": {
            "ref_s": SpeedProbe.REF_S,
            "count": len(probe.samples),
            "median_s": statistics.median(probe.samples),
        },
        "ops": counts,
        "env": environment(gk),
    }
    lines.insert(0, "info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": counts["failed"] == 0,
        "attempted": attempted,
        "failed": counts["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    return result, lines


def _read(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_revision():
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(ROOT, ".git", ref))
    if loose:
        return loose
    packed = _read(os.path.join(ROOT, ".git", "packed-refs")) or ""
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def _source_digest():
    """sha256 over src/gavekit/*.py, which names the code without git."""
    import hashlib

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gavekit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _cpu():
    model = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        size = _read(os.path.join(base, index, "size"))
        if level and kind and size:
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return model, caches


def _kib(size):
    if size is None:
        return None
    units = {"K": 1, "M": 1024, "G": 1024 * 1024}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size) // 1024


def environment(gk):
    import numpy
    import scipy

    model, caches = _cpu()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    l3_kib = _kib(caches.get("L3"))
    if l3_kib:
        fits = peak_kib < l3_kib
        note = (
            f"process high-water mark {peak_kib / 1024:.0f} MiB "
            f"{'fits in' if fits else 'exceeds'} the {l3_kib / 1024:.0f} MiB L3"
            + ("; no bandwidth metric is reported" if fits else "")
        )
    else:
        note = "L3 size unknown; no bandwidth metric is reported"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gavekit": gk.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": model,
        "caches": caches,
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "client": "closed loop, one client, ops serial in one process",
        "working_set": note,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("exact-tables", "inexact-tables", "alpha-sweep", "certify"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
