#!/usr/bin/env python3
"""bicomplex-lab benchmark: two workloads, end to end and per module.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload models --seed 1 --seconds 45 --trace 0

Workloads (one caller, closed loop: the next operation starts only after
the previous one finished):

* ``models`` -- CLI ``check --format json`` on the structure-equation
  ladder iwasawa, kodaira, torus3, torus4, nil4 (``.bba`` files written at
  set-up), then CLI ``cohomology --format json`` on nil5 (total dim 1024),
  read from a JSON file made at set-up by the CLI ``convert``.  A
  researcher's main use: few, large blocks.  ``zigzag.decompose``
  dominates the ``check`` operations; it never runs in the nil5
  operation, whose cost is in ``cohomology``, ``exactla`` on the largest
  blocks and the JSON parse path, so a decompose-only change must leave
  ``tables_s.nil5`` unchanged.
* ``corpus`` -- per seed, ``random_bicomplex(seed)`` then
  ``run_all_checks(k)``, for seeds [S, S+400) plain and [S, S+100)
  symmetric, S being ``--seed``.  Tiny complexes, so per-call overhead
  dominates and cohomology outweighs decompose, the reverse of the
  ``check`` operations.

The ``check`` and ``cohomology`` operations on the models share one
workload, not one each, so that on a noisy shared host each run can
measure longer within a fixed time for all runs.  The models
workload has fixed inputs; ``--seed`` only moves the corpus.  A run makes
passes over the workload's operations until ``--seconds`` have gone by;
the first pass is always whole.

``--trace 0`` prints the end-to-end metrics, the same three on every
workload: ``setup_s`` (median of at least five set-ups, each a fresh
import of the package plus writing and checking the inputs), ``wall_s``
(time of one pass over the workload's inputs, summing each input's
median latency) and ``peak_rss_mb`` (``ru_maxrss`` of this
process, one workload per process, read before the reference checks).
The lines before the result also give ``fail_ratio`` with its base and
the workload's own figures (``check_s.nil4``, ``check_s.torus4`` and
``tables_s.nil5``; ``complexes_per_s``, ``complex_p50_ms`` and
``complex_p95_ms``), each with its sample count.

``--trace 1`` runs one untraced pass and two passes under the span tracer
(``tracer.py``) and prints the per-module metrics of the first traced
pass.  It checks that both traced passes give identical counts and that
traced and untraced outputs are byte-identical, reports the tracing
overhead, and times ``clio.run_corpus`` on the first 100 corpus seeds with
``BICOMPLEX_LAB_THREADS`` = 1 and 2 (never above the core count), whose
CSV bytes must match.

Every output is checked against references that do not come from the
code under test: closed forms for the tori, the README's summand counts
for iwasawa, the Euler characteristic and E_infinity anti-diagonal sums
for nil5, the corpus generator's ground truth, and SHA-256 digests of the
CLI outputs recorded on the commit that introduced this benchmark
(``digests.json``; the nil5 ``cohomology`` digest was recorded from both
the ``.bba`` file and the converted JSON, which gave the same bytes).
A failed check never aborts the run; it counts the operations it
concerns as failed.

Which per-module metric should move which end-to-end metric:

* ``zigzag.*`` and the ``exactla.rank`` calls under decompose move
  ``wall_s`` on models (through ``check_s.*``), a small part of corpus
  latency, and nothing in ``tables_s.nil5``.
* ``cohomology.frolicher_pages``, ``cohomology.natural_maps``,
  ``bicomplex.ensure_valid.calls``, ``exactla.kernel_basis.*`` and
  ``exactla.Subspace.from_columns.*`` move ``wall_s`` on models (large
  blocks, mostly through ``tables_s.nil5``) and ``wall_s`` and
  ``complex_p50_ms`` on corpus (tiny blocks).
* Per-call overhead shows on corpus; fill-in and coefficient growth
  (``cells`` per call, ``basis_max_bits``) show on models.
* ``clio.parse_bicomplex_file`` moves ``tables_s.nil5``;
  ``models.random_bicomplex`` moves corpus latency.
* A new cache or per-complex store shows in ``peak_rss_mb`` on models.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with run
metadata and per-metric sample counts, and the traced run's spans go to
``perfbench/out/``.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
PACKAGE = "bicomplex_lab"

MODELS = {
    "iwasawa": "n = 3\nd w1 = 0\nd w2 = 0\nd w3 = -1* w1^w2\n",
    "kodaira": "n = 2\nd w2 = w1^cw1\n",
    "torus3": "n = 3\n",
    "torus4": "n = 4\n",
    "nil4": "n = 4\nd w3 = -1* w1^w2\nd w4 = w1^cw1\n",
    "nil5": "n = 5\nd w3 = -1* w1^w2\nd w4 = w1^cw1\nd w5 = w1^w3\n",
}
LADDER = ("iwasawa", "kodaira", "torus3", "torus4", "nil4")
TOTAL_DIM = {"torus4": 256, "nil4": 256, "nil5": 1024}
IWASAWA_PARTS = {"squares": 1, "zigzags": 12, "dots": 36}
N_PLAIN = 400
N_SYMMETRIC = 100
POOL_SEEDS = 100
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
THEORIES = ("de_rham", "dolbeault", "conj_dolbeault", "bott_chern", "aeppli")

DIGESTS = json.loads((BENCH_DIR / "digests.json").read_text())


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cli(lab, argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lab.clio.main(argv)
    return code, buf.getvalue()


def import_package():
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lab = importlib.import_module(PACKAGE)
    for sub in tracing.LAYERS:
        importlib.import_module(f"{PACKAGE}.{sub}")
    return lab


# --------------------------------------------------------------------------
# Workloads.  Each one writes its inputs in ``setup`` (returning the
# problems found), lists one pass of operation keys, runs one operation in
# ``run`` (the only timed code), renders its output in ``output`` and
# checks it in ``check_output``.  ``reference`` checks one input against
# its independent reference after the measured window.
# --------------------------------------------------------------------------

class Models:
    """``check`` on the ladder's ``.bba`` files, then ``cohomology`` on the
    nil5 JSON; one pass is LADDER followed by ``nil5``."""
    name = "models"

    def __init__(self, lab, workdir, seed):
        self.lab = lab
        self.paths = {m: workdir / f"{m}.bba" for m in (*LADDER, "nil5")}
        self.json_dir = workdir / "nil5-json"
        self.json = self.json_dir / "bicomplex.json"

    def setup(self):
        """``convert`` validates nil5 (exit code 2 if it is not valid); its
        total dim is read off the JSON without the package."""
        problems = []
        for model in LADDER:
            self.paths[model].write_text(MODELS[model])
            problems += check_model_file(self.lab, self.paths[model], model)
        self.paths["nil5"].write_text(MODELS["nil5"])
        code, _ = cli(self.lab, ["convert", "--in", str(self.paths["nil5"]),
                                 "--out", str(self.json_dir)])
        if code != 0:
            return problems + [f"convert exited with {code}"]
        text = self.json.read_text()
        if sha256(text) != DIGESTS["convert.nil5"]:
            problems.append("nil5 JSON differs from the recorded digest")
        total = sum(json.loads(text)["spaces"].values())
        if total != TOTAL_DIM["nil5"]:
            problems.append(f"nil5: total dim {total}, expected 1024")
        return problems

    def keys(self):
        return [*LADDER, "nil5"]

    def run(self, key):
        if key == "nil5":
            return cli(self.lab, ["cohomology", "--format", "json",
                                  "--in", str(self.json)])
        return cli(self.lab, ["check", "--format", "json",
                              "--in", str(self.paths[key])])

    def output(self, key, result):
        return result[1]

    def check_output(self, key, result, text):
        if result[0] != 0:
            return False
        if key == "nil5":
            return (sha256(text) == DIGESTS["cohomology.nil5"]
                    and nil_tables_consistent(json.loads(text), 5))
        return sha256(text) == DIGESTS[f"check.{key}"]

    def reference(self, key):
        lab = self.lab
        if key in ("torus3", "torus4"):
            return torus_matches(lab, self.paths[key], int(key[-1]))
        if key == "iwasawa":
            k = lab.clio.parse_bicomplex_file(self.paths[key])
            return part_counts(lab, lab.zigzag.decompose(k).parts) \
                == IWASAWA_PARTS
        return True

    def figures(self, ops):
        def latency(model):
            return median("s", [t for key, t, _ in ops if key == model])
        return {"check_s.nil4": latency("nil4"),
                "check_s.torus4": latency("torus4"),
                "tables_s.nil5": latency("nil5")}


class Corpus:
    name = "corpus"

    def __init__(self, lab, workdir, seed):
        self.lab = lab
        self.seed = seed
        self.first_output = {}

    def setup(self):
        return []

    def keys(self):
        return ([(False, s) for s in range(self.seed, self.seed + N_PLAIN)]
                + [(True, s)
                   for s in range(self.seed, self.seed + N_SYMMETRIC)])

    def run(self, key):
        symmetric, seed = key
        rb = self.lab.models.random_bicomplex(seed, symmetric=symmetric)
        return rb, self.lab.checkers.run_all_checks(rb.bicomplex)

    def output(self, key, result):
        return json.dumps([rep.to_json_dict() for rep in result[1]],
                          sort_keys=True)

    def check_output(self, key, result, text):
        theorems = self.lab.checkers.THEOREM_CHECK_NAMES
        if any(rep.check_name in theorems and rep.verdict == "fails"
               for rep in result[1]):
            return False
        return self.first_output.setdefault(key, text) == text

    def reference(self, key):
        """Decompose parts equal the generator's ground truth, and the
        zigzag count equals the elimination tables."""
        lab = self.lab
        symmetric, seed = key
        rb = lab.models.random_bicomplex(seed, symmetric=symmetric)
        d = lab.zigzag.decompose(rb.bicomplex)
        counted = lab.zigzag.count_cohomology_from_zigzags(d)
        tables = lab.cohomology.all_tables(rb.bicomplex)
        return (Counter(d.parts) == Counter(rb.parts)
                and all(getattr(counted, t).dims == getattr(tables, t).dims
                        for t in THEORIES))

    def figures(self, ops):
        times = [t * 1e3 for _, t, _ in ops]
        return {"complexes_per_s": metric("1/s", len(times) * 1e3 / sum(times),
                                          len(times)),
                "complex_p50_ms": median("ms", times),
                "complex_p95_ms": metric(
                    "ms", statistics.quantiles(times, n=20)[-1], len(times))}


WORKLOADS = {w.name: w for w in (Models, Corpus)}


# --------------------------------------------------------------------------
# Independent references.
# --------------------------------------------------------------------------

def check_model_file(lab, path, model):
    """Set-up assertions: the model parses, is valid, has its total dim."""
    try:
        k = lab.clio.parse_bicomplex_file(path)
        lab.bicomplex.ensure_valid(k)
    except Exception as exc:  # reported as a failed set-up check
        return [f"{model}: {exc!r}"]
    want = TOTAL_DIM.get(model)
    if want is not None and k.total_dim != want:
        return [f"{model}: total dim {k.total_dim}, expected {want}"]
    return []


def torus_matches(lab, path, n):
    """Closed forms for the n-torus: h^{p,q} = C(n,p) C(n,q) in all four
    bigraded theories, b_k = C(2n,k), and 4^n lone-dot summands."""
    k = lab.clio.parse_bicomplex_file(path)
    tables = lab.cohomology.all_tables(k)
    hodge = {(p, q): comb(n, p) * comb(n, q)
             for p in range(n + 1) for q in range(n + 1)}
    betti = {d: comb(2 * n, d) for d in range(2 * n + 1)}
    parts = lab.zigzag.decompose(k).parts
    return (all(getattr(tables, t).dims == hodge for t in THEORIES[1:])
            and tables.de_rham.dims == betti
            and len(parts) == 4 ** n
            and part_counts(lab, parts)["dots"] == 4 ** n)


def part_counts(lab, parts):
    counts = {"squares": 0, "zigzags": 0, "dots": 0}
    for part in parts:
        if isinstance(part, lab.zigzag.Square):
            counts["squares"] += 1
        elif part.is_dot:
            counts["dots"] += 1
        else:
            counts["zigzags"] += 1
    return counts


def nil_tables_consistent(obj, n):
    """Euler characteristic of the exterior algebra on 2n generators (0)
    and anti-diagonal sums of E_infinity equal to the Betti numbers."""
    betti = {int(d): v for d, v in obj["deRham"].items()}
    euler = sum((-1) ** d * v for d, v in betti.items())
    expected_euler = sum((-1) ** d * comb(2 * n, d) for d in range(2 * n + 1))
    diagonal = Counter()
    for key, v in obj["frolicher"]["eInfinity"].items():
        p, q = (int(x) for x in key.split(","))
        diagonal[p + q] += v
    return (euler == expected_euler
            and all(diagonal[d] == v for d, v in betti.items())
            and sum(diagonal.values()) == sum(betti.values()))


# --------------------------------------------------------------------------
# Running.
# --------------------------------------------------------------------------

def set_up(workload_cls, seed, workdir):
    """Import the package and write the inputs, at least SETUP_MIN_REPEATS
    times and until SETUP_MIN_SECONDS have been spent in set-up.

    Returns (workload, problems, set-up durations); the last set-up wins.
    """
    durations = []
    while (len(durations) < SETUP_MIN_REPEATS
           or sum(durations) < SETUP_MIN_SECONDS):
        gc.collect()  # drop the previous import's modules outside the timing
        t0 = time.perf_counter()
        lab = import_package()
        wl = workload_cls(lab, workdir, seed)
        problems = wl.setup()
        durations.append(time.perf_counter() - t0)
    return wl, problems, durations


def run_pass(wl, tracer=None, deadline=None):
    """One pass over the workload's keys, cut short at ``deadline`` if one
    is given; returns (wall, ops, outputs).

    ``ops`` holds [key, seconds, ok] per operation; only ``wl.run`` is
    timed.  Each result is checked and dropped before the next operation,
    so the heap does not grow during the first pass and every pass costs
    the same.
    """
    ops, outputs = [], []
    start = time.perf_counter()
    for i, key in enumerate(wl.keys()):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.current_op = i
        t0 = time.perf_counter()
        try:
            result = wl.run(key)
        except Exception as exc:  # the failure is counted, the run goes on
            seconds = time.perf_counter() - t0
            print(f"# operation {key} raised {exc!r}", file=sys.stderr)
            ok, text = False, None
        else:
            seconds = time.perf_counter() - t0
            text = wl.output(key, result)
            ok = wl.check_output(key, result, text)
            if not ok:
                print(f"# output check failed for {key}", file=sys.stderr)
        ops.append([key, seconds, ok])
        outputs.append(text)
    return time.perf_counter() - start, ops, outputs


def apply_reference_checks(wl, ops, problems):
    """Check each distinct input once against its reference, after the
    measured window; a failed or raising check fails every operation on
    that input, and a failed set-up check fails every operation."""
    verdicts = {}
    for key in dict.fromkeys(key for key, _, _ in ops):
        try:
            verdicts[key] = wl.reference(key)
        except Exception as exc:  # a failed check is counted, not raised
            print(f"# reference check for {key} raised {exc!r}",
                  file=sys.stderr)
            verdicts[key] = False
        if not verdicts[key]:
            print(f"# reference check failed for {key}", file=sys.stderr)
    for op in ops:
        if problems or not verdicts[op[0]]:
            op[2] = False


def pool_layer(lab, seed):
    """Time clio.run_corpus on POOL_SEEDS seeds with 1 and 2 workers."""
    cores = os.cpu_count() or 1
    timings, outputs = {}, {}
    previous = os.environ.get("BICOMPLEX_LAB_THREADS")
    try:
        for threads in (1, 2):
            os.environ["BICOMPLEX_LAB_THREADS"] = str(min(threads, cores))
            config = lab.clio.RunConfig(command="corpus", seed=seed,
                                        n_corpus=POOL_SEEDS)
            t0 = time.perf_counter()
            outputs[threads] = lab.clio.run_corpus(config)
            timings[threads] = time.perf_counter() - t0
    finally:
        if previous is None:
            os.environ.pop("BICOMPLEX_LAB_THREADS", None)
        else:
            os.environ["BICOMPLEX_LAB_THREADS"] = previous
    ok = outputs[1] == outputs[2] and not outputs[1][1]
    return timings, ok


def metric(unit, value, samples=1):
    return {"value": value, "unit": unit, "samples": samples}


def median(unit, samples):
    return metric(unit, statistics.median(samples), len(samples))


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(lab, args):
    rat = lab.exactla._rat
    return {"python": platform.python_version(),
            "backend": f"{rat.__module__}.{rat.__qualname__}",
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace}


def measure(wl, seconds):
    """Passes until ``seconds`` have gone by.  The first pass is always
    whole; a later one stops at the deadline, so a run lasts ``seconds``
    plus at most one operation, not one pass."""
    deadline = time.perf_counter() + seconds
    ops = run_pass(wl)[1]
    while time.perf_counter() < deadline:
        ops.extend(run_pass(wl, deadline=deadline)[1])
    return ops


def pass_seconds(ops):
    """Time of one pass, as the sum over inputs of each input's median
    latency: a slow spell then costs one sample per input, not a pass."""
    by_key = {}
    for key, seconds, _ in ops:
        by_key.setdefault(key, []).append(seconds)
    return sum(statistics.median(v) for v in by_key.values())


def end_to_end(wl, args, setup_times, problems):
    ops = measure(wl, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    apply_reference_checks(wl, ops, problems)
    failed = sum(1 for _, _, ok in ops if not ok)
    metrics = {"setup_s": median("s", setup_times),
               "wall_s": metric("s", pass_seconds(ops), len(ops)),
               "peak_rss_mb": metric("MB", rss_mb)}
    extra = {"fail_ratio": metric("ratio", failed / len(ops), len(ops)),
             **wl.figures(ops)}
    return len(ops), failed, metrics, extra


LAYER_TOTALS = {
    "cohomology": ("de_rham", "dolbeault", "conj_dolbeault", "bott_chern",
                   "aeppli", "frolicher_pages", "natural_maps",
                   "all_tables"),
    "zigzag": ("verify_decomposition", "count_cohomology_from_zigzags"),
    "checkers": tracing.LAYERS["checkers"],
    "models": tracing.LAYERS["models"],
    "clio": ("parse_bicomplex_file", "emit_tables"),
}
COUNT_SUFFIXES = (".calls", ".cells", ".madds", ".rank_calls", ".rank_cells",
                  ".basis_nnz", ".basis_max_bits", ".errors")


def layer_metrics(tr):
    """The per-module metrics of one traced pass, by name."""
    stats, dec = tr.aggregate()
    out = {}
    exactla = [f"exactla.{f}" for f in tracing.LAYERS["exactla"]]
    exactla += [label for *_, label in tracing.METHODS]
    for label in exactla:
        out[f"{label}.calls"] = metric("count", stats[label]["calls"])
        out[f"{label}.self_s"] = metric("s", stats[label]["self_ns"] / 1e9)
    for label in tracing.ECHELON_ENTRY_POINTS:
        out[f"{label}.cells"] = metric("cells", stats[label]["work"])
    out["exactla.Matrix.matmul.madds"] = metric(
        "count", stats["exactla.Matrix.matmul"]["work"])
    out["exactla.self_s"] = metric("s", sum(stats[label]["self_ns"]
                                      for label in exactla) / 1e9)
    out["bicomplex.ensure_valid.calls"] = metric(
        "count", stats["bicomplex.ensure_valid"]["calls"])
    out["bicomplex.validate.self_s"] = metric(
        "s", stats["bicomplex.validate"]["self_ns"] / 1e9)
    out["bicomplex.totalize.calls"] = metric(
        "count", stats["bicomplex.totalize"]["calls"])
    out["bicomplex.totalize.self_s"] = metric(
        "s", stats["bicomplex.totalize"]["self_ns"] / 1e9)
    decompose = stats["zigzag.decompose"]
    out["zigzag.decompose.total_s"] = metric("s", decompose["total_ns"] / 1e9)
    out["zigzag.decompose.self_s"] = metric("s", decompose["self_ns"] / 1e9)
    out["zigzag.decompose.rank_calls"] = metric("count", dec["rank_calls"])
    out["zigzag.decompose.rank_cells"] = metric("cells", dec["rank_cells"])
    out["zigzag.decompose.basis_nnz"] = metric("count", dec["basis_nnz"])
    out["zigzag.decompose.basis_max_bits"] = metric("bits", dec["basis_max_bits"])
    for layer, funcs in LAYER_TOTALS.items():
        for func in funcs:
            out[f"{layer}.{func}.total_s"] = metric(
                "s", stats[f"{layer}.{func}"]["total_ns"] / 1e9)
    out["clio.main.self_s"] = metric("s", stats["clio.main"]["self_ns"] / 1e9)
    for layer in tracing.LAYERS:
        out[f"{layer}.errors"] = metric("count", tr.errors[layer])
    return out


def traced(wl, args, problems):
    lab = wl.lab
    wall_u, ops, outputs_u = run_pass(wl)
    tracers, walls, all_ops = [], [], list(ops)
    self_test = []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            wall, pass_ops, outputs = run_pass(wl, tr)
        finally:
            tr.uninstall()
        for op, text, reference in zip(pass_ops, outputs, outputs_u):
            if text != reference:
                op[2] = False
                self_test.append(f"traced output differs for {op[0]}")
        tracers.append(tr)
        walls.append(wall)
        all_ops.extend(pass_ops)
    first, second = (layer_metrics(tr) for tr in tracers)
    for name, entry in first.items():
        again = second[name]["value"]
        if name.endswith(COUNT_SUFFIXES) and again != entry["value"]:
            self_test.append(f"{name} differs between traced passes: "
                             f"{entry['value']} vs {again}")
    timings, pool_ok = pool_layer(lab, args.seed)
    if not pool_ok:
        self_test.append("run_corpus CSV differs between 1 and 2 workers "
                         "or reports a theorem failure")
    apply_reference_checks(wl, all_ops, problems)
    metrics = dict(first)
    metrics["clio.run_corpus.threads1_s"] = metric("s", timings[1])
    metrics["clio.run_corpus.threads2_s"] = metric("s", timings[2])
    metrics["bench.trace_overhead_s"] = metric("s", walls[0] - wall_u)
    metrics["bench.spans"] = metric("count", len(tracers[0].name))
    failed = sum(1 for _, _, ok in all_ops if not ok) + len(self_test)
    attempted = len(all_ops) + len(self_test)
    stem = f"{wl.name}-seed{args.seed}"
    tracers[0].write_spans(OUT / f"{stem}.spans.tsv.gz")
    extra = {"untraced_wall_s": metric("s", wall_u),
             "traced_wall_s": median("s", walls)}
    for problem in self_test:
        print(f"# self-test failed: {problem}", file=sys.stderr)
    return attempted, failed, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    wl, problems, setup_times = set_up(WORKLOADS[args.workload], args.seed,
                                       workdir)
    if Path(wl.lab.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        print(f"error: imported {PACKAGE} from {wl.lab.__file__}",
              file=sys.stderr)
        return 2
    for problem in problems:
        print(f"# set-up check failed: {problem}", file=sys.stderr)
    if args.trace:
        attempted, failed, metrics, extra = traced(wl, args, problems)
    else:
        attempted, failed, metrics, extra = end_to_end(wl, args, setup_times,
                                                       problems)
    meta = metadata(wl.lab, args)
    report = {**metrics, **extra}
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": report[name]["value"],
                                 "unit": report[name]["unit"]}
                          for name in metrics}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"meta": meta, **result, "metrics": report},
                             indent=2) + "\n")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    print(f"# fail_ratio {failed}/{attempted} operations")
    for name, entry in report.items():
        print(f"# {name} = {entry['value']!r} {entry['unit']} "
              f"(samples: {entry['samples']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
