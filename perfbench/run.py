"""ipcrypt benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sym-n256 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one table
    python3 perfbench/run.py --workload pke-n256 --quick --trace 1
    python3 -m pytest perfbench/test_bench.py          # output-schema smoke test

Each workload runs in one process with one client in a closed loop: an op
starts when the previous one has returned and its output has been checked.
Inputs come from ``--seed``.  BLAS and OpenMP are pinned to one thread.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and sample count, raw figures, and the environment.

Op times are in reference units (see calibration.py): each raw time is
scaled by a fixed library-free kernel timed between the ops, so that a host
that runs slower for a while does not read as a slower program.  The raw
figures are printed as ``raw.*``.

``--trace 0`` reports the end-to-end metrics, with no tracing:

* ``ops_per_s``: ops completed per second of program time, the median over
  ten equal wall-clock windows of the timed phase.  Program time is the time
  spent inside library calls, in-loop key rotations included; the
  benchmark's own input generation, output checks and calibration are left
  out.
* ``op_p50_us``: median latency of one op.  ``op_p90_us`` and ``op_p99_us``
  are printed with their sample counts but not bounded: on a shared host the
  tail widens and narrows with the neighbours' load, which scaling does not
  cancel, and their spread across runs is as wide as the largest bound.
* ``setup_s``: wall time from the start of a fresh process to its first
  verified op: interpreter and imports, the first BLAS call, the cold
  operator and eigendecomposition caches.  The median over SETUP_PROBES
  processes, not scaled.
* ``peak_rss_mb``: peak resident memory of those processes at their first
  verified op, the median over them.

``failure_rate`` (failed over attempted ops, an exception or a wrong output
counting as failed) is printed too; it is not a bounded metric because at a
correct commit it is exactly 0.

``--trace 1`` wraps the library's entry points (see tracing.py), runs half
the time untraced and half traced, and reports per-layer metrics: per-call
medians, self times, calls and computed bytes per op, cold set-up spans,
each layer's share of op time, the tracing overhead and how much of each
op its top-level spans cover.  The spans go to ``.perfbench_out/``.

``--quick`` runs one second with one set-up process, for smoke tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("sym-n256", "sym-n2048", "attack-n256", "pke-n256")

WINDOWS = 10
SETUP_PROBES = 7
WARMUP_S = 0.5
CALIBRATE_EVERY_S = 0.05
PROBE_TIMEOUT_S = 120
# Top-level spans must cover at least this share of an op's time, on at
# least COVERED_OPS of the traced ops.
COVERAGE_FLOOR = 0.9
COVERED_OPS = 0.99
# Tracebacks printed per run; every failure is counted regardless.
MAX_TRACEBACKS = 3

FORMAT_KINDS = {
    "sym_ciphertext": "IPC1",
    "hybrid_ciphertext": "IPH1",
    "kem_ciphertext": "IPQ1-ciphertext",
    "kem_public_key": "IPQ1-public",
}


class Runner:
    """Drives one workload's ops, timing the library calls and counting failures."""

    def __init__(self, workload, tracer=None) -> None:
        self.wl = workload
        self.tracer = tracer
        self.i = 0
        self.attempted = 0
        self.failed = 0
        self.blob_bytes = 0

    def _timed(self, kind: str, fn):
        tracer = self.tracer
        uid = tracer.begin(kind) if tracer else None
        start = time.perf_counter_ns()
        try:
            out = fn()
        finally:
            end = time.perf_counter_ns()
            if tracer:
                tracer.end(uid, start, end)
        return out, end - start

    def step(self, kind: str = "op"):
        """One op, after a key rotation when one is due.

        Returns (op ns, program ns) for a verified op, or None when the op
        raised or returned a wrong output.  kind "setup" also runs the
        workload's one-time set-up and times it as program work.
        """
        wl, i = self.wl, self.i
        self.i += 1
        self.attempted += 1
        program_ns = 0
        try:
            if kind == "setup":
                _, program_ns = self._timed(kind, wl.setup)
            if wl.rotate_every and i % wl.rotate_every == 0:
                out, ns = self._timed("rotation" if kind == "op" else kind, wl.rotate)
                program_ns += ns
                if not wl.accept_rotation(out):
                    raise AssertionError("KEM public key did not survive its file round trip")
            inp = wl.make_input(i)
            out, op_ns = self._timed(kind, lambda: wl.op(inp))
            if not wl.check(inp, out):
                raise AssertionError(f"op {i} returned a wrong output")
        except Exception:
            self.failed += 1
            if self.failed <= MAX_TRACEBACKS:
                traceback.print_exc()
            return None
        self.blob_bytes += wl.blob_bytes(out)
        return op_ns, program_ns + op_ns


class Phase:
    """Ops run for a fixed wall time, with the calibration kernel timed between them.

    The kernel runs every CALIBRATE_EVERY_S, outside the ops.  Each op's raw
    times are scaled to reference time by the mean of the kernel samples
    taken just before and just after it.  Throughput is taken per window of
    1/WINDOWS of the phase and reported as the median window.
    """

    def __init__(self, runner: Runner, seconds: float, calibrator) -> None:
        import calibration

        clock = time.perf_counter_ns
        span = int(seconds * 1e9)
        every = int(CALIBRATE_EVERY_S * 1e9)
        kernel: list[int] = []
        ops = []  # (index of the last kernel sample, window, op ns, program ns)
        begin = clock()
        next_sample = begin
        while (now := clock()) - begin < span:
            if now >= next_sample:
                kernel.append(calibrator.sample())
                next_sample = clock() + every
                continue
            result = runner.step()
            if result is not None:
                window = min((now - begin) * WINDOWS // span, WINDOWS - 1)
                ops.append((len(kernel) - 1, window, *result))
        after = kernel[1:] + kernel[-1:]
        factors = [calibration.factor(calibrator.n, [a, b]) for a, b in zip(kernel, after)]
        self.factor = statistics.median(factors)
        self.raw = sorted(op_ns for _, _, op_ns, _ in ops)
        self.scaled = sorted(op_ns * factors[k] for k, _, op_ns, _ in ops)
        count, raw_ns, scaled_ns = [0] * WINDOWS, [0] * WINDOWS, [0.0] * WINDOWS
        for k, w, _, program_ns in ops:
            count[w] += 1
            raw_ns[w] += program_ns
            scaled_ns[w] += program_ns * factors[k]
        windows = [w for w in range(WINDOWS) if count[w]] or [0]
        self.raw_ops_per_s = statistics.median(count[w] / max(raw_ns[w], 1) * 1e9 for w in windows)
        self.ops_per_s = statistics.median(count[w] / max(scaled_ns[w], 1) * 1e9 for w in windows)

    @staticmethod
    def percentile_us(ordered: list, q: float) -> float:
        """Nearest rank: the smallest sample with at least q% of samples at or below it."""
        if not ordered:
            return 0.0
        rank = max(1, -(-len(ordered) * q // 100))
        return ordered[int(rank) - 1] / 1e3

    def beyond(self, q: float) -> int:
        cut = self.percentile_us(self.scaled, q) * 1e3
        return sum(1 for ns in self.scaled if ns > cut)


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def environment() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        deps = {}

    def lib(kind: str) -> str:
        info = deps.get(kind, {})
        return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": lib("blas"),
        "lapack": lib("lapack"),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_PINS},
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
    }


def measure_setup(name: str, seed: int, probes: int):
    """Start fresh processes and time each until it reports its first verified op.

    Returns (set-up seconds, peak RSS MB) per probe that succeeded, and the
    number that failed.  Set-up is not scaled to reference time: the kernel
    is no guide to import and cold-cache work, and scaling widened its spread.
    """
    rows, failures = [], 0
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                ready = proc.stdout.readline().split()
                elapsed = time.perf_counter() - start
                proc.wait()
            finally:
                timer.cancel()
        if proc.returncode == 0 and ready[:1] == ["ready"]:
            rows.append((elapsed, int(ready[1]) / 1024))
        else:
            failures += 1
    return rows, failures


def run_untraced(name: str, seed: int, seconds: float, probes: int, warmup: float):
    probe_rows, probe_failures = measure_setup(name, seed, probes)
    from calibration import Calibrator
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    runner = Runner(wl)
    runner.step("setup")
    calibrator = Calibrator(wl.n)
    Phase(runner, warmup, calibrator)
    phase = Phase(runner, seconds, calibrator)
    attempted = runner.attempted + probes
    failed = runner.failed + probe_failures
    samples = len(phase.scaled)

    def median_of(column):
        return statistics.median(row[column] for row in probe_rows) if probe_rows else None

    metrics = {
        "ops_per_s": (phase.ops_per_s, "1/s", f"ops={samples} windows={WINDOWS}"),
        "op_p50_us": (phase.percentile_us(phase.scaled, 50), "us", f"samples={samples}"),
        "setup_s": (median_of(0), "s", f"samples={len(probe_rows)}, not scaled"),
        "peak_rss_mb": (median_of(1), "MB", f"samples={len(probe_rows)}"),
    }
    raw_note = f"not scaled; median scale factor {phase.factor!r}"
    shown = [(k, v, u, note) for k, (v, u, note) in metrics.items()] + [
        ("failure_rate", failed / attempted, "ratio", f"failed={failed} attempted={attempted}"),
        # Tails are printed but not bounded: their run-to-run spread on a
        # shared host is as wide as the largest bound allowed.
        ("op_p90_us", phase.percentile_us(phase.scaled, 90), "us",
         f"samples={samples} beyond={phase.beyond(90)}"),
        ("op_p99_us", phase.percentile_us(phase.scaled, 99), "us",
         f"samples={samples} beyond={phase.beyond(99)}"),
        ("raw.ops_per_s", phase.raw_ops_per_s, "1/s", raw_note),
        ("raw.op_p50_us", phase.percentile_us(phase.raw, 50), "us", raw_note),
        ("raw.op_p99_us", phase.percentile_us(phase.raw, 99), "us", raw_note),
        ("process.peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
         "the timed process, calibration matrix included"),
    ]
    correct = failed == 0 and bool(probe_rows)
    values = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    return correct, attempted, failed, values, shown


def run_traced(name: str, seed: int, seconds: float, warmup: float):
    import tracing
    from calibration import Calibrator
    from ipcrypt import hso, kem
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    tracer = tracing.Tracer()
    runner = Runner(wl, tracer)
    tracer.install()
    try:
        runner.step("setup")
    finally:
        tracer.uninstall()
    runner.tracer = None
    cold_build = tracer.first_span("hso.build_hso", "setup")
    cold_svd = tracer.first_span("hso.hso_svd", "setup")
    held = {id(a): a.nbytes for a in (
        hso.build_hso(wl.n).matrix,
        hso.hso_svd(wl.n).singular_values,
        hso.hso_svd(wl.n).left_vectors,
        hso.hso_svd(wl.n).right_vectors,
    )}

    calibrator = Calibrator(wl.n)
    Phase(runner, warmup, calibrator)
    untraced = Phase(runner, seconds / 2, calibrator)
    tracer.counts.clear()
    units_before = len(tracer.units)
    blob_before = runner.blob_bytes
    cache_before = kem.expand_matrix.cache_info()
    runner.tracer = tracer
    tracer.install()
    try:
        traced = Phase(runner, seconds / 2, calibrator)
    finally:
        tracer.uninstall()
        runner.tracer = None
    cache_after = kem.expand_matrix.cache_info()
    hits = cache_after.hits - cache_before.hits
    lookups = hits + cache_after.misses - cache_before.misses

    stats = tracing.SpanStats(tracer, ("op", "rotation"))
    ops = sum(1 for _, kind, _, _ in tracer.units[units_before:] if kind == "op")
    n = wl.n
    covered = sum(1 for c in stats.coverage if c >= COVERAGE_FLOOR) / max(len(stats.coverage), 1)

    def per_op(count):
        return count / ops if ops else 0.0

    metrics = {
        "noise.derive_error.us": (stats.median_us("noise.derive_error"), "us"),
        "noise.derive_error.calls_per_op": (per_op(stats.calls("noise.derive_error")), "count"),
        "hso.apply_operator.us": (stats.median_us("hso.apply_operator"), "us"),
        "hso.apply_operator.bytes": (float(n * n * 8), "bytes"),
        "hso.naive_inverse_apply.us": (stats.median_us("hso.naive_inverse_apply"), "us"),
        "hso.naive_inverse_apply.bytes": (float(2 * n * n * 8), "bytes"),
        "hso.build_hso.cold_s": (cold_build[0] if cold_build else None, "s"),
        "hso.hso_svd.cold_s": (cold_svd[1] if cold_svd else None, "s"),
        "hso.cache_bytes": (float(sum(held.values())), "bytes"),
        "encoding.encode.us": (stats.median_us("encoding.encode"), "us"),
        "encoding.decode.us": (stats.median_us("encoding.decode"), "us"),
        "grid.gridfunction_per_op": (per_op(tracer.counts[tracing.GRID_FUNCTION_COUNT]), "count"),
        "symmetric.sym_encrypt.self_us": (stats.median_us("symmetric.sym_encrypt", True), "us"),
        "formats.bytes_per_op": (per_op(runner.blob_bytes - blob_before), "bytes"),
        "kem.expand_matrix.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "attacks.spans_per_op": (per_op(stats.layer_calls("attacks")), "count"),
        "kem.spans_per_op": (per_op(stats.layer_calls("kem")), "count"),
        "trace.overhead_ops_per_s": (traced.ops_per_s - untraced.ops_per_s, "1/s"),
        "trace.coverage_ratio": (statistics.median(stats.coverage or [0.0]), "ratio"),
    }
    for layer in ("noise", "hso", "encoding", "symmetric", "formats", "kem", "attacks", "hybrid"):
        metrics[f"{layer}.share_pct"] = (stats.share_pct(layer), "%")

    # Layers that only some workloads call; absent ones print n/a and stay
    # out of the JSON metrics.
    extra = {
        "symmetric.sym_decrypt.self_us": stats.median_us("symmetric.sym_decrypt", True),
        "attacks.attack_naive.us": stats.median_us("attacks.attack_naive"),
        "attacks.attack_regularized.us": stats.median_us("attacks.attack_regularized"),
        "kem.kem_keygen.us": stats.median_us("kem.kem_keygen"),
        "kem.kem_encaps.us": stats.median_us("kem.kem_encaps"),
        "kem.kem_decaps.us": stats.median_us("kem.kem_decaps"),
        "kem.expand_matrix.us": stats.median_us("kem.expand_matrix"),
        "hybrid.pke_encrypt.self_us": stats.median_us("hybrid.pke_encrypt", True),
        "hybrid.pke_decrypt.self_us": stats.median_us("hybrid.pke_decrypt", True),
    }
    for suffix, kind in FORMAT_KINDS.items():
        extra[f"formats.write.{kind}.us"] = stats.median_us(f"formats.write_{suffix}")
        extra[f"formats.read.{kind}.us"] = stats.median_us(f"formats.read_{suffix}")

    coverage_ok = covered >= COVERED_OPS
    shown = [(k, v, u, "") for k, (v, u) in metrics.items()]
    shown.append(("kem.expand_matrix.lookups", lookups, "count", f"hits={hits}"))
    shown += [(k, v, "us", "") for k, v in extra.items()]
    shown += [(f"span.{span}.calls_per_op", per_op(stats.calls(span)), "count",
               f"median_us={stats.median_us(span)!r} self_us={stats.median_us(span, True)!r}")
              for span in sorted(stats.durations)]
    shown.append(("trace.untraced_ops_per_s", untraced.ops_per_s, "1/s",
                  f"traced={traced.ops_per_s!r}"))
    print(f"check coverage: {covered:.4f} of ops have top-level spans covering "
          f">= {COVERAGE_FLOOR} of their time (need {COVERED_OPS}): "
          f"{'PASS' if coverage_ok else 'FAIL'}")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{name}-spans.csv.gz")
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return runner.failed == 0, runner.attempted, runner.failed, values, shown


def setup_probe(name: str, seed: int) -> int:
    """Set up and run the first op, then report peak RSS; the parent times this."""
    from workloads import WORKLOADS

    runner = Runner(WORKLOADS[name](seed))
    runner.step("setup")
    if runner.failed:
        return 1
    print(f"ready {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}", flush=True)
    return 0


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith(("metric ", "check ")):
                print(f"{name}: {line}")
            if line.startswith("check ") and line.endswith("FAIL"):
                correct = False
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode} and no result", file=sys.stderr)
            correct = False
            continue
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    if args.trace and correct:
        correct = check_contrasts(metrics)
    return correct, attempted, failed, metrics, []


def check_contrasts(metrics: dict) -> bool:
    """The layer contrasts the workloads were chosen to show."""

    def value(workload, key):
        return metrics.get(f"{workload}.{key}", {}).get("value")

    def only_on(workload, key):
        return value(workload, key) > 0 and all(
            value(w, key) == 0 for w in WORKLOAD_NAMES if w != workload)

    checks = {
        "noise.derive_error share sym-n256 > sym-n2048":
            value("sym-n256", "noise.share_pct") > value("sym-n2048", "noise.share_pct"),
        "hso share sym-n2048 > sym-n256":
            value("sym-n2048", "hso.share_pct") > value("sym-n256", "hso.share_pct"),
        "kem spans only on pke-n256": only_on("pke-n256", "kem.spans_per_op"),
        "attacks spans only on attack-n256": only_on("attack-n256", "attacks.spans_per_op"),
    }
    for label, ok in checks.items():
        print(f"check {label}: {'PASS' if ok else 'FAIL'}")
    return all(checks.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="1 s run, one set-up process")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ipcrypt" / "__init__.py").is_file():
        print(f"ipcrypt sources not found under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    seconds, probes, warmup = args.seconds, SETUP_PROBES, WARMUP_S
    if args.quick:
        seconds, probes, warmup = 1.0, 1, 0.1
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = run_traced(args.workload, args.seed, seconds, warmup)
    else:
        result = run_untraced(args.workload, args.seed, seconds, probes, warmup)
    correct, attempted, failed, metrics, shown = result

    for key, value, unit, note in shown:
        print(f"metric {key} {'n/a' if value is None else repr(value)} {unit} {note}".rstrip())
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "env": env, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "printed": [{"name": k, "value": v, "unit": u, "note": n} for k, v, u, n in shown]}
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    os.environ.update(THREAD_PINS)
    sys.exit(main())
