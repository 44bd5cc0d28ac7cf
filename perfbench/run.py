"""steeplab benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout of the repository.  One client, one
process: each op is an in-process call of ``steeplab.cli.main(argv)`` that
starts when the previous one has finished, with ``--seed`` derived from the
workload seed.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` replays ops under spans and prints the
per-layer metrics.  The last line of standard output is one JSON object.
A full record (environment, every op time, output sha256 per op seed) is
written under ``.perfbench_out/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 20231
BLAS_THREADS = 1
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# a run that takes longer than this many times --seconds stops early
OVERRUN = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def op_count(workload, seconds: float) -> int:
    """Timed ops in a run: fixed by the workload and ``--seconds`` alone."""
    return max(1, round(seconds / workload.op_s))


def op_seed(seed: int, index: int) -> int:
    """CLI ``--seed`` of op ``index`` of a run with workload seed ``seed``."""
    return seed * 100_003 + index


# =====================================================================
# One op
# =====================================================================

def release_free_memory() -> None:
    """Return the C heap's free pages to the OS, where glibc allows it.

    The sweep's worker threads allocate from several malloc arenas, which
    keep freed pages, so without this the process's peak RSS drifts by
    10-15 MB over a run depending on which arenas the threads landed on.
    A CLI process runs a single op; trimming before each op gives each op
    the same start.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass


def run_op(workload, seed: int, size: dict, tmp: Path, argv=None):
    """Call the CLI once; a raised exception is a failed op, not a crash."""
    from steeplab import cli
    from workloads import OpOutcome

    path = tmp / f"{workload.name}-{seed}.out"
    argv = argv or workload.argv(seed, path, size)
    buf = io.StringIO()
    release_free_memory()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = -1
    return OpOutcome(rc=rc, stdout=buf.getvalue(), path=path,
                     seconds=time.perf_counter() - t0,
                     cpu_seconds=time.process_time() - cpu0)


class Tally:
    """Attempted and failed ops, whether any output was wrong, and why."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.wrong = False
        self.notes: list[str] = []
        self.sha256: dict[str, str] = {}

    def add(self, failed: bool, wrong: bool, note: str) -> None:
        self.attempted += 1
        self.failed += failed
        self.wrong |= wrong
        if note:
            self.notes.append(note)

    def check(self, workload, op, size: dict, seed: int):
        """Check one op's outputs, record their sha256, then delete them."""
        from workloads import Verdict

        try:
            verdict = workload.check(op, size)
        except Exception as exc:
            verdict = Verdict(True, True, 0, f"check raised {exc!r}")
        data = op.path.read_bytes() if op.path.exists() else b""
        self.sha256[str(seed)] = hashlib.sha256(data).hexdigest()
        op.path.unlink(missing_ok=True)
        self.add(verdict.failed, verdict.wrong,
                 f"{workload.name} seed {seed}: {verdict.note}" if verdict.note else "")
        return verdict, data


# =====================================================================
# Untraced run: end-to-end metrics
# =====================================================================

def tail(times: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least ten ops beyond it.

    Returns (percentile, value, ops beyond); with fewer than 11 ops it is
    the maximum, with no op beyond it.
    """
    s = sorted(times)
    n = len(s)
    if n < 11:
        return 100, s[-1], 0
    q = 100 * (n - 10) // n
    k = math.ceil(q * n / 100) - 1
    return q, s[k], n - 1 - k


def setup_probe(workload_name: str, seed: int, size_name: str) -> float:
    """Wall time of a fresh process that imports the lab and runs one op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed), "--size", size_name]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    # a blocking wait returns when the process exits; Popen.wait(timeout)
    # polls in steps of up to 50 ms, which would round the time up
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        returncode = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if returncode != 0:
        raise RuntimeError(f"setup probe exited with {returncode}")
    return elapsed


def run_untraced(workload, seed: int, seconds: float, size_name: str,
                 tmp: Path, record: dict) -> tuple[dict, "Tally"]:
    import reference
    from workloads import SIZES, sweep_argv

    size = SIZES[size_name]
    kind = workload.reference
    tally = Tally()
    # each setup process, like each op, sits between two calls of the
    # reference kernel and is scaled by its speed (reference.py)
    setup_walls, setup = [], []
    for _ in range(SETUP_PROBES):
        before = reference.measure(kind)
        try:
            wall = setup_probe(workload.name, seed, size_name)
            tally.add(False, False, "")
        except RuntimeError as exc:
            tally.add(True, True, f"setup probe: {exc}")
            continue
        speed = reference.NOMINAL_S[kind] / statistics.mean(
            [before, reference.measure(kind)])
        setup_walls.append(wall)
        setup.append(wall * speed)

    first = op_seed(seed, 0)
    warm = run_op(workload, first, size, tmp)
    _, warm_bytes = tally.check(workload, warm, size, first)
    if workload.name == "rates_sweep":
        # determinism contract: the CSV does not depend on --workers
        path = tmp / "serial.csv"
        serial = run_op(workload, first, size, tmp,
                        argv=sweep_argv(first, path, size, workers=1))
        same = serial.rc == 0 and path.is_file() and path.read_bytes() == warm_bytes
        tally.add(not same, not same,
                  "" if same else "sweep CSV differs between --workers 1 and 2")
        path.unlink(missing_ok=True)

    # the reference kernel runs before the first op and after every op, and
    # each op's time is scaled by the kernel's speed around it
    refs = [reference.measure(kind)]
    walls, times, items = [], [], []
    start = time.perf_counter()
    for index in range(1, op_count(workload, seconds) + 1):
        if time.perf_counter() - start > OVERRUN * max(seconds, 1.0):
            tally.notes.append(f"stopped after {index - 1} ops: over "
                              f"{OVERRUN} x --seconds")
            break
        seed_i = op_seed(seed, index)
        op = run_op(workload, seed_i, size, tmp)
        refs.append(reference.measure(kind))
        speed = reference.NOMINAL_S[kind] / statistics.mean(refs[-2:])
        verdict, _ = tally.check(workload, op, size, seed_i)
        walls.append(op.seconds)
        times.append(op.seconds * speed)
        if not verdict.failed:
            items.append(verdict.items / times[-1])

    q, tail_value, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "items_per_s": statistics.median(items) if items else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": 1.0 - tally.failed / tally.attempted,
    }
    record.update(op_times_s=times, op_wall_s=walls,
                  op_wall_p50_s=statistics.median(walls),
                  reference={"kernel": kind, "measured_s": refs},
                  setup_samples_s=setup, setup_wall_s=setup_walls,
                  tail={"percentile": q, "ops": len(times), "ops_beyond": beyond},
                  fail_ratio=tally.failed / tally.attempted,
                  output_sha256_by_op_seed=tally.sha256)
    return metrics, tally


# =====================================================================
# Traced run: per-layer metrics
# =====================================================================

def traced_pair(workload, seed: int, size: dict, tmp: Path, tracer, tally):
    """Untraced CLI op, then its traced replay; the bytes must be equal."""
    from spans import patched
    from workloads import TARGETS

    op = run_op(workload, seed, size, tmp)
    _, cli_bytes = tally.check(workload, op, size, seed)
    t0 = time.perf_counter()
    try:
        with patched(tracer, TARGETS), tracer.op(f"{workload.name}/{seed}"):
            replay_bytes = workload.replay(seed, size, tracer)
    except Exception:
        traceback.print_exc()
        replay_bytes = None
    traced_s = time.perf_counter() - t0
    same = replay_bytes == cli_bytes
    tally.add(not same, not same,
              "" if same else f"{workload.name} seed {seed}: replay output differs")
    return op, traced_s


def _mean(xs):
    return sum(xs) / len(xs)


def layer_metrics(spans: list[dict], n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one workload's traced ops."""
    from workloads import SWEEP_WORKERS

    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def dur(name):
        return [s["end"] - s["start"] for s in by[name]]

    def field(name, key):
        return [float(s[key]) for s in by[name]]

    out = {f"{name}.s": _mean(dur(name)) for name in by}
    pairs = {
        "cli.run_sweep.parallel_eff": ("cli.run_rates", "cli.run_sweep",
                                       lambda a, b: sum(a) / (SWEEP_WORKERS * sum(b))),
        "cli.run_rates.batch_equiv": ("cli.run_rates", "rates.theorem1_bounds",
                                      lambda a, b: _mean(a) / _mean(b)),
        "channel.csv_over_sim": ("channel.episode_to_csv", "channel.simulate_episode",
                                 lambda a, b: sum(a) / sum(b)),
    }
    for metric, (num, den, f) in pairs.items():
        if by[num] and by[den]:
            out[metric] = f(dur(num), dur(den))
    per_op = {
        "channel.sample_channel_batch.draws": ("channel.sample_channel_batch", "draws"),
        "verify.checks": ("verify.run_oracle_suite", "checks"),
        "verify.checks_failed": ("verify.run_oracle_suite", "checks_failed"),
    }
    for metric, (name, key) in per_op.items():
        if by[name]:
            out[metric] = sum(field(name, key)) / n_ops
    if by["channel.sample_channels"]:
        out["channel.sample_channels.calls"] = len(by["channel.sample_channels"]) / n_ops
    means = {
        "channel.episode_to_csv.bytes": ("channel.episode_to_csv", "bytes"),
        "digital.transcript_bytes": ("digital.to_bytes", "bytes"),
        "digital.key_bits": ("digital.reconcile_and_amplify", "key_bits"),
        "digital.syndrome_bits": ("digital.reconcile_and_amplify", "syndrome_bits"),
        "digital.keys_agree_ratio": ("digital.reconcile_and_amplify", "keys_agree"),
        "codes.ldpc_edges": ("codes.make_ldpc", "edges"),
        "codes.decode_converged_ratio": ("codes.decode_syndrome", "converged"),
        "codes.toeplitz_hash.peak_mb": ("codes.toeplitz_hash", "peak_mb"),
        "codes.toeplitz_mac_ops": ("codes.toeplitz_hash", "mac_ops"),
        "codes.toeplitz_bytes_computed": ("codes.toeplitz_hash", "bytes_computed"),
    }
    for metric, (name, key) in means.items():
        if by[name]:
            out[metric] = _mean(field(name, key))
    return out


def layer_self_times(spans: list[dict], wall: float, n_ops: int) -> dict[str, float]:
    """Self time per op by layer; ``unspanned`` is replay time in no span."""
    from spans import self_times

    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"].split(".")[0]] += own[s["id"]] / n_ops
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    out["unspanned"] = (wall - top) / n_ops
    return dict(out)


def run_traced(workload, seed: int, seconds: float, size_name: str,
               tmp: Path, record: dict) -> tuple[dict, "Tally"]:
    """Replay ops of ``workload`` under spans for ``seconds``, then one op of
    every other workload, so each per-layer metric has a value: it is taken
    from ``workload`` when its ops reach that layer, otherwise from the first
    other workload, in workload order, that does."""
    from spans import Tracer
    from workloads import SIZES, WORKLOADS

    size = SIZES[size_name]
    tally, tracer = Tally(), Tracer()
    warm = run_op(workload, op_seed(seed, 0), size, tmp)
    tally.check(workload, warm, size, op_seed(seed, 0))

    untraced_s = cpu_s = 0.0
    walls: dict[str, float] = defaultdict(float)
    n_ops: dict[str, int] = defaultdict(int)
    # an op and its replay take about twice as long as an op alone
    for index in range(1, max(1, op_count(workload, seconds) // 2) + 1):
        op, t = traced_pair(workload, op_seed(seed, index), size, tmp, tracer, tally)
        untraced_s += op.seconds
        cpu_s += op.cpu_seconds
        walls[workload.name] += t
        n_ops[workload.name] += 1
    others = [w for w in WORKLOADS.values() if w is not workload]
    for other in others:
        _, t = traced_pair(other, op_seed(seed, 0), size, tmp, tracer, tally)
        walls[other.name] += t
        n_ops[other.name] += 1

    metrics: dict[str, float] = {}
    source: dict[str, str] = {}
    self_by_workload = {}
    for w in [workload] + others:
        spans = [s for s in tracer.spans if s["op"].split("/")[0] == w.name]
        self_by_workload[w.name] = layer_self_times(spans, walls[w.name], n_ops[w.name])
        for k, v in layer_metrics(spans, n_ops[w.name]).items():
            if k not in metrics:
                metrics[k], source[k] = v, w.name
    metrics.update({
        "proc.cpu_per_wall": cpu_s / untraced_s,
        "proc.blas_threads": BLAS_THREADS,
        "proc.trace_overhead_ratio": walls[workload.name] / untraced_s,
    })
    spans_path = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
    tracer.write_jsonl(spans_path)
    record.update(ops_traced=dict(n_ops), metric_source_workload=source,
                  self_s_per_op_by_layer=self_by_workload,
                  spans_jsonl=str(spans_path.relative_to(ROOT)),
                  output_sha256_by_op_seed=tally.sha256)
    return metrics, tally


# =====================================================================
# Environment and entry points
# =====================================================================

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "argv": sys.argv,
        "workload_seed": seed,
        "seed_role": {DEFAULT_SEED: "default", HELD_OUT_SEED: "held-out"}.get(seed, "other"),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def emit(metrics: dict, tally: Tally, trace: bool) -> None:
    declared = declared_metrics(trace)
    missing = sorted(set(declared) - set(metrics))
    for name in missing:
        print(f"metric {name} was not measured", file=sys.stderr)
    for name, unit in declared.items():
        if name in metrics:
            print(f"{name:<36} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.wrong and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in declared.items()},
    }))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, untraced and traced, at tiny sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--size", default="full", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "steeplab" / "__init__.py").is_file():
        print(f"error: no steeplab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # fixed before numpy is first imported, so every run uses the same count
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SIZES, WORKLOADS

    if not args.smoke and args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.setup_probe:
            w = WORKLOADS[args.workload]
            tally = Tally()
            size = SIZES[args.size]
            tally.check(w, run_op(w, op_seed(args.seed, 0), size, tmp),
                        size, op_seed(args.seed, 0))
            return 1 if tally.wrong else 0
        if args.smoke:
            return smoke(args.seed, tmp)
        w = WORKLOADS[args.workload]
        record = {"workload": w.name, "trace": args.trace, "size": args.size,
                  "environment": environment(args.seed)}
        run = run_traced if args.trace else run_untraced
        metrics, tally = run(w, args.seed, args.seconds, args.size, tmp, record)
        record.update(metrics=metrics, attempted=tally.attempted,
                      failed=tally.failed, wrong=tally.wrong, notes=tally.notes)
        mode = "trace" if args.trace else "e2e"
        (OUT / f"{w.name}-seed{args.seed}-{mode}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
        for note in tally.notes:
            print(f"note: {note}")
        if "tail" in record:
            t = record["tail"]
            print(f"op_tail_s is p{t['percentile']} of {t['ops']} timed ops, "
                  f"{t['ops_beyond']} beyond it")
            print(f"median op wall time {record['op_wall_p50_s']:.6g} s; op times "
                  f"adjusted by the {record['reference']['kernel']} kernel")
        emit(metrics, tally, bool(args.trace))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def smoke(seed: int, tmp: Path) -> int:
    """Every workload untraced at tiny size, then one traced run covering all."""
    from workloads import WORKLOADS

    ok = True
    for w in WORKLOADS.values():
        metrics, tally = run_untraced(w, seed, 0.0, "smoke", tmp, {})
        print(f"{w.name}: {tally.attempted} ops, {tally.failed} failed, "
              f"p50 {metrics['op_p50_s']:.4f} s")
        ok &= not tally.wrong
    first = next(iter(WORKLOADS.values()))
    metrics, tally = run_traced(first, seed, 0.0, "smoke", tmp, {})
    missing = set(declared_metrics(True)) - set(metrics)
    print(f"traced: {tally.attempted} ops, {tally.failed} failed, "
          f"{len(metrics)} per-layer metrics, missing {sorted(missing)}")
    ok &= not tally.wrong and not missing
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
