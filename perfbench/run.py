"""wreathcover benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {lattice,bnb,wreath,theorems,all} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  One
client sends the workload's requests through ``wreathcover.cli.main`` one at
a time (closed loop, ``--threads 1``, one process), in passes over the
request list, until ``--seconds`` have passed.  Every report is checked
against the anchors in ``anchors.py``.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh processes, taken between chunks of passes), wall and CPU
time of a pass as the sum of each request's fastest run, peak memory.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from spans recorded around the program's public functions; the
spans are written to ``.perfbench/traces/``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# one thread in numpy's native libraries, for parent and set-up children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# with numpy's huge-page advice, peak RSS on one input depends on what the
# kernel can spare at that moment (61 or 71 MB for one bnb seed)
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
# every request names its own cache directory; an inherited one is ignored
os.environ.pop("WREATHCOVER_CACHE", None)

import anchors  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from setup_probe import set_up  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# fresh-process set-ups per run
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="wreathcover benchmark run")
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(wl: workloads.Workload, cache: Path) -> float:
    """Wall time from spawning a fresh interpreter to its ``ready`` line;
    ``time.monotonic`` reads one system-wide clock, so the child's stamp and
    the parent's are comparable."""
    cmd = [
        sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(cache),
        json.dumps(wl.groups), json.dumps(wl.fill_lattice),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.split()
    if proc.returncode != 0 or lines[:1] != ["ready"]:
        raise BenchError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return float(lines[1]) - start


def call(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """One CLI request in process; status None means it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse refused the argv
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a raising request is a failed request
            status = None
            err.write(traceback.format_exc())
    return status, out.getvalue(), err.getvalue()


def run_pass(cli, wl, caches, tracer=None, pass_no=0):
    """One closed-loop pass; returns each request's wall and CPU seconds,
    and the outputs."""
    for req, cache in zip(wl.requests, caches):
        if req.cold_cache:
            shutil.rmtree(cache, ignore_errors=True)
            cache.mkdir()
    walls, cpus, outputs = [], [], []
    for i, (req, cache) in enumerate(zip(wl.requests, caches)):
        if tracer:
            tracer.request = f"{pass_no}:{i}"
        argv = [*req.argv, "--json", "--threads", "1", "--cache-dir", str(cache)]
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outputs.append(call(cli, argv))
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    return walls, cpus, outputs


class Gate:
    """Checks every output and keeps the first pass's report digests."""

    def __init__(self, requests: list[workloads.Request]) -> None:
        self.requests = requests
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] | None = None
        self.unstable: set[str] = set()

    def check(self, outputs) -> None:
        digests = []
        for req, (status, out, err) in zip(self.requests, outputs):
            self.attempted += 1
            digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
            if status is None:
                problems = ["raised: " + err.strip().splitlines()[-1]]
            else:
                try:
                    report = json.loads(out) if out else None
                except ValueError:
                    report = None
                problems = anchors.check(req.check, report, status, req.expect)
            if problems:
                self.failures.append(f"{req.label}: {'; '.join(problems)}")
        if self.digests is None:
            self.digests = digests
        for req, a, b in zip(self.requests, self.digests, digests):
            if a != b:
                self.unstable.add(req.label)

    def print_summary(self) -> None:
        failed = len(self.failures)
        print(f"failed_ratio {failed}/{self.attempted} = {failed / self.attempted:.4f} ratio")
        for line in self.failures[:20]:
            print(f"FAIL {line}")
        for req, digest in zip(self.requests, self.digests or []):
            note = "  (changed between passes)" if req.label in self.unstable else ""
            print(f"sha256 {digest} {req.label}{note}")


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has ten samples above it with {n} passes"
    rank = n - 10
    return f"p{100 * rank // n}={sorted(values)[rank - 1]:.6f} s"


def import_program():
    if not (SRC / "wreathcover" / "cli.py").is_file():
        raise BenchError(f"no program at {SRC}/wreathcover; run from the repository root")
    sys.path.insert(0, str(SRC))
    from wreathcover import cli

    return cli


def request_caches(wl: workloads.Workload, run_dir: Path, warm: Path) -> list[Path]:
    warm.mkdir(exist_ok=True)
    return [run_dir / f"cold-{i}" if r.cold_cache else warm for i, r in enumerate(wl.requests)]


def timed_run(cli, wl: workloads.Workload, run_dir: Path, seconds: float) -> dict:
    # the shared host has slow spells lasting seconds; set-ups and passes
    # alternate, each chunk of passes taking its share of --seconds, so
    # that one spell does not land on every sample
    gate = Gate(wl.requests)
    warm = run_dir / "cache"
    if wl.fill_lattice:
        # the lattice fill runs once per run, in a child of its own; the
        # timed set-ups then read the cache it wrote, as users do after
        # their first run
        print(f"lattice fill {time_setup(wl, warm):.6f} s  cold set-up, once: {wl.fill_lattice}")
    setup, walls, cpus, passes = [], [], [], []
    for k in range(SETUP_REPEATS):
        setup.append(time_setup(wl, warm))
        if k == 0:
            set_up(wl.groups, [], str(warm))
            caches = request_caches(wl, run_dir, warm)
        while not passes or sum(passes) < seconds * (k + 1) / SETUP_REPEATS:
            wall, cpu, outputs = run_pass(cli, wl, caches)
            walls.append(wall)
            cpus.append(cpu)
            passes.append(sum(wall))
            gate.check(outputs)
            if len(passes) == 1:
                # later passes repeat the same requests, but the allocator
                # keeps freed memory, so RSS creeps up with the number of
                # passes that fit in the run (sigma M11 --exact adds ~9 MB
                # a pass until ~90 MB); set-up plus one pass is the same
                # work on every host
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the shared host only ever slows a request down, in spells from tens
    # of milliseconds to minutes, and the share of a run they cover drifts
    # from run to run; a request's fastest run over the whole run does not
    # (a fixed 25 ms kernel on a shared 2-core x86 host: quartile spread
    # over 10 s windows 0.04 of the median for its fastest call, 0.28 for
    # its median call); it only holds for short requests, so every request
    # of a timed pass takes about 0.1 s or less (see workloads.py)
    fastest_wall = [min(col) for col in zip(*walls)]
    fastest_cpu = [min(col) for col in zip(*cpus)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (sum(fastest_wall), "s"),
        "solve_cpu_s": (sum(fastest_cpu), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"setup_s     {metrics['setup_s'][0]:.6f} s  median of {len(setup)} fresh processes: "
          + " ".join(f"{x:.4f}" for x in setup))
    print(f"solve_s     {metrics['solve_s'][0]:.6f} s  sum of each request's fastest of "
          f"{len(passes)} passes; pass median {statistics.median(passes):.6f} s; "
          f"{high_percentile(passes)}")
    print(f"solve_cpu_s {metrics['solve_cpu_s'][0]:.6f} s  sum of each request's least CPU time; "
          f"pass median {statistics.median(sum(c) for c in cpus):.6f} s")
    for req, fast, col in zip(wl.requests, fastest_wall, zip(*walls)):
        print(f"request     {fast:.6f} s fastest, {statistics.median(col):.6f} s median  {req.label}")
    print(f"peak_rss_mb {rss_mb:.3f} MB")
    gate.print_summary()
    return result(gate, metrics)


def pool_speedup(gate: Gate) -> float:
    """verify_wreath_cover over the wreath workload's families, threads=1
    against threads=2; untraced."""
    from wreathcover import pipelines
    from wreathcover.cover import build_instance, sigma_exact, sigma_greedy
    from wreathcover.wreath import WreathContext, construct_product_cover, verify_wreath_cover

    families = []
    for group, m, method in workloads.WREATH_FAMILIES:
        g = pipelines.load_group(group)
        inst = build_instance(g.table, g.maximal_classes)
        cert = (sigma_exact if method == "exact" else sigma_greedy)(inst)
        handle = dict(zip(inst.labels, inst.handles))
        cover = [handle[label] for label in cert.chosen]
        families.append((group, WreathContext(g.table, m), *construct_product_cover(g.table, cover, m)))
    wall = {}
    for threads in (1, 2):
        start = time.perf_counter()
        for group, ctx, descriptors, socle in families:
            ok, _ = verify_wreath_cover(ctx, descriptors, socle, threads=threads)
            gate.attempted += 1
            if not ok:
                gate.failures.append(f"pool probe: {group} wr C_{ctx.m} not covered, threads={threads}")
        wall[threads] = time.perf_counter() - start
    return wall[1] / wall[2]


def traced_run(cli, wl: workloads.Workload, run_dir: Path, seconds: float, seed: int) -> dict:
    tracer = spans.Tracer()
    tracer.install()
    warm = run_dir / "cache"
    set_up(wl.groups, wl.fill_lattice, str(warm))
    tracer.uninstall()
    caches = request_caches(wl, run_dir, warm)
    gate = Gate(wl.requests)
    probe_gate = Gate(wl.probes)
    tracer.install()
    outputs = []
    for i, req in enumerate(wl.probes):
        tracer.request = f"probe:{i}"
        cache = run_dir / f"probe-{i}"
        cache.mkdir()
        argv = [*req.argv, "--json", "--threads", "1", "--cache-dir", str(cache)]
        outputs.append(call(cli, argv))
    tracer.uninstall()
    probe_gate.check(outputs)
    # a first pass fills what later passes reuse, so that neither side of
    # the traced/untraced comparison pays for it alone
    gate.check(run_pass(cli, wl, caches)[2])
    plain, traced, traced_ids = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, _, outputs = run_pass(cli, wl, caches)
        plain.append(wall)
        gate.check(outputs)
        tracer.install()
        pass_no = len(traced)
        wall, _, outputs = run_pass(cli, wl, caches, tracer, pass_no)
        tracer.uninstall()
        traced.append(wall)
        traced_ids.append([f"{pass_no}:{i}" for i in range(len(wl.requests))])
        gate.check(outputs)
    speedup = pool_speedup(gate)

    per_pass = [spans.layer_metrics(tracer.spans, ids) for ids in traced_ids]
    values = spans.median_metrics(per_pass)
    setup = spans.layer_metrics(tracer.spans, ["setup"])
    for key in spans.SETUP_METRICS:
        values[key] = setup[key]
    values["wreath.pool_speedup"] = speedup
    # the same estimator as solve_s, on both sides
    values["trace.overhead_s"] = (sum(min(col) for col in zip(*traced))
                                  - sum(min(col) for col in zip(*plain)))

    pinned = [(req, f"0:{i}") for i, req in enumerate(wl.requests)]
    pinned += [(req, f"probe:{i}") for i, req in enumerate(wl.probes)]
    for req, request_id in pinned:
        if req.pin:
            metric, want = req.pin
            got = spans.layer_metrics(tracer.spans, [request_id])[metric]
            state = "ok" if got == want else f"DRIFT, pinned {want}"
            print(f"pinned {metric} {got} for {req.label}: {state}")
    out = WORK / "traces" / f"{wl.name}-seed{seed}.json"
    tracer.dump(out)
    print(f"spans       {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    print(f"passes      {len(plain)} untraced, {len(traced)} traced")
    metrics = {k: (v, unit_of(k)) for k, v in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:.6g} {unit}")
    gate.print_summary()
    if wl.probes:
        print("probes, once:")
        probe_gate.print_summary()
    gate.attempted += probe_gate.attempted
    gate.failures += probe_gate.failures
    return result(gate, metrics)


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_speedup")):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def result(gate: Gate, metrics: dict) -> dict:
    return {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process (so each gets its
    own peak RSS), then one table of the end-to-end metrics."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, metric in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
        rows.append((name, res))
    print()
    for name, res in rows:
        cells = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()]
        ratio = res["failed"] / res["attempted"]
        print(f"{name:9s} " + "  ".join(cells) + f"  failed_ratio {ratio:.4g} ratio")
    print(json.dumps(total))
    return 0


def stop(signum, frame):
    # unwinds through subprocess.run, which kills and waits for a set-up
    # child, and through the finally that removes the run directory
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, stop)
    args = parse_args(argv)
    try:
        cli = import_program()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = workloads.build(args.workload, args.seed, run_dir)
        print(f"workload {wl.name} seed {args.seed}: {len(wl.requests)} requests per pass, "
              "closed loop, 1 client, --threads 1")
        if args.trace:
            res = traced_run(cli, wl, run_dir, args.seconds, args.seed)
        else:
            res = timed_run(cli, wl, run_dir, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
