"""salseg benchmark: one command runs a named workload from a seed.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  The run sets the workload up several times (reporting the median
as ``setup_s``), then runs units in a closed loop, one caller, for
``--seconds``, checking every unit's outputs.  Unit latencies are also
expressed in host-speed reference times (see ``reference.py``), which is
what the gated latency and throughput use.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it traces every other unit (and
every unit doing periodic extra work) and reports the per-layer metrics,
including the tracing overhead against the untraced units of the same run.

A human-readable report and the provenance go to standard output first;
the last line is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result (provenance, sample counts,
failed checks) and, for traced runs, the spans are written under
``--work-dir``.  Exit codes: 0 success, 2 the program could not be found or
imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# OpenBLAS reads its thread count when numpy loads: cap it at the CPUs this
# process may run on, before anything imports numpy.
NPROC = len(os.sched_getaffinity(0))
_threads = os.environ.get("OPENBLAS_NUM_THREADS", "")
if not _threads.isdigit() or not 1 <= int(_threads) <= NPROC:
    os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)

END_TO_END = {"setup_s": "s", "unit_refs_p50": "refs",
              "units_per_kref": "1/kref", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3


def tail_percentile(n):
    """Highest of p90, p80, ... p50 with at least ten samples beyond it."""
    for q in (90, 80, 70, 60, 50):
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def measure(workload, seconds, tracer=None):
    """Closed loop for ``seconds``.  Returns one ``(latency_s, traced,
    special, relative)`` row per unit, where ``relative`` is the latency in
    host-speed reference times, one message per failed unit, and the
    ``Reference`` with its samples."""
    from reference import Reference
    ref = Reference(workload.dtype)
    spans, failures = [], []
    start = time.perf_counter()
    unit_seconds = 0.0
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        ref.keep_up(unit_seconds)
        progress = (time.perf_counter() - start) / seconds
        special = workload.special(i)
        traced = tracer is not None and (i % 2 == 0 or special)
        if traced:
            tracer.unit = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                result = tracer.span("bench.unit", workload.run_unit, i, progress)
            else:
                result = workload.run_unit(i, progress)
            problems = []
        except Exception as exc:  # a unit that raises is a failed unit
            result, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        t1 = time.perf_counter()
        unit_seconds += t1 - t0
        spans.append((t0, t1, traced, special))
        if not problems:
            try:
                if traced:
                    tracer.unit = "check"
                problems = workload.check(i, result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if traced:
            tracer.uninstall()
        if problems:
            failures.append(f"unit {i}: " + "; ".join(problems))
        i += 1
    ref.keep_up(unit_seconds)
    rows = [(t1 - t0, traced, special, (t1 - t0) / ref.local(t0, t1))
            for t0, t1, traced, special in spans]
    return rows, failures, ref


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args):
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    caches = {}
    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE and
    # _SC_LEVEL3_CACHE_SIZE, which the os module does not name
    for code, name in ((188, "l1d"), (191, "l2"), (194, "l3")):
        try:
            size = os.sysconf(code) if platform.system() == "Linux" else -1
        except (ValueError, OSError):
            size = -1
        caches[name] = size if size > 0 else None
    return {"git_commit": _git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": int(os.environ["OPENBLAS_NUM_THREADS"])},
            "cache_bytes": caches}


def run(workload_name, seed, seconds, trace, work_dir, scale=None):
    """Run one workload; returns the full result document."""
    import workloads
    from tracer import Tracer, layer_metrics, PER_LAYER
    cls = workloads.WORKLOADS[workload_name]
    scale = scale or workloads.DESK
    wdir = os.path.join(work_dir, f"{workload_name}-seed{seed}-trace{trace}")
    tracer = Tracer() if trace else None

    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        w = cls(seed, os.path.join(wdir, "state"), scale)
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            w.setup()
        finally:
            if tracer:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)

    rows, failures, ref = measure(w, seconds, tracer)
    shutil.rmtree(w.work)  # datasets, checkpoints and maps: not results
    attempted, failed = len(rows), len(failures)
    ms = [row[0] * 1e3 for row in rows]
    rel = [row[3] for row in rows]
    q = tail_percentile(attempted)
    report = {
        "setup_s": statistics.median(setup_times),
        "unit_refs_p50": statistics.median(rel),
        "units_per_kref": 1000.0 * attempted / sum(rel),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units_per_s": attempted / (sum(ms) / 1e3),
        "unit_ms_p50": statistics.median(ms),
        "unit_ms_tail": (float(statistics.quantiles(ms, n=100)[q - 1])
                         if q else None),
        "tail_percentile": q,
        "ref_ms_p50": statistics.median(ref.seconds) * 1e3,
        "error_rate": failed / attempted,
    }
    doc = {"workload": workload_name, "unit": cls.unit,
           "samples": {"setups": len(setup_times)},
           "attempted": attempted, "failed": failed,
           "failures": failures[:20], "end_to_end": report,
           "setup_times_s": setup_times, "unit_ms": ms, "unit_refs": rel,
           "ref_samples": len(ref.seconds)}
    if tracer:
        units = [i for i, row in enumerate(rows) if row[1]]
        layers = layer_metrics(tracer, units)
        layers["train.skipped_samples"] = w.skipped_samples()
        # overhead compares units doing the same work (plain units only),
        # in reference times so that host drift does not enter
        plain = [r for _, tr, sp, r in rows if not (tr or sp)]
        plain_traced = [r for _, tr, sp, r in rows if tr and not sp]
        layers["bench.trace_overhead_pct"] = (
            100.0 * (statistics.median(plain_traced) / statistics.median(plain) - 1)
            if plain and plain_traced else 0.0)
        doc["per_layer"] = layers
        doc["samples"]["traced_units"] = len(units)
        doc["samples"]["spans"] = len(tracer.spans)
        tracer.write(os.path.join(wdir, "spans.json"))
        doc["metrics"] = {k: {"value": layers[k], "unit": u}
                          for k, u in PER_LAYER.items()}
    else:
        doc["metrics"] = {k: {"value": report[k], "unit": u}
                          for k, u in END_TO_END.items()}
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", default=".perfbench_work")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "salseg" / "__init__.py").is_file():
        print(f"salseg sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import salseg
    except ImportError as exc:
        print(f"cannot import salseg from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(salseg.__file__).resolve().is_relative_to(src):
        print(f"salseg imported from {salseg.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    os.makedirs(args.work_dir, exist_ok=True)
    doc = run(args.workload, args.seed, args.seconds, args.trace, args.work_dir)
    doc["provenance"] = provenance(args)
    path = os.path.join(args.work_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)

    e2e = doc["end_to_end"]
    print(f"# {args.workload} seed={args.seed}: {doc['attempted']} "
          f"{doc['unit']}s, {doc['failed']} failed")
    if not args.trace:
        tail = (f"unit_ms_p{e2e['tail_percentile']}: {e2e['unit_ms_tail']:.3f} ms"
                if e2e["tail_percentile"] else
                f"unit_ms_p90: n/a ({doc['attempted']} units, fewer than 20)")
        print(f"setup_s: {e2e['setup_s']:.3f} s (median of {SETUP_REPEATS})")
        print(f"unit_refs_p50: {e2e['unit_refs_p50']:.4f} refs "
              f"(n={doc['attempted']})")
        print(f"units_per_kref: {e2e['units_per_kref']:.4f} 1/kref")
        print(f"peak_rss_mb: {e2e['peak_rss_mb']:.1f} MB")
        print(f"units_per_s: {e2e['units_per_s']:.4f} 1/s")
        print(f"unit_ms_p50: {e2e['unit_ms_p50']:.3f} ms")
        print(tail)
        print(f"ref_ms_p50: {e2e['ref_ms_p50']:.4f} ms "
              f"(n={doc['ref_samples']})")
        print(f"error_rate: {e2e['error_rate']:.4f}")
    else:
        for k, m in doc["metrics"].items():
            print(f"{k}: {m['value']:.6g} {m['unit']}")
    for line in doc["failures"]:
        print(f"FAILED {line}")
    print(f"provenance: {json.dumps(doc['provenance'], sort_keys=True)}")
    print(json.dumps({"correct": doc["failed"] == 0,
                      "attempted": doc["attempted"], "failed": doc["failed"],
                      "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
