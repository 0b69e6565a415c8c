"""cxsect benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload fourier_n3 --seed 1 --seconds 20 --trace 0

Workloads (inputs in ``workloads.py``, operations in ``round.py``):

* ``fourier_n3``     -- both section routes and the exponent-2 sign scan at
  n = 3; the harmonic expansion and basis construction do the work.
* ``compare_sweep``  -- stability, corollary and separation checks over
  seeded pairs sharing one VerificationContext; the direct section route does
  the work, no expansion runs.
* ``volume_oracles`` -- polar and Monte Carlo volumes, closed forms and
  inradii over the suite's body matrix, plus many single-direction section
  and norm calls.

Each round runs in a fresh interpreter (``round.py``), so the package's rule
and basis caches start cold as they do for a command-line user.  Rounds
repeat, in a closed loop, while the next one is expected to end within
``--seconds``; there is at least one.  Set-up-only rounds follow, up to five
set-up samples in all, while they cost at most 10% of the rounds' time.
Every round uses the same inputs, and the digests of their numerical outputs
must agree.

End-to-end metrics (``--trace 0``), medians over rounds:

* ``setup_s``     -- process start to end of set-up (import, bodies with
  certification, harmonic bases);
* ``run_s``       -- wall time of all timed operations of one round;
* ``max_rel_err`` -- worst relative error against an independent reference
  (the other section route, closed forms, the scaled-ball equality margin);
* ``peak_rss_mb`` -- peak resident memory of the round process.

Failed operations (a check beyond the suite's bound, or an exception) are
reported as ``failed`` out of ``attempted``; their ratio is printed as
``fail_ratio``.  ``--trace 1`` runs plain and traced rounds alternately and
reports the per-layer metrics of ``tracer.py`` instead; the traced rounds
must reproduce the plain rounds' output digest bit for bit.

The metric names and units come from BENCHMARK.json at the repository root.
Results and spans are written under ``perfbench/out/``.  BLAS threads are
pinned to one in every round.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")

BLAS_THREADS = 1          # at most nproc; one thread keeps rounds steady and bit-reproducible
RUN_DEADLINE_S = 170.0    # a run must end within 180 s
SETUP_SAMPLES = 5
SETUP_SHARE = 0.1         # time for extra set-up samples, as a share of the rounds' time

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def run_round(workload, inputs, mode, tiny, deadline, spans_path=None):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    request = {"workload": workload, "inputs": inputs, "mode": mode, "tiny": tiny,
               "src": SRC, "spans_path": spans_path, "spawn_time": time.time()}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "round.py")],
        input=json.dumps(request), capture_output=True, text=True, env=env,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} round of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace, tiny):
    """Run rounds for about ``seconds``; return (set-up samples, rounds)."""
    inputs = workloads.generate(workload, seed, tiny)
    modes = ["plain", "traced"] if trace else ["plain"]
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    rounds = []
    longest = 0.0
    while True:
        mode = modes[len(rounds) % len(modes)]
        spans = os.path.join(OUT, f"spans-{workload}-seed{seed}-r{len(rounds)}.jsonl")
        t0 = time.perf_counter()
        rounds.append(run_round(workload, inputs, mode, tiny, deadline,
                                spans if mode == "traced" else None))
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(rounds) >= len(modes) and elapsed + longest > seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    budget = SETUP_SHARE * (time.perf_counter() - start)
    spent = 0.0
    while len(setups) < SETUP_SAMPLES and spent + median(setups) <= budget:
        t0 = time.perf_counter()
        setups.append(run_round(workload, inputs, "setup", tiny, deadline)["setup_s"])
        spent += time.perf_counter() - t0
    return setups, rounds


def summarize(bench, setups, rounds, trace):
    plain = [r for r in rounds if r["mode"] == "plain"]
    traced = [r for r in rounds if r["mode"] == "traced"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    digests = {r["digest"] for r in rounds}
    values = {
        "setup_s": median(setups),
        "run_s": median([r["run_s"] for r in plain]),
        "max_rel_err": median([r["max_rel_err"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    if trace:
        run_traced = median([r["run_s"] for r in traced])
        for name in traced[0]["layers"]:
            values[name] = median([r["layers"][name] for r in traced])
        values["trace.overhead_ratio"] = run_traced / values["run_s"]
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0 and len(digests) == 1,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    extra = {"fail_ratio": failed / attempted, "digests_agree": len(digests) == 1,
             "setup_samples": len(setups), "plain_rounds": len(plain),
             "traced_rounds": len(traced)}
    if trace:
        extra["unaccounted_s"] = median([r["unaccounted_s"] for r in traced])
    return result, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="coarse levels and few inputs, for the self-test")
    args = ap.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "cxsect", "__init__.py")):
        print(f"error: no cxsect sources under {SRC}", file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        bench = json.load(fh)
    os.makedirs(OUT, exist_ok=True)

    env = environment(args.seed)
    try:
        setups, rounds = measure(args.workload, args.seed, args.seconds,
                                 args.trace, args.tiny)
        result, extra = summarize(bench, setups, rounds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"cxsect benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, env {json.dumps(env)}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {extra['fail_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for r in rounds:
        for line in r.get("failures", []):
            print(f"  FAILED {line}")
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "result": result, "extra": extra, "setup_samples": setups, "rounds": rounds}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
