"""Benchmark of the quasiherm CLI on three named workloads.

    python3 perfbench/run.py --workload report-q5 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The benchmark is a closed loop
with one client: every pass of a workload is a fresh Python process
(worker.py) that pays cold caches, and the next starts only after the
previous one exited.  Passes repeat until at least ``--seconds`` of run
time has been measured, and the run reports their median.  A pass is not
started when it might not end within the run's deadline.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
ten fresh set-ups around the passes and the passes' own), run time, peak
RSS, and verdict counts.  Every run first makes one untimed set-up, which
fills the benchmark's bytecode cache, so that every timed import reads
compiled bytecode, as an installed package does.  ``--trace 1`` runs
rounds of one untraced and one traced pass until both together measured
``--seconds``, and prints the per-layer metrics of the traced passes
(median over rounds).  Every command's exit code and JSON output are
checked, and its stdout digest must match the digest every earlier run
of the same source produced.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when the
outputs are correct, 1 when they are not, and 2 when there is no source
tree to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

# fresh set-up-only processes per run besides the passes', half before the
# passes and half after, so that the median spans the run's whole window
SETUP_PROBES = 10
RUN_DEADLINE_S = 170  # a run must end within 180 s
STATE_DIR = os.path.join(ROOT, ".perfbench_state")
# Workers read and write bytecode here and only here, whatever the caller's
# PYTHONDONTWRITEBYTECODE and whatever __pycache__ the checkout holds:
# compiling the package on import adds about a quarter to set-up time, so
# set-up must not depend on that environment.
PYCACHE_DIR = os.path.join(STATE_DIR, "pycache")
THREAD_VARS = ("QUASIHERM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

# name -> unit; fail_frac and checks_skipped are 0 at the baseline and a
# bounded metric must not be 0, so these are their non-zero complements
# (both are still printed)
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "verdicts": "count",
    "pass_frac": "ratio",
    "checked_frac": "ratio",
}


# -- environment --------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit(root: str) -> str:
    head = _read(os.path.join(root, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    sha = _read(os.path.join(root, ".git", ref)).strip()
    if sha:
        return sha
    for line in _read(os.path.join(root, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_digest(root: str) -> str:
    """sha256 over the package sources, naming one version of the program."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "quasiherm")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(seed: int, workload) -> dict:
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    mem = ""
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal"):
            mem = line.split(":", 1)[1].strip()
            break
    env = {
        "nproc": os.cpu_count(),
        "mem_total": mem,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "workload": workload.name,
        "seed": seed,
    }
    if workload.seed_used:
        env["families"] = [f.label() for f in workloads.draw_families(seed, workload.q)]
    else:
        env["seed_effect"] = f"none: {workload.name} takes no input besides q"
    return env


# -- passes -------------------------------------------------------------------


class Run:
    """The worker processes of one run, and the verdicts and digests
    accumulated over them."""

    def __init__(self, workload, seed: int, digests: dict):
        self.workload = workload
        self.seed = seed
        self.digests = digests
        self.verdicts = workloads.Verdicts()
        self.per_pass = []  # (attempted, skipped) of each pass
        self.problems: list = []
        self.started = time.monotonic()

    def worker(self, mode: str) -> dict:
        """Run worker.py to completion; its last stdout line is its result."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
               self.workload.name, "--seed", str(self.seed), "--mode", mode]
        timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - self.started))
        env = dict(os.environ, PYTHONPYCACHEPREFIX=PYCACHE_DIR)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout, env=env)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} worker stopped at the run's {RUN_DEADLINE_S} s deadline"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                return json.loads(lines[-1])
            except ValueError:
                pass
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"{mode} worker exited {proc.returncode} without a result:"
                         f" {' | '.join(tail)}"}

    def setups(self, n: int) -> list:
        out = []
        for _ in range(n):
            res = self.worker("setup")
            if "error" in res:
                self.problems.append(res["error"])
            else:
                out.append(res["setup_s"])
        return out

    def another_pass(self, measured: list, seconds: float) -> bool:
        """Whether to start another pass (or round of passes): until
        ``seconds`` are measured, and only if one more, as long as the
        longest so far, still ends well within the deadline."""
        if not measured:
            return True
        left = RUN_DEADLINE_S - (time.monotonic() - self.started)
        return sum(measured) < seconds and left > 1.5 * max(measured) + 10

    def check(self, res: dict) -> None:
        if "error" in res:
            self.problems.append(res["error"])
            owed = sum(workloads.owed(a) for a in workloads.commands(self.workload, self.seed))
            self.verdicts.add(workloads.Verdicts(owed, owed))
            self.per_pass.append((owed, 0))
            return
        v = workloads.Verdicts()
        for c in res["commands"]:
            v.add(workloads.gate(c["argv"], c["rc"], c["stdout"]))
            drift = workloads.check_stable(self.digests, c["argv"], workloads.digest(c["stdout"]))
            if drift:
                v.problems.append(drift)
        self.verdicts.add(v)
        self.per_pass.append((v.attempted, v.skipped))
        self.problems += v.problems

    @property
    def correct(self) -> bool:
        return not self.problems and self.verdicts.failed == 0


def load_digests(src_sha: str):
    path = os.path.join(STATE_DIR, f"digests-{src_sha[:16]}.json")
    try:
        with open(path) as fh:
            return path, json.load(fh)
    except (OSError, ValueError):
        return path, {}


def save_digests(path: str, store: dict) -> None:
    os.makedirs(STATE_DIR, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


# -- statistics ----------------------------------------------------------------


def summarize(values) -> dict:
    """Median, quartiles, and the highest percentile with >= 10 samples
    above it (None below 11 samples)."""
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(vals, n=4) if n > 1 else (vals[0],) * 3
    out = {"n": n, "median": statistics.median(vals), "q1": q1, "q3": q3,
           "tail_pct": None, "tail": None}
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = vals[n - 11]
    return out


def fmt_summary(s: dict) -> str:
    if not s.get("n"):
        return "no samples"
    text = f"median {s['median']:.6g} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}; n={s['n']})"
    if s["tail"] is not None:
        text += f"; p{s['tail_pct']:.0f} {s['tail']:.6g}"
    else:
        text += "; no tail percentile below 11 samples"
    return text


# -- the two run kinds ---------------------------------------------------------


def end_to_end(run: Run, seconds: float):
    probes = run.setups(SETUP_PROBES // 2)
    pass_setups, times, rss = [], [], []
    numpy_version = None
    while run.another_pass(times, seconds):
        res = run.worker("run")
        run.check(res)
        if "error" in res:
            break
        numpy_version = res["numpy"]
        pass_setups.append(res["setup_s"])
        times.append(res["run_s"])
        rss.append(res["peak_rss_mb"])
    probes += run.setups(SETUP_PROBES - SETUP_PROBES // 2)
    setups = probes + pass_setups
    attempted = statistics.median(a for a, _ in run.per_pass)
    skipped = statistics.median(s for _, s in run.per_pass)
    v = run.verdicts
    values = {
        "setup_s": statistics.median(setups) if setups else None,
        "run_s": statistics.median(times) if times else None,
        "peak_rss_mb": statistics.median(rss) if rss else None,
        "verdicts": attempted,
        "pass_frac": 1.0 - v.failed / v.attempted if v.attempted else 0.0,
        "checked_frac": attempted / (attempted + skipped) if attempted else 0.0,
    }
    report = {
        "setup_s": summarize(setups),
        "setup_s_samples": {"probes": probes, "passes": pass_setups},
        "run_s": summarize(times),
        "peak_rss_mb": summarize(rss),
        "fail_frac": v.failed / v.attempted if v.attempted else 1.0,
        "verdicts_failed": f"{v.failed}/{v.attempted}",
        "checks_skipped": skipped,
        "numpy": numpy_version,
    }
    return {k: (values[k], END_TO_END[k]) for k in END_TO_END}, report


def per_layer(run: Run, seconds: float):
    plain, traced = [], []
    while run.another_pass([t["run_s"] + p["run_s"] for t, p in zip(traced, plain)], seconds):
        pair = [run.worker(mode) for mode in ("run", "trace")]
        for res in pair:
            run.check(res)
        if any("error" in res for res in pair):
            break
        plain.append(pair[0])
        traced.append(pair[1])
    if not traced:
        return {}, {}
    values = {
        metric: (statistics.median(r["layers"][metric][0] for r in traced), unit)
        for metric, (_, unit) in traced[0]["layers"].items()
    }
    plain_s = statistics.median(r["run_s"] for r in plain)
    traced_s = statistics.median(r["run_s"] for r in traced)
    values["trace.overhead_s"] = (traced_s - plain_s, "s")
    values["trace.absent_names"] = (len(traced[-1]["absent"]), "count")
    info = {
        "untraced_run_s": plain_s,
        "traced_run_s": traced_s,
        "rounds": len(traced),
        "spans": traced[-1]["spans"],
        "absent": traced[-1]["absent"],
        "hook_errors": traced[-1]["hook_errors"],
        "numpy": traced[-1]["numpy"],
    }
    return values, info


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quasiherm", "__init__.py")):
        print(f"no quasiherm source tree under {ROOT}/src; nothing to benchmark",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.seed, workload)
    store_path, store = load_digests(env["source_sha256"])
    run = Run(workload, args.seed, store)
    run.setups(1)  # untimed warm-up
    if args.trace:
        metrics, report = per_layer(run, args.seconds)
        expected = [m[0] for m in layers.METRICS] + [m[0] for m in layers.TRACE_METRICS]
    else:
        metrics, report = end_to_end(run, args.seconds)
        expected = list(END_TO_END)
    save_digests(store_path, store)
    missing = [m for m in expected if metrics.get(m, (None,))[0] is None]
    if missing:
        run.problems.append(f"no value for {', '.join(missing)}")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("details: " + json.dumps(report, sort_keys=True))
    if not args.trace:
        for key in ("setup_s", "run_s", "peak_rss_mb"):
            print(f"  {key:<14} {END_TO_END[key]:<6} {fmt_summary(report[key])}")
        print(f"  {'fail_frac':<14} {'ratio':<6} {report['fail_frac']:.6g}"
              f" ({report['verdicts_failed']} verdicts failed)")
        print(f"  {'checks_skipped':<14} {'count':<6} {report['checks_skipped']}")
    for name in expected:
        val, unit = metrics.get(name, (None, ""))
        print(f"  {name:<44} {val!s:<24} {unit}")
    for problem in run.problems:
        print(f"PROBLEM: {problem}")
    result = {
        "correct": run.correct,
        "attempted": max(1, run.verdicts.attempted),
        "failed": run.verdicts.failed,
        "metrics": {
            m: {"value": metrics[m][0], "unit": metrics[m][1]}
            for m in expected
            if m not in missing
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
