"""SXNM benchmark: file in, clusters out, on three named workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload movies-many --seed 1 --seconds 40 --trace 0

A run draws ``CORPORA`` corpora from the seed.  ``--trace 0`` times the
``detect`` and ``ingest`` operations on each corpus in fresh
interpreters, sharing about ``--seconds`` between them with ``SETUPS``
set-up samples per corpus, and prints the end-to-end metrics, with each
time scaled to the reference host speed measured while it ran
(``calibrate.py``);
``--trace 1`` alternates untraced and traced calls of the workload's
primary operation and prints the per-layer metrics.  Every call's output
digests (clusters; confirmed pairs too where a session has them) are
checked against the reference recorded for the workload and seed in
``references.json`` (``--record`` writes it).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``LAYERS.md``
says what each metric measures and which layer should move it.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calibrate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
REFERENCES = os.path.join(HERE, "references.json")

# End-to-end metrics and their units, in the order they are reported.
END_TO_END = {"detect_s": "s", "ingest_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "write_amp": "ratio", "f1": "ratio"}

CORPORA = 4       # corpora per run; one round of workers each
SETUPS = 4        # set-up samples per round (fresh interpreters)
WORKER_TIMEOUT_S = 170


def provenance(workload: str, seed: int, size: str) -> dict:
    """Where and on what the numbers were taken."""
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    # The checkout may not be a git repository: a digest of the program's
    # sources identifies the code under test either way.
    digest = hashlib.sha256()
    for base, dirs, names in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    return {"workload": workload, "seed": seed, "size": size,
            "usable_cores": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "commit": commit, "source_sha256": digest.hexdigest()[:16]}


def f1_score(top_clusters, gold) -> float:
    from repro.eval.metrics import evaluate_pairs, pairs_from_clusters
    found = pairs_from_clusters(top_clusters)
    return evaluate_pairs(found, [tuple(pair) for pair in gold]).f_measure


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run: spawns workers and checks what they return.

    Each call's output digests must equal the reference recorded for the
    seed and corpus; without one, the first call of each operation on a
    corpus becomes the reference, so calls must agree.  A restored
    session must equal the session that wrote its index.
    """

    def __init__(self, plan: dict, work: str, reference: list | None):
        self.plan, self.work = plan, work
        self.expected = [{key: value for key, value in entry.items()
                          if key != "f1"} for entry in reference or []] \
            or [{} for _ in plan["corpora"]]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.speedometer = False   # tick in the workers (calibrate.py)
        self._workers = 0

    def fail(self, op: str, corpus: int, problem: str) -> None:
        self.failed += 1
        self.failures.append(f"{op} on corpus {corpus}: {problem}")

    def worker(self, op: str, corpus: int, **extra) -> dict | None:
        """Run one worker; ``setup_wall`` is the wall time from spawning
        it to its ``READY`` line, ``wall`` to its exit.  Returns None (and
        records a failure) if it does not finish cleanly."""
        base = self.plan["corpora"][corpus]["ops"][
            "ingest" if op == "restore" else op]
        scratch = os.path.join(self.work, f"worker-{self._workers}")
        self._workers += 1
        os.makedirs(scratch)
        spec = dict(base, op=op, top=self.plan["top"], scratch=scratch,
                    speedometer=self.speedometer, **extra)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        stderr_path = scratch + ".stderr"
        with open(stderr_path, "w", encoding="utf-8") as stderr:
            start = time.perf_counter()
            # Unbuffered, so the READY line is read without reading ahead.
            proc = subprocess.Popen(
                [sys.executable, WORKER, json.dumps(spec)], cwd=ROOT, env=env,
                stdout=subprocess.PIPE, stderr=stderr, bufsize=0)
            watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                first = proc.stdout.readline().decode()
                setup = time.perf_counter() - start
                rest = proc.communicate()[0].decode()
                wall = time.perf_counter() - start
            finally:
                watchdog.cancel()
        if proc.returncode != 0 or first.strip() != "READY":
            self.attempted += 1
            with open(stderr_path, encoding="utf-8") as handle:
                lines = handle.read().strip().splitlines() or ["no output"]
            self.fail(op, corpus,
                      f"worker exited with {proc.returncode}: {lines[-1]}")
            return None
        result = json.loads(rest.strip().splitlines()[-1])
        result.update(setup_wall=setup, wall=wall, scratch=scratch)
        return result

    def check(self, op: str, corpus: int, digests: dict,
              session: dict | None = None) -> bool:
        self.attempted += 1
        problems = []
        if session is not None and digests != session:
            problems.append("restored session differs from the session "
                            "that wrote the index")
        expected = self.expected[corpus].setdefault(
            "ingest" if op == "restore" else op, digests)
        if digests != expected:
            differ = sorted(name for name in expected
                            if digests.get(name) != expected[name])
            problems.append(f"output digest differs for {differ}")
        if problems:
            self.fail(op, corpus, "; ".join(problems))
        return not problems

    def restore(self, corpus: int, call: dict) -> dict | None:
        """Reopen the session ``call`` committed, in a fresh interpreter."""
        result = self.worker("restore", corpus, index_dir=call["index_dir"],
                             phi_dir=call["phi_dir"])
        if result is not None:
            self.check("restore", corpus, result["calls"][0]["digests"],
                       session=call["digests"])
        return result


def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    """One round per corpus: a fresh worker per operation, then
    ``SETUPS`` set-up samples; the workers share the time left after the
    set-up samples still to come.  Times are at the reference host speed
    (``calibrate.normalized``), and each is the median over every good
    call (or set-up sample) of the run; returns samples and metrics."""
    plan = run.plan
    samples = {name: [] for name in END_TO_END}
    samples.update({"peak_rss_mb.detect": [], "peak_rss_mb.ingest": [],
                    "detect_s.raw": [], "ingest_s.raw": [],
                    "setup_s.raw": [], "tick_s": []})
    run.speedometer = True
    start = time.perf_counter()
    slots = len(plan["corpora"]) * 2
    spawn_s = []   # wall seconds of each set-up sample's worker
    for corpus, entry in enumerate(plan["corpora"]):
        persist = entry["ops"]["ingest"]["persist"]
        written = {}
        for op in ("detect", "ingest"):
            # Keep time for the set-up samples still to come.
            reserve = median(spawn_s or [0.5]) * SETUPS \
                * (len(plan["corpora"]) - corpus)
            left = seconds - (time.perf_counter() - start) - reserve
            result = run.worker(op, corpus, budget=max(0.0, left / slots))
            slots -= 1
            if result is None:
                continue
            # The first call's peak is one operation in a fresh process.
            samples[f"peak_rss_mb.{op}"].append(
                result["calls"][0]["rss_kb"] / 1024)
            good = [call for call in result["calls"]
                    if run.check(op, corpus, call["digests"])]
            for call in good:
                samples[f"{op}_s"].append(calibrate.normalized(
                    call["seconds"], call["ticks_s"], call["tick_s"]))
                samples[f"{op}_s.raw"].append(call["seconds"]
                                              - call["ticks_s"])
                samples["tick_s"].append(call["tick_s"])
            if good:
                written[op] = median([c["written"] for c in good])
            if op == plan["primary"]:
                samples["f1"].append(f1_score(result["top"], entry["gold"]))
            if persist and op == "ingest":
                # Set-up on this workload is reopening the session the
                # timed calls wrote: imports, config, construction and
                # restore.
                for _ in range(SETUPS):
                    restored = run.restore(corpus, result["calls"][-1])
                    if restored is not None:
                        add_setup(samples, restored)
                        spawn_s.append(restored["wall"])
            shutil.rmtree(result["scratch"], ignore_errors=True)
        for _ in range(0 if persist else SETUPS):
            result = run.worker(plan["primary"], corpus, setup_only=True)
            if result is None:
                break
            add_setup(samples, result)
            spawn_s.append(result["wall"])
            shutil.rmtree(result["scratch"], ignore_errors=True)
        # Peak RSS is that of the process running the primary operation;
        # the other operation's is kept in the results file only.
        rss = samples[f"peak_rss_mb.{plan['primary']}"]
        if len(rss) > len(samples["peak_rss_mb"]):
            samples["peak_rss_mb"].append(rss[-1])
        if len(written) == 2:
            samples["write_amp"].append(
                sum(written.values())
                / sum(op["bytes"] for op in entry["ops"].values()))
    return samples, {name: median(values) for name, values in samples.items()}


def add_setup(samples: dict, result: dict) -> None:
    ticks = result["setup"]
    samples["setup_s"].append(calibrate.normalized(
        result["setup_wall"], ticks["ticks_s"], ticks["tick_s"]))
    samples["setup_s.raw"].append(result["setup_wall"] - ticks["ticks_s"])


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced calls of the primary operation, one
    corpus after another."""
    from tracing import LAYER_METRICS

    primary = run.plan["primary"]
    walls = {0: [], 1: []}
    layers, spans = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        corpus = rounds % len(run.plan["corpora"])
        for trace in (0, 1):
            result = run.worker(primary, corpus, trace=trace)
            if result is None:
                continue
            call = result["calls"][0]
            if "restored" in call:
                run.check("restore", corpus, call["restored"],
                          session=call["digests"])
            if run.check(primary, corpus, call["digests"]):
                walls[trace].append(call["seconds"])
                if trace:
                    layers.append(call["layers"])
                    spans = call["spans"]
            shutil.rmtree(result["scratch"], ignore_errors=True)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= 2 and elapsed + elapsed / rounds > seconds:
            break
    samples = {name: [layer[name] for layer in layers]
               for name in LAYER_METRICS if name != "trace.overhead"}
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["trace.overhead"] = (median(walls[1]) / median(walls[0]) - 1.0
                                 if walls[0] and walls[1] else 0.0)
    samples["trace.overhead"] = [metrics["trace.overhead"]]
    samples["spans"] = spans
    return samples, {name: metrics[name] for name in LAYER_METRICS}


def load_references(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def record(path: str, run: Run) -> list:
    """Run each operation once per corpus and store its digests and the
    primary operation's f1 as the reference for the workload and seed."""
    plan = run.plan
    entries = []
    for corpus, corpus_plan in enumerate(plan["corpora"]):
        entry = {}
        for op, spec in corpus_plan["ops"].items():
            result = run.worker(op, corpus)
            if result is None:
                return []
            call = result["calls"][0]
            run.check(op, corpus, call["digests"])
            entry[op] = call["digests"]
            if op == plan["primary"]:
                entry["f1"] = f1_score(result["top"], corpus_plan["gold"])
            if spec.get("persist"):
                run.restore(corpus, call)
        entries.append(entry)
    if run.failures:
        return []
    references = load_references(path)
    references.setdefault(plan["workload"], {}).setdefault(
        plan["size"], {})[str(plan["seed"])] = entries
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="corpus size; tiny is for the self-tests")
    parser.add_argument("--record", action="store_true",
                        help="run each operation once per corpus and record "
                             "its output as the reference for this "
                             "workload, size and seed")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # Compile the sources up front so no timed call compiles (or writes)
    # byte-code, as with an installed package.
    compileall.compile_dir(SRC, quiet=1)
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = workloads.prepare(args.workload, args.seed,
                                 os.path.join(work, "inputs"), CORPORA,
                                 args.size)
        reference = load_references(REFERENCES).get(
            args.workload, {}).get(args.size, {}).get(str(args.seed))
        info = provenance(args.workload, args.seed, args.size)
        info["pinned_cpu"] = calibrate.pin_to_one_cpu()
        if args.record:
            run = Run(plan, work, None)
            entries = record(REFERENCES, run)
            if not entries:
                print("\n".join(run.failures), file=sys.stderr)
                return 1
            print(f"recorded {args.workload} {args.size} seed {args.seed}: "
                  f"f1 " + ", ".join(f"{e['f1']:.6f}" for e in entries))
            return 0
        if reference is None:
            print(f"note: no reference recorded for {args.workload} "
                  f"{args.size} seed {args.seed}; calls are checked for "
                  f"agreement with each other only", file=sys.stderr)
        run = Run(plan, work, reference)
        if args.trace:
            from tracing import LAYER_METRICS as units
            samples, metrics = traced(run, args.seconds)
        else:
            units = END_TO_END
            samples, metrics = untraced(run, args.seconds)
            expected_f1 = [entry["f1"] for entry in reference or []]
            if expected_f1 and samples["f1"] != expected_f1:
                run.failures.append(f"f1 {samples['f1']} differs from the "
                                    f"reference {expected_f1}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = os.path.join(ROOT, ".perfbench_work", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"provenance": info, "metrics": metrics,
                   "samples": samples, "failures": run.failures}, handle)

    print("# " + json.dumps(info, sort_keys=True))
    for failure in run.failures:
        print(f"# FAILED {failure}")
    for name, unit in units.items():
        values = samples[name]
        spread = ""
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"; q1 {q1:.6g}, q3 {q3:.6g}"
        print(f"{name:<30} {metrics[name]:>14.6g} {unit:<6} "
              f"(median of {len(values)}{spread})")
    if not args.trace:
        # What the normalized times were made from: the operations' own
        # seconds (ticks taken out) and the mean tick.
        for name in ("detect_s.raw", "ingest_s.raw", "setup_s.raw",
                     "tick_s"):
            print(f"# {name:<28} {metrics[name]:>14.6g} s      "
                  f"(median of {len(samples[name])})")
    attempted = max(run.attempted, 1)
    print(f"{'failed_share':<30} {run.failed / attempted:>14.6g} ratio  "
          f"({run.failed} of {run.attempted} operations)")
    print(json.dumps({
        "correct": not run.failures, "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
