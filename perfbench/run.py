#!/usr/bin/env python3
"""The repository's benchmark: fixed-seed `raxh -f a` and `raxhd` workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the program from source
into .bench_build/ (the repository's own CMake project plus perfbench_probe);
later runs reuse that build. Inputs are generated from --seed with
simulate_alignment (perfbench_probe make-alignment), so the program only ever
sees PHYLIP bytes. The alignment is fixed per workload; --seed picks the
analysis seeds (-p/-x) of the run's analyses and served jobs.

--trace 0 measures the end-to-end metrics by driving the real binaries with no
observability flag. --trace 1 makes the traced run: one untraced raxh run,
the same analysis in-process through run_hybrid_comprehensive with obs on and
a timing Comm around every rank, and replays of each layer's public calls; it
reports the per-layer metrics. See perfbench/NOTES.md.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")
REFS = os.path.join(BUILD_ROOT, "refs")
WORK = os.path.join(BUILD_ROOT, "work")

RAXH = os.path.join(BUILD, "raxh", "src", "cli", "raxh")
RAXHD = os.path.join(BUILD, "raxh", "src", "cli", "raxhd")
PROBE = os.path.join(BUILD, "perfbench_probe")

# Why each workload exists is recorded in BENCHMARK.json; the sizes here were
# chosen so one analysis takes a few seconds on a 4-core box, leaving several
# samples per run. ranks x threads x side_by_side <= 4 everywhere. A fa_* run
# makes round(seconds * per_s) rounds (at least three) of side_by_side copies
# of one analysis, a number fixed by --seconds alone, so a faster program
# measures the same work. setup_reps is the number of set-up repetitions per
# round.
WORKLOADS = {
    # Ordinary alignment (~770 patterns) at the paper's hybrid 2x2 setting.
    "fa_ord_2x2": dict(kind="fa", taxa=32, distinct=1100, sites=1400,
                       mean_branch=0.12, np=2, T=2, N=4, per_s=0.15,
                       side_by_side=1, setup_reps=17),
    # Low-divergence, duplicate-heavy alignment, serial: site repeats' regime.
    # The speed of one core of a shared box wanders by +-20% between ~1 s
    # analyses and shifts for 10-20 s at a time. Four copies of each analysis
    # run side by side, one per core, so every round samples four cores.
    "fa_lowdiv_1x1": dict(kind="fa", taxa=20, distinct=1000, sites=1000,
                          mean_branch=0.005, np=1, T=1, N=4, per_s=1.0,
                          side_by_side=4, setup_reps=5),
    # Many small jobs sharing one alignment through a 2-slot raxhd, closed
    # loop with 4 jobs outstanding on 4 connections (the probe's constant).
    "serve_batch": dict(kind="serve", taxa=16, distinct=300, sites=380,
                        mean_branch=0.12, np=2, T=1, N=4, slots=2,
                        min_jobs=40, setup_reps=12),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build --------------------------------------------------------------------

def build():
    """Configure once, then let the build tool bring the binaries up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "raxh", "raxhd", "perfbench_probe"],
                   check=True, stdout=sys.stderr)


# --- process helpers ------------------------------------------------------------

def spawn_and_wait(argv, cwd):
    """Runs argv to completion; returns (exit status, wall s, peak RSS MB, stdout).

    The peak RSS is wait4's ru_maxrss: the largest of the process and the
    descendants it reaped (the forked minimpi ranks).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out


def probe(args, cwd):
    """Runs one perfbench_probe subcommand and returns its JSON output."""
    res = subprocess.run([PROBE] + args, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    if res.returncode != 0:
        raise RuntimeError("perfbench_probe %s failed: %s"
                           % (args[0], res.stderr.strip()))
    return json.loads(res.stdout.strip().splitlines()[-1])


def analysis_flags(wl, seed):
    return ["-np", str(wl["np"]), "-T", str(wl["T"]), "-N", str(wl["N"]),
            "-p", str(seed), "-x", str(seed)]


def analysis_seed(seed, i):
    """-p/-x of a run's i-th analysis or served job: each takes its own
    search path, so a run's medians average over search paths as well as
    over machine noise, and runs with different seeds share none."""
    return seed * 1000 + i


def make_alignment(wl, workdir):
    path = os.path.join(workdir, "alignment.phy")
    argv = ["make-alignment", "-o", path, "-taxa", str(wl["taxa"]),
            "-distinct", str(wl["distinct"]), "-sites", str(wl["sites"]),
            "-mean-branch", str(wl["mean_branch"])]
    subprocess.run([PROBE] + argv, cwd=workdir, check=True)
    return path


def quantile(values, q):
    """Quartile q (1..3). The inclusive method interpolates between samples
    instead of reaching past them, which keeps a p75 over the few analyses
    of a one-shot run from being its slowest sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[q - 1]


def lnl_from_bits(bits):
    return struct.unpack(">d", bytes.fromhex(bits))[0]


# --- one-shot raxh analyses --------------------------------------------------------

def one_shot(aln, wl, seed, rundir):
    """One `raxh -f a` run; returns a record with its outputs and costs."""
    os.makedirs(rundir, exist_ok=True)
    for f in os.listdir(rundir):
        path = os.path.join(rundir, f)
        if os.path.isfile(path):
            os.remove(path)
    argv = [RAXH, "-s", aln, "-f", "a", "-n", "r"] + analysis_flags(wl, seed)
    code, wall, rss, out = spawn_and_wait(argv, rundir)
    rec = dict(code=code, wall=wall, rss=rss, member=None, lnl_text=None,
               tree=None)
    for line in out.splitlines():
        if line.startswith("raxh: ") and " kernels, " in line:
            rec["member"] = line[len("raxh: "):].split(" kernels")[0]
        if "final GAMMA lnL " in line:
            rec["lnl_text"] = line.split("final GAMMA lnL ")[1].split()[0]
    tree_path = os.path.join(rundir, "r_bestTree.tre")
    if code == 0 and os.path.exists(tree_path):
        with open(tree_path) as f:
            rec["tree"] = f.read().strip()
    return rec


def ref_of(rec):
    """The parts of a run's result that every other run of the same analysis
    must reproduce. The tree carries branch lengths at 17 significant digits,
    so equal trees mean bit-equal branch lengths."""
    return {k: rec[k] for k in ("member", "lnl_text", "tree")}


def pipeline_result(aln, wl, aseed, workdir):
    """The same analysis run in-process through run_hybrid_comprehensive on
    thread-backed ranks: a second computation of a one-shot run's result."""
    out = probe(["pipeline", "-s", aln] + analysis_flags(wl, aseed), workdir)
    return {"member": out["kernel_isa"], "lnl_text": "%.6f" % out["lnl"],
            "tree": out["best_tree"]}


class Reference:
    """The known result of one analysis, kept in .bench_build/refs under a
    hash of the alignment bytes and the analysis flags, so a reference is
    only ever compared with a run of the same input and command."""

    def __init__(self, aln, flags):
        digest = hashlib.sha256()
        with open(aln, "rb") as f:
            digest.update(f.read())
        digest.update(json.dumps(flags).encode())
        self.path = os.path.join(REFS, digest.hexdigest()[:32] + ".json")
        self.ref = None
        if os.path.exists(self.path):
            with open(self.path) as f:
                self.ref = json.load(f)

    def save(self, fields):
        self.ref = dict(self.ref or {}, **fields)
        os.makedirs(REFS, exist_ok=True)
        with open(self.path, "w") as f:
            json.dump(self.ref, f)


def check_result(result, ref, second):
    """Checks one result (a dict of ref_of's keys; a served job has no
    member) and returns "reproduced", "created" or "failed". A stored
    reference must be reproduced exactly. Without one, the result must equal
    `second()`, an independent computation of the same analysis, and then
    becomes the stored reference."""
    if None in result.values():
        return "failed"
    if ref.ref is not None:
        return "reproduced" if all(ref.ref[k] == v for k, v in result.items()) \
            else "failed"
    other = second()
    if other is None or any(other[k] != v for k, v in result.items()):
        return "failed"
    ref.save(other)
    return "created"


def report_checks(name, outcomes):
    print("%s references: %d reproduced, %d created after a cross-check, "
          "%d failed" % (name, outcomes.count("reproduced"),
                         outcomes.count("created"), outcomes.count("failed")))


def run_fa(name, wl, seed, seconds, workdir):
    aln = make_alignment(wl, workdir)
    width = wl["side_by_side"]
    rounds, setups = [], []
    # A round is set-up repetitions, then `width` copies of one analysis side
    # by side, each in its own directory. Set-up runs before each round, so
    # its median pools the whole run's machine state.
    with ThreadPoolExecutor(max_workers=width) as pool:
        for i in range(max(3, round(seconds * wl["per_s"]))):
            aseed = analysis_seed(seed, i)
            setups += probe(["setup", "-s", aln, "-reps",
                             str(wl["setup_reps"])]
                            + analysis_flags(wl, aseed), workdir)["setup_s"]
            t0 = time.perf_counter()
            recs = list(pool.map(
                lambda j: one_shot(aln, wl, aseed,
                                   os.path.join(workdir, "run%d" % j)),
                range(width)))
            rounds.append((aseed, recs, time.perf_counter() - t0))

    # Checked after the timed loop, side by side as the cores allow. A new
    # reference is cross-checked against the in-process pipeline; the other
    # copies of a round must match its first bit for bit.
    def check(item):
        aseed, recs, _ = item
        first = recs[0]
        outcome = "failed" if first["code"] != 0 else check_result(
            ref_of(first), Reference(aln, analysis_flags(wl, aseed)),
            lambda: pipeline_result(aln, wl, aseed, workdir))
        return [outcome] + [
            "reproduced" if outcome != "failed" and rec["code"] == 0
            and ref_of(rec) == ref_of(first) else "failed"
            for rec in recs[1:]]

    with ThreadPoolExecutor(max_workers=max(1, 4 // (wl["np"] * wl["T"]))) \
            as pool:
        checked = list(pool.map(check, rounds))
    runs = [(aseed, rec, outcome) for (aseed, recs, _), outcomes
            in zip(rounds, checked) for rec, outcome in zip(recs, outcomes)]
    outcomes = [outcome for _, _, outcome in runs]
    report_checks(name, outcomes)
    good = []
    for aseed, rec, outcome in runs:
        if outcome == "failed":
            log("%s: analysis -p/-x %d does not match its reference (exit %d, "
                "member %s, lnL %s)" % (name, aseed, rec["code"],
                                        rec["member"], rec["lnl_text"]))
        else:
            good.append(rec)
    metrics = {}
    if good:
        walls = [r["wall"] for r in good]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "final_lnl": statistics.median(float(r["lnl_text"]) for r in good),
            "peak_rss_mb": max(r["rss"] for r in good),
            "job_latency_p50_s": statistics.median(walls),
            "job_latency_p75_s": quantile(walls, 3),
            "jobs_per_min": 60.0 * len(walls)
                            / sum(span for _, _, span in rounds),
        }
    return runs[0][1]["member"], len(runs), outcomes.count("failed"), metrics


# --- raxhd --------------------------------------------------------------------

def serve_batch(wl, seed, seconds, aln, workdir):
    """Runs the closed-loop batch against a fresh raxhd; returns the probe's
    batch record plus the daemon's peak RSS. Job i runs with -p/-x
    analysis_seed(seed, i)."""
    # One job per half second of --seconds, and never fewer than min_jobs:
    # enough samples beyond p75 while the one-shot references stay affordable.
    jobs = max(wl["min_jobs"], 2 * seconds)
    socket = "batch.sock"
    if os.path.exists(os.path.join(workdir, socket)):
        os.remove(os.path.join(workdir, socket))
    daemon = subprocess.Popen(
        [RAXHD, "--socket=" + socket, "--jobs=%d" % wl["slots"],
         "--log-level=error"],
        cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    base = analysis_seed(seed, 0)
    try:
        batch = probe(["serve-batch", "-s", aln, "-socket", socket,
                       "-jobs", str(jobs), "-seed-base", str(base)]
                      + analysis_flags(wl, base), workdir)
    finally:
        daemon.terminate()
        _, status, usage = os.wait4(daemon.pid, 0)
        daemon.returncode = os.waitstatus_to_exitcode(status)
    batch["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return batch


def job_result(job):
    return {"lnl_text": "%.6f" % lnl_from_bits(job["lnl_bits"]),
            "tree": job["best_tree"]}


def check_jobs(name, wl, aln, jobs, workdir):
    """Checks every served job against a one-shot `raxh -f a` with the same
    seeds (the daemon/one-shot bit-identity promise). Returns each job's
    outcome, as check_result gives it."""

    def one_shot_result(aseed):
        rundir = os.path.join(workdir, "ref%d" % aseed)
        rec = one_shot(aln, wl, aseed, rundir)
        shutil.rmtree(rundir, ignore_errors=True)
        return ref_of(rec) if rec["code"] == 0 else None

    def check(job):
        if job["state"] != "done":
            return "failed"
        aseed = int(job["seed"])
        return check_result(job_result(job),
                            Reference(aln, analysis_flags(wl, aseed)),
                            lambda: one_shot_result(aseed))

    # One-shot references side by side, as many as the cores hold.
    with ThreadPoolExecutor(max_workers=max(1, 4 // wl["np"])) as pool:
        outcomes = list(pool.map(check, jobs))
    report_checks(name, outcomes)
    for job, outcome in zip(jobs, outcomes):
        if outcome == "failed":
            log("%s: job seed %d does not match its one-shot reference "
                "(state %s %s)" % (name, job["seed"], job["state"],
                                   job["error"]))
    return outcomes


def run_serve(name, wl, seed, seconds, workdir):
    aln = make_alignment(wl, workdir)

    def serve_setup():
        return probe(["serve-setup", "-s", aln, "-raxhd", RAXHD, "-reps",
                      str(wl["setup_reps"]), "-socket", "setup.sock"]
                     + analysis_flags(wl, analysis_seed(seed, 0)), workdir)

    # Set-up is sampled before the batch, after it and after the checks, and
    # pooled, so its median spans the whole run's machine state.
    rounds = [serve_setup()]
    batch = serve_batch(wl, seed, seconds, aln, workdir)
    rounds.append(serve_setup())
    jobs = batch["jobs"]
    outcomes = check_jobs(name, wl, aln, jobs, workdir)
    rounds.append(serve_setup())
    setup = {k: sum((r[k] for r in rounds), [])
             for k in ("setup_s", "admission_s")}
    good = [j for j, o in zip(jobs, outcomes) if o != "failed"]
    metrics = {}
    if good:
        latencies = [j["latency_s"] for j in good]
        metrics = {
            "wall_s": batch["wall_s"],
            "setup_s": statistics.median(setup["setup_s"]),
            "final_lnl": statistics.median(lnl_from_bits(j["lnl_bits"])
                                           for j in good),
            "peak_rss_mb": batch["peak_rss_mb"],
            "job_latency_p50_s": statistics.median(latencies),
            "job_latency_p75_s": quantile(latencies, 3),
            "jobs_per_min": 60.0 * len(latencies) / batch["wall_s"],
        }
    # raxhd prints no banner; the probe links the same kernel family and
    # reports the member it selects on this machine.
    return (rounds[-1]["kernel_isa"], len(jobs), outcomes.count("failed"),
            metrics, setup, batch)


# --- traced run ----------------------------------------------------------------

def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(pipe, untraced, replay):
    """Per-layer metrics from one traced pipeline run, its untraced twin, and
    the layer replays."""
    times = {s: pipe["stage_%s_s" % s] for s in
             ("bootstrap", "fast", "slow", "thorough")}
    totals = [sum(v) for v in zip(*times.values())]
    copied, computed = pipe["repeat_copied"], pipe["repeat_computed"]
    m = {
        "bio.parse_s": replay["bio.parse_s"],
        "bio.compress_s": replay["bio.compress_s"],
        "bio.patterns": replay["bio.patterns"],
        "bio.pattern_share": replay["bio.patterns"] / replay["bio.sites"],
        "likelihood.newview_calls": pipe["newview_calls"],
        "likelihood.evaluate_calls": pipe["evaluate_calls"],
        "likelihood.derivative_calls": pipe["derivative_calls"],
        "likelihood.patterns_evaluated": pipe["patterns_evaluated"],
        "kernels.fallbacks": pipe["kernel_fallbacks"],
        "repeats.copy_share": ratio(copied, copied + computed),
        "repeats.patterns_computed": computed,
        "parallel.crew_jobs": pipe["crew_jobs"],
        "parallel.barrier_wait_s": pipe["crew_barrier_wait_s"],
        "minimpi.msgs": pipe["comm_msgs"],
        "minimpi.bytes": pipe["comm_bytes"],
        "minimpi.barrier_wait_s": pipe["comm_barrier_wait_s"],
        "minimpi.send_s": pipe["comm_send_s"],
        "minimpi.recv_s": pipe["comm_recv_s"],
        "core.rank_imbalance": ratio(max(totals), statistics.mean(totals)),
        "obs.trace_overhead_frac": pipe["wall_s"] / untraced["wall_s"] - 1.0,
        "input.taxa": replay["bio.taxa"],
        "input.sites": replay["bio.sites"],
        "input.clv_bytes_cat": replay["clv_bytes_cat"],
        "input.clv_bytes_gamma": replay["clv_bytes_gamma"],
        "input.l2_bytes_per_core": replay["l2_bytes_per_core"],
        "input.clv_gamma_over_l2": ratio(replay["clv_bytes_gamma"],
                                         replay["l2_bytes_per_core"]),
    }
    for op in ("p2p", "barrier", "bcast", "reduce", "gather"):
        m["minimpi.%s_msgs" % op] = pipe["comm_%s_msgs" % op]
    for stage, per_rank in times.items():
        m["core.%s_s" % stage] = max(per_rank)
    for key, value in replay.items():
        if key.split(".")[0] in ("model", "kernels", "search", "tree",
                                 "likelihood", "parallel") and \
                isinstance(value, (int, float)):
            m[key] = value
    return m


def traced_analysis(name, wl, aseed, aln, ref, workdir):
    """In-process untraced + traced pipeline and the layer replays for one
    analysis; returns (per-layer metrics, failures, attempted)."""
    flags = ["-s", aln] + analysis_flags(wl, aseed)
    untraced = probe(["pipeline"] + flags, workdir)
    pipe = probe(["pipeline", "-traced", "-spans-out",
                  os.path.join(workdir, "spans_pipeline.json")] + flags,
                 workdir)
    replay = probe(["replay", "-best-tree", pipe["best_tree"], "-spans-out",
                    os.path.join(workdir, "spans_replay.json")] + flags,
                   workdir)
    checks = {
        "untraced pipeline lnL": "%.6f" % untraced["lnl"] == ref["lnl_text"],
        "untraced pipeline tree": untraced["best_tree"] == ref["tree"],
        "traced pipeline lnL bits": pipe["lnl_bits"] == untraced["lnl_bits"],
        "traced pipeline tree": pipe["best_tree"] == untraced["best_tree"],
        "reference lnL bits":
            ref.get("lnl_bits", pipe["lnl_bits"]) == pipe["lnl_bits"],
        "replayed rank 0 lnL bits":
            replay["replay.rank0_lnl_bits"] == pipe["rank_lnl_bits"][0],
        "replayed support tree":
            replay["replay.support_tree"] == pipe["support_tree"],
        "kernel member": replay["kernel_isa"] == pipe["kernel_isa"],
    }
    for what, ok in checks.items():
        if not ok:
            log("%s: traced run check failed: %s" % (name, what))
    print("clv layouts: CAT %s, GAMMA %s" % (replay["kernels.cat_layout"],
                                            replay["kernels.gamma_layout"]))
    failed = sum(1 for ok in checks.values() if not ok)
    return layer_metrics(pipe, untraced, replay), failed, len(checks), pipe


SERVE_LAYER_ZERO = ("serve.admission_cold_s", "serve.cache_hit_share",
                    "serve.queue_s_p50", "serve.run_s_p50", "serve.scrape_s")


def run_traced(name, wl, seed, seconds, workdir):
    aln = make_alignment(wl, workdir)
    attempted = failed = 0
    aseed = analysis_seed(seed, 0)
    if wl["kind"] == "fa":
        # The traced run measures analysis 0 of the untraced runs. Without a
        # stored reference, its untraced pipeline is the cross-check that
        # makes the one-shot result the reference.
        ref = Reference(aln, analysis_flags(wl, aseed))
        rec = one_shot(aln, wl, aseed, os.path.join(workdir, "run"))
        result = ref_of(rec)
        expected = ref.ref or result
        attempted += 1
        ok = rec["code"] == 0 and None not in result.values() and \
            all(expected[k] == v for k, v in result.items())
        if not ok:
            failed += 1
            log("%s: untraced raxh run does not match the reference" % name)
        metrics, f, a, pipe = traced_analysis(name, wl, aseed, aln, expected,
                                              workdir)
        if ok and f == 0:
            ref.save(dict(result, lnl_bits=pipe["lnl_bits"]))
        for key in SERVE_LAYER_ZERO:
            metrics[key] = 0.0
        member = pipe["kernel_isa"]
    else:
        _, jobs_n, jfailed, _, setup, batch = run_serve(name, wl, seed, seconds,
                                                        workdir)
        attempted += jobs_n
        failed += jfailed
        job0 = batch["jobs"][0]
        ref = dict(job_result(job0), lnl_bits=job0["lnl_bits"])
        metrics, f, a, pipe = traced_analysis(name, wl, aseed, aln, ref,
                                              workdir)
        done = [j for j in batch["jobs"] if j["state"] == "done"]
        metrics.update({
            "serve.admission_cold_s": statistics.median(setup["admission_s"]),
            "serve.cache_hit_share": ratio(sum(j["cache_hit"] for j in done),
                                           len(done)),
            "serve.queue_s_p50": statistics.median(j["queue_s"] for j in done),
            "serve.run_s_p50": statistics.median(j["run_s"] for j in done),
            "serve.scrape_s": batch["scrape_s"],
        })
        member = pipe["kernel_isa"]
    return member, attempted + a, failed + f, metrics


# --- main ------------------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    build()
    name, wl = args.workload, WORKLOADS[args.workload]
    workdir = os.path.join(WORK, "%s-%d" % (name, args.seed))
    os.makedirs(workdir, exist_ok=True)

    if args.trace:
        member, attempted, failed, values = run_traced(
            name, wl, args.seed, args.seconds, workdir)
        wanted = spec["per_layer"]
    else:
        if wl["kind"] == "fa":
            member, attempted, failed, values = run_fa(
                name, wl, args.seed, args.seconds, workdir)
        else:
            member, attempted, failed, values, _, _ = run_serve(
                name, wl, args.seed, args.seconds, workdir)
        if values:
            values["ok_frac"] = (attempted - failed) / attempted
        wanted = spec["end_to_end"]

    correct = failed == 0 and bool(values)
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            correct = False
    print("kernel member: %s" % member)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
