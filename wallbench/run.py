#!/usr/bin/env python3
"""Wall-clock benchmark of the Gear data plane.

Builds gearctl and the benchmark's helper from this checkout, then drives
real `gearctl --remote` client processes against a fresh `gearctl serve`
daemon whose DiskObjectStore lives under .bench_work/ in the checkout.

    python3 wallbench/run.py --workload push|deploy --seed N \\
        --seconds S --trace 0|1
    python3 wallbench/run.py --agreement --workload W

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics from an
in-process traced replay with --trace 1). The line before it describes the
run: corpus, nproc, commit, flush policy and sample counts. A run whose
outputs are wrong exits 1. See wallbench/README.md.
"""

import argparse
import ctypes
import json
import os
import random
import re
import shutil
import signal
import stat
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "wallbench"
WORK_BASE = ROOT / ".bench_work"
GEARCTL = BUILD / "gear_tools" / "gearctl"
HELPER = BUILD / "wallbench_helper"

# The corpus and the pinned import worker count are constants of
# wallbench_helper (kCorpus, kScale, kVersions, kWorkers); its manifest
# reports them.
SETUP_REPEATS = 3
# Seeds per set in --agreement mode.
AGREEMENT_RUNS = 10
# Each sampled metric is the median of its figure over up to WINDOWS
# consecutive slices of the run's samples, each of at least WINDOW_SAMPLES
# samples, leaving out up to a quarter of the slices: those during which
# more than STEAL_LIMIT of the machine's CPU time went to other guests of
# the hypervisor (see windowed()). Chosen from recorded runs of both
# workloads: fewer, larger slices let a burst of load move the median.
WINDOWS = 7
WINDOW_SAMPLES = 7
STEAL_LIMIT = 0.02
CATS_PER_CYCLE = 4
TRACE_NODES = 2
COMMAND_TIMEOUT_S = 60
RUN_DEADLINE_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("import_s.p50", "s"),
    ("import_s.p90", "s"),
    ("import_mb_s", "MB/s"),
    ("ready_ms.p50", "ms"),
    ("ready_ms.p90", "ms"),
    ("deploy_s.p50", "s"),
    ("deploy_s.p90", "s"),
    ("cat_ms.p50", "ms"),
    ("cat_ms.p90", "ms"),
    ("export_mb_s", "MB/s"),
    ("store_bytes_per_source_byte", "count"),
    ("ops_ok_share", "share"),
]

class BenchError(Exception):
    """A run that cannot produce a result (exit 2, no result line)."""


# ---- build ---------------------------------------------------------------


def build():
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt", "tools/gearctl.cpp"):
        if not (ROOT / need).is_file():
            raise BenchError(f"{need} is missing: run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.log", "w") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                      "--target", "gearctl", "wallbench_helper"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"build failed, see {BUILD / 'build.log'}")


def private_tmpfs(path):
    """Mounts a tmpfs at `path` in a mount namespace private to this process
    and its children, so the stores live in memory but under the checkout.
    The mount vanishes when the last process of the run exits. There is no
    fallback to the disk: figures from a disk store drift and cannot be
    compared with tmpfs ones."""
    path.mkdir(parents=True, exist_ok=True)
    libc = ctypes.CDLL(None, use_errno=True)
    clone_newns, ms_rec, ms_private = 0x00020000, 0x4000, 0x40000
    if (libc.unshare(clone_newns) != 0 or
            libc.mount(b"none", b"/", None, ms_rec | ms_private, None) != 0 or
            libc.mount(b"tmpfs", str(path).encode(), b"tmpfs", 0, b"size=2g") != 0):
        raise BenchError(f"cannot mount a private tmpfs at {path}: "
                         f"{os.strerror(ctypes.get_errno())}")


# ---- processes -----------------------------------------------------------

_children = []
_children_lock = threading.Lock()


def spawn(args, **kwargs):
    proc = subprocess.Popen([str(a) for a in args], **kwargs)
    with _children_lock:
        _children.append(proc)
    return proc


def reap_all():
    with _children_lock:
        procs = list(_children)
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def gearctl(args):
    """Runs one gearctl command; returns (returncode, stdout, seconds)."""
    start = time.perf_counter()
    proc = spawn([GEARCTL] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"gearctl {' '.join(map(str, args))}: exit {proc.returncode}: "
              f"{err.decode(errors='replace').strip()}", file=sys.stderr)
    return proc.returncode, out, elapsed


class Daemon:
    """`gearctl serve` on 127.0.0.1:0 over a fresh DiskObjectStore."""

    def __init__(self, store_dir):
        self.store_dir = store_dir
        self.proc = spawn([GEARCTL, "serve", "--addr", "127.0.0.1:0",
                           "--store-dir", store_dir],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        match = re.match(r"serving on ([\d.]+):(\d+)", line)
        if not match:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"daemon did not start: {line!r}")
        self.remote = ["--remote", f"127.0.0.1:{match.group(2)}"]

    def stop(self):
        """SIGTERM; returns (clean, frames served). Clean = exit 0 with a
        shutdown line reporting 0 rejected frames."""
        self.proc.send_signal(signal.SIGTERM)
        _, err = self.proc.communicate(timeout=30)
        match = re.search(r"\((\d+) connections, (\d+) frames served, "
                          r"(\d+) rejected\)", err)
        clean = self.proc.returncode == 0 and match and int(match.group(3)) == 0
        if not clean:
            print(f"daemon shutdown not clean: {err.strip()}", file=sys.stderr)
        return bool(clean), int(match.group(2)) if match else 0

    def store_bytes(self):
        return sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(self.store_dir) for f in files)


# ---- inputs and output checks ------------------------------------------


def tree_listing(root):
    """Path -> (kind, payload) with symlinks read, never followed: the
    generator writes absolute links (bin/sh) that dangle on the host."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            mode = os.lstat(full).st_mode
            if stat.S_ISLNK(mode):
                out[rel] = ("l", os.readlink(full))
            elif stat.S_ISDIR(mode):
                out[rel] = ("d", None)
            else:
                with open(full, "rb") as f:
                    out[rel] = ("f", f.read())
    return out


class Image:
    def __init__(self, corpus_root, entry):
        self.ref = entry["ref"]
        self.dir = corpus_root / entry["dir"]
        self.bytes = entry["bytes"]
        self.listing = tree_listing(self.dir)
        self.files = sorted(p for p, (kind, _) in self.listing.items() if kind == "f")


def generate(dest, seed):
    proc = subprocess.run([str(HELPER), "gen", "--seed", str(seed), "--out", str(dest)],
                          stdout=subprocess.PIPE, timeout=COMMAND_TIMEOUT_S)
    if proc.returncode:
        raise BenchError("input generation failed")
    manifest = json.loads(proc.stdout)
    images = [Image(dest, e) for e in manifest["images"]]
    return manifest, images


# ---- measurements ----------------------------------------------------------


class Tally:
    """Thread-safe op counts and samples."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.samples = {}
        self.stamps = {}

    def op(self, ok, what):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def add(self, name, value):
        """Records a sample and the machine's CPU times at its completion."""
        stamp = cpu_times()
        with self.lock:
            self.samples.setdefault(name, []).append(value)
            self.stamps.setdefault(name, []).append(stamp)

    def clear(self):
        with self.lock:
            self.samples.clear()
            self.stamps.clear()


def quantile(q):
    """The q-quantile of a sample list, interpolating linearly between order
    statistics."""

    def of(values):
        values = sorted(values)
        pos = q * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (values[hi] - values[lo]) * (pos - lo)

    return of


def mb_per_s(timed_bytes):
    """Total MB over total seconds of (seconds, bytes) samples."""
    return sum(b for _, b in timed_bytes) / 1e6 / sum(t for t, _ in timed_bytes)


def cpu_times():
    """The machine's (steal, total) CPU jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    """The share of CPU time the hypervisor gave to other guests between two
    cpu_times() readings: high values mark a run slowed by its neighbours."""
    if not before or not after or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def windowed(samples, stamps, statistic):
    """The median of `statistic` over up to WINDOWS consecutive slices of
    the samples, in completion order, without the round(k/4) slices with the
    most steal if that steal exceeded STEAL_LIMIT. Other guests of a shared
    host slow the run in bursts of seconds, seen as steal in /proc/stat: a
    burst moves one slice's figure, not the median."""
    n = len(samples)
    k = max(1, min(WINDOWS, n // WINDOW_SAMPLES))
    bounds = [(i * n // k, (i + 1) * n // k) for i in range(k)]
    steal = [steal_share(stamps[max(a - 1, 0)], stamps[b - 1]) for a, b in bounds]
    if None not in steal:
        worst = sorted(range(k), key=lambda i: -steal[i])[:round(k / 4)]
        bounds = [b for i, b in enumerate(bounds)
                  if not (i in worst and steal[i] > STEAL_LIMIT)]
    return statistics.median(statistic(samples[a:b]) for a, b in bounds)


class Env:
    """One daemon, its store and the client roots around it."""

    def __init__(self, base, images, workers, tally):
        self.base = base
        self.images = images
        self.workers = workers
        self.tally = tally
        self.daemon = None
        self.exports = 0
        self.lock = threading.Lock()

    def start(self, round_index):
        self.dir = self.base / f"round-{round_index}"
        self.dir.mkdir(parents=True)
        self.daemon = Daemon(self.dir / "store")
        self.pusher = self.dir / "pusher"
        rc, _, _ = gearctl(self.daemon.remote + [self.pusher, "init"])
        if rc:
            raise BenchError("client init failed")

    def stop(self):
        clean, frames = self.daemon.stop()
        self.tally.op(clean, "daemon shutdown reported rejected frames")
        self.tally.add("daemon_frames", frames)
        self.daemon = None
        shutil.rmtree(self.dir, ignore_errors=True)

    def node(self, name):
        return self.dir / "nodes" / name

    # -- ops: each mirrors one plan line of the traced replay ------------------

    def import_image(self, img):
        rc, out, secs = gearctl(["--workers", self.workers] + self.daemon.remote +
                                [self.pusher, "import", img.dir, img.ref])
        if self.tally.op(rc == 0 and b"pushed " in out, f"import {img.ref}"):
            self.tally.add("import", (secs, img.bytes))

    def sync(self, name):
        target = self.node(name) / "docker"
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(self.pusher / "docker", target)

    def reset(self, name):
        shutil.rmtree(self.node(name) / "local", ignore_errors=True)

    def launch(self, name, img):
        start = time.perf_counter()
        proc = spawn([GEARCTL] + self.daemon.remote +
                     [self.node(name), "launch", "--lazy", img.ref],
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        container = proc.stdout.readline().strip()
        ready = time.perf_counter()
        try:
            _, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        done = time.perf_counter()
        files = (self.node(name) / "local" / "images" /
                 img.ref.replace(":", "_") / "files")
        ok = proc.returncode == 0 and bool(container)
        for rel in img.files if ok else []:
            try:
                ok = (files / rel).read_bytes() == img.listing[rel][1]
            except OSError:
                ok = False
            if not ok:
                break
        if proc.returncode:
            print(f"launch {img.ref}: {err.decode(errors='replace').strip()}",
                  file=sys.stderr)
        if self.tally.op(ok, f"launch --lazy {img.ref} on {name}"):
            self.tally.add("ready_ms", (ready - start) * 1000)
            self.tally.add("deploy_s", done - start)

    def cat(self, name, img, rel):
        rc, out, secs = gearctl(self.daemon.remote + [self.node(name), "cat", img.ref, rel])
        if self.tally.op(rc == 0 and out == img.listing[rel][1], f"cat {img.ref} {rel}"):
            self.tally.add("cat_ms", secs * 1000)

    def export(self, name, img):
        with self.lock:
            self.exports += 1
            out_dir = self.node(name) / f"export-{self.exports}"
        rc, _, secs = gearctl(self.daemon.remote + [self.node(name), "export", img.ref, out_dir])
        ok = rc == 0 and tree_listing(out_dir) == img.listing
        shutil.rmtree(out_dir, ignore_errors=True)
        if self.tally.op(ok, f"export {img.ref} differs from its source"):
            self.tally.add("export", (secs, img.bytes))

    def run_ops(self, name, ops):
        for op in ops:
            kind = op[0]
            if kind == "reset":
                self.reset(name)
            elif kind == "launch":
                self.launch(name, op[1])
            elif kind == "cat":
                self.cat(name, op[1], op[2])
            elif kind == "export":
                self.export(name, op[1])
            else:
                raise ValueError(kind)

    def store_ratio(self):
        """Store bytes per source byte, once every image is pushed."""
        self.tally.add("store_ratio",
                       self.daemon.store_bytes() / sum(i.bytes for i in self.images))


def run_threads(fns):
    errors = []

    def wrap(fn):
        try:
            fn()
        except Exception as e:  # surfaced after join
            errors.append(e)

    threads = [threading.Thread(target=wrap, args=(fn,), daemon=True) for fn in fns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


# ---- workload schedules (shared by the timed run and the traced plan) ----


def other_image_files(rng, images, img, count):
    others = [i for i in images if i is not img]
    picks = []
    for _ in range(count):
        other = rng.choice(others)
        picks.append(("cat", other, rng.choice(other.files)))
    return picks


def verify_cycle(rng, images, img):
    """Cold deploy of `img`, cold cats from other images, export of `img`."""
    return ([("reset",), ("launch", img)] +
            other_image_files(rng, images, img, CATS_PER_CYCLE) + [("export", img)])


def deploy_cycles(seed, node_index, images):
    rng = random.Random(f"deploy/{seed}/{node_index}")
    while True:
        order = list(images)
        rng.shuffle(order)
        for img in order:
            yield verify_cycle(rng, images, img)[:-1] + [("export", rng.choice(images))]


def node_count(workload):
    """Concurrent deploy nodes. Two below nproc leaves a core for the daemon
    and one spare, so that CPU time taken by other tenants of a shared
    machine turns less into queueing in the p90s."""
    if workload == "deploy":
        return max(1, min(2, (os.cpu_count() or 1) - 2))
    return 0


# ---- timed workloads ---------------------------------------------------------


def setup(env, workload, nodes):
    """Fresh daemon and client roots, pre-loaded for the workload."""
    env.start(0)
    if workload == "deploy":
        # One pusher, oldest version first, as in `push`: concurrent set-up
        # pushers oversubscribe the cores and make import_s unsteady.
        for img in env.images:
            env.import_image(img)
        for n in range(nodes):
            env.sync(f"n{n}")


def push_round(env, rng):
    """Imports every image into the current daemon, then proves each one
    with a verifier node."""
    for img in env.images:
        env.import_image(img)
    env.store_ratio()
    env.sync("verify")
    for img in env.images:
        env.run_ops("verify", verify_cycle(rng, env.images, img))


def timed_push(env, seed, seconds, _nodes):
    rng = random.Random(f"push/{seed}")
    # One untimed warm-up round on the set-up daemon: without it the first
    # round's imports and launches were often the slowest of the run, up to
    # a third slower than later rounds. Its outputs are still checked.
    push_round(env, rng)
    env.tally.clear()
    deadline = time.perf_counter() + seconds
    round_index = 0
    while True:
        round_index += 1
        env.stop()
        env.start(round_index)
        push_round(env, rng)
        if time.perf_counter() >= deadline:
            return round_index


def timed_deploy(env, seed, seconds, nodes):
    env.store_ratio()
    deadline = time.perf_counter() + seconds

    def node_loop(n):
        cycles = deploy_cycles(seed, n, env.images)
        while time.perf_counter() < deadline:
            env.run_ops(f"n{n}", next(cycles))

    run_threads([lambda n=n: node_loop(n) for n in range(nodes)])
    return 1


TIMED = {"push": timed_push, "deploy": timed_deploy}


def run_timed(workload, seed, seconds, work):
    tally = Tally()
    nodes = node_count(workload)
    setup_times = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        base = work / f"setup-{rep}"
        manifest, images = generate(base / "corpus", seed)
        env = Env(base, images, manifest["workers"], tally)
        setup(env, workload, nodes)
        setup_times.append(time.perf_counter() - start)
        if rep + 1 < SETUP_REPEATS:
            env.stop()
            shutil.rmtree(base)

    cpu_before = cpu_times()
    rounds = TIMED[workload](env, seed, seconds, nodes)
    cpu_after = cpu_times()
    env.stop()

    s, stamps = tally.samples, tally.stamps
    for needed in ("import", "ready_ms", "deploy_s", "cat_ms", "export", "store_ratio"):
        if not s.get(needed):
            raise BenchError(f"no {needed} samples were taken")

    def sampled(name, statistic):
        return windowed(s[name], stamps[name], statistic)

    import_s = [t for t, _ in s["import"]]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "import_s.p50": windowed(import_s, stamps["import"], quantile(0.5)),
        "import_s.p90": windowed(import_s, stamps["import"], quantile(0.9)),
        "import_mb_s": sampled("import", mb_per_s),
        "ready_ms.p50": sampled("ready_ms", quantile(0.5)),
        "ready_ms.p90": sampled("ready_ms", quantile(0.9)),
        "deploy_s.p50": sampled("deploy_s", quantile(0.5)),
        "deploy_s.p90": sampled("deploy_s", quantile(0.9)),
        "cat_ms.p50": sampled("cat_ms", quantile(0.5)),
        "cat_ms.p90": sampled("cat_ms", quantile(0.9)),
        "export_mb_s": sampled("export", mb_per_s),
        "store_bytes_per_source_byte": statistics.median(s["store_ratio"]),
        "ops_ok_share": 1 - tally.failed / max(1, tally.attempted),
    }
    info = {
        "nodes": nodes,
        "rounds": rounds,
        "timed_cpu_steal_share": steal_share(cpu_before, cpu_after),
        "setup_runs_s": setup_times,
        "samples": {k: len(v) for k, v in s.items()},
        "daemon_frames": sum(s.get("daemon_frames", [])),
        "corpus": corpus_info(manifest),
    }
    return tally.failed == 0, tally.attempted, tally.failed, metrics, info


def corpus_info(manifest):
    return {
        "series": manifest["series"],
        "versions": manifest["versions"],
        "scale": manifest["scale"],
        "import_workers": manifest["workers"],
        "images": len(manifest["images"]),
        "source_bytes": manifest["source_bytes"],
        "source_files": manifest["source_files"],
        "incompressible_share": manifest["incompressible_share"],
    }


# ---- traced replay -------------------------------------------------------


def trace_plan(workload, seed, images):
    """The workload's op list for the in-process replay: serial, fixed
    length, TRACE_NODES nodes, so its counts repeat for a seed."""
    lines = []

    def emit(*fields):
        lines.append("\t".join(str(f) for f in fields))

    def rel(img):
        return img.dir.relative_to(img.dir.parent.parent)

    def emit_ops(node, ops):
        for op in ops:
            if op[0] == "reset":
                emit("reset", node)
            elif op[0] == "launch":
                emit("launch", node, op[1].ref, rel(op[1]))
            elif op[0] == "cat":
                emit("cat", node, op[1].ref, op[2], rel(op[1]) / op[2])
            elif op[0] == "export":
                emit("export", node, op[1].ref, rel(op[1]))

    if workload == "push":
        rng = random.Random(f"push/{seed}")
        emit("timed")
        for img in images:
            emit("import", img.ref, rel(img))
        emit("sync", "verify")
        for img in images:
            emit_ops("verify", verify_cycle(rng, images, img))
    else:
        for img in images:
            emit("import", img.ref, rel(img))
        for n in range(TRACE_NODES):
            emit("sync", f"n{n}")
        emit("timed")
        for n in range(TRACE_NODES):
            cycles = deploy_cycles(seed, n, images)
            for _ in range(len(images)):
                emit_ops(f"n{n}", next(cycles))
    return "\n".join(lines) + "\n"


def run_traced(workload, seed, work):
    manifest, images = generate(work / "corpus", seed)
    plan = work / "plan.tsv"
    plan.write_text(trace_plan(workload, seed, images))
    results = {}
    for mode in ("passthrough", "traced"):
        args = [HELPER, "replay", "--plan", plan, "--corpus", work / "corpus",
                "--work", work / mode]
        if mode == "passthrough":
            args.append("--passthrough")
        proc = spawn(args, stdout=subprocess.PIPE)
        out, _ = proc.communicate(timeout=COMMAND_TIMEOUT_S * 2)
        lines = out.decode().strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} replay printed nothing (exit {proc.returncode})")
        results[mode] = json.loads(lines[-1])
    traced, passthrough = results["traced"], results["passthrough"]
    metrics = dict(traced["metrics"])
    metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
    metrics["trace.overhead_share"] = {
        "value": traced["wall_s"] / passthrough["wall_s"] - 1, "unit": "share"}
    correct = traced["correct"] and passthrough["correct"]
    failed = traced["failed"] + passthrough["failed"]
    info = {"passthrough_wall_s": passthrough["wall_s"], "trace_nodes": TRACE_NODES,
            "plan_lines": plan.read_text().count("\n"), "corpus": corpus_info(manifest)}
    return correct, traced["attempted"], failed, metrics, info


# ---- entry points --------------------------------------------------------


def commit_hash():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.decode().strip()
    except OSError:
        pass
    return "unknown"


def run_once(args):
    build()
    private_tmpfs(WORK_BASE)

    def on_alarm(*_):
        raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")

    def on_term(*_):
        raise BenchError("terminated")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(RUN_DEADLINE_S)
    work = WORK_BASE / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            correct, attempted, failed, metrics, info = run_traced(args.workload, args.seed, work)
        else:
            correct, attempted, failed, values, info = run_timed(
                args.workload, args.seed, args.seconds, work)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        signal.alarm(0)
        reap_all()
        shutil.rmtree(work, ignore_errors=True)
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "commit": commit_hash(),
        "store": "DiskObjectStore on a private tmpfs at .bench_work/ in the checkout",
        "flush_policy": "daemon puts fsync the object and its directory; "
                        "client caches and exports are written without fsync",
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_agreement(args):
    """Runs two sets of AGREEMENT_RUNS seeds back to back and prints, per metric,
    each set's median and quartile spread and the drift between the two set
    medians, against the bounds in BENCHMARK.json."""
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sets = []
    for set_index in range(2):
        values = {}
        steal = []
        for seed in range(1, AGREEMENT_RUNS + 1):
            proc = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], stdout=subprocess.PIPE)
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
                print(f"seed {seed}: run failed", file=sys.stderr)
                return 1
            for name, m in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            steal.append(json.loads(lines[-2])["info"]["timed_cpu_steal_share"])
        sets.append(values)
        print(f"set {set_index} timed_cpu_steal_share by seed: " +
              " ".join("-" if s is None else f"{s:.3f}" for s in steal))
    ok = True
    print(f"{'metric':32} {'bound':>6} {'median0':>12} {'spread0':>8} "
          f"{'median1':>12} {'spread1':>8} {'drift':>8}")
    for name, bound in bounds.items():
        cells = []
        medians = []
        for values in sets:
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med if med else 0.0
            medians.append(med)
            cells.append(f"{med:12.5g} {spread:8.3f}")
            ok = ok and spread <= bound
        drift = medians[1] / medians[0] - 1 if medians[0] else 0.0
        ok = ok and abs(drift) <= bound
        print(f"{name:32} {bound:6.2f} " + " ".join(cells) + f" {drift:8.3f}")
    print("agreement: " + ("within bounds" if ok else "OUTSIDE bounds"))
    return 0 if ok else 1


def main():
    # Timestamps are taken by Python threads; a short switch interval keeps
    # a thread that sees a launch become ready from waiting ~5 ms for the GIL.
    sys.setswitchinterval(0.0002)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(TIMED), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--agreement", action="store_true",
                        help="run two sets of seeds 1-10 and compare them")
    args = parser.parse_args()
    try:
        return run_agreement(args) if args.agreement else run_once(args)
    except BenchError as e:
        print(f"wallbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
