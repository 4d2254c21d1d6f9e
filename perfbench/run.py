"""The singspec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 27   # every workload in turn
    python3 perfbench/run.py --record           # rewrite digests.json (default seed)

Run it from the root of a checkout: the program is imported from ``src/``,
fresh for each request, and nothing outside the checkout is read or written
(scratch files go to ``.perfbench_work/``).  Load is one closed-loop client:
the next request starts when the previous one has returned, and at most one
child process runs at a time.  ``RATIONALE.md`` says why each workload
exists and which layer metric should move which end-to-end metric.

With ``--trace 0`` the last line of stdout is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric,
measured by alternating untraced and traced passes.  Request timings are
scaled to a reference speed gauged between requests (``reference.py``);
``setup_s`` is not.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
CPUS = os.sched_getaffinity(0)  # before main() pins the run to one of them

WORKLOADS = ("check", "sp-large", "sp-coupled", "nearby")
DEFAULT_SEED = 0
# sp-coupled warms up on seed + this, which no benchmark seed reaches
WARMUP_SEED_OFFSET = 2**32
# setup probes run in two halves, before and after the passes, so that the
# median spans the run
SETUP_PROBES = 16
# a run makes at least this many passes, even past --seconds; the tail
# percentile is chosen for the sample count this guarantees, so it does not
# change with the speed of the program or the machine
MIN_PASSES = {"check": 4, "sp-large": 4, "sp-coupled": 10, "nearby": 4}
# past this many seconds a run starts no pass, even below MIN_PASSES, and
# kills a request that would outlast it, so the run ends well within 180 s
TIME_LIMIT_S = 140
PROBE_TIMEOUT_S = 30
# reference loops timed before each pass and after each fresh-interpreter
# request; a request's scale rests on the gauges on both sides of it
LOOPS_PER_GAUGE = 3
VARIANTS = ("total", "open", "local")
# fields of an sp report that depend on the polynomial's shape, not on the
# seed's decoration
SP_INVARIANT = ("dimension", "mu", "spectrum", "symmetric", "eigenvalues_gamma_c",
                "eigenvalues_geometric", "char_poly")
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


@dataclass(frozen=True)
class Request:
    key: str  # names the request in digests.json
    argv: tuple  # singspec's arguments
    seeded: bool  # whether the output depends on the seed
    expect: dict = field(default_factory=dict)  # closed-form answers


@dataclass
class Result:
    request: Request
    latency: float
    code: int
    stdout: str
    traced: bool = False


@dataclass
class Pass:
    traced: bool
    wall: float
    results: list
    # seconds of reference.loop_seconds(): gauges[i] ran just before
    # results[i], gauges[i + 1] just after it
    gauges: list

    def scaled(self) -> list:
        """Each request's latency in seconds at the reference speed (see
        reference.py), gauged by the loops run on both sides of it."""
        return [
            r.latency * reference.REFERENCE_S / statistics.median(before + after)
            for r, before, after in zip(self.results, self.gauges, self.gauges[1:])
        ]


# -- inputs -----------------------------------------------------------------------


def sp_request(r: gen.SpRequest) -> Request:
    return Request(
        f"sp:{r.shape}", tuple(r.argv()), True,
        {"mu": r.mu, "weights": [str(w) for w in r.weights]},
    )


def build_requests(workload: str, seed: int) -> tuple[list, list, list]:
    """(requests, warm-up requests, generated input texts).  Writes the
    generated model files into the scratch directory."""
    if workload == "check":
        return [Request("check", ("check", "--json"), False)], [], []
    if workload == "sp-large":
        return [sp_request(r) for r in gen.sp_requests(gen.LARGE_SHAPES, seed)], [], []
    if workload == "sp-coupled":
        timed = gen.sp_requests(gen.COUPLED_SHAPES, seed)
        warm = gen.sp_requests(gen.COUPLED_SHAPES, seed + WARMUP_SEED_OFFSET)
        return [sp_request(r) for r in timed], [sp_request(r) for r in warm], []
    if workload == "nearby":
        out, texts = [], []
        for path in sorted((ROOT / "fixtures").glob("*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            euler = gen.model_euler(data["components"], data["strata"])
            rel = path.relative_to(ROOT).as_posix()
            out += [
                Request(f"fixture:{path.name}:{v}", ("nearby", rel, "--variant", v, "--json"),
                        False, {"euler": euler[v]})
                for v in VARIANTS
            ]
        models = WORK / "models"
        models.mkdir(parents=True, exist_ok=True)
        for model in gen.nearby_models(seed):
            (models / model.name).write_text(model.text, encoding="utf-8")
            texts.append(model.text)
            rel = (models / model.name).relative_to(ROOT).as_posix()
            out += [
                Request(f"{model.name}:{v}", ("nearby", rel, "--variant", v, "--json"),
                        True, {"euler": model.euler[v]})
                for v in VARIANTS
            ]
        return out, [], texts
    raise ValueError(f"unknown workload {workload!r}")


# -- output verification ----------------------------------------------------------


def _t_degree(text: str) -> int:
    degree = 0
    for term in text.replace(" - ", " + ").split(" + "):
        if "T^" in term:
            degree = max(degree, int(term.split("T^")[1]))
        elif "T" in term:
            degree = max(degree, 1)
    return degree


def verify(req: Request, code: int, stdout: str):
    """None when the output agrees with the closed forms, else what is wrong."""
    if code != 0:
        return f"exit code {code}"
    try:
        data = json.loads(stdout)["data"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    kind = req.argv[0]
    if kind == "sp":
        mu = req.expect["mu"]
        if data.get("mu") != mu:
            return f"mu {data.get('mu')} != closed form {mu}"
        if data.get("weights") != req.expect["weights"]:
            return f"weights {data.get('weights')} != closed form {req.expect['weights']}"
        if data.get("symmetric") is not True:
            return "spectrum not symmetric"
        if _t_degree(data.get("char_poly", "")) != mu:
            return "char_poly degree != mu"
        if sum(data.get("eigenvalues_gamma_c", {}).values()) != mu:
            return "eigenvalue multiplicities do not sum to mu"
    elif kind == "check":
        checks = data.get("checks", [])
        if len(checks) != 10 or not all(c.get("passed") for c in checks) or data.get("passed") is not True:
            return "check battery did not pass 10/10"
    elif kind == "nearby":
        euler = data.get("euler")
        if euler != sum(entry[3] for entry in data.get("class", [])):
            return "euler != sum of class multiplicities"
        if euler != req.expect["euler"]:
            return f"euler {euler} != closed form {req.expect['euler']}"
    return None


def sp_invariant_digest(stdout: str) -> str:
    data = json.loads(stdout)["data"]
    return gen.digest({k: data.get(k) for k in SP_INVARIANT})


def verify_digests(req: Request, stdout: str, digests: dict, workload: str, seed: int):
    """Compare with the digests recorded at the default seed: the whole
    output when it does not depend on the seed (or the seed is the default),
    and the seed-independent fields of every sp report."""
    if req.argv[0] == "sp":
        if digests["invariant"][workload].get(req.key) != sp_invariant_digest(stdout):
            return "spectrum/monodromy fields differ from the recorded digest"
    if seed == DEFAULT_SEED or not req.seeded:
        if digests["outputs"][workload].get(req.key) != gen.digest(stdout):
            return "output differs from the recorded digest"
    return None


def check_results(results, digests, workload, seed):
    """Failures by request: a wrong output, or an output that differs from
    the request's first one (traced runs must print what untraced runs do)."""
    failures = []
    first = {}
    verdicts = {}
    for res in results:
        key = res.request.key
        d = gen.digest(res.stdout)
        first.setdefault(key, d)
        if (key, d, res.code) not in verdicts:
            verdicts[(key, d, res.code)] = verify(res.request, res.code, res.stdout) or verify_digests(
                res.request, res.stdout, digests, workload, seed
            )
        problem = verdicts[(key, d, res.code)]
        if problem is None and d != first[key]:
            problem = "stdout differs between passes" + (" (traced)" if res.traced else "")
        if problem:
            failures.append(f"{key}: {problem}")
    return failures


# -- child processes --------------------------------------------------------------


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, timeout):
    """Run ``child.py ARGS`` to completion: (seconds, exit code, stdout, max RSS in KiB).

    The child is reaped with wait4 so its own peak RSS is known; a watchdog
    kills it after ``timeout`` seconds."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL, env=_env(), cwd=ROOT,
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        print(f"child {' '.join(args)[:120]} exited {proc.returncode}: {' | '.join(tail)}",
              file=sys.stderr)
    return elapsed, proc.returncode, out.decode("utf-8", errors="replace"), usage.ru_maxrss


def setup_probe():
    """Seconds from starting an interpreter to the end of ``import
    singspec.cli``, and the kernel backend it reports."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    _, code, out, _ = spawn(["probe"], PROBE_TIMEOUT_S)
    if code != 0:
        raise RuntimeError("singspec does not import from src/")
    stamp, backend, path = out.split()
    if Path(path).resolve().parent != (SRC / "singspec").resolve():
        raise RuntimeError(f"singspec imported from {path}, not from the checkout")
    return float(stamp) - start, backend


def _more(walls, elapsed, seconds, min_passes, limit):
    """Start another pass while the run still has time for one like the last
    (below ``min_passes``: while it fits in ``limit``)."""
    after = elapsed + walls[-1]
    return after <= seconds or (len(walls) < min_passes and after <= limit)


def gauge():
    return [reference.loop_seconds() for _ in range(LOOPS_PER_GAUGE)]


def fresh_passes(requests, seconds, trace, min_passes, deadline):
    """Passes over the request list, one fresh interpreter per request."""
    passes, dumps, peak = [], [], 0
    walls = []
    start = time.monotonic()
    limit = deadline - start
    while not walls or _more(walls, time.monotonic() - start, seconds, min_passes, limit):
        traced = trace and len(passes) % 2 == 1
        results, span_files = [], []
        gauges = [gauge()]
        wall = 0.0
        for i, req in enumerate(requests):
            if traced:
                path = WORK / f"spans-{len(passes)}-{i}.json"
                span_files.append(path)
                args = ["trace", str(path), *req.argv]
            else:
                args = ["request", *req.argv]
            latency, code, out, rss = spawn(args, max(1.0, deadline - time.monotonic()))
            wall += latency
            gauges.append(gauge())
            peak = max(peak, rss)
            results.append(Result(req, latency, code, out, traced))
        walls.append(wall)
        passes.append(Pass(traced, wall, results, gauges))
        for path in span_files:
            if path.exists():
                dumps.append(json.loads(path.read_text(encoding="utf-8")))
                path.unlink()
    return passes, dumps, peak


def coupled_passes(requests, warmup, seconds, trace, min_passes, deadline):
    """Passes inside one long-lived process (the sp-coupled worker)."""
    job = WORK / "coupled-job.json"
    out = WORK / "coupled-out.json"
    job.write_text(json.dumps({
        "warmup": [list(r.argv) for r in warmup],
        "requests": [list(r.argv) for r in requests],
        "seconds": seconds,
        "min_passes": min_passes,
        "limit": deadline - time.monotonic(),
        "trace": trace,
        "out": str(out),
    }), encoding="utf-8")
    _, code, _, rss = spawn(["coupled", str(job)], deadline - time.monotonic() + PROBE_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"sp-coupled worker exited {code}")
    data = json.loads(out.read_text(encoding="utf-8"))
    passes = [
        Pass(p["traced"], p["wall"],
             [Result(req, lat, c, text, p["traced"]) for req, (lat, c, text) in zip(requests, p["results"])],
             p["gauges"])
        for p in data["passes"]
    ]
    return passes, data["dumps"], rss


# -- metrics ----------------------------------------------------------------------


def tail(latencies, guaranteed):
    """(percentile, value): the highest of TAIL_PERCENTILES that has at least
    ten of ``guaranteed`` samples beyond it, by nearest rank over all the
    latencies; None when none has."""
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        if guaranteed - math.ceil(p / 100 * guaranteed) >= 10:
            return p, ordered[math.ceil(p / 100 * len(ordered)) - 1]
    return None


def end_to_end(passes, setup_s, peak_kib, guaranteed):
    """Timings in seconds at the reference speed (Pass.scaled).  The request
    median is the median over the request list of each request's median over
    the passes; a median over all samples would sit on a cost step between
    two request shapes.  With too few samples for a tail percentile, the tail
    is the slowest request by its median: the slowest single sample would
    measure the host's worst moment."""
    untraced = [p for p in passes if not p.traced]
    scaled = [p.scaled() for p in untraced]
    medians = [statistics.median(col) for col in zip(*scaled)]
    samples = [x for row in scaled for x in row]
    if found := tail(samples, guaranteed):
        tail_s, label = found[1], f"p{found[0]:g} of {len(samples)} requests"
    else:
        tail_s, label = max(medians), f"slowest of {len(medians)} requests by its median of {len(untraced)} passes"
    raw_wall = statistics.median(p.wall for p in untraced)
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_PROBES} fresh interpreters, not scaled"),
        "wall_s": (statistics.median(sum(row) for row in scaled), "s",
                   f"median of {len(untraced)} passes; unscaled {raw_wall:.4g} s"),
        "request_p50_s": (statistics.median(medians), "s",
                          f"median over {len(medians)} requests of each one's median"),
        "request_tail_s": (tail_s, "s", label),
        "peak_rss_mb": (peak_kib / 1024, "MB", "max over processes that served requests"),
    }
    return metrics


def per_layer(passes, dumps):
    traced = [sum(p.scaled()) for p in passes if p.traced]
    untraced = [sum(p.scaled()) for p in passes if not p.traced]
    totals = spans.summarize(dumps)
    metrics = {}
    for name, unit in spans.metric_names():
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        elif name in spans.COUNTERS and spans.COUNTERS[name][2] == "max":
            value = totals[name]
        else:
            value = totals[name] / len(traced)  # per traced pass
        metrics[name] = (value, unit, "computed from the weights" if name in ("spectrum.lcm_m", "spectrum.dense_len") else "")
    return metrics


# -- run record -------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload, seed, seconds, trace, digests):
    deadline = time.monotonic() + TIME_LIMIT_S
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    requests, warmup, texts = build_requests(workload, seed)
    inputs_digest = gen.digest([[list(r.argv) for r in requests], texts])
    _, backend = setup_probe()  # may write bytecode caches: not counted
    probes = [] if trace else [setup_probe()[0] for _ in range(SETUP_PROBES // 2)]
    min_passes = MIN_PASSES[workload]  # traced runs: half of them traced
    if workload == "sp-coupled":
        passes, dumps, peak = coupled_passes(requests, warmup, seconds, trace, min_passes, deadline)
    else:
        passes, dumps, peak = fresh_passes(requests, seconds, trace, min_passes, deadline)
    if not trace:
        probes += [setup_probe()[0] for _ in range(SETUP_PROBES - len(probes))]
    results = [r for p in passes for r in p.results]
    failures = check_results(results, digests, workload, seed)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "inputs_digest": inputs_digest,
        "python": platform.python_version(), "nproc": len(CPUS), "cpus_used": sorted(os.sched_getaffinity(0)),
        "kernel_backend": backend, "passes": len(passes), "requests": len(results),
        "reference_loop_s": statistics.median(x for p in passes for g in p.gauges for x in g),
        "failed": len(failures), "failed_frac": len(failures) / len(results),
    }
    if trace:
        metrics = per_layer(passes, dumps)
    else:
        guaranteed = len(requests) * MIN_PASSES[workload]
        metrics = end_to_end(passes, statistics.median(probes), peak, guaranteed)
    return record, metrics, failures


def report(record, metrics, failures):
    print(f"run-record: {json.dumps(record, sort_keys=True)}")
    for problem in failures[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit, note) in metrics.items():
        print(f"{record['workload']:<11} {name:<40} {value:>14.6g} {unit:<6} {note}")
    print(f"{record['workload']:<11} {'failed_frac':<40} {record['failed_frac']:>14.6g} {'':<6} "
          f"{record['failed']} of {record['requests']} requests")
    return {
        "correct": not failures,
        "attempted": record["requests"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def record_digests():
    """Record output digests of one pass of every workload at the default
    seed, refusing outputs that fail the closed-form checks."""
    digests = {"outputs": {}, "invariant": {}}
    for workload in WORKLOADS:
        if WORK.exists():
            shutil.rmtree(WORK)
        WORK.mkdir()
        requests, _, _ = build_requests(workload, DEFAULT_SEED)
        outputs, invariant = {}, {}
        for req in requests:
            _, code, out, _ = spawn(["request", *req.argv], TIME_LIMIT_S)
            problem = verify(req, code, out)
            if problem:
                raise SystemExit(f"{workload} {req.key}: {problem}")
            outputs[req.key] = gen.digest(out)
            if req.argv[0] == "sp":
                invariant[req.key] = sp_invariant_digest(out)
        digests["outputs"][workload] = outputs
        if invariant:
            digests["invariant"][workload] = invariant
    shutil.rmtree(WORK)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="singspec benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=27)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite digests.json and exit")
    args = ap.parse_args(argv)
    if not (SRC / "singspec" / "cli.py").is_file():
        print("run from the root of a singspec checkout: src/singspec is missing", file=sys.stderr)
        return 2
    # the driver and the one child it waits on share a core, so the reference
    # loop, run in the driver between requests, gauges the core that served them
    try:
        os.sched_setaffinity(0, {min(CPUS)})
    except OSError:
        pass
    if args.record:
        record_digests()
        return 0
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    try:
        for workload in names:
            summary[workload] = report(*run_workload(workload, args.seed, args.seconds, bool(args.trace), digests))
    finally:
        if WORK.exists():
            shutil.rmtree(WORK)
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
