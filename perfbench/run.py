#!/usr/bin/env python3
"""Host-time benchmark of the simulator's entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <app_model|mt_decomp|steering> \
        --seed N --seconds S --trace <0|1>

It builds perfbench/ (Release, TRACE/FAULT/AUDIT off) into .bench_build/,
runs the workload, gates every entry-point call's modeled outputs against
the values recorded in perfbench/expected/, and prints a report whose last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mib);
--trace 1 re-drives the workload through the layers' public calls under
spans and reports the per-layer metrics. The exit code is 0 only when every
modeled output matched and every re-drive reproduced its entry point (with
--trace 1, also when every span closed and agreed with steady_clock).

    python3 perfbench/run.py --record [--workload W]

re-records perfbench/expected/ for every seed variant. Only a change that
means to move the model may do this, and it must say so.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "perfbench")
EXPECTED_DIR = os.path.join(HERE, "expected")
WORKLOADS = ("app_model", "mt_decomp", "steering")
# --seed N runs seed variant N mod VARIANTS; every variant's modeled
# outputs are recorded, so every seed is gated exactly.
VARIANTS = 32
# The reference kernel's median time on the box README.md describes. The
# box's speed drifts by up to a third over minutes, and the kernel's time
# drifts with it, so wall_s is reported at this reference speed: on that
# box it reads as seconds, and a run on a slow stretch is scaled down.
REFERENCE_S = 0.0225


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    src = os.path.join(ROOT, "src")
    if not any(f.endswith(".cpp") for _, _, files in os.walk(src) for f in files):
        die("no simulator sources under %s; run from a repository checkout" % src, 2)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], **quiet).returncode:
            die("cmake configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], **quiet).returncode:
        die("build failed", 3)


def run_binary(workload, variant, mode, seconds=0.0, spans_out=None):
    cmd = [BINARY, "--workload", workload, "--variant", str(variant),
           "--mode", mode, "--seconds", repr(seconds)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        die("%s exited with %d" % (" ".join(cmd), proc.returncode), 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def expected_path(workload):
    return os.path.join(EXPECTED_DIR, workload + ".json")


def record(workloads):
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for w in workloads:
        variants = {}
        for v in range(VARIANTS):
            data = run_binary(w, v, "record")
            variants[str(v)] = {c["name"]: c["out"] for c in data["reps"][0]["calls"]}
            print("recorded %s variant %d" % (w, v), file=sys.stderr)
        with open(expected_path(w), "w") as fh:
            fh.write('{"workload": "%s", "variants": {\n' % w)
            fh.write(",\n".join('"%s": %s' % (k, json.dumps(variants[k]))
                                for k in sorted(variants, key=int)))
            fh.write("\n}}\n")


def mismatches(workload, variant, calls, expected, label):
    """Every (call, field) whose modeled output differs from `expected`."""
    bad = []
    for c in calls:
        want = expected.get(c["name"])
        if want is None:
            bad.append("%s call=%s: no recorded outputs" % (workload, c["name"]))
            continue
        for field in sorted(set(want) | set(c["out"])):
            got, exp = c["out"].get(field), want.get(field)
            if got != exp:
                bad.append("%s call=%s field=%s expected=%r got=%r (variant %d, %s)"
                           % (workload, c["name"], field, exp, got, variant, label))
    return bad


def gate(workload, variant, reps, expected, label):
    """Returns (attempted, failed, messages) over every call of every rep."""
    attempted = failed = 0
    messages = []
    for i, rep in enumerate(reps):
        for c in rep["calls"]:
            attempted += 1
            bad = mismatches(workload, variant, [c], expected, "%s rep %d" % (label, i))
            if bad:
                failed += 1
                messages += bad
    return attempted, failed, messages


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(data):
    """wall_s is the fixed input's wall time (the sum over its entry-point
    calls of each call's median across the run's repetitions), scaled to
    the reference kernel's speed: times REFERENCE_S over the median of the
    kernel's times in the same run. Also returns the unscaled wall time and
    the per-repetition samples behind each figure."""
    reps = data["reps"]
    setups = data["setup_s"]
    raw = sum(statistics.median(r["calls"][i]["wall_s"] for r in reps)
              for i in range(len(reps[0]["calls"])))
    ref = statistics.median(data["reference_s"])
    return {
        "wall_s": metric(raw * REFERENCE_S / ref, "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mib": metric(data["peak_rss_kib"] / 1024.0, "MiB"),
    }, {"wall_s": [r["wall_s"] for r in reps], "setup_s": setups}, raw, ref


def layer_values(rep):
    """Per-layer metrics of one traced repetition, summed over its calls."""
    spans, counts = {}, {}
    for c in rep["calls"]:
        for name, (calls, _total, self_ns) in c["spans"].items():
            s = spans.setdefault(name, [0.0, 0.0])
            s[0] += calls
            s[1] += self_ns
        for name, v in c["counts"].items():
            counts[name] = counts.get(name, 0.0) + v

    def n(name):
        return spans.get(name, [0.0, 0.0])[0]

    def self_s(*names):
        return sum(spans.get(x, [0.0, 0.0])[1] for x in names) * 1e-9

    def per(num, den):
        return num / den if den else 0.0

    def cnt(name):
        return counts.get(name, 0.0)

    match_calls = n("match.post_recv") + n("match.incoming") + n("match.probe")
    match_self = self_s("match.post_recv", "match.incoming", "match.probe")
    v = {
        "cachesim.pollute.calls": (n("cachesim.pollute"), "count"),
        "cachesim.pollute.self_s": (self_s("cachesim.pollute"), "s"),
        "cachesim.pollute.ns_per_call":
            (per(self_s("cachesim.pollute") * 1e9, n("cachesim.pollute")), "ns"),
        "cachesim.simulate.lines": (cnt("simulate_lines"), "count"),
        "cachesim.simulate.self_s": (self_s("cachesim.simulate"), "s"),
        "cachesim.simulate.ns_per_line":
            (per(self_s("cachesim.simulate") * 1e9, cnt("simulate_lines")), "ns"),
        "cachesim.heater_refresh.calls": (n("cachesim.heater_refresh"), "count"),
        "cachesim.heater_refresh.self_s": (self_s("cachesim.heater_refresh"), "s"),
        "cachesim.heater_refresh.lines_refetched": (cnt("lines_refetched"), "count"),
        "cachesim.heater_refresh.refetch_frac":
            (per(cnt("lines_refetched"), cnt("lines_budgeted")), "fraction"),
        "cachesim.sim_accesses": (cnt("sim_accesses"), "count"),
        "cachesim.llc_hit_rate":
            (per(cnt("llc_hits"), cnt("llc_hits") + cnt("llc_misses")), "fraction"),
        "match.post_recv.calls": (n("match.post_recv"), "count"),
        "match.post_recv.self_s": (self_s("match.post_recv"), "s"),
        "match.incoming.calls": (n("match.incoming"), "count"),
        "match.incoming.self_s": (self_s("match.incoming"), "s"),
        "match.incoming.ns_per_call":
            (per(self_s("match.incoming") * 1e9, n("match.incoming")), "ns"),
        "match.probe.calls": (n("match.probe"), "count"),
        "match.probe.self_s": (self_s("match.probe"), "s"),
        "match.probe.ns_per_call":
            (per(self_s("match.probe") * 1e9, n("match.probe")), "ns"),
        "match.entries_inspected": (cnt("entries_inspected"), "count"),
        "match.inspected_per_op": (per(cnt("entries_inspected"), match_calls), "entries/op"),
        "match.ns_per_sim_access":
            (per(match_self * 1e9, cnt("match_sim_accesses")), "ns"),
        "coherence.access_line_read.calls": (n("coherence.access_line_read"), "count"),
        "coherence.access_line_read.ns_per_access":
            (per(self_s("coherence.access_line_read") * 1e9,
                 n("coherence.access_line_read")), "ns"),
        "coherence.access_line_write.calls": (n("coherence.access_line_write"), "count"),
        "coherence.access_line_write.ns_per_access":
            (per(self_s("coherence.access_line_write") * 1e9,
                 n("coherence.access_line_write")), "ns"),
        "coherence.access_line.self_s":
            (self_s("coherence.access_line_read", "coherence.access_line_write"), "s"),
        "coherence.flush_all.self_s": (self_s("coherence.flush_all"), "s"),
        "coherence.invalidations": (cnt("invalidations"), "count"),
        "coherence.interventions": (cnt("interventions"), "count"),
        "coherence.back_invalidations": (cnt("back_invalidations"), "count"),
        "coherence.upgrades": (cnt("upgrades"), "count"),
        "traffic.gen_next.calls": (n("traffic.gen_next"), "count"),
        "traffic.gen_next.ns_per_call":
            (per(self_s("traffic.gen_next") * 1e9, n("traffic.gen_next")), "ns"),
        "traffic.steer.calls": (n("traffic.steer"), "count"),
        "traffic.steer.ns_per_call":
            (per(self_s("traffic.steer") * 1e9, n("traffic.steer")), "ns"),
        "traffic.hit_ratio": (per(cnt("steer_hits"), cnt("steer_lookups")), "fraction"),
        "traffic.setup.gen_s": (self_s("traffic.setup.gen"), "s"),
        "traffic.setup.table_s": (self_s("traffic.setup.table"), "s"),
        "resilience.check_once.calls": (n("resilience.check_once"), "count"),
        "resilience.check_once.self_s": (self_s("resilience.check_once"), "s"),
        "resilience.valve_update.calls": (n("resilience.valve_update"), "count"),
        "resilience.valve_update.self_s": (self_s("resilience.valve_update"), "s"),
        "resilience.shed_frac": (per(cnt("shed"), cnt("generated")), "fraction"),
        "resilience.admission_rejects": (cnt("admission_rejects"), "count"),
        "driver.self_s": (self_s("driver"), "s"),
    }
    return v


def per_layer(data):
    """Median over traced repetitions of every per-layer metric."""
    reps = [layer_values(r) for r in data["traced"]]
    out = {}
    for name, (_v, unit) in reps[0].items():
        out[name] = metric(statistics.median(r[name][0] for r in reps), unit)
    traced = statistics.median(r["wall_s"] for r in data["traced"])
    untraced = statistics.median(r["wall_s"] for r in data["reps"])
    out["trace.overhead_frac"] = metric(traced / untraced - 1.0, "fraction")
    return out


def call_breakdown(rep):
    """Per call (steering: per segment), the top self-time spans."""
    lines = []
    for c in rep["calls"]:
        root = c["root_s"]
        top = sorted(c["spans"].items(), key=lambda kv: -kv[1][2])[:5]
        parts = ", ".join("%s %.1f%%" % (k, 100.0 * v[2] * 1e-9 / root) for k, v in top)
        lines.append("  %-22s traced %.4f s: %s" % (c["name"], root, parts))
    return lines


def faithfulness(workload, variant, data, expected, traced_reps):
    """The re-drives against the entry points' outputs in the same run and
    against the recorded values, plus (for traced re-drives) the timer
    check."""
    entry = {c["name"]: c for c in data["reps"][0]["calls"]}
    attempted = failed = 0
    messages = []
    for i, rep in enumerate(traced_reps):
        for c in rep["calls"]:
            attempted += 1
            bad = mismatches(workload, variant, [c], {c["name"]: entry[c["name"]]["out"]},
                             "re-drive vs entry point, rep %d" % i)
            bad += mismatches(workload, variant, [c], expected,
                              "re-drive vs recorded, rep %d" % i)
            if not c.get("timer_ok", True):
                bad.append("%s call=%s: unbalanced spans, or the root span disagrees "
                           "with steady_clock (root %.9f s, steady_clock %.9f s, rep %d)"
                           % (workload, c["name"], c["root_s"], c["wall_s"], i))
            if bad:
                failed += 1
                messages += bad
    return attempted, failed, messages


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record perfbench/expected/ (model-moving changes only)")
    args = ap.parse_args()

    build()
    if args.record:
        record([args.workload] if args.workload else WORKLOADS)
        return 0
    if not args.workload:
        die("--workload is required", 2)

    variant = args.seed % VARIANTS
    try:
        with open(expected_path(args.workload)) as fh:
            expected = json.load(fh)["variants"][str(variant)]
    except (OSError, KeyError, ValueError) as e:
        die("no recorded outputs for %s variant %d: %s" % (args.workload, variant, e), 2)

    spans_out = None
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_out = os.path.join(spans_dir, "%s-seed%d.csv" % (args.workload, args.seed))
    data = run_binary(args.workload, variant, "trace" if args.trace else "e2e",
                      args.seconds, spans_out)

    prov = dict(data["provenance"])
    prov.update({"git_sha": git_sha(), "source_digest": source_digest(),
                 "seed": args.seed, "variant": variant,
                 "reps": len(data["reps"]),
                 "traced_reps": len(data.get("traced", []))})
    print("provenance " + json.dumps(prov, sort_keys=True))
    compiled_in = [p for p in ("trace", "fault", "audit") if prov[p]]
    if compiled_in:
        die("refusing to report: %s compiled into the measured build"
            % ", ".join(p.upper() for p in compiled_in), 4)

    attempted, failed, messages = gate(args.workload, variant, data["reps"], expected,
                                       "entry point")
    print("%s: mismatch_frac %.6g (%d of %d entry-point calls differ from the "
          "recorded modeled outputs)" % (args.workload, failed / attempted, failed, attempted))

    if args.trace:
        a2, f2, m2 = faithfulness(args.workload, variant, data, expected, data["traced"])
        attempted += a2
        failed += f2
        messages += m2
        if f2 == 0:
            print("%s: every re-drive reproduced its entry point's modeled outputs; "
                  "spans balanced and agreed with steady_clock" % args.workload)
            for line in call_breakdown(data["traced"][-1]):
                print(line)
            metrics = per_layer(data)
        else:
            metrics = {}  # a diverged re-drive's layer times describe another loop
    else:
        metrics, samples, raw, ref = end_to_end(data)
        a2, f2, m2 = faithfulness(args.workload, variant, data, expected,
                                  [{"calls": data["redrive"]}])
        attempted += a2
        failed += f2
        messages += m2
        if f2:
            del metrics["setup_s"]  # timed through a set-up path that diverged
        print("%s: unscaled wall %.6g s, reference kernel %.6g s (n=%d, IQR/median %.3f)"
              % (args.workload, raw, ref, len(data["reference_s"]),
                 quartile_spread(data["reference_s"])))
        for name, m in metrics.items():
            spread = quartile_spread(samples[name]) if name in samples else 0.0
            print("%s: %-13s %.6g %s  (n=%d, IQR/median %.3f)"
                  % (args.workload, name, m["value"], m["unit"],
                     len(samples.get(name, [0])), spread))

    for msg in messages[:20]:
        print("MISMATCH " + msg)
    if len(messages) > 20:
        print("MISMATCH ... %d more" % (len(messages) - 20))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
