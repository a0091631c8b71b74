#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at minimal size (--seconds 1)
on two seeds, untraced and traced, through perfbench/run.py, and checks:

  * every run exits 0 and its last stdout line is the result object with
    exactly the keys correct/attempted/failed/metrics, correct=true and
    failed=0 (so every correctness gate held);
  * every metric BENCHMARK.json declares for the mode is printed with its
    unit, and end-to-end metrics are never 0;
  * the two seeds produce different inputs (different genomes searched or
    a different request order);
  * the traced run's Chrome trace dump parses back: spans nest inside their
    parents, the recorded self times match a recomputation, and for the GA
    workloads the layers' self times plus the untraced gaps add up to each
    repetition's root span;
  * the layers a workload exercises report work (and fine-tuning is >= 90%
    of a pendigits genome).

Exits 1 with a message on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    label = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        if line.startswith("perfbench-info "):
            info.update(json.loads(line[len("perfbench-info "):]))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}")
    return label, result["metrics"], info


def check_metrics(label, metrics, declared, nonzero):
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        fail(f"{label}: metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail(f"{label}: {m['name']} value {got['value']!r}")
        if nonzero and got["value"] == 0:
            fail(f"{label}: end-to-end metric {m['name']} is 0")


def union_ns(intervals, lo, hi):
    covered, cursor = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            covered += b - a
            cursor = b
    return covered


def check_trace(label, path, ga):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        fail(f"{label}: empty trace dump")
    spans = {}
    for e in events:
        a = e["args"]
        spans[a["id"]] = dict(name=e["name"], parent=a["parent"], start=a["start_ns"],
                              end=a["end_ns"], self=a["self_ns"], tid=e["tid"])
    children = {}
    for sid, s in spans.items():
        if s["end"] < s["start"]:
            fail(f"{label}: span {s['name']} ends before it starts")
        parent = spans.get(s["parent"])
        if s["parent"] != 0 and parent is None:
            fail(f"{label}: span {s['name']} has an unknown parent")
        if parent is not None:
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                fail(f"{label}: {s['name']} is not inside its parent {parent['name']}")
            children.setdefault(s["parent"], []).append(sid)
    for sid, s in spans.items():
        kids = [(spans[k]["start"], spans[k]["end"]) for k in children.get(sid, [])]
        self_ns = (s["end"] - s["start"]) - union_ns(kids, s["start"], s["end"])
        if self_ns != s["self"]:
            fail(f"{label}: {s['name']} self time {s['self']} != recomputed {self_ns}")
    if not ga:
        return
    roots = [sid for sid, s in spans.items() if s["name"] == "rep"]
    if not roots:
        fail(f"{label}: no repetition root span")
    for root in roots:
        # Layers on the calling thread (GA core = the root's self, store
        # open, cache, pool) plus the pool's covered interval must add up
        # to the root span exactly.
        total, stack = 0, [root]
        while stack:
            sid = stack.pop()
            s = spans[sid]
            if s["name"].endswith(".genome"):
                continue
            total += s["self"]
            kids = children.get(sid, [])
            if s["name"].endswith(".inner"):
                total += union_ns([(spans[k]["start"], spans[k]["end"]) for k in kids],
                                  s["start"], s["end"])
            stack.extend(kids)
        duration = spans[root]["end"] - spans[root]["start"]
        if total != duration:
            fail(f"{label}: layer self times add up to {total} ns, root span is {duration} ns")


def check_layers(label, workload, m):
    v = {k: x["value"] for k, x in m.items()}
    if workload.startswith("ga_"):
        for name in ("ga.batches", "eval.genome_us", "finetune.us", "netlist.gates",
                     "front.designs", "store.records", "pool.efficiency", "warm.hits"):
            if v[name] <= 0:
                fail(f"{label}: {name} is {v[name]}")
        if v["finetune.us"] < 0.9 * v["eval.genome_us"]:
            fail(f"{label}: fine-tuning is {v['finetune.us'] / v['eval.genome_us']:.3f} "
                 "of a genome, expected >= 0.9")
    else:
        for name in ("server.requests", "batcher.batches.light", "batcher.batches.busy",
                     "batcher.batches.sat", "infer.block_ns", "protocol.decode_ns"):
            if v[name] <= 0:
                fail(f"{label}: {name} is {v[name]}")
        if v["server.requests"] != v["server.responses"]:
            fail(f"{label}: server requests and responses differ")
        # light runs the single-sample path, busy the blocked SIMD path
        # (the server blocks runs of >= 4 requests).
        light, busy = v["batcher.batch_mean.light"], v["batcher.batch_mean.busy"]
        if not light < 4 <= busy:
            fail(f"{label}: mean batch light {light:.2f} (want < 4), busy {busy:.2f} (want >= 4)")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        fingerprints = set()
        for seed in SEEDS:
            label, metrics, info = run(workload, seed, 0)
            check_metrics(label, metrics, bench["end_to_end"], nonzero=True)
            fingerprints.add(info["inputs_fingerprint"])
            label, metrics, info = run(workload, seed, 1)
            check_metrics(label, metrics, bench["per_layer"], nonzero=False)
            check_layers(label, workload, metrics)
            check_trace(label, os.path.join(ROOT, info["trace_out"]),
                        ga=workload.startswith("ga_"))
            print(f"selftest: {workload} seed {seed}: ok", flush=True)
        if len(fingerprints) != len(SEEDS):
            fail(f"{workload}: two seeds produced the same inputs")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
