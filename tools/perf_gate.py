#!/usr/bin/env python3
"""CI perf-regression gate over google-benchmark JSON trajectories.

Compares candidate BENCH_*.json files (fresh tools/bench_suite.sh output)
against their committed baselines and fails when any benchmark's
items_per_second dropped by more than the threshold (default 25%). A leg
that reports a p50 latency (p50_us, the serve soak) is gated on it instead:
it fails when its p50 rose by more than the threshold, and its items/s is
printed beside it. A leg that ran repetitions is compared by its median
aggregate.

Comparisons only run when the numbers are actually comparable: the
baseline and candidate must carry the same ctfl_build_type (and both must
be "release"), the same num_cpus host shape, and the same ctfl_trace_isa
dispatch tier (an AVX-512 run against a scalar baseline measures the
dispatcher, not the code change). Anything else SKIPs that pair with a
note instead of failing — a laptop run against a CI baseline must not
turn red, it is simply not evidence.

Usage:
  tools/perf_gate.py BASELINE.json CANDIDATE.json [BASELINE CANDIDATE ...]
      [--threshold 0.25] [--require-comparable]
  tools/perf_gate.py --self-test

Exit codes: 0 = pass (or nothing comparable), 1 = regression detected,
2 = usage/IO error. --require-comparable turns "nothing comparable" into
exit 2, for CI jobs where a silent skip would mask a broken setup.
--self-test exercises the gate on synthetic data (a >25% drop must fail,
a small drop must pass, a build-type mismatch must skip, one low
repetition under a steady median must pass, a latency leg's items/s 50%
low under a steady p50 must pass and its p50 30% higher must fail) and is
wired into ctest so the gate's failure path stays covered.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def comparable(baseline, candidate):
    """Returns (ok, reason): whether the two runs may be compared."""
    bctx = baseline.get("context", {})
    cctx = candidate.get("context", {})
    bt_base = bctx.get("ctfl_build_type")
    bt_cand = cctx.get("ctfl_build_type")
    if bt_base != "release" or bt_cand != "release":
        return False, (f"build type mismatch or non-release "
                       f"(baseline={bt_base}, candidate={bt_cand})")
    cpus_base = bctx.get("num_cpus")
    cpus_cand = cctx.get("num_cpus")
    if cpus_base != cpus_cand:
        return False, (f"host shape mismatch "
                       f"(num_cpus baseline={cpus_base}, "
                       f"candidate={cpus_cand})")
    # Both-missing passes: pre-ISA baselines stay comparable with each
    # other until they are regenerated with the stamped tier.
    isa_base = bctx.get("ctfl_trace_isa")
    isa_cand = cctx.get("ctfl_trace_isa")
    if isa_base != isa_cand:
        return False, (f"trace ISA mismatch "
                       f"(baseline={isa_base}, candidate={isa_cand})")
    return True, ""


def rows(data):
    """name -> readings of each leg: its items_per_second, and its p50_us
    where it reports one.

    A leg that ran repetitions is read by its median aggregate: single-thread
    legs swing by up to 40% between repetitions of one binary, while their
    median holds. A leg without one is read by its plain row (the median of
    its rows, should it have several).
    """
    medians = {}
    plain = {}
    for b in data.get("benchmarks", []):
        reading = {key: b[key] for key in ("items_per_second", "p50_us")
                   if (b.get(key) or 0) > 0}
        if "items_per_second" not in reading:
            continue
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[b.get("run_name", b["name"])] = reading
            continue
        plain.setdefault(b["name"], []).append(reading)
    out = {name: {key: statistics.median(r[key] for r in readings)
                  for key in readings[0]
                  if all(key in r for r in readings)}
           for name, readings in plain.items()}
    out.update(medians)
    return out


def change(base, cand):
    """(worsening, text) of one leg: the p50's rise when both sides report
    one, else the items/s drop; a positive worsening is the slower side.

    The serve soak's items/s is the inverse of its mean latency, which a
    stretch of host steal moves while its p50 holds (3 of 12 unchanged runs
    read 26-61% low on items/s at a steady p50).
    """
    ips = (f"{base['items_per_second']:.3g} -> "
           f"{cand['items_per_second']:.3g} items/s")
    if "p50_us" in base and "p50_us" in cand:
        rise = (cand["p50_us"] - base["p50_us"]) / base["p50_us"]
        return rise, (f"p50 {base['p50_us']:.3g} -> {cand['p50_us']:.3g} us "
                      f"({rise:+.1%}); {ips}")
    drop = ((base["items_per_second"] - cand["items_per_second"]) /
            base["items_per_second"])
    return drop, f"{ips} ({-drop:+.1%})"


def gate_pair(baseline, candidate, threshold, label, verbose=True):
    """Returns (checked, regressions) for one baseline/candidate pair."""
    ok, reason = comparable(baseline, candidate)
    if not ok:
        if verbose:
            print(f"SKIP  {label}: {reason}")
        return 0, []
    base_rows = rows(baseline)
    cand_rows = rows(candidate)
    regressions = []
    checked = 0
    for name in sorted(base_rows.keys() & cand_rows.keys()):
        worsening, text = change(base_rows[name], cand_rows[name])
        checked += 1
        status = "FAIL" if worsening > threshold else "ok"
        if worsening > threshold:
            regressions.append((name, text))
        if verbose:
            print(f"{status:>4}  {label} {name}: {text}")
    missing = base_rows.keys() - cand_rows.keys()
    if missing and verbose:
        # A vanished benchmark is not a perf regression, but CI should
        # see it happen rather than silently shrink its coverage.
        print(f"note  {label}: candidate lacks {sorted(missing)}")
    return checked, regressions


def run_gate(pairs, threshold, require_comparable):
    total_checked = 0
    all_regressions = []
    for base_path, cand_path in pairs:
        try:
            baseline = load(base_path)
            candidate = load(cand_path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"perf_gate: cannot load pair "
                  f"({base_path}, {cand_path}): {e}", file=sys.stderr)
            return 2
        checked, regressions = gate_pair(
            baseline, candidate, threshold, label=base_path)
        total_checked += checked
        all_regressions.extend(regressions)
    if all_regressions:
        print(f"perf_gate: {len(all_regressions)} regression(s) beyond "
              f"{threshold:.0%}:")
        for name, text in all_regressions:
            print(f"  {name}: {text}")
        return 1
    if total_checked == 0:
        print("perf_gate: nothing comparable was checked")
        return 2 if require_comparable else 0
    print(f"perf_gate: {total_checked} benchmark(s) within "
          f"{threshold:.0%} of baseline")
    return 0


def synthetic(ips_by_name, build_type="release", num_cpus=1,
              trace_isa=None):
    ctx = {"ctfl_build_type": build_type, "num_cpus": num_cpus}
    if trace_isa is not None:
        ctx["ctfl_trace_isa"] = trace_isa
    return {
        "context": ctx,
        "benchmarks": [
            {"name": name, "items_per_second": ips}
            for name, ips in ips_by_name.items()
        ],
    }


def self_test():
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got}, want {want}")

    base = synthetic({"BM_TracePass/blocked": 100.0,
                      "BM_TracePass/legacy": 20.0})

    # A 30% throughput drop on one benchmark must trip the gate.
    drop30 = synthetic({"BM_TracePass/blocked": 70.0,
                        "BM_TracePass/legacy": 20.0})
    checked, regressions = gate_pair(base, drop30, 0.25, "drop30",
                                     verbose=False)
    expect("drop30 checked", checked, 2)
    expect("drop30 regressions", len(regressions), 1)

    # A 10% drop stays within the 25% budget.
    drop10 = synthetic({"BM_TracePass/blocked": 90.0,
                        "BM_TracePass/legacy": 20.0})
    checked, regressions = gate_pair(base, drop10, 0.25, "drop10",
                                     verbose=False)
    expect("drop10 checked", checked, 2)
    expect("drop10 regressions", len(regressions), 0)

    # An improvement never fails.
    faster = synthetic({"BM_TracePass/blocked": 300.0,
                        "BM_TracePass/legacy": 20.0})
    checked, regressions = gate_pair(base, faster, 0.25, "faster",
                                     verbose=False)
    expect("faster regressions", len(regressions), 0)

    # Debug candidates and host-shape mismatches are not evidence: skip.
    debug = synthetic({"BM_TracePass/blocked": 1.0}, build_type="debug")
    checked, _ = gate_pair(base, debug, 0.25, "debug", verbose=False)
    expect("debug checked", checked, 0)

    other_host = synthetic({"BM_TracePass/blocked": 1.0}, num_cpus=64)
    checked, _ = gate_pair(base, other_host, 0.25, "other_host",
                           verbose=False)
    expect("other_host checked", checked, 0)

    # Trace-ISA tiers must match: an AVX-512 candidate is not evidence
    # against a scalar baseline (and vice versa) — but two pre-ISA files
    # with no stamp at all stay comparable.
    avx512_base = synthetic({"BM_TracePass/blocked": 100.0},
                            trace_isa="avx512")
    scalar_cand = synthetic({"BM_TracePass/blocked": 30.0},
                            trace_isa="scalar")
    checked, _ = gate_pair(avx512_base, scalar_cand, 0.25, "isa_mismatch",
                           verbose=False)
    expect("isa_mismatch checked", checked, 0)
    stamped_cand = synthetic({"BM_TracePass/blocked": 99.0},
                             trace_isa="avx512")
    checked, regressions = gate_pair(avx512_base, stamped_cand, 0.25,
                                     "isa_match", verbose=False)
    expect("isa_match checked", checked, 1)
    expect("isa_match regressions", len(regressions), 0)
    checked, _ = gate_pair(avx512_base, base, 0.25, "isa_half_stamped",
                           verbose=False)
    expect("isa_half_stamped checked", checked, 0)

    # A leg with repetitions is read by its median aggregate: one repetition
    # 40% low passes while the median holds, a median 30% low fails, and the
    # baseline may hold the leg as a plain row or as a median.
    def repeated(values, median):
        data = {"context": {"ctfl_build_type": "release", "num_cpus": 1},
                "benchmarks": []}
        for i, ips in enumerate(values):
            data["benchmarks"].append({
                "name": "BM_GraftedStep/avx512/96", "run_type": "iteration",
                "run_name": "BM_GraftedStep/avx512/96",
                "repetition_index": i, "items_per_second": ips})
        data["benchmarks"].append({
            "name": "BM_GraftedStep/avx512/96_median",
            "run_type": "aggregate", "aggregate_name": "median",
            "run_name": "BM_GraftedStep/avx512/96",
            "items_per_second": median})
        return data
    plain_step = synthetic({"BM_GraftedStep/avx512/96": 100.0})
    one_low = repeated([100.0, 101.0, 99.0, 100.0, 60.0], 100.0)
    for label, baseline in (("plain", plain_step),
                            ("median", repeated([100.0] * 5, 100.0))):
        checked, regressions = gate_pair(baseline, one_low, 0.25,
                                         "one_repetition_low", verbose=False)
        expect(f"one_repetition_low vs {label} checked", checked, 1)
        expect(f"one_repetition_low vs {label} regressions",
               len(regressions), 0)
    median_low = repeated([70.0, 69.0, 71.0, 70.0, 72.0], 70.0)
    checked, regressions = gate_pair(plain_step, median_low, 0.25,
                                     "median_low", verbose=False)
    expect("median_low checked", checked, 1)
    expect("median_low regressions", len(regressions), 1)

    # A leg that reports a p50 latency is gated on it: items/s 50% low under
    # a steady p50 (host steal stretching a few requests) passes, a p50 30%
    # higher fails, whatever items/s reads.
    def serve(ips, p50):
        data = synthetic({"BM_Serve/related-test/connections:8": ips})
        data["benchmarks"][0]["p50_us"] = p50
        return data
    serve_base = serve(238000.0, 11.6)
    checked, regressions = gate_pair(serve_base, serve(119000.0, 11.8), 0.25,
                                     "serve_ips_low", verbose=False)
    expect("serve_ips_low checked", checked, 1)
    expect("serve_ips_low regressions", len(regressions), 0)
    checked, regressions = gate_pair(serve_base, serve(238000.0, 11.6 * 1.3),
                                     0.25, "serve_p50_high", verbose=False)
    expect("serve_p50_high checked", checked, 1)
    expect("serve_p50_high regressions", len(regressions), 1)

    # Exactly-at-threshold is a pass; just beyond is a failure.
    at_edge = synthetic({"BM_TracePass/blocked": 75.0,
                         "BM_TracePass/legacy": 15.0})
    _, regressions = gate_pair(base, at_edge, 0.25, "at_edge",
                               verbose=False)
    expect("at_edge regressions", len(regressions), 0)
    past_edge = synthetic({"BM_TracePass/blocked": 74.9,
                           "BM_TracePass/legacy": 14.9})
    _, regressions = gate_pair(base, past_edge, 0.25, "past_edge",
                               verbose=False)
    expect("past_edge regressions", len(regressions), 2)

    if failures:
        for failure in failures:
            print(f"perf_gate self-test FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf_gate self-test: ok")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Perf-regression gate over BENCH_*.json files.")
    parser.add_argument("files", nargs="*",
                        help="baseline/candidate JSON pairs, interleaved")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated items_per_second drop, or "
                             "p50_us rise for legs that report one "
                             "(fraction, default 0.25)")
    parser.add_argument("--require-comparable", action="store_true",
                        help="exit 2 when no pair was comparable")
    parser.add_argument("--self-test", action="store_true",
                        help="run the synthetic-drop self test and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.files or len(args.files) % 2 != 0:
        parser.error("expected BASELINE CANDIDATE file pairs")
    pairs = list(zip(args.files[0::2], args.files[1::2]))
    return run_gate(pairs, args.threshold, args.require_comparable)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
