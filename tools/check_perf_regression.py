#!/usr/bin/env python3
"""Gate perf benches against the committed baseline snapshot.

Usage:
    check_perf_regression.py BASELINE.json NAME=CURRENT.json [NAME=FILE ...]
                             [--max-regression 0.25] [--no-calibrate]
    check_perf_regression.py --update BASELINE.json NAME=CURRENT.json [...]

--update rewrites baseline[NAME] with each CURRENT.json instead of gating —
the sanctioned way to re-baseline after an intentional perf change (commit
the result and say why).

BASELINE.json maps bench names to the JSON those benches emit with --json
(see bench/BENCH_baseline.json).  For every NAME=FILE pair the current JSON
is compared recursively against baseline[NAME]:

  * keys ending in "_ms"      -> lower is better; fail when
                                 current > baseline * (1 + tol) * scale + abs_slack
  * keys ending in "_per_s"   -> higher is better; fail when
                                 current < baseline / ((1 + tol) * scale)

A baseline entry may also carry an "abs_caps" object mapping dotted metric
paths (relative to the bench entry) to absolute millisecond ceilings, e.g.
{"eco.c6288.edit1_ms": 2.0}.  Caps encode acceptance criteria ("a single-gate
c6288 edit resynthesizes in under 2 ms") rather than drift tolerances: they
are enforced without tolerance, slack, or hardware calibration, and --update
preserves them across re-baselining.  An "abs_floors" object does the same
for minimums, e.g. {"steady.region_hit_ratio": 0.9}: a floor suits a count
or ratio that does not depend on the host.

Everything else (counters, speedup ratios, nested arrays) is informational
only.  `scale` compensates for the benchmark host being faster/slower than
the machine that produced the baseline: it is derived from the calibration
metric "sim.scalar_sweep_mpatterns_per_s" when present in both the baseline
and the current bench_perf_sim output (disable with --no-calibrate).  The
absolute slack (0.5 ms) keeps sub-millisecond metrics from tripping the gate
on scheduler noise.
"""

import json
import sys

TOL_DEFAULT = 0.25
ABS_SLACK_MS = 0.5
CALIBRATION_KEY = ("sim", "scalar_sweep_mpatterns_per_s")


# Daemon round-trip latencies are sub-millisecond and dominated by
# scheduler/IO jitter the throughput calibration cannot capture; they stay
# informational (archived in the perf-smoke artifact) rather than gated.
UNGATED_SUBTREES = {"service"}
# Absolute limits: key -> (comparison, wording); policy, not measurement.
ABS_LIMITS = {
    "abs_caps": (lambda value, limit: value > limit, "absolute cap"),
    "abs_floors": (lambda value, limit: value < limit, "absolute floor"),
}


def walk(prefix, base, cur, out):
    if isinstance(base, dict) and isinstance(cur, dict):
        for key, bval in base.items():
            if key in UNGATED_SUBTREES or key in ABS_LIMITS:
                continue
            if key in cur:
                walk(prefix + (key,), bval, cur[key], out)
        return
    if isinstance(base, (int, float)) and isinstance(cur, (int, float)):
        out.append((prefix, float(base), float(cur)))


def main(argv):
    tol = TOL_DEFAULT
    calibrate = True
    update = False
    positional = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--max-regression":
            i += 1
            tol = float(argv[i])
        elif arg == "--no-calibrate":
            calibrate = False
        elif arg == "--update":
            update = True
        else:
            positional.append(arg)
        i += 1
    if len(positional) < 2:
        print(__doc__)
        return 2

    with open(positional[0]) as f:
        baseline = json.load(f)

    currents = {}
    for pair in positional[1:]:
        name, _, path = pair.partition("=")
        if not path:
            print(f"error: expected NAME=FILE, got {pair!r}")
            return 2
        with open(path) as f:
            currents[name] = json.load(f)

    if update:
        for name, cur in currents.items():
            limits = {key: baseline.get(name, {})[key] for key in ABS_LIMITS
                      if key in baseline.get(name, {})}
            baseline[name] = cur
            # Absolute limits are policy, not measurement; they survive
            # re-baselining.
            baseline[name].update(limits)
            print(f"re-baselined {name}")
        with open(positional[0], "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"wrote {positional[0]}")
        return 0

    # Hardware calibration: how much slower (>1) or faster (<1) is this host
    # than the baseline host, judged by the raw sim sweep throughput.
    scale = 1.0
    if calibrate:
        for name, cur in currents.items():
            base = baseline.get(name, {})
            b = base
            c = cur
            for key in CALIBRATION_KEY:
                b = b.get(key, {}) if isinstance(b, dict) else {}
                c = c.get(key, {}) if isinstance(c, dict) else {}
            if isinstance(b, (int, float)) and isinstance(c, (int, float)) and c:
                scale = float(b) / float(c)
                print(f"calibration: host scale {scale:.3f} "
                      f"(baseline {b:.3f} / current {c:.3f} Mpatterns/s)")
                break

    failures = []
    for name, cur in currents.items():
        if name not in baseline:
            print(f"warning: no baseline entry for {name}; skipping")
            continue
        metrics = []
        walk((name,), baseline[name], cur, metrics)
        for path, bval, cval in metrics:
            key = path[-1]
            label = ".".join(path)
            if key.endswith("_ms"):
                limit = bval * (1.0 + tol) * scale + ABS_SLACK_MS
                status = "FAIL" if cval > limit else "ok"
                print(f"{status:4} {label}: {cval:.3f} ms "
                      f"(baseline {bval:.3f}, limit {limit:.3f})")
                if cval > limit:
                    failures.append((label, bval, cval, limit, "ms"))
            elif key.endswith("_per_s"):
                limit = bval / ((1.0 + tol) * scale)
                status = "FAIL" if cval < limit else "ok"
                print(f"{status:4} {label}: {cval:.3f} /s "
                      f"(baseline {bval:.3f}, floor {limit:.3f})")
                if cval < limit:
                    failures.append((label, bval, cval, limit, "/s"))

    # Absolute limits: acceptance-criterion ceilings and floors, no tolerance
    # and no hardware calibration (a slower host does not get to miss the
    # claim).
    for name, cur in currents.items():
        for kind, (breaks, wording) in ABS_LIMITS.items():
            for dotted, limit in baseline.get(name, {}).get(kind, {}).items():
                label = f"{name}.{dotted}"
                unit = "ms" if dotted.endswith("_ms") else ""
                node = cur
                for key in dotted.split("."):
                    node = node.get(key) if isinstance(node, dict) else None
                if not isinstance(node, (int, float)):
                    print(f"FAIL {label}: limited metric missing from "
                          f"current run")
                    failures.append((label, float(limit), float("nan"),
                                     float(limit), unit))
                    continue
                status = "FAIL" if breaks(node, limit) else "ok"
                print(f"{status:4} {label}: {node:.3f} {unit} ({wording} "
                      f"{limit:.3f})")
                if breaks(node, limit):
                    failures.append((label, float(limit), float(node),
                                     float(limit), unit))

    if failures:
        print(f"\nperf regression: {len(failures)} metric(s) beyond "
              f"{tol * 100:.0f}% of baseline:")
        for label, bval, cval, limit, unit in failures:
            delta = (cval / bval - 1.0) * 100.0 if bval else float("inf")
            print(f"  {label}: baseline {bval:.3f} {unit} -> measured "
                  f"{cval:.3f} {unit} ({delta:+.1f}%, gate at {limit:.3f})")
        print("intentional change? re-baseline with --update "
              "(see docs/operations.md, 'The perf-gate workflow')")
        return 1
    print("\nperf check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
