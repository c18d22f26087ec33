#!/usr/bin/env python3
"""Compare two bench result files and flag regressions.

Reads a baseline and a candidate, matches their rows, classifies every
numeric metric, and exits nonzero when the candidate regressed:

  * deterministic metrics (cycle counts, MAC/byte totals, roofline
    bounds, ...) are machine-independent model outputs — any difference
    at all is a regression;
  * wall-clock metrics (``*_ms``, ``ns_per_op``, ``gflops``,
    ``speedup*``) are noisy and machine-dependent — they are compared
    direction-aware against a relative tolerance, and by default only
    warn (use ``--wall-mode=fail`` to gate on them, e.g. when both files
    came from the same machine).

Classification is name-based by default, but an artifact mixing both
metric families can declare them explicitly with a top-level
``"metric_families"`` object mapping family names to fnmatch pattern
lists (first match wins, declaration order)::

    "metric_families": {"exact": ["speedup_vs_b1", "*_cycles"],
                        "wall_lower_better": ["*_ms"],
                        "wall_higher_better": ["*_gflops"]}

Families: ``exact`` (gate on any difference), ``wall_lower_better``,
``wall_higher_better``. A wall family may carry its own tolerance via
the object form ``{"patterns": [...], "tolerance": 0.1}``; per-family
tolerances override ``--wall-tolerance`` and are themselves overridden
by ``--tol METRIC=REL``. Metrics matching no declared pattern fall back
to the name heuristics. The candidate's declaration wins over the
baseline's (so renaming a family updates the rules in the same commit).
This matters for deterministic metrics whose names *look* noisy — e.g.
bench_serve's cycle-domain ``speedup_vs_b1``, which the heuristic would
tolerance-compare instead of gating exactly.

Accepted inputs, in either position:

  * a raw bench JSON artifact (``results/BENCH_*.json``): an object
    with a ``rows`` list, numeric header fields and summary objects;
  * a history file written by ``tools/record_bench.sh``
    (``results/history/*.jsonl``) — one schema-versioned entry per line;
    the latest entry is used unless ``--at=N`` selects another.

Exit codes: 0 = no regression, 1 = usage/schema error, 2 = regression.

Usage:
  tools/bench_compare.py BASELINE CANDIDATE [--wall-mode=warn|fail|off]
      [--wall-tolerance=0.25] [--tol METRIC=REL]... [--at=N] [--quiet]
"""

import argparse
import fnmatch
import json
import re
import sys

HISTORY_SCHEMA = 1

# Wall-clock metric name patterns, by direction — the fallback for
# metrics no "metric_families" declaration covers. Everything numeric
# that matches neither is deterministic: the analytic model and the
# bit-exact simulator must reproduce it exactly on any machine.
WALL_LOWER_IS_BETTER = re.compile(r"(_ms|_us|_ns|ns_per_op)$")
WALL_HIGHER_IS_BETTER = re.compile(r"(gflops|speedup)")

# metric_families family name -> (kind, regression direction).
FAMILY_KINDS = {
    "exact": ("exact", 0),
    "wall_lower_better": ("wall", +1),
    "wall_higher_better": ("wall", -1),
}


def fail(msg):
    print(f"bench_compare: error: {msg}", file=sys.stderr)
    sys.exit(1)


def load_document(path, at):
    """Returns the bench JSON document held by `path` (raw or history)."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    if path.endswith(".jsonl"):
        entries = [json.loads(line) for line in text.splitlines() if line.strip()]
        if not entries:
            fail(f"{path}: empty history file")
        try:
            entry = entries[at]
        except IndexError:
            fail(f"{path}: --at={at} out of range ({len(entries)} entries)")
        return unwrap_history_entry(path, entry)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"{path}: invalid JSON: {e}")
    if isinstance(doc, dict) and "schema" in doc and "data" in doc:
        return unwrap_history_entry(path, doc)
    return doc


def unwrap_history_entry(path, entry):
    if not isinstance(entry, dict) or "data" not in entry:
        fail(f"{path}: history entry has no 'data' payload")
    if entry.get("schema") != HISTORY_SCHEMA:
        fail(f"{path}: history schema {entry.get('schema')!r}, "
             f"expected {HISTORY_SCHEMA}")
    return entry["data"]


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def row_key(row, index):
    """Row identity: the concatenation of its string-valued fields."""
    parts = [str(v) for v in row.values() if isinstance(v, str)]
    return "/".join(parts) if parts else f"row[{index}]"


def row_metrics(row):
    return {k: v for k, v in row.items() if is_number(v)}


def normalize(path, doc):
    """Flattens a bench document into an ordered {row_key: metrics} map."""
    rows = {}

    def add(key, metrics):
        if not metrics:
            return
        if key in rows:
            fail(f"{path}: duplicate row key '{key}'")
        rows[key] = metrics

    if not isinstance(doc, dict):
        fail(f"{path}: expected a JSON object at top level")
    header = {k: v for k, v in doc.items() if is_number(v)}
    add("<header>", header)
    for i, row in enumerate(doc.get("rows", [])):
        if not isinstance(row, dict):
            fail(f"{path}: rows[{i}] is not an object")
        add(row_key(row, i), row_metrics(row))
    for key, value in doc.items():
        # metric_families is classification metadata, not a data row
        # (its object form carries numeric tolerances); provenance
        # describes the producing machine (core count, repetitions).
        if key in ("rows", "metric_families", "provenance"):
            continue
        if isinstance(value, dict):
            add(f"<{key}>", row_metrics(value))
    if not rows:
        fail(f"{path}: no numeric metrics found")
    return rows


def extract_families(path, doc):
    """Parses a document's "metric_families" declaration into an ordered
    [(kind, direction, tolerance, patterns)] list ([] when absent)."""
    spec = doc.get("metric_families")
    if spec is None:
        return []
    if not isinstance(spec, dict):
        fail(f"{path}: metric_families must be an object")
    families = []
    for name, value in spec.items():
        if name not in FAMILY_KINDS:
            fail(f"{path}: unknown metric family '{name}' "
                 f"(expected one of {', '.join(sorted(FAMILY_KINDS))})")
        kind, direction = FAMILY_KINDS[name]
        tolerance = None
        if isinstance(value, dict):
            patterns = value.get("patterns", [])
            tolerance = value.get("tolerance")
            if tolerance is not None and not is_number(tolerance):
                fail(f"{path}: metric family '{name}': tolerance must be "
                     f"a number")
        else:
            patterns = value
        if (not isinstance(patterns, list)
                or not all(isinstance(p, str) for p in patterns)):
            fail(f"{path}: metric family '{name}' needs a list of "
                 f"fnmatch patterns")
        families.append((kind, direction, tolerance, patterns))
    return families


def classify(metric, families):
    """Returns (kind, direction, family_tolerance): kind is 'wall' or
    'exact', direction is the sign of a *regression* (+1 = higher is
    worse, -1 = lower is worse), family_tolerance is the declared
    per-family tolerance or None. Declared families win over the name
    heuristics; within the declaration, first matching pattern wins."""
    for kind, direction, tolerance, patterns in families:
        if any(fnmatch.fnmatchcase(metric, p) for p in patterns):
            return kind, direction, tolerance
    if WALL_LOWER_IS_BETTER.search(metric):
        return "wall", +1, None
    if WALL_HIGHER_IS_BETTER.search(metric):
        return "wall", -1, None
    return "exact", 0, None


def rel_delta(base, cand):
    if base == 0:
        return 0.0 if cand == 0 else float("inf")
    return (cand - base) / abs(base)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, add_help=True,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--wall-mode", choices=("warn", "fail", "off"),
                        default="warn",
                        help="how wall-clock regressions are treated "
                             "(default: warn)")
    parser.add_argument("--wall-tolerance", type=float, default=0.25,
                        help="relative slack for wall-clock metrics "
                             "(default: 0.25 = 25%%)")
    parser.add_argument("--tol", action="append", default=[],
                        metavar="METRIC=REL",
                        help="per-metric relative tolerance override; "
                             "turns an exact metric into a gated one or "
                             "widens a wall metric")
    parser.add_argument("--at", type=int, default=-1,
                        help="history entry index for .jsonl inputs "
                             "(default: -1, the latest)")
    parser.add_argument("--quiet", action="store_true",
                        help="print only regressions and the verdict")
    args = parser.parse_args()

    overrides = {}
    for spec in args.tol:
        metric, sep, value = spec.partition("=")
        if not sep:
            fail(f"--tol expects METRIC=REL, got '{spec}'")
        try:
            overrides[metric] = float(value)
        except ValueError:
            fail(f"--tol {metric}: '{value}' is not a number")

    base_doc = load_document(args.baseline, args.at)
    cand_doc = load_document(args.candidate, args.at)
    base_rows = normalize(args.baseline, base_doc)
    cand_rows = normalize(args.candidate, cand_doc)
    # The candidate's family declaration wins (it reflects the rules the
    # artifact is written against today); the baseline's covers diffs
    # against pre-declaration candidates.
    families = (extract_families(args.candidate, cand_doc)
                or extract_families(args.baseline, base_doc))

    added = [k for k in cand_rows if k not in base_rows]
    removed = [k for k in base_rows if k not in cand_rows]
    matched = [k for k in base_rows if k in cand_rows]

    regressions = []   # (row, metric, base, cand, why)
    warnings = []      # same shape, non-gating
    improvements = 0
    exact_checked = 0
    wall_checked = 0

    for key in matched:
        base_m, cand_m = base_rows[key], cand_rows[key]
        for metric in base_m:
            if metric not in cand_m:
                regressions.append((key, metric, base_m[metric], None,
                                    "metric missing from candidate"))
                continue
            base_v, cand_v = base_m[metric], cand_m[metric]
            kind, direction, family_tol = classify(metric, families)
            if metric in overrides:
                kind = "gated"
                tol = overrides[metric]
            elif kind == "wall":
                tol = (family_tol if family_tol is not None
                       else args.wall_tolerance)
            if kind == "exact":
                exact_checked += 1
                if base_v != cand_v:
                    regressions.append(
                        (key, metric, base_v, cand_v,
                         "deterministic metric changed"))
                continue
            # Noise-gated comparison (wall metric or override).
            wall_checked += 1
            delta = rel_delta(base_v, cand_v)
            worse = delta * direction if direction else abs(delta)
            if worse <= tol:
                if direction and delta * direction < 0:
                    improvements += 1
                continue
            why = (f"{delta:+.1%} vs ±{tol:.0%} tolerance"
                   if not direction else
                   f"{delta:+.1%} ({'higher' if direction > 0 else 'lower'}"
                   f" is worse, tolerance {tol:.0%})")
            if kind == "wall" and args.wall_mode != "fail":
                if args.wall_mode == "warn":
                    warnings.append((key, metric, base_v, cand_v, why))
            else:
                regressions.append((key, metric, base_v, cand_v, why))

    for key in removed:
        regressions.append((key, "<row>", None, None,
                            "row missing from candidate"))

    def show(items, label):
        for key, metric, base_v, cand_v, why in items:
            print(f"  {label} {key} :: {metric}: "
                  f"{base_v} -> {cand_v} ({why})")

    if not args.quiet:
        print(f"bench_compare: {args.baseline} vs {args.candidate}")
        print(f"  rows: {len(matched)} matched, {len(added)} added, "
              f"{len(removed)} removed")
        print(f"  deterministic: {exact_checked} metrics checked")
        print(f"  noise-gated: {wall_checked} metrics checked "
              f"({improvements} improved beyond tolerance)")
        if added:
            print(f"  new rows (not gated): {', '.join(added)}")
    show(warnings, "WARN")
    show(regressions, "REGRESSION")
    if regressions:
        print(f"REGRESSION: {len(regressions)} gating difference(s)")
        return 2
    print("OK: no regressions"
          + (f" ({len(warnings)} wall-clock warning(s))" if warnings else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
