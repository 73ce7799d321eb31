#!/usr/bin/env python3
"""Validate a BENCH_atpg.json file against the kms-bench-atpg-v3 schema.

Usage: validate_bench_atpg.py <path>

Checks (stdlib only, no dependencies):
  * the file parses as JSON and carries schema "kms-bench-atpg-v3";
  * "circuits" is a non-empty list;
  * every circuit has name/gates/faults, a no_static and a static run
    record (the removal engine with the SAT-free static untestability
    pre-pass off and on) with all required counter fields of the right
    type, and removed_match;
  * internal consistency: removed_match reflects the run records, the
    static run never issues more SAT queries than the no_static one (and
    strictly fewer summed over the whole suite — the pre-pass must
    actually discharge something), and non-aborted runs on the same
    circuit removed the same redundancies bit-identically (digest
    equality).

Exit code 0 on success; 1 with a diagnostic on any violation (including
an empty or malformed file — the CI bench-smoke stage depends on that).
"""
import json
import sys

ENGINE_INT_FIELDS = [
    "removed", "passes", "sat_queries", "structural_shortcuts",
    "static_discharged",
    "sim_dropped", "witness_dropped", "cache_hits", "cache_invalidated",
    "unknown_queries", "jobs", "sat_conflicts", "max_cone_gates",
]
ENGINE_NUM_FIELDS = ["cone_gates_avg", "seconds"]


def fail(msg):
    print(f"validate_bench_atpg: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_engine(circuit, key, engine):
    where = f"circuit '{circuit}' engine '{key}'"
    if not isinstance(engine, dict):
        fail(f"{where}: not an object")
    for f in ENGINE_INT_FIELDS:
        if f not in engine:
            fail(f"{where}: missing field '{f}'")
        if not isinstance(engine[f], int) or engine[f] < 0:
            fail(f"{where}: field '{f}' is not a non-negative integer")
    for f in ENGINE_NUM_FIELDS:
        if f not in engine:
            fail(f"{where}: missing field '{f}'")
        if not isinstance(engine[f], (int, float)) or engine[f] < 0:
            fail(f"{where}: field '{f}' is not a non-negative number")
    if not isinstance(engine.get("aborted"), bool):
        fail(f"{where}: field 'aborted' is not a boolean")
    if engine["jobs"] < 1:
        fail(f"{where}: field 'jobs' must be >= 1 (0 is resolved to the "
             "hardware concurrency before an engine runs)")
    digest = engine.get("digest")
    if not isinstance(digest, str) or len(digest) != 16 or \
            any(ch not in "0123456789abcdef" for ch in digest):
        fail(f"{where}: field 'digest' is not a 16-hex-digit string")


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_bench_atpg.py <path>")
    try:
        with open(sys.argv[1], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read/parse {sys.argv[1]}: {e}")
    if not isinstance(doc, dict):
        fail("top level is not an object")
    if doc.get("schema") != "kms-bench-atpg-v3":
        fail(f"unexpected schema {doc.get('schema')!r}")
    circuits = doc.get("circuits")
    if not isinstance(circuits, list) or not circuits:
        fail("'circuits' missing, not a list, or empty")
    plain_total = stat_total = 0
    any_aborted = False
    for c in circuits:
        if not isinstance(c, dict):
            fail("circuit entry is not an object")
        name = c.get("name")
        if not isinstance(name, str) or not name:
            fail("circuit entry without a name")
        for f in ("gates", "faults"):
            if not isinstance(c.get(f), int) or c[f] < 0:
                fail(f"circuit '{name}': field '{f}' is not a "
                     "non-negative integer")
        engines = c.get("engines")
        if not isinstance(engines, dict):
            fail(f"circuit '{name}': 'engines' is not an object")
        for key in ("no_static", "static"):
            if key not in engines:
                fail(f"circuit '{name}': missing run '{key}'")
            check_engine(name, key, engines[key])
        plain, stat = engines["no_static"], engines["static"]
        match = c.get("removed_match")
        if not isinstance(match, bool):
            fail(f"circuit '{name}': 'removed_match' is not a boolean")
        if match != (plain["removed"] == stat["removed"]
                     and plain["digest"] == stat["digest"]):
            fail(f"circuit '{name}': removed_match contradicts the "
                 "run records")
        aborted = plain["aborted"] or stat["aborted"]
        any_aborted |= aborted
        if not aborted:
            if not match:
                fail(f"circuit '{name}': static pre-pass changed the result "
                     f"(removed {plain['removed']}/{stat['removed']}, "
                     f"digest {plain['digest']}/{stat['digest']})")
            if stat["sat_queries"] > plain["sat_queries"]:
                fail(f"circuit '{name}': static run issued more SAT "
                     f"queries than no_static ({stat['sat_queries']} vs "
                     f"{plain['sat_queries']})")
            plain_total += plain["sat_queries"]
            stat_total += stat["sat_queries"]
    if not any_aborted and stat_total >= plain_total:
        fail(f"static pre-pass discharged nothing across the suite "
             f"({stat_total} SAT queries vs no_static {plain_total})")
    print(f"validate_bench_atpg: OK ({len(circuits)} circuits, "
          f"static pre-pass avoided {plain_total - stat_total} SAT queries)")


if __name__ == "__main__":
    main()
