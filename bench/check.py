"""Output check of one sequence report: which pairs are wrong.

At the default seed the report bytes must equal the SHA-256 digests in
expected.json, which were recorded from a serial `repbench sequence` run
(record_digests.py), so a 2-worker run is also checked for byte identity
across worker counts.  On every seed each pair must satisfy the invariants
the protocol guarantees:

- n_rep <= min(n_ref, n_test);
- where defined, 0 <= c2 <= eq1 <= 1 and 0 <= c1 <= 1;
- 0 <= true_matches <= min(n_ref, n_test), since true matches are
  one-to-one matches with both ends in the common part;
- the CSV row carries the same numbers as the JSON entry, both written with
  repr(float), as the harness documents.
"""

import hashlib
import json
import os

CSV_HEADER = "pair,eq1,c1,c2,true_matches"
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def digests(json_bytes, csv_bytes):
    return {
        "json_sha256": hashlib.sha256(json_bytes).hexdigest(),
        "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
    }


def _cell(v):
    return "" if v is None else repr(float(v))


def _pair_ok(p, row):
    n_ref, n_test, n_rep, tm = p["n_ref"], p["n_test"], p["n_rep"], p["true_matches"]
    eq1, c1, c2 = p["eq1"], p["c1"], p["c2"]
    ok = 0 <= n_rep <= min(n_ref, n_test) and 0 <= tm <= min(n_ref, n_test)
    for v in (eq1, c1, c2):
        ok = ok and (v is None or 0.0 <= v <= 1.0)
    if eq1 is not None and c2 is not None:
        ok = ok and c2 <= eq1
    return ok and row == [str(p["pair"]), _cell(eq1), _cell(c1), _cell(c2), str(tm)]


def failed_pairs(json_bytes, csv_bytes, expected=None):
    """Pair numbers that fail the check.  With `expected` digests, a byte
    mismatch fails every pair, since the digests cannot say which one."""
    doc = json.loads(json_bytes)
    pairs = [p["pair"] for p in doc["pairs"]]
    if expected is not None and digests(json_bytes, csv_bytes) != expected:
        return set(pairs)
    lines = csv_bytes.decode().splitlines()
    if lines[0] != CSV_HEADER or len(lines) != len(pairs) + 1:
        return set(pairs)
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    return {p["pair"] for p in doc["pairs"] if not _pair_ok(p, rows.get(str(p["pair"])))}


def downstream_ok(table, grid, dataset):
    """The correlation table has one row per criterion for the dataset, and
    the summary grid rates the one detector on it."""
    table_lines = table.splitlines()
    grid_lines = grid.splitlines()
    return (
        table_lines[0] == "dataset,criterion,r,p,n"
        and [line.split(",")[:2] for line in table_lines[1:]]
        == [[dataset, c] for c in ("eq1", "c1", "c2")]
        and grid_lines[0] == f"detector,{dataset}"
        and len(grid_lines) == 2
        and grid_lines[1].split(",")[1] in ("+", "++", "+++")
    )
