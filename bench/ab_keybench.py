#!/usr/bin/env python3
"""A/B comparison of two revisions on keybench, in alternating pairs.

Usage (from anywhere inside the repository):

    python3 bench/ab_keybench.py --base REV --change REV|. \\
        --workload cln,iscas --seed N --pairs K [--workdir DIR] [--out FILE]
    python3 bench/ab_keybench.py --self-test

Each side is extracted with `git archive REV | tar -x` into the work
directory (`.` means the working tree, uncommitted edits included); the
repository's .git is only read. Each side runs its own keybench/run.py
with its own CARGO_TARGET_DIR, for BENCHMARK.json's run_seconds, and
builds there on its first run. Within each pair the side that runs first
alternates.

For every workload and end-to-end metric of BENCHMARK.json it prints both
medians with their quartiles, the change's wins and ties over the pairs,
the ratio of the medians and a verdict, judged against the metric's
`better` and `bound`:

    gain        the change wins at least 9 of 10 pairs and its median is
                better than the base's by more than the base's IQR
    worse       the change's median is worse than the base's by more than
                the bound (relative)
    unresolved  the base's IQR is wider than the bound (relative)
    level       anything else

Each run's per-instance records (keybench/run.py's results file, which
the next run on that side overwrites) are copied to
records/<side>-<workload>-seed<N>-pair<K>.jsonl in the work directory.
Within each pair the two sides' attack records are compared on the fields
that describe the search (SEARCH_FIELDS: instance, pass, dips,
oracle_queries, conflicts, status); per workload it prints
`search: identical`, or the first record where the sides differ.

With --out the same comparison is also written to FILE as one JSON
object: both revisions (as given, the commit they name, and the git
commit and source hash keybench stamped on the side's first run), the
seed, the pair count and, for every workload and end-to-end metric, each
side's samples and q1/median/q3, the wins, ties, ratio and verdict, and
per workload `search_identical`.

Exits 1 if a run gives no result, a run reports `correct: false`, or the
change fails more attacks than the base on some workload. Without
--workdir the extracted trees, builds and records go to a temporary
directory that is removed at exit; with it they are kept, and the trees
and builds are reused by later calls.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The fields of a keybench attack record that a change which keeps the
# search must leave equal.
SEARCH_FIELDS = ("instance", "pass", "dips", "oracle_queries", "conflicts",
                 "status")


def quartiles(values):
    """(q1, median, q3) of a sample; q1 = q3 = the value for one sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative(delta, reference):
    if reference != 0:
        return delta / abs(reference)
    return 0.0 if delta == 0 else float("inf")


def judge(base, change, better, bound):
    """Compares paired samples of one metric (base[i] ran with change[i]).

    Returns a dict with both quartile triples, the change's wins and ties,
    the ratio of the medians and the verdict."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    ties = sum(1 for b, c in zip(base, change) if c == b)
    bq, cq = quartiles(base), quartiles(change)
    base_iqr = bq[2] - bq[0]
    gap = sign * (bq[1] - cq[1])  # > 0: the change's median is better
    if wins * 10 >= 9 * len(base) and gap > base_iqr:
        verdict = "gain"
    elif relative(-gap, bq[1]) > bound:
        verdict = "worse"
    elif relative(base_iqr, bq[1]) > bound:
        verdict = "unresolved"
    else:
        verdict = "level"
    ratio = cq[1] / bq[1] if bq[1] != 0 else float("nan")
    return {"base": bq, "change": cq, "wins": wins, "ties": ties,
            "ratio": ratio, "verdict": verdict}


def search_records(lines):
    """The SEARCH_FIELDS of each attack record among keybench's JSONL
    `lines`, in order."""
    out = []
    for line in lines:
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("record") == "attack":
            out.append({f: record.get(f) for f in SEARCH_FIELDS})
    return out


def search_difference(base, change):
    """None if the two sides' search records agree, else a line naming
    the first record that differs."""
    for i in range(max(len(base), len(change))):
        b = base[i] if i < len(base) else None
        c = change[i] if i < len(change) else None
        if b != c:
            return "attack record %d: base %s, change %s" % (
                i + 1, json.dumps(b, sort_keys=True),
                json.dumps(c, sort_keys=True))
    return None


def comparison(meta, metrics, samples, failed, identical):
    """The --out document: `meta` plus, per workload, each end-to-end
    metric's judged comparison. samples[workload][side] is a list of
    {metric: value} dicts, one per pair; failed[workload][side] the number
    of failed attacks over the pairs; identical[workload] whether every
    pair's search records agreed."""
    doc = dict(meta)
    doc["workloads"] = {}
    for workload, sides in samples.items():
        entry = {"failed": failed[workload], "metrics": {},
                 "search_identical": identical[workload]}
        for m in metrics:
            base = [s[m["name"]] for s in sides["base"]]
            change = [s[m["name"]] for s in sides["change"]]
            r = judge(base, change, m["better"], m["bound"])
            entry["metrics"][m["name"]] = {
                "unit": m["unit"], "better": m["better"],
                "bound": m["bound"], "pairs": len(base),
                "base": dict(zip(("q1", "median", "q3"), r["base"]),
                             samples=base),
                "change": dict(zip(("q1", "median", "q3"), r["change"]),
                               samples=change),
                "wins": r["wins"], "ties": r["ties"], "ratio": r["ratio"],
                "verdict": r["verdict"]}
        doc["workloads"][workload] = entry
    return doc


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def self_test():
    cases = [
        # (base, change, better, bound, verdict)
        ([4.0, 4.2, 4.4, 4.1, 4.3, 4.0, 4.2, 4.4, 4.1, 4.3],
         [2.2, 2.3, 2.1, 2.2, 2.4, 2.2, 2.3, 2.1, 2.2, 2.4],
         "lower", 0.25, "gain"),
        # 8 wins of 10 is not a gain, however large the gap.
        ([4.0] * 10, [2.0] * 8 + [4.5, 4.5], "lower", 0.25, "level"),
        # A gap inside the base's IQR is not a gain.
        ([3.0, 5.0, 3.0, 5.0, 4.0, 3.2, 4.8, 3.1, 4.9, 4.0],
         [2.9, 4.9, 2.9, 4.9, 3.9, 3.1, 4.7, 3.0, 4.8, 3.9],
         "lower", 0.9, "level"),
        ([4.0, 4.1, 4.0, 4.1], [5.5, 5.6, 5.5, 5.6], "lower", 0.25, "worse"),
        ([1.0, 1.0, 1.0], [0.9, 0.9, 0.9], "higher", 0.05, "worse"),
        ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], "higher", 0.05, "level"),
        ([2.0, 6.0, 2.0, 6.0], [2.0, 6.0, 6.0, 2.0], "lower", 0.25,
         "unresolved"),
        ([86, 86, 86], [82, 82, 82], "lower", 0.2, "gain"),
        ([0, 0, 0], [0, 0, 0], "lower", 0.2, "level"),
    ]
    failed = 0
    for base, change, better, bound, want in cases:
        got = judge(base, change, better, bound)["verdict"]
        if got != want:
            failed += 1
            print("FAIL %s/%s bound %.2f: want %s, got %s\n  base %s\n"
                  "  change %s" % (better, want, bound, want, got, base,
                                   change))
    r = judge([3.0, 1.0, 2.0], [1.0, 2.0, 2.0], "lower", 1.0)
    if (r["wins"], r["ties"], r["base"][1], r["change"][1]) != (1, 1, 2.0,
                                                               2.0):
        failed += 1
        print("FAIL wins/ties/medians: %s" % r)
    # Search identity: equal search fields agree whatever the timings; a
    # different conflict count, or a missing record, is named.
    lines = ['{"record":"env","seed":1}',
             '{"record":"attack","pass":0,"instance":"a","dips":5,'
             '"oracle_queries":5,"conflicts":40,"status":"success",'
             '"attack_s":0.5}',
             '{"record":"attack","pass":0,"instance":"b","dips":7,'
             '"oracle_queries":7,"conflicts":90,"status":"success",'
             '"attack_s":0.7}']
    same = [lines[0], lines[1].replace("0.5", "0.4"), lines[2]]
    other = [lines[0], lines[1], lines[2].replace('"conflicts":90',
                                                  '"conflicts":91')]
    base = search_records(lines)
    got = (search_difference(base, search_records(same)),
           search_difference(base, search_records(other)),
           search_difference(base, search_records(lines[:2])))
    if (got[0] is not None or got[1] is None
            or not got[1].startswith("attack record 2:")
            or '"conflicts": 91' not in got[1] or got[2] is None
            or "change null" not in got[2]):
        failed += 1
        print("FAIL search identity: %s" % (got,))
    checks = len(cases) + 4
    metrics = [{"name": "time_to_key_s", "unit": "s", "better": "lower",
                "bound": 0.25},
               {"name": "dips", "unit": "count", "better": "lower",
                "bound": 0.2}]
    base = [{"time_to_key_s": t, "dips": 61} for t in cases[0][0]]
    change = [{"time_to_key_s": t, "dips": 59} for t in cases[0][1]]
    meta = {"base": {"rev": "b", "commit": "b" * 40},
            "change": {"rev": ".", "commit": "c" * 40},
            "seed": 3, "pairs": len(base)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ab.json")
        write_json(path, comparison(
            meta, metrics, {"iscas": {"base": base, "change": change},
                            "cln": {"base": base, "change": change}},
            {"iscas": {"base": 0, "change": 0},
             "cln": {"base": 0, "change": 0}},
            {"iscas": True, "cln": False}))
        with open(path) as f:
            doc = json.load(f)
    t = doc["workloads"]["iscas"]["metrics"]["time_to_key_s"]
    d = doc["workloads"]["iscas"]["metrics"]["dips"]
    if (doc["workloads"]["iscas"]["search_identical"] is not True
            or doc["workloads"]["cln"]["search_identical"] is not False):
        failed += 1
        print("FAIL --out search_identical: %s" %
              {w: e["search_identical"] for w, e in doc["workloads"].items()})
    want_t = judge(cases[0][0], cases[0][1], "lower", 0.25)
    got = (doc["seed"], doc["pairs"], doc["base"]["commit"],
           doc["change"]["rev"], t["pairs"], t["wins"], t["ties"],
           t["verdict"], (t["base"]["q1"], t["base"]["median"],
                          t["base"]["q3"]),
           t["change"]["median"], t["change"]["samples"], t["ratio"],
           d["verdict"], d["ties"], d["change"]["q3"], d["bound"])
    want = (3, 10, "b" * 40, ".", 10, 10, 0, "gain", want_t["base"],
            want_t["change"][1], cases[0][1], want_t["ratio"], "gain", 0,
            59, 0.2)
    if got != want:
        failed += 1
        print("FAIL --out document:\n  got  %s\n  want %s" % (got, want))
    print("self-test: %d of %d checks passed" % (checks - failed, checks))
    return 1 if failed else 0


def resolve(rev):
    """The commit `rev` names (`.` stays `.`)."""
    if rev == ".":
        return rev
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                        rev + "^{commit}"], capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit("ab_keybench: unknown revision %s" % rev)
    return r.stdout.strip()


def extract(rev, dest):
    """The tree of commit `rev` under dest (`.`: the working tree itself);
    an earlier extraction into dest is reused."""
    if rev == ".":
        return ROOT
    if not os.path.isdir(dest):
        os.makedirs(dest)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", dest],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            shutil.rmtree(dest, ignore_errors=True)
            raise SystemExit("ab_keybench: cannot extract %s" % rev)
    return dest


def run_keybench(tree, target, workload, seed, seconds):
    """One keybench run; its final JSON object, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "keybench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def fmt(v):
    return "%.4g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base")
    ap.add_argument("--change")
    ap.add_argument("--workload", default="cln,iscas")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workdir")
    ap.add_argument("--out")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.change or args.pairs < 1:
        ap.error("--base, --change and --pairs >= 1 are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    workloads = [w for w in args.workload.split(",") if w]

    workdir = os.path.abspath(args.workdir or
                              tempfile.mkdtemp(prefix="ab_keybench."))
    records = os.path.join(workdir, "records")
    os.makedirs(records, exist_ok=True)
    status = 0
    meta = {"seed": args.seed, "pairs": args.pairs,
            "run_seconds": spec["run_seconds"]}
    all_samples, all_failed, all_identical = {}, {}, {}
    try:
        sides = {}
        for side, rev in (("base", args.base), ("change", args.change)):
            commit = resolve(rev)
            name = "worktree" if commit == "." else commit[:12]
            sides[side] = (extract(commit,
                                   os.path.join(workdir, "tree-" + name)),
                           os.path.join(workdir, "target-" + name))
            meta[side] = {"rev": rev, "commit": commit}
        for workload in workloads:
            samples = all_samples[workload] = {"base": [], "change": []}
            failed = all_failed[workload] = {"base": 0, "change": 0}
            difference = None
            for pair in range(args.pairs):
                searched = {}
                order = ("base", "change") if pair % 2 == 0 else \
                        ("change", "base")
                for side in order:
                    tree, target = sides[side]
                    result = run_keybench(tree, target, workload, args.seed,
                                          spec["run_seconds"])
                    if result is None:
                        print("%s %s pair %d: no result" %
                              (workload, side, pair + 1))
                        return 1
                    stem = "%s-seed%d" % (workload, args.seed)
                    kept = os.path.join(records, "%s-%s-pair%d.jsonl" %
                                        (side, stem, pair + 1))
                    shutil.copyfile(
                        os.path.join(target, "keybench", "results",
                                     stem + "-trace0.jsonl"), kept)
                    with open(kept) as f:
                        searched[side] = search_records(f)
                    if "source_sha256" not in meta[side]:
                        with open(kept) as f:
                            env = json.loads(f.readline())
                        meta[side]["git_commit"] = env["git_commit"]
                        meta[side]["source_sha256"] = env["source_sha256"]
                    if not result["correct"]:
                        print("%s %s pair %d: correct: false" %
                              (workload, side, pair + 1))
                        status = 1
                    failed[side] += result["failed"]
                    samples[side].append(
                        {m: v["value"] for m, v in result["metrics"].items()})
                    print("  %s seed %d pair %d %-6s time_to_key_s %s" %
                          (workload, args.seed, pair + 1, side,
                           fmt(samples[side][-1]["time_to_key_s"])),
                          flush=True)
                if difference is None:
                    found = search_difference(searched["base"],
                                              searched["change"])
                    if found is not None:
                        difference = "pair %d, %s" % (pair + 1, found)
            all_identical[workload] = difference is None
            print("== %s seed %d: %d pairs, base %s, change %s ==" %
                  (workload, args.seed, args.pairs, args.base, args.change))
            print("%-16s %-32s %-32s %5s %4s %6s  %s" %
                  ("metric", "base median [q1, q3]", "change median [q1, q3]",
                   "wins", "ties", "ratio", "verdict"))
            judged = comparison({}, metrics, {workload: samples},
                                {workload: failed},
                                all_identical)["workloads"][workload]
            for name, r in judged["metrics"].items():
                b, c = r["base"], r["change"]
                print("%-16s %-32s %-32s %2d/%-2d %4d %6.3f  %s" %
                      (name, "%s [%s, %s]" % (fmt(b["median"]), fmt(b["q1"]),
                                              fmt(b["q3"])),
                       "%s [%s, %s]" % (fmt(c["median"]), fmt(c["q1"]),
                                        fmt(c["q3"])),
                       r["wins"], args.pairs, r["ties"], r["ratio"],
                       r["verdict"]))
            print("failed attacks: base %d, change %d" %
                  (failed["base"], failed["change"]))
            print("search: %s" % ("identical" if difference is None else
                                  "differs at " + difference), flush=True)
            if failed["change"] > failed["base"]:
                status = 1
        if args.out:
            write_json(args.out,
                       comparison(meta, metrics, all_samples, all_failed,
                                  all_identical))
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
