"""Output checks, each computed apart from the program.

Nothing here imports ``gcodeguard``. The references are:

* ``scan_gcode``: a plain-text line scanner that counts command codes and
  follows the last E value set by G0, G1 or G92;
* ``confusion_counts``: confusion counts by set arithmetic over flagged
  paths, victims and the corpus;
* ``naive_dbscan``: DBSCAN with closed balls, the point itself counted,
  expanded breadth-first in index order, run just inside and just outside
  the program's eps (``dbscan_references``);
* ``ward_cut_labels``: ``scipy.cluster.hierarchy.linkage(method="ward")``
  cut by the rule ``cluster_agglomerative`` documents;
* ``pca_reference``: numpy's eigendecomposition of the covariance of the
  column-standardized matrix.

The ``check_*`` functions return a list of failure messages; an empty list
means the workload's outputs passed.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEATURE_COLUMNS = ("g0", "g1", "g92", "m82", "m84", "m104", "m105", "m106", "m107", "m140", "total_lines")
STAT_DETECTORS = ("single_stat", "combined_stat")
Z_SCALE = 0.6745
Z_THRESHOLD = 3.5
SMALL_CLUSTER_FRACTION = 0.01
# A pairwise distance this close to eps, relative to eps, may round to either
# side of the closed-ball test.
EPS_MARGIN = 1e-9


# ---------------------------------------------------------------- references


@dataclass(frozen=True)
class Scan:
    counts: Counter
    total_lines: int
    final_e: float | None


def scan_gcode(data: bytes) -> Scan:
    """Count command codes and follow the E register through a file."""
    lines = data.decode("ascii").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    counts: Counter = Counter()
    final_e = None
    for line in lines:
        words = line.split(";", 1)[0].split()
        if not words:
            continue
        code = words[0]
        counts[code] += 1
        if code in ("G0", "G1", "G92"):
            for word in words[1:]:
                if word[0] == "E":
                    final_e = float(word[1:])
    return Scan(counts, len(lines), final_e)


def scan_features(scan: Scan) -> tuple[int, ...]:
    return tuple(
        scan.total_lines if name == "total_lines" else scan.counts[name.upper()]
        for name in FEATURE_COLUMNS
    )


def confusion_counts(flagged: set, victims: set, universe: set) -> dict:
    flagged = flagged & universe
    return {
        "tp": len(flagged & victims),
        "fp": len(flagged - victims),
        "fn": len(victims - flagged),
        "tn": len(universe - flagged - victims),
    }


def naive_dbscan(x: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    n = len(x)
    eps2 = eps * eps
    neighbours = []
    for i in range(n):
        diff = x - x[i]
        neighbours.append(np.flatnonzero(np.einsum("jk,jk->j", diff, diff) <= eps2))
    unvisited, noise = -2, -1
    labels = np.full(n, unvisited, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != unvisited:
            continue
        if len(neighbours[i]) < min_samples:
            labels[i] = noise
            continue
        labels[i] = cluster
        queue = deque(neighbours[i])
        while queue:
            j = queue.popleft()
            if labels[j] == noise:
                labels[j] = cluster
            if labels[j] != unvisited:
                continue
            labels[j] = cluster
            if len(neighbours[j]) >= min_samples:
                queue.extend(neighbours[j])
        cluster += 1
    return labels


def dbscan_references(x: np.ndarray, eps: float, min_samples: int) -> list[np.ndarray]:
    """The labellings a correct closed-ball DBSCAN at ``eps`` may give.

    The naive DBSCAN runs at eps shrunk and grown by ``EPS_MARGIN``. When the
    two agree, no pair at eps to within rounding changes the result and that
    one labelling is returned. When they differ, both are returned: the
    program may round such a pair either way.
    """
    inside = naive_dbscan(x, eps * (1.0 - EPS_MARGIN), min_samples)
    outside = naive_dbscan(x, eps * (1.0 + EPS_MARGIN), min_samples)
    return [inside] if np.array_equal(inside, outside) else [inside, outside]


def ward_cut_labels(points: np.ndarray) -> np.ndarray:
    """Ward dendrogram from scipy, cut before the earliest merge whose
    separation (height / sqrt(ni*nj/(ni+nj))) reaches half the largest."""
    from scipy.cluster.hierarchy import linkage

    n = len(points)
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    z = linkage(points, method="ward")
    sizes = np.concatenate([np.ones(n), z[:, 3]])
    ni = sizes[z[:, 0].astype(int)]
    nj = sizes[z[:, 1].astype(int)]
    separation = z[:, 2] / np.sqrt(ni * nj / (ni + nj))
    top = separation.max()
    if top <= 0.0:
        return np.zeros(n, dtype=np.int64)
    first = int(np.argmax(separation >= top / 2.0))
    owner = list(range(2 * n - 1))  # cluster id -> representative point
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            a = root[a]
        return a

    for step in range(first):
        a, b = (owner[int(c)] for c in z[step, :2])
        root[find(b)] = find(a)
        owner[n + step] = find(a)
    return first_appearance([find(i) for i in range(n)])


def first_appearance(labels) -> np.ndarray:
    """Renumber labels 0, 1, ... in order of first appearance; -1 stays."""
    seen: dict = {}
    out = []
    for label in labels:
        if label == -1:
            out.append(-1)
        else:
            out.append(seen.setdefault(label, len(seen)))
    return np.array(out, dtype=np.int64)


def standardized(matrix: np.ndarray) -> np.ndarray:
    std = matrix.std(axis=0)
    return (matrix - matrix.mean(axis=0)) / np.where(std == 0.0, 1.0, std)


def pca_reference(z: np.ndarray, k: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenvalues (descending) and the projected points."""
    values, vectors = np.linalg.eigh(np.cov(z, rowvar=False, bias=True))
    order = np.argsort(values)[::-1][:k]
    return values[order], (z - z.mean(axis=0)) @ vectors[:, order]


def robust_z(values: np.ndarray) -> np.ndarray:
    med = np.median(values)
    mad = np.median(np.abs(values - med))
    return Z_SCALE * (values - med) / mad


def tiny_cluster_verdict(labels: np.ndarray, paths: list[str]) -> tuple[set, dict]:
    """Flags and scores a clustering implies: noise and clusters of at most
    max(2, 1% of n) points are flagged; a point scores 1/(its cluster size),
    noise scores 1."""
    n = len(labels)
    small = max(2.0, SMALL_CLUSTER_FRACTION * n)
    sizes = Counter(labels.tolist())
    flagged = {p for p, lab in zip(paths, labels) if lab == -1 or sizes[lab] <= small}
    scores = {p: 1.0 if lab == -1 else 1.0 / sizes[lab] for p, lab in zip(paths, labels)}
    return flagged, scores


# ---------------------------------------------------------------- helpers


def load_flags(flags_dir: Path) -> dict[str, dict]:
    return {p.stem: json.loads(p.read_text()) for p in sorted(flags_dir.glob("*.json"))}


def load_victims(truth_json: Path) -> dict[str, str]:
    return {v["path"]: v["strategy"] for v in json.loads(truth_json.read_text())["victims"]}


def check_features_csv(corpus: Path, features_csv: Path) -> tuple[list[str], dict[str, Scan]]:
    """Scanner counts against every row of ``features.csv``."""
    failures = []
    scans = {}
    with open(features_csv, newline="") as fh:
        rows = {row["path"]: row for row in csv.DictReader(fh)}
    files = sorted(p.name for p in corpus.glob("*.gcode"))
    if sorted(rows) != files:
        failures.append(f"{features_csv}: rows {len(rows)} do not name the {len(files)} corpus files")
    for name in files:
        scans[name] = scan_gcode((corpus / name).read_bytes())
        if name in rows:
            reported = tuple(int(rows[name][col]) for col in FEATURE_COLUMNS)
            if reported != scan_features(scans[name]):
                failures.append(f"{name}: features.csv {reported} != scanner {scan_features(scans[name])}")
    return failures, scans


def check_victims(original: Path, blind: Path, victims: dict[str, str], blind_scans: dict[str, Scan]) -> list[str]:
    """Exactly the victims differ from their originals, and each victim's
    final E is conserved (halved for ID3)."""
    failures = []
    changed = {
        p.name for p in sorted(original.glob("*.gcode"))
        if p.read_bytes() != (blind / p.name).read_bytes()
    }
    if changed != set(victims):
        failures.append(f"changed files {sorted(changed ^ set(victims))[:4]} differ from the truth")
    for name, sid in sorted(victims.items()):
        before = scan_gcode((original / name).read_bytes()).final_e
        after = blind_scans[name].final_e
        expected = 0.5 * before if sid == "ID3" else before
        if not math.isclose(after, expected, rel_tol=0.0, abs_tol=1e-6 * max(1.0, abs(before))):
            failures.append(f"{name} ({sid}): final E {after} where {expected} was expected")
    return failures


def check_report(flags: dict[str, dict], report_json: Path, victims: set, universe: set) -> list[str]:
    report = json.loads(report_json.read_text())
    failures = []
    if set(report["detectors"]) != set(flags):
        failures.append(f"report detectors {sorted(report['detectors'])} != flag sets {sorted(flags)}")
    for name, fs in flags.items():
        expected = confusion_counts(set(fs["flagged"]), victims, universe)
        got = report["detectors"].get(name, {}).get("confusion")
        if got != expected:
            failures.append(f"{name}: report confusion {got} != recomputed {expected}")
        if set(fs["scores"]) != universe:
            failures.append(f"{name}: scores cover {len(fs['scores'])} of {len(universe)} files")
    return failures


def identical_trees(a: Path, b: Path, skip_key: tuple[str, str] | None = None) -> list[str]:
    """Byte comparison of two directory trees; ``skip_key`` names a JSON file
    and one key in it that may differ."""
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    if files_a != files_b:
        return [f"{a} and {b} hold different files: {sorted(files_a ^ files_b)[:4]}"]
    failures = []
    for rel in sorted(files_a):
        da, db = (a / rel).read_bytes(), (b / rel).read_bytes()
        if skip_key and rel == skip_key[0]:
            ja, jb = json.loads(da), json.loads(db)
            ja.pop(skip_key[1], None)
            jb.pop(skip_key[1], None)
            same = ja == jb
        else:
            same = da == db
        if not same:
            failures.append(f"{rel} differs between {a.name} and {b.name}")
    return failures


# ---------------------------------------------------------------- workloads


def check_clustering(flags: dict[str, dict], x: np.ndarray, paths: list[str], dbscan=None) -> list[str]:
    """Clustering detectors against the references.

    ``dbscan`` is the program's DBSCAN labels where a workload keeps them.
    For Ward only the flagged files are compared: where count vectors repeat,
    merges tie, and which large cluster a tied row joins depends on rounding.
    """
    failures = []
    z = standardized(x)
    top2, points = pca_reference(z)
    for name in ("pca_agglomerative", "pca_meanshift"):
        reported = np.array(flags[name]["parameters"]["explained_variance"])
        if not np.allclose(reported, top2, rtol=1e-9, atol=1e-12):
            failures.append(f"{name}: explained variance {reported} != eigenvalues {top2}")
    params = flags["dbscan"]["parameters"]
    references = dbscan_references(z, params["eps"], params["min_samples"])
    if dbscan is not None:
        references = [ref for ref in references if np.array_equal(np.array(dbscan), ref)]
        if not references:
            failures.append("cluster_dbscan labels differ from the naive reference")
    verdict = (set(flags["dbscan"]["flagged"]), flags["dbscan"]["scores"])
    if references and verdict not in [tiny_cluster_verdict(ref, paths) for ref in references]:
        failures.append("dbscan: flags or scores differ from those the naive reference implies")
    flagged, _ = tiny_cluster_verdict(ward_cut_labels(points), paths)
    if set(flags["pca_agglomerative"]["flagged"]) != flagged:
        failures.append("pca_agglomerative: flagged files differ from those the Ward reference implies")
    # Mean shift has no reference here, so its flag set is held to its own
    # rule: a score is 1/(cluster size), a size s occurs a multiple of s
    # times, and exactly the files of tiny clusters are flagged.
    sizes = {p: round(1.0 / score) for p, score in flags["pca_meanshift"]["scores"].items()}
    tally = Counter(sizes.values())
    small = max(2.0, SMALL_CLUSTER_FRACTION * len(paths))
    tiny = {p for p, size in sizes.items() if size <= small}
    if any(count % size for size, count in tally.items()) or tiny != set(flags["pca_meanshift"]["flagged"]):
        failures.append("pca_meanshift: flags and scores do not follow its tiny-cluster rule")
    return failures


def check_corpus_run(original: Path, blind: Path, flags_dir: Path, report_json: Path,
                     truth_json: Path) -> tuple[list[str], dict[str, str], dict[str, dict]]:
    """Checks shared by the workloads that run the program on g-code files."""
    failures, scans = check_features_csv(blind, flags_dir / "features.csv")
    victims = load_victims(truth_json)
    failures += check_victims(original, blind, victims, scans)
    flags = load_flags(flags_dir)
    universe = set(scans)
    failures += check_report(flags, report_json, set(victims), universe)
    with open(flags_dir / "features.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    paths = [row["path"] for row in rows]
    x = np.array([[float(row[col]) for col in FEATURE_COLUMNS] for row in rows])
    failures += check_clustering(flags, x, paths)
    return failures, victims, flags


def check_d1(rounds: list[Path]) -> list[str]:
    run = rounds[0] / "run"
    failures, victims, flags = check_corpus_run(
        run / "original", run / "blind", run / "flags", run / "report" / "report.json",
        run / "truth" / "truth.json",
    )
    if not victims or set(victims.values()) != {"ID1"}:
        failures.append(f"truth {victims} is not a set of ID1 victims")
    for name in ("single_stat", "combined_stat", "pca_agglomerative"):
        if set(flags[name]["flagged"]) != set(victims):
            failures.append(f"{name} flagged {flags[name]['flagged']}, victims are {sorted(victims)}")
    for other in rounds[1:]:
        failures += identical_trees(run, other / "run", ("run_metadata.json", "created_utc"))
    return failures


def check_d2(rounds: list[Path]) -> list[str]:
    work = rounds[0]
    failures, victims, flags = check_corpus_run(
        work / "original", work / "blind", work / "flags", work / "report" / "report.json",
        work / "truth" / "truth.json",
    )
    caught = set(flags["combined_stat"]["flagged"])
    missed = sorted(p for p, sid in victims.items() if sid != "ID3" and p not in caught)
    if missed:
        failures.append(f"combined_stat missed {missed}")
    for name in STAT_DETECTORS:
        outside = sorted(set(flags[name]["flagged"]) - set(victims))
        if outside:
            failures.append(f"{name} flagged files outside the truth: {outside}")
    for other in rounds[1:]:
        for sub in ("flags", "report"):
            failures += identical_trees(work / sub, other / sub)
    return failures


def check_cluster(rounds: list[Path]) -> list[str]:
    import synthetic

    work = rounds[0]
    data = synthetic.load(work / "sweep.json")
    paths = [row["path"] for row in data["rows"]]
    victims = {v["path"]: v["strategy"] for v in data["victims"]}
    flags = load_flags(work / "flags")
    failures = check_report(flags, work / "report" / "report.json", set(victims), set(paths))

    # The planted rows must be exactly the rows whose robust z-score passes
    # the threshold, with a margin either side, so the expected flags follow
    # from the input and not from the detectors' own arithmetic.
    x = synthetic.matrix_of(data)
    zg1 = robust_z(x[:, 1])
    zg0 = robust_z(x[:, 0])
    decimals = Counter()
    for row in data["rows"]:
        decimals.update(row["histogram"])
    mode = max(decimals.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    off_mode = np.array([any(d != mode for d in row["histogram"]) for row in data["rows"]])
    single = {p for p, z in zip(paths, zg1) if abs(z) > Z_THRESHOLD}
    combined = {p for p, lo, hi, dec in zip(paths, zg1 < -Z_THRESHOLD, zg0 > Z_THRESHOLD, off_mode) if lo or hi or dec}
    if single != {p for p, sid in victims.items() if sid in ("ID1", "ID6")} or combined != set(victims):
        failures.append("planted rows are not exactly the rows past the robust z threshold")
    near = np.abs(np.concatenate([np.abs(zg1), zg0]) - Z_THRESHOLD) < 0.5
    if near.any():
        failures.append(f"{int(near.sum())} robust z-scores lie within 0.5 of the threshold")
    for name, expected in (("single_stat", single), ("combined_stat", combined)):
        got = set(flags[name]["flagged"])
        if got != expected:
            failures.append(f"{name}: {len(got - expected)} unexpected and {len(expected - got)} missed flags")

    labels = json.loads((work / "labels.json").read_text())
    failures += check_clustering(flags, x, paths, dbscan=labels["cluster_dbscan"])
    for other in rounds[1:]:
        for sub in ("flags", "report"):
            failures += identical_trees(work / sub, other / sub)
    return failures


CHECKS = {"d1-run-all": check_d1, "d2-detect": check_d2, "cluster-1440": check_cluster}
