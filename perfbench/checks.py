"""Correctness checks of one trajectory's outputs.

Each `check_*` function compares what the program wrote with an
independent computation from `oracle` or with a property the method
must have, and returns a list of problems (empty when the check holds).
`check_trajectory` runs all of them on a finished trajectory and also
returns the facts the run reports: training MACs and seconds, and the
sha256 of the exported history.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import oracle

SPLIT_SHARES = (45, 5, 10)
RECON_TOL = 1e-5        # stored <f4 weights against the float64 weights scored in training
EVOD_RTOL = 1e-6        # float32 caches against a float64 recomputation
RECOMPUTE_TOL = 1e-7    # same stored weights, another summation order


# ---------------------------------------------------------------------------
# Single checks
# ---------------------------------------------------------------------------

def check_compression(genome_text, input_shape, reported):
    genome = oracle.parse_genome(genome_text)
    expected = oracle.compression(genome["genes"], input_shape)
    problems = []
    if reported != expected:
        problems.append(f"{genome['id']}: compression {reported!r}, recomputed {expected!r}")
    if not expected > 0:
        problems.append(f"{genome['id']}: compression {expected!r} is not positive")
    return problems


def check_front(pairs, front):
    """`front` (indices into pairs) must be exactly the non-dominated set."""
    expected = sorted(oracle.non_dominated(pairs))
    if sorted(front) != expected:
        return [f"front 0 is {sorted(front)}, brute force gives {expected}"]
    return []


def check_topsis(alternatives, chosen, w_compression, w_accuracy):
    expected = oracle.topsis_pick(alternatives, w_compression, w_accuracy)
    return [] if chosen == expected else [f"TOPSIS picked {chosen}, closed form gives {expected}"]


def check_accuracy_count(logits, labels, reported):
    """`reported` must equal the argmax recount of `logits` against `labels`."""
    correct = int((np.argmax(logits, axis=1) == labels).sum())
    if reported != correct / labels.size:
        return [f"test accuracy {reported!r}, recount {correct}/{labels.size}"]
    return []


def check_close(name, reported, expected, tol):
    if not abs(reported - expected) <= tol:
        return [f"{name}: reported {reported!r}, recomputed {expected!r}"]
    return []


def check_conservation(name, live, dead, claims, log_lines, seeds, rounds):
    """Single worker, no races: every round kills one and publishes one."""
    expected = {"live": seeds, "dead": rounds, "claims": seeds + rounds, "round-log lines": rounds}
    got = {"live": live, "dead": dead, "claims": claims, "round-log lines": log_lines}
    return [f"{name}: {k} = {got[k]}, expected {v}" for k, v in expected.items() if got[k] != v]


def check_split(indices, labels):
    """The program's split must be a stratified 45:5:10 partition."""
    problems = []
    joined = np.concatenate(indices)
    if joined.size != labels.size or np.unique(joined).size != labels.size:
        problems.append("splits do not partition the samples")
    total = sum(SPLIT_SHARES)
    for cls in np.unique(labels):
        per_class = int((labels == cls).sum())
        for idx, share in zip(indices, SPLIT_SHARES):
            got = int((labels[idx] == cls).sum())
            if abs(got - per_class * share / total) >= 1:
                problems.append(f"class {cls}: {got} samples in a {share}/{total} split")
    return problems


# ---------------------------------------------------------------------------
# A whole trajectory
# ---------------------------------------------------------------------------

class Population:
    """The files one evolution step left in its population directory."""

    def __init__(self, root):
        root = Path(root)
        self.root = root
        self.members = {}
        for state in ("live", "dead"):
            for entry in sorted((root / state).iterdir()):
                meta = oracle.parse_fitness((entry / "fitness.csv").read_text())
                meta["state"] = state
                meta["genome_text"] = (entry / "genome.txt").read_text()
                self.members[meta["id"]] = meta
        self.claims = sum(
            len(p.read_text().split()) for p in (root / "logs").glob("claims_*.log")
        )
        self.log_lines = sum(
            len(p.read_text().splitlines()) for p in (root / "logs").glob("rounds_*.csv")
        )

    def live(self):
        return {i: m for i, m in self.members.items() if m["state"] == "live"}

    def count(self, state):
        return sum(m["state"] == state for m in self.members.values())

    def layers(self, iid):
        return oracle.parse_evow((self.root / "live" / iid / "weights.bin").read_bytes())


def load_splits(workload, inputs_dir, master_seed):
    """{train, val, test: (x, labels)} exactly as the program's data source sees them."""
    if workload.source == "evod":
        return {tag: oracle.read_evod(inputs_dir / f"{tag}.evod") for tag in ("train", "val", "test")}
    from evocnn.data import Dataset, split

    x, labels = oracle.read_cifar_batch(inputs_dir / "data_batch_1.bin")
    # split only indexes samples, so sample indices stand in for the images
    marker = Dataset(x=np.arange(labels.size, dtype=float).reshape(-1, 1, 1, 1), y=labels)
    indices = [ds.x.ravel().astype(np.int64) for ds in split(marker, seed=master_seed)]
    problems = check_split(indices, labels)
    if problems:
        raise AssertionError("; ".join(problems))
    return {tag: (x[idx], labels[idx]) for tag, idx in zip(("train", "val", "test"), indices)}


def _training_work(pop, step, shape, n_train, n_classes):
    """(MACs of training forward passes, training seconds) of non-diverged members."""
    samples = (n_train // step.batch_size) * step.batch_size * step.epochs
    macs = seconds = 0.0
    for meta in pop.members.values():
        metric = meta["pair"][1] if meta["pair"] else meta["scalar"]
        if metric == 0.0:  # diverged: epochs run unknown, so neither side counts
            continue
        genome = oracle.parse_genome(meta["genome_text"])
        macs += oracle.forward_macs(genome, shape, n_classes) * samples
        seconds += meta["wall_seconds"]
    return macs, seconds


def check_trajectory(workload, inputs_dir, out, record, n_classes=10):
    """(problems, facts) for one finished trajectory: its inputs and output directories."""
    problems = []
    splits = load_splits(workload, inputs_dir, record["index"])
    shape = splits["train"][0].shape[1:]
    cae_step = workload.steps[0]
    cae = Population(out / "population" / "cae")
    rounds = {"Encoder": 0, "Classifier": 0}
    for kind, _seconds, completed in record["rounds"]:
        rounds[kind] += int(completed)

    problems += check_conservation(
        "cae", cae.count("live"), cae.count("dead"), cae.claims, cae.log_lines,
        cae_step.seeds, cae_step.rounds,
    )
    if rounds["Encoder"] != cae_step.rounds:
        problems.append(f"cae: {rounds['Encoder']} rounds completed of {cae_step.rounds}")
    for meta in cae.members.values():
        problems += check_compression(meta["genome_text"], shape, meta["pair"][0])
        if not 0.0 <= meta["pair"][1] <= 1.0:
            problems.append(f"{meta['id']}: reconstruction accuracy {meta['pair'][1]!r}")

    live = cae.live()
    ids = sorted(live)
    pairs = [live[i]["pair"] for i in ids]
    from evocnn.selection import pareto_fronts

    front = pareto_fronts(pairs)[0]
    problems += check_front(pairs, front)

    best_acc = max(p[1] for p in pairs)
    best_id = min(i for i in ids if live[i]["pair"][1] == best_acc)
    if (record["best_cae_id"], record["best_recon_acc"]) != (best_id, best_acc):
        problems.append(f"best live CAE {record['best_cae_id']}, sidecars give {best_id}")
    best_layers = cae.layers(best_id)
    val_x = splits["val"][0]
    problems += check_close(
        "best reconstruction accuracy", best_acc,
        1.0 - float(np.mean((oracle.forward(best_layers, val_x) - val_x) ** 2)), RECON_TOL,
    )

    macs, seconds = _training_work(cae, cae_step, shape, len(splits["train"][1]), n_classes)
    history = [out / "reports" / "history_cae.csv"]

    if len(workload.steps) == 1:
        test_x = splits["test"][0]
        problems += check_close(
            "test reconstruction accuracy", record["test_accuracy"],
            1.0 - float(np.mean((oracle.forward(best_layers, test_x) - test_x) ** 2)),
            RECOMPUTE_TOL,
        )
    else:
        problems += _check_second_step(workload, out, record, cae, ids, pairs, splits, rounds)
        genes = oracle.parse_genome(cae.members[record["encoder_id"]]["genome_text"])["genes"]
        clf = Population(out / "population" / "clf")
        m, s = _training_work(clf, workload.steps[1], oracle.encoded_shape(genes, shape),
                              len(splits["train"][1]), n_classes)
        macs += m
        seconds += s
        history.append(out / "reports" / "history_clf.csv")

    digest = hashlib.sha256(b"".join(p.read_bytes() for p in history)).hexdigest()
    return problems, {"train_macs": macs, "train_seconds": seconds, "history_sha256": digest}


def _check_second_step(workload, out, record, cae, ids, pairs, splits, rounds):
    """TOPSIS pick, EVOD caches, classifier population and test accuracy."""
    problems = []
    clf_step = workload.steps[1]
    chosen = (out / "reports" / "chosen_cae.txt").read_text().strip()
    if chosen != record["encoder_id"]:
        problems.append(f"chosen_cae.txt names {chosen}, the pipeline returned {record['encoder_id']}")
    alternatives = [(ids[i], pairs[i][0], min(pairs[i][1], 1.0)) for i in oracle.non_dominated(pairs)]
    problems += check_topsis(alternatives, chosen, 0.5, 0.5)

    n_genes = len(oracle.parse_genome(cae.members[chosen]["genome_text"])["genes"])
    encoder = cae.layers(chosen)[:n_genes]
    for tag, (x, labels) in splits.items():
        cached_x, cached_y = oracle.read_evod(f"{record['evod_prefix']}{tag}.evod")
        mine = oracle.forward(encoder, x)
        if cached_x.shape != mine.shape or not np.allclose(cached_x, mine, rtol=EVOD_RTOL, atol=EVOD_RTOL):
            problems.append(f"EVOD {tag}: cached encoding differs from the recomputed one")
        if not np.array_equal(cached_y, labels):
            problems.append(f"EVOD {tag}: labels differ from the generated ones")

    clf = Population(out / "population" / "clf")
    problems += check_conservation(
        "clf", clf.count("live"), clf.count("dead"), clf.claims, clf.log_lines,
        clf_step.seeds, clf_step.rounds,
    )
    if rounds["Classifier"] != clf_step.rounds:
        problems.append(f"clf: {rounds['Classifier']} rounds completed of {clf_step.rounds}")
    for meta in clf.members.values():
        if not 0.0 <= meta["scalar"] <= 1.0:
            problems.append(f"{meta['id']}: validation accuracy {meta['scalar']!r}")
    best = max(m["scalar"] for m in clf.live().values())
    best_ids = [i for i, m in clf.live().items() if m["scalar"] == best]
    if record["classifier_id"] != max(best_ids):
        problems.append(f"best classifier {record['classifier_id']}, sidecars give {max(best_ids)}")

    composed = encoder + clf.layers(record["classifier_id"])
    test_x, test_labels = splits["test"]
    problems += check_accuracy_count(oracle.forward(composed, test_x), test_labels,
                                     record["test_accuracy"])
    return problems
