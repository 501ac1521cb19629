"""Command-line entry points.

Verbs: seed, evolve-cae, select-cae, encode, evolve-clf, compose,
report, and the internal `worker` verb used by the orchestrator to
launch worker processes.
"""

import os

# Workers run many small matmuls; single-threaded BLAS keeps multi-worker
# runs from oversubscribing cores and keeps results reproducible.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import sys
from pathlib import Path


def _load_cfg(path):
    from .config import load_config

    return load_config(path)


def cmd_seed(args):
    from dataclasses import replace

    from .pipeline import STEP_KINDS, step_population_root
    from .worker import Worker

    cfg = _load_cfg(args.config)
    kind = STEP_KINDS[args.kind]
    cfg = replace(cfg, population_root=str(step_population_root(cfg, kind)))
    for i in range(cfg.workers):
        Worker(cfg, i, kind).seed_population()
    print(f"seeded {cfg.workers * cfg.seeds_per_worker} individuals into {cfg.population_root}")


def cmd_worker(args):
    from .worker import Worker

    cfg = _load_cfg(args.config)
    completed = Worker(cfg, args.index, args.kind).run()
    print(f"worker {args.index} completed {completed} rounds")


def cmd_evolve(args, name):
    from .pipeline import STEP_KINDS, run_step

    cfg = _load_cfg(args.config)
    summary = run_step(cfg, STEP_KINDS[name])
    print(
        f"step={name} networks_generated={summary.networks_generated} "
        f"best_metric={summary.best_metric:.4f} history={summary.history_csv}"
    )


def cmd_select_cae(args):
    from .mcdm import Alternative, TopsisWeights, topsis_rank

    wc, wa = (float(v) for v in args.weights.split(","))
    alts = []
    with open(args.front, newline="") as fh:
        for row in csv.DictReader(fh):
            alts.append(
                Alternative(
                    id=row["id"],
                    compression=float(row["compression"]),
                    accuracy=float(row["accuracy"]),
                )
            )
    writer = csv.writer(sys.stdout)
    writer.writerow(["id", "compression", "accuracy", "score"])
    for alt, score in topsis_rank(alts, TopsisWeights(wc, wa)):
        writer.writerow([alt.id, alt.compression, alt.accuracy, f"{score:.6f}"])


def cmd_encode(args):
    from .pipeline import finalize_cae_step

    cfg = _load_cfg(args.config)
    encoder_id, prefix = finalize_cae_step(cfg)
    print(f"chosen encoder {encoder_id}; encoded dataset cached at {prefix}{{train,val,test}}.evod")


def cmd_compose(args):
    from .pipeline import best_classifier_id, compose_final

    cfg = _load_cfg(args.config)
    encoder_id = args.encoder_id or Path(cfg.report_dir, "chosen_cae.txt").read_text().strip()
    classifier_id = args.classifier_id or best_classifier_id(cfg)
    _net, acc = compose_final(cfg, encoder_id, classifier_id)
    print(f"composed {encoder_id} + {classifier_id}: test accuracy {acc:.4f}")


def cmd_report(args):
    from .pipeline import STEP_KINDS, export_history, step_population_root

    cfg = _load_cfg(args.config)
    out = Path(cfg.report_dir) / f"history_{args.step}.csv"
    rows = export_history(step_population_root(cfg, STEP_KINDS[args.step]), out)
    print(f"wrote {len(rows)} rows to {out}")


def build_parser():
    from .pipeline import STEP_KINDS

    parser = argparse.ArgumentParser(prog="evocnn")
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="key=value run config file")
        return p

    with_config(sub.add_parser("seed", help="publish seed individuals")).add_argument(
        "--kind", choices=list(STEP_KINDS), default="cae"
    )
    with_config(sub.add_parser("evolve-cae", help="run the autoencoder evolution step"))
    with_config(sub.add_parser("evolve-clf", help="run the classifier evolution step"))

    p = sub.add_parser("select-cae", help="TOPSIS-rank a Pareto front CSV")
    p.add_argument("--weights", required=True, help="w_compression,w_accuracy")
    p.add_argument("--front", required=True, help="CSV with id,compression,accuracy")

    with_config(sub.add_parser("encode", help="pick the best CAE and cache encoded data"))

    p = with_config(sub.add_parser("compose", help="compose encoder + classifier"))
    p.add_argument("--encoder-id")
    p.add_argument("--classifier-id")

    p = with_config(sub.add_parser("report", help="export the evolution history CSV"))
    p.add_argument("--step", choices=list(STEP_KINDS), default="cae")

    p = with_config(sub.add_parser("worker", help="internal: run one worker process"))
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--kind", required=True, choices=list(STEP_KINDS.values()))

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.verb == "seed":
        cmd_seed(args)
    elif args.verb.startswith("evolve-"):
        cmd_evolve(args, args.verb.removeprefix("evolve-"))
    elif args.verb == "select-cae":
        cmd_select_cae(args)
    elif args.verb == "encode":
        cmd_encode(args)
    elif args.verb == "compose":
        cmd_compose(args)
    elif args.verb == "report":
        cmd_report(args)
    elif args.verb == "worker":
        cmd_worker(args)


if __name__ == "__main__":
    main()
