"""Command-line entry points.

Verbs: evolve-cae, encode, evolve-clf, compose and report run the four
steps in that order; each reads the run's one config file and derives
what its step needs from it and from the products of the steps before
(`evolve-clf` reads the encoded caches of the encoder that `encode`
picked, `compose` stacks that encoder and the best classifier). `run`
runs all four in one call and writes `summary.json` into `report_dir`.
The internal `worker` verb is what `run_step` launches per worker process.
"""

import os

# Workers run many small matmuls; single-threaded BLAS keeps multi-worker
# runs from oversubscribing cores and keeps results reproducible.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
from pathlib import Path

from .config import load_config
from .fileio import replacing


def cmd_worker(cfg, args):
    from .worker import Worker

    completed = Worker(cfg, args.index, args.kind).run()
    print(f"worker {args.index} completed {completed} rounds")


def _print_step(name, summary):
    print(
        f"step={name} networks_generated={summary.networks_generated} "
        f"best_metric={summary.best_metric:.4f} history={summary.history_csv}"
    )


def _print_composed(encoder_id, classifier_id, accuracy):
    print(f"composed {encoder_id} + {classifier_id}: test accuracy {accuracy:.4f}")


def _evolve(cfg, name):
    from .pipeline import STEP_KINDS, run_step

    _print_step(name, run_step(cfg, STEP_KINDS[name]))


def cmd_evolve_cae(cfg, args):
    _evolve(cfg, "cae")


def cmd_evolve_clf(cfg, args):
    from .pipeline import chosen_encoder_id, classifier_config

    _evolve(classifier_config(cfg, chosen_encoder_id(cfg)), "clf")


def cmd_encode(cfg, args):
    from .pipeline import finalize_cae_step

    encoder_id, prefix = finalize_cae_step(cfg)
    print(f"chosen encoder {encoder_id}; encoded dataset cached at {prefix}{{train,val,test}}.evod")


def cmd_compose(cfg, args):
    from .pipeline import best_classifier_id, chosen_encoder_id, compose_final

    encoder_id, classifier_id = chosen_encoder_id(cfg), best_classifier_id(cfg)
    _net, acc = compose_final(cfg, encoder_id, classifier_id)
    _print_composed(encoder_id, classifier_id, acc)


def cmd_run(cfg, args):
    from .pipeline import run_full_pipeline

    result = run_full_pipeline(cfg)
    cae, clf = result["cae_summary"], result["clf_summary"]
    _print_step("cae", cae)
    _print_step("clf", clf)
    _print_composed(result["encoder_id"], result["classifier_id"], result["test_accuracy"])
    summary = {
        "encoder_id": result["encoder_id"],
        "classifier_id": result["classifier_id"],
        "cae_networks_generated": cae.networks_generated,
        "cae_best_reconstruction_accuracy": cae.best_metric,
        "clf_networks_generated": clf.networks_generated,
        "clf_best_validation_accuracy": clf.best_metric,
        "test_accuracy": result["test_accuracy"],
    }
    with replacing(Path(cfg.report_dir) / "summary.json") as fh:
        fh.write(json.dumps(summary, indent=2, allow_nan=False) + "\n")


def cmd_report(cfg, args):
    from .pipeline import STEP_KINDS, export_history, step_population_root

    out = Path(cfg.report_dir) / f"history_{args.step}.csv"
    rows = export_history(step_population_root(cfg, STEP_KINDS[args.step]), out)
    print(f"wrote {len(rows)} rows to {out}")


def build_parser():
    from .pipeline import STEP_KINDS

    parser = argparse.ArgumentParser(prog="evocnn")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, cmd, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="key=value run config file")
        p.set_defaults(cmd=cmd)
        return p

    verb("evolve-cae", cmd_evolve_cae, "step 1: evolve autoencoders")
    verb("encode", cmd_encode, "step 2: pick the TOPSIS-best CAE and cache encoded data")
    verb("evolve-clf", cmd_evolve_clf, "step 3: evolve classifiers on the encoded data")
    verb("compose", cmd_compose, "step 4: compose encoder + classifier")
    verb("run", cmd_run, "steps 1-4 in one call, then summary.json")

    p = verb("report", cmd_report, "export the evolution history CSV")
    p.add_argument("--step", choices=list(STEP_KINDS), default="cae")

    p = verb("worker", cmd_worker, "internal: run one worker process")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--kind", required=True, choices=list(STEP_KINDS.values()))

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.cmd(load_config(args.config), args)


if __name__ == "__main__":
    main()
