#!/usr/bin/env python3
"""Run the full two-step pipeline at desk scale on the synthetic dataset.

Evolves autoencoders, picks one by TOPSIS and caches the encoded splits,
evolves classifiers on the encoded data, then composes encoder +
classifier and reports test accuracy. Everything lands under --workdir.

Example:
    python3 scripts/run_desk_pipeline.py --workdir /tmp/desk_run --rounds 40
"""

import argparse
import json
from pathlib import Path

from evocnn.config import RunConfig, save_config
from evocnn.pipeline import run_full_pipeline


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True, help="output directory for this run")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=40,
                        help="tournament rounds per worker and step")
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--classes", type=int, default=4)
    parser.add_argument("--count", type=int, default=480, help="synthetic sample count")
    parser.add_argument("--size", type=int, default=16, help="synthetic image side length")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = RunConfig(
        population_root=str(workdir / "population"),
        report_dir=str(workdir / "reports"),
        data_source="synth",
        n_classes=args.classes,
        synth_count=args.count,
        synth_size=args.size,
        workers=args.workers,
        seeds_per_worker=2,
        round_budget=args.rounds,
        epochs=args.epochs,
        batch_size=30,
        master_seed=args.seed,
    ).check()
    save_config(cfg, workdir / "run.cfg")

    result = run_full_pipeline(cfg)
    summary = {
        "encoder_id": result["encoder_id"],
        "classifier_id": result["classifier_id"],
        "cae_networks_generated": result["cae_summary"].networks_generated,
        "cae_best_reconstruction_accuracy": result["cae_summary"].best_metric,
        "clf_networks_generated": result["clf_summary"].networks_generated,
        "clf_best_validation_accuracy": result["clf_summary"].best_metric,
        "test_accuracy": result["test_accuracy"],
    }
    (workdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    for key, value in summary.items():
        print(f"{key}: {value}")


if __name__ == "__main__":
    main()
