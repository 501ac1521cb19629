"""The README's CLI block and configuration table name what the program has."""

import argparse
import re
from dataclasses import fields
from pathlib import Path

from evocnn.cli import build_parser
from evocnn.config import RunConfig, load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(heading):
    """The README text from `## heading` to the next `## ` heading."""
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_cli_block_lists_the_public_verbs():
    block = section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("evocnn ")}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    # `worker` is the internal verb run_step launches per worker process
    assert documented == set(sub.choices) - {"worker"}


def test_config_table_lists_every_field():
    rows = [line for line in section("Configuration").splitlines() if line.startswith("| `")]
    documented = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(documented) == sorted(f.name for f in fields(RunConfig))


def test_quick_start_config_loads(tmp_path):
    text = section("Quick start")
    path = tmp_path / "run.cfg"
    path.write_text(text.split("```ini\n", 1)[1].split("```", 1)[0])
    # load_config refuses an unknown key and a config that cannot run
    assert load_config(path).data_source == "synth"
    assert "evocnn run --config run.cfg" in text
