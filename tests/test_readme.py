"""The README's config block and library example stay true to the code."""

import re
from pathlib import Path

from ceofdm.expconfig import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_config_block_is_the_defaults(tmp_path):
    # verbatim, its inline "; ..." comments included
    (block,) = fenced("ini")
    ini = tmp_path / "readme.ini"
    ini.write_text(block, encoding="utf-8")
    assert ExperimentConfig.from_sources(ini) == ExperimentConfig.from_sources()


def test_library_example_runs():
    (example,) = fenced("python")
    exec(compile(example, str(README), "exec"), {})
