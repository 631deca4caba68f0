"""The README's examples run against the current API."""
import json
import re
from pathlib import Path

from exitlab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the given section heading."""
    section = README[README.index(heading):]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {lang} block after {heading!r}"
    return match.group(1)


def test_quick_start_library_block_runs():
    exec(compile(fenced_block("## Quick start (library)", "python"), "README.md", "exec"), {})


def test_command_line_config_runs(tmp_path):
    cfg = json.loads(fenced_block("## Command line", "json"))
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    for command in cfg["commands"]:
        assert json.loads((out / f"{command}.json").read_text()).get("passed", True) is True
    assert json.loads((out / "run_report.json").read_text())["passed"] is True
