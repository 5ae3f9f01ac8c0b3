"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from qpcontrol.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tests.yml"


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the ``## heading`` section."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n") :]
    start = section.index(f"```{language}\n") + len(f"```{language}\n")
    return section[start : section.index("```", start)]


def cli_examples() -> list:
    """Each command of the "Command line" block, with the files its comment
    names, as a test parameter named after its ``--out`` directory."""
    examples, files = [], []
    for line in fenced_block("Command line", "sh").replace("\\\n", " ").splitlines():
        if line.startswith("#"):
            files += re.findall(r"[\w.]+\.(?:csv|json|txt)\b", line)
        elif line.strip():
            words = shlex.split(line)
            out = words[words.index("--out") + 1]
            examples.append(pytest.param(words, files, id=out))
            files = []
    return examples


@pytest.mark.parametrize("words, files", cli_examples())
def test_command_line_example_writes_the_files_it_names(tmp_path, words, files):
    assert words[0] == "qpcontrol" and files
    argv = words[1:]
    at = argv.index("--out") + 1
    out = argv[at] = tmp_path / argv[at]
    assert main([str(arg) for arg in argv]) == 0
    assert sorted(files) == sorted(path.name for path in out.iterdir())


def test_library_use_example_runs(capsys):
    exec(compile(fenced_block("Library use", "python"), str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("MetricsReport(avg_psnr=")


def test_the_thorough_profile_command_is_the_workflows():
    profile = "--hypothesis-profile=thorough"
    (documented,) = re.findall(
        rf"`([^`]*{profile})`", README.read_text(encoding="utf-8")
    )
    (run,) = [
        line.split("run:", 1)[1].strip()
        for line in WORKFLOW.read_text(encoding="utf-8").splitlines()
        if profile in line
    ]
    assert documented == run


def test_every_file_a_workflow_step_runs_exists():
    # So renaming a test module or bench/run.py fails here, not only on CI.
    runs = "\n".join(
        line.split("run:", 1)[1]
        for line in WORKFLOW.read_text(encoding="utf-8").splitlines()
        if "run:" in line
    )
    paths = re.findall(r"\b(?:tests|bench)/[\w/]+\.py\b", runs)
    assert paths  # the thorough step and the bench-smoke job name files
    assert [path for path in paths if not (README.parent / path).is_file()] == []
