"""README.md's examples run as written, and it documents the public surface.

The fenced ``python`` blocks are executed; every ``cnnergy ...`` line of the
``sh`` blocks is run through ``cli.main``, in order, next to the inputs they
name; every ``__all__`` name is either shown in README code or used by
another module of the package; every public property and method of an
exported class is named in README or read by package code outside that
class; every field of a bundled table's record is read by package code
outside that record's class; and the layer lines quoted for a ``resblock``
are the ones the parser reads.
"""
import ast
import inspect
import re
import shlex
from pathlib import Path

import pytest

import cnnergy
from cnnergy import arch
from cnnergy.cli import main
from cnnergy.energymodel import DeviceProfile, MeasurementRecord, TrainingPlan
from cnnergy.tuner import AccuracyRecord

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
ARCH_EXAMPLE = re.search(r"\*\*Architecture text\*\*.*?^```\n(.*?)^```", TEXT,
                         flags=re.MULTILINE | re.DOTALL).group(1)
BLOCK_QUOTES = re.findall(r"With `convs=(\d)`.*?^```text\n(.*?)^```", TEXT,
                          flags=re.MULTILINE | re.DOTALL)
COMMANDS = [shlex.split(line, comments=True)[1:]
            for block in SH_BLOCKS
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("cnnergy ")]
#: Every word of README's code blocks and inline code spans.
DOCUMENTED = set(re.findall(r"\w+", "\n".join(
    re.findall(r"^```\w*\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
    + re.findall(r"`([^`\n]+)`", TEXT))))
EXPORTED_CLASSES = [value for value in (getattr(cnnergy, name) for name in cnnergy.__all__)
                    if inspect.isclass(value)]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_quotes_the_lines_a_resblock_stands_for():
    assert {int(convs): tuple(body.splitlines()) for convs, body in BLOCK_QUOTES} == (
        arch._BLOCK_LINES)


def test_readme_shell_examples_run(tmp_path, monkeypatch, capsys):
    assert {argv[0] for argv in COMMANDS} == {
        "analyze", "integrate", "gen-trace", "calibrate", "predict", "rank"}
    monkeypatch.chdir(tmp_path)
    Path("mynet.net").write_text(ARCH_EXAMPLE, encoding="utf-8")
    gen_trace = next(argv for argv in COMMANDS if argv[0] == "gen-trace")
    assert main(gen_trace + ["--output", "trace.csv"]) == 0
    Path("regions.csv").write_text("id,label,t_start_s,t_end_s\nr1,forward,0.5,2.5\n",
                                   encoding="utf-8")
    for argv in COMMANDS:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def _names_used_across_modules() -> set[str]:
    """Names a package module imports from a sibling (``from .m import x``)
    or reads off one (``m.x`` after ``from . import m``)."""
    used = set()
    for path in Path(cnnergy.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings.add(alias.asname or alias.name)
                    else:
                        used.add(alias.name)
        used |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in siblings}
    return used


def test_every_export_is_documented_or_used():
    used = _names_used_across_modules()
    assert [name for name in cnnergy.__all__
            if name not in DOCUMENTED and name not in used] == []


def _attributes_read_outside(cls) -> set[str]:
    """Attribute names that a package module reads (``x.name``) outside the
    body of ``cls``."""
    read = set()
    for path in Path(cnnergy.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = set()
        if cls.__module__ == f"cnnergy.{path.stem}":
            body = next(node for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name == cls.__name__)
            own = {id(node) for node in ast.walk(body)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and id(node) not in own}
    return read


@pytest.mark.parametrize("record", [DeviceProfile, TrainingPlan, MeasurementRecord,
                                    AccuracyRecord], ids=lambda record: record.__name__)
def test_every_bundled_record_field_is_read(record):
    # a bundled column that no code reads is parsed and checked for nothing
    read = _attributes_read_outside(record)
    assert [name for name in record._fields if name not in read] == []


def _public_members(cls) -> list[str]:
    """The properties and methods, public by name, that ``cls`` and its
    package bases define (a record's fields are neither)."""
    return sorted({name for base in cls.__mro__ if base.__module__.startswith("cnnergy.")
                   for name, value in vars(base).items() if not name.startswith("_")
                   and (inspect.isfunction(value)
                        or isinstance(value, (property, classmethod, staticmethod)))})


@pytest.mark.parametrize("cls", EXPORTED_CLASSES, ids=lambda cls: cls.__name__)
def test_every_public_member_of_an_export_is_documented_or_read(cls):
    # a property that only tests read is surface that nothing uses or explains
    read = _attributes_read_outside(cls)
    assert [name for name in _public_members(cls)
            if name not in DOCUMENTED and name not in read] == []
