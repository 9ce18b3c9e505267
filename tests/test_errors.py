"""The exception hierarchy stays one class per decision a caller makes:
every class is raised somewhere and documented in the README's Errors table."""

import re
from pathlib import Path

from aelcert import errors

ROOT = Path(__file__).resolve().parents[1]
CLASSES = {name: obj for name, obj in vars(errors).items()
           if isinstance(obj, type) and obj.__module__ == errors.__name__}


def test_every_error_class_is_raised_in_the_package():
    source = "\n".join(p.read_text() for p in (ROOT / "src" / "aelcert").glob("*.py"))
    raised = {CLASSES[name] for name in re.findall(r"\braise (\w+)\(", source)
              if name in CLASSES}
    # a base class is raised through its subclasses
    unraised = [name for name, cls in CLASSES.items()
                if not any(issubclass(r, cls) for r in raised)]
    assert unraised == []
    assert all(issubclass(cls, errors.AelcertError) for cls in CLASSES.values())


def test_every_error_class_has_one_row_in_the_readme_table():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Errors"):]
    section = section[:section.index("\n## ")]
    rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    assert sorted(rows) == sorted(CLASSES)
