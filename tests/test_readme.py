"""The README's Python examples and its API list, held to the package.

Run as a script, it executes the Quick start block against whichever
``darktrio`` the interpreter imports, e.g. an installed one:

    cd /tmp && python /path/to/checkout/tests/test_readme.py
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title):
    """The README's text under ``## title``, up to the next ``## `` heading."""
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def run_quick_start():
    """Execute the Quick start block; return its namespace."""
    code = re.search(r"```python\n(.*?)```", _section("Quick start (Python)"), re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} Quick start", "exec"), namespace)
    return namespace


def test_quick_start_runs_as_printed():
    import darktrio

    ns = run_quick_start()
    assert ns["dark"].energy == 0.95 and ns["spec"].e[1] == 0.95
    assert darktrio.classify(ns["state"]).variant is darktrio.StateClass.DARK
    assert abs(darktrio.b_occupation(ns["p"], ns["dark"].energy)) < 1e-15
    assert ns["report"].max_mismatch == 0.0


def test_api_list_matches_the_package():
    import darktrio

    listed = [name for line in _section("Public API").splitlines() if line.startswith(("- ", "  "))
              for name in re.findall(r"`(\w+)`", line.split(":", 1)[-1])]
    public = {name for name in dir(darktrio) if not name.startswith("_")} - {"cli"}
    assert len(listed) == len(set(listed))
    assert set(listed) == public
    stated = re.search(r"binds these (\d+) public names", _section("Public API")).group(1)
    assert int(stated) == len(public)



def test_known_defects_table_lists_every_logged_defect():
    # every FOUND: and MENDED: line of CHANGES.md, once, marked mended exactly when
    # it is MENDED:; each test the table names is in tests/test_defects.py
    changes = README.with_name("CHANGES.md").read_text().splitlines()
    table = _section("Tests and acceptance suite").split("\n### Known defects\n", 1)[1]
    rows = [row.split("|")[1:-1] for row in table.splitlines() if re.match(r"\| \d", row)]
    listed = [(int(n), status.strip().startswith("mended"))
              for lines, _, status in rows for n in lines.split(",")]
    assert sorted(listed) == [(n, line.startswith("MENDED:"))
                              for n, line in enumerate(changes, 1)
                              if line.startswith(("FOUND:", "MENDED:"))]
    defects = (README.parent / "tests" / "test_defects.py").read_text()
    for name in re.findall(r"`(test_\w+)`", table):
        assert f"\ndef {name}(" in defects, name

if __name__ == "__main__":
    import darktrio

    run_quick_start()
    print(f"README Quick start ran against {darktrio.__file__}")
