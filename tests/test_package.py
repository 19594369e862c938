"""The package's public names, and what a cold process imports.

``blowring/__init__.py`` holds one table, public name -> defining module, and
resolves each name on first use, so a one-off ``compute`` call loads only the
modules its task runs. The tier-1 run imports every module, so the import
checks run in a fresh interpreter each.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import blowring

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUBMODULES = {p.stem for p in (SRC / "blowring").glob("*.py")} - {"__init__"}

PUBLIC = [
    "BlockOrder", "BlowupAlgebra", "Config", "FusionExpansion", "GaussianRational", "GrevLex",
    "GroupAction", "HeisenbergElement", "Ideal", "KRing", "LaurentPoly", "ParametricMatrix",
    "PoissonChart", "PolyRing", "PresentedRing", "Report", "ResourceLimitError", "RingFraction",
    "RingMap", "RootDatum", "SliceModel", "Substitution", "VClass", "blowup_match",
    "bracket_closure_check", "buchberger", "build_blowup", "commutant_basis", "consistency_sweep",
    "denis_check", "discriminant", "format_poly", "fusion_table", "gauss", "invariant_generators",
    "isogeny_invariants", "kernel_of_map", "kostant_slice", "membership", "model", "normal_form",
    "parse_fraction", "parse_poly", "poisson_from_q", "run_suite", "sl2", "standard_chart",
    "subring_filter", "torus_chart", "unit_comparison", "v_dictionary", "verify_parametrization",
]


class TestExportTable:
    def test_all_and_dir_list_the_public_names(self):
        assert len(PUBLIC) == 52
        assert blowring.__all__ == PUBLIC
        assert {n for n in dir(blowring) if not n.startswith("_")} - SUBMODULES == set(PUBLIC)

    @pytest.mark.parametrize("name", PUBLIC)
    def test_entry_is_the_defining_modules_object(self, name):
        module = importlib.import_module(f"blowring.{blowring._HOME[name]}")
        assert getattr(blowring, name) is getattr(module, name)
        assert getattr(module, name).__module__ == module.__name__

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            blowring.no_such_name  # noqa: B018
        assert not hasattr(blowring, "verify_all")

    def test_readme_library_example_prints_its_documented_lines(self, capsys):
        readme = (ROOT / "README.md").read_text()
        code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        documented = [c.split(":")[0].strip() for c in re.findall(r"^print\(.*\)\s*#\s*(.*)$", code, re.M)]
        exec(compile(code, "README.md", "exec"), {})
        assert documented == ["True y^-1*z*T", "True", "a*b*c - b^2 - c^2 - 1"]
        assert capsys.readouterr().out.splitlines() == documented


# run in a fresh interpreter with stdout silenced; prints the blowring submodules then loaded
PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps(sorted(m.partition(".")[2] for m in sys.modules if m.startswith("blowring."))))
"""

# the modules that no membership, bracket or closure call runs
UNREAD = {"verify", "kring", "fusion", "heisenberg", "homology"}


def _loaded(statement: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE, statement], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def _cli(*argv: str) -> str:
    return f"from blowring.cli import main; assert main({list(argv)!r}) == 0"


@pytest.mark.parametrize(
    "statement",
    [
        "import blowring.cli",
        _cli("compute", "membership", "--flavor", "GG", "(y^2-1)/(z^2-1)"),
        _cli("compute", "bracket", "--flavor", "GG", "y + y^-1", "z + z^-1"),
        _cli("compute", "closure", "--flavor", "gG"),
    ],
    ids=["import", "membership", "bracket", "closure"],
)
def test_compute_loads_none_of_the_unread_modules(statement):
    loaded = _loaded(statement)
    assert not loaded & UNREAD
    # the parser's --model choices read centralizer.MODEL_NAMES
    assert "centralizer" in loaded


def test_a_public_name_loads_its_module_only():
    loaded = _loaded("from blowring import membership, blowup; assert blowup.membership is membership")
    assert "blowup" in loaded
    assert not loaded & UNREAD


def test_verify_all_loads_every_suite_module():
    assert UNREAD <= _loaded(_cli("verify", "all"))
