"""Module boundaries of the package, read from its source with `ast`: no
module but `hjb` reaches into `hjb` through an underscore name, and no
module but `geometry` touches a grid's cache except through
`Grid.cached`."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "hjblab")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _tree(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def _private_hjb_names(tree):
    """Underscore names the module takes from `hjb`: imported by name, or
    read as attributes of a name bound to the `hjb` module."""
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")
            for alias in node.names:
                if source[-1:] == ["hjb"] and alias.name.startswith("_"):
                    found.append(alias.name)
                if alias.name == "hjb" and source[-1:] != ["hjb"]:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name.endswith(".hjb") and a.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
        ):
            found.append(node.attr)
    return found


def test_the_scan_sees_every_form_of_reaching_into_hjb():
    code = "from .hjb import _ops_for, solve\nfrom . import hjb as h\nh._inverter_for(g)\n"
    assert _private_hjb_names(ast.parse(code)) == ["_ops_for", "_inverter_for"]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "hjb.py"])
def test_no_module_but_hjb_uses_a_private_hjb_name(name):
    assert _private_hjb_names(_tree(name)) == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "geometry.py"])
def test_no_module_but_geometry_touches_a_grid_cache(name):
    touched = [node.lineno for node in ast.walk(_tree(name)) if isinstance(node, ast.Attribute) and node.attr == "_cache"]
    assert touched == []
