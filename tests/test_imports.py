"""What a process loads: the label/graph/routing core at import, the rest on first use."""

import subprocess
import sys

import pytest

import kochnet
from kochnet import analytics, centrality, cli, electrical, verify

CORE = ["kochnet", "kochnet._kernels", "kochnet.errors", "kochnet.graph", "kochnet.labels", "kochnet.routing"]
LAZY = ("analytics", "centrality", "electrical", "verify")


def _loaded(code: str) -> list[str]:
    """The kochnet modules a fresh interpreter holds after running ``code``, sorted."""
    script = (
        "import contextlib, io, sys\n"
        f"{code}\n"
        "print(' '.join(sorted(n for n in sys.modules if n.split('.')[0] in ('kochnet', 'fractions'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _after_main(argv: list[str]) -> list[str]:
    return _loaded(
        "from kochnet.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )


@pytest.mark.parametrize("statement, extra", [("import kochnet", []), ("import kochnet.cli", ["kochnet.cli"])])
def test_import_loads_the_core_only(statement, extra):
    assert _loaded(statement) == sorted(CORE + extra)  # fractions neither


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--m", "2", "--t", "3"],
        ["generate", "--m", "1", "--t", "2", "--format", "json"],
        ["route", "--m", "2", "--t", "3", "2011.5", "1000.3"],
        ["decode", "--m", "2", "--t", "3", "2011.5"],
    ],
)
def test_build_and_label_commands_load_no_lazy_module(argv):
    assert not {f"kochnet.{name}" for name in LAZY} & set(_after_main(argv))


@pytest.mark.parametrize(
    "argv, module",
    [
        (["stats", "--m", "1", "--t", "2"], "analytics"),
        (["betweenness", "--m", "1", "--t", "2"], "centrality"),
        (["electrical", "--m", "1", "--t", "2", "--source", "#1", "--target", "#5"], "electrical"),
        (["verify", "--m", "1", "--t", "2", "--suite", "labels"], "verify"),
    ],
)
def test_analysis_commands_load_the_module_they_run(argv, module):
    assert f"kochnet.{module}" in _after_main(argv)


def test_lazy_name_loads_its_module_on_first_access():
    # electrical imports centrality for its betweenness counts, and centrality imports fractions
    want = CORE + ["fractions", "kochnet.centrality", "kochnet.electrical"]
    assert _loaded("import kochnet\nkochnet.solve") == sorted(want)


@pytest.mark.parametrize("module", LAZY)
def test_lazy_module_resolves_as_an_attribute(module):
    # after a bare `import kochnet`, as when the package imported them eagerly
    code = f"import kochnet\nassert kochnet.{module} is sys.modules['kochnet.{module}']"
    assert f"kochnet.{module}" in _loaded(code)


@pytest.mark.parametrize("name", kochnet.__all__)
def test_every_public_name_is_its_modules_object(name):
    value = getattr(kochnet, name)
    assert name in vars(kochnet)  # a lazy name is kept once resolved
    home = sys.modules[value.__module__]
    assert getattr(home, name) is value
    assert (name in kochnet._LAZY) == (home in (analytics, centrality, electrical))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from kochnet import *", namespace)
    assert all(namespace[name] is getattr(kochnet, name) for name in kochnet.__all__)


def test_dir_lists_every_public_name_and_lazy_module():
    assert {*kochnet.__all__, *LAZY} <= set(dir(kochnet))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'kochnet' has no attribute 'no_such_name'"):
        kochnet.no_such_name


def test_suite_names_have_one_source():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert suite.choices == ("all", *verify.SUITE_ORDER)
    assert verify.SUITE_ORDER is kochnet._VERIFY_SUITES


def test_verify_route_is_routing_route_as_it_stands(monkeypatch):
    # a wrapper put on routing.route after verify loaded shows through verify.route, and goes
    def stand_in(*args):
        raise AssertionError("not called")

    assert verify.route is kochnet.routing.route
    monkeypatch.setattr(kochnet.routing, "route", stand_in)
    assert verify.route is stand_in
    monkeypatch.undo()
    assert verify.route is kochnet.route
