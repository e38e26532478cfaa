import contextlib
import importlib
import inspect
import io
import re
import sys
import warnings
from pathlib import Path

import pytest

import prmimo

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# The benchmark's tracer sites whose attribute is already gone from the
# namespace it is looked up in; each times nothing and reports a 0.
DEAD_SITES = {
    "montecarlo.run_trial",
    "channel.condition_profile",
    "channel.sample_cluster_paths",
    "channel.assemble_physical",
    "cfpa.modified_subchannels",
    "cfpa.assemble_pattern_channel",
    "sof.subchannel_gram",
    "sof.receiver_factor_matrix",
    "sof.correlation_indicator",
    "sof.eig_sym",
    "numerics.logdet_capacity_kernel",
}


def test_every_public_name_resolves_once():
    assert len(set(prmimo.__all__)) == len(prmimo.__all__)
    for name in prmimo.__all__:
        assert hasattr(prmimo, name), name


def test_public_attributes_are_the_public_names():
    # A name imported into the package but left out of __all__ is public
    # all the same; the submodules and __version__ are not names of it.
    public = {
        name
        for name, value in vars(prmimo).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(prmimo.__all__)


def test_public_names_do_not_grow():
    # A ratchet on the size of the public API: lower it as names go.
    assert len(prmimo.__all__) <= 19


def test_source_lines_do_not_grow():
    # A ratchet on the size of the package: lower it as lines go.
    sources = Path(prmimo.__file__).parent.glob("*.py")
    assert sum(len(path.read_text().splitlines()) for path in sources) <= 1548


def test_readme_library_example_runs():
    # The python block under "## Library example", run as it stands.
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        exec(compile(code, "README.md", "exec"), {})
    assert "->" in output.getvalue()


def test_the_packaged_version_is_the_package_version():
    # pyproject.toml reads its version off prmimo.__version__, which
    # run.meta records; there is no second copy to bump.
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools' notes on its own config support
        config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml", expand=True)
    assert config["project"]["version"] == prmimo.__version__


def test_no_live_benchmark_tracer_site_goes_dead(monkeypatch):
    # bench/campaign.py wraps each site by looking its attribute up in a
    # module's namespace; one that renames or drops that name silently
    # turns the site's per-layer figure into a 0. Imported without
    # writing bytecode under bench/, and sys.path restored afterwards.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    try:
        sites = importlib.import_module("campaign").SITES
    finally:
        for name in ("campaign", "spans", "workloads"):
            sys.modules.pop(name, None)
    dead = {site for site, (module, name) in sites.items() if not hasattr(module, name)}
    assert dead <= DEAD_SITES, sorted(dead - DEAD_SITES)
