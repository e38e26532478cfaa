"""Every input rule, through every entry point that accepts it.

Each rule is stated once, by the module that owns it: the cluster rules,
the seed rule, the request rules and the grid's rules all in
``montecarlo`` (``_check_clusters``, ``_check_request``,
``_check_finite_grid``, and ``Scenario`` itself for the seed, the trial
count, the grid's shape, type, size and linear range and the geometry's
type), the array's count and spacing rules in ``channel.ArrayGeometry``,
the integer rule of the counts and the seed in
``numerics.require_integer``, the real-number rule of the angle spread
and the spacings in ``numerics.require_real``, and the grid text's form
in ``cli.parse_snr_grid``.
Whichever door a bad value comes in by, the same check raises it with
the same message; the CLI adds only its usage-error prefix and, for a
config-file value, the file line. It exits 1 before any output directory
exists.
"""

import warnings

import numpy as np
import pytest

from prmimo import ArrayGeometry, InvalidInputError, Scenario, run_campaign
from prmimo.cli import UsageError, main, parse_config
from prmimo.montecarlo import ILL_MIN_CLUSTERS, SCHEMES

GEOMETRY = ArrayGeometry(n_t=8, n_r=2)

# Valid settings, which each rule's case breaks in one value.
SETTINGS = {
    "geometry": GEOMETRY,
    "n_cl": 10,
    "n_ray": 8,
    "angle_spread": np.deg2rad(3.0),
    "condition": "ill",
    "snr_db": np.array([0.0, 10.0]),
    "trials": 2,
    "master_seed": 12345,
    # The array as the CLI builds it by default: one spacing at both ends.
    "n_t": 32,
    "n_r": 8,
    "spacing": 0.5,
    "schemes": SCHEMES,
    "workers": 1,
    "safeguard": False,
}

# The library doors, each called with the settings.
LIBRARY = {
    "ArrayGeometry": lambda s: ArrayGeometry(
        s["n_t"], s["n_r"], spacing_t=s["spacing"], spacing_r=s["spacing"]
    ),
    "Scenario": lambda s: Scenario(
        s["geometry"],
        n_cl=s["n_cl"],
        n_ray=s["n_ray"],
        condition=s["condition"],
        angle_spread=s["angle_spread"],
        snr_db=s["snr_db"],
        trials=s["trials"],
        master_seed=s["master_seed"],
    ),
    "run_campaign": lambda s: run_campaign(
        Scenario(GEOMETRY, trials=2),
        schemes=s["schemes"],
        workers=s["workers"],
        safeguard=s["safeguard"],
    ),
}

# The checks the CLI runs on a key's text as it reads it: a config-file
# line that fails one names its line before the message, not after it.
# A rule of the same key that ``Scenario`` checks names it after.
READ_OWNERS = ("parse_snr_grid", "_check_finite_grid")

# One row per broken rule: its message, its owning check, the CLI key and
# text that break it, the same value as the library takes it, and the
# library doors that accept it. Both CLI doors (a flag and a config-file
# line) accept every rule with a CLI text; one without (text None) can
# only come in by a library door.
RULES = [
    ("need n_t >= n_r >= 1, got n_t=32, n_r=0", "__post_init__",
     "nr", "0", {"n_r": 0}, ("ArrayGeometry",)),
    ("need n_t >= n_r >= 1, got n_t=4, n_r=8", "__post_init__",
     "nt", "4", {"n_t": 4}, ("ArrayGeometry",)),
    # The CLI's counts are read as ints, so these come in by the library only.
    ("n_t must be an integer, got 2.5", "require_integer",
     "n_t", None, {"n_t": 2.5}, ("ArrayGeometry",)),
    ("n_r must be an integer, got True", "require_integer",
     "n_r", None, {"n_r": True}, ("ArrayGeometry",)),
    ("spacing_t must be positive", "__post_init__",
     "spacing", "0", {"spacing": 0.0}, ("ArrayGeometry",)),
    ("spacing_t must be finite", "require_real",
     "spacing", "nan", {"spacing": np.nan}, ("ArrayGeometry",)),
    ("spacing_t must be finite", "require_real",
     "spacing", "inf", {"spacing": np.inf}, ("ArrayGeometry",)),
    ("spacing_t is too large: its phase 4*pi*d*(n-1) overflows", "__post_init__",
     "spacing", "1e308", {"spacing": 1e308}, ("ArrayGeometry",)),
    # 4*pi*6e305*31 overflows at the 32 transmit antennas, not at the 8 receive ones.
    ("spacing_t is too large: its phase 4*pi*d*(n-1) overflows", "__post_init__",
     "spacing", "6e305", {"spacing": 6e305}, ("ArrayGeometry",)),
    ("spacing_t must be a real number, got True", "require_real",
     "spacing", None, {"spacing": True}, ("ArrayGeometry",)),
    ("spacing_t must be a real number, got '0.5'", "require_real",
     "spacing", None, {"spacing": "0.5"}, ("ArrayGeometry",)),
    ("spacing_t must be a real number, got [0.5, 0.5]", "require_real",
     "spacing", None, {"spacing": [0.5, 0.5]}, ("ArrayGeometry",)),
    ("cluster and ray counts must be >= 1", "_check_clusters",
     "ncl", "0", {"n_cl": 0}, ("Scenario",)),
    ("cluster and ray counts must be >= 1", "_check_clusters",
     "nray", "0", {"n_ray": 0}, ("Scenario",)),
    ("angle spread must be finite", "require_real",
     "xi_deg", "nan", {"angle_spread": np.nan}, ("Scenario",)),
    ("angle spread must be finite", "require_real",
     "xi_deg", "inf", {"angle_spread": np.inf}, ("Scenario",)),
    ("angle spread must be a real number, got True", "require_real",
     "angle_spread", None, {"angle_spread": True}, ("Scenario",)),
    ("angle spread must be a real number, got '0.1'", "require_real",
     "angle_spread", None, {"angle_spread": "0.1"}, ("Scenario",)),
    ("angle spread must be a real number, got 1j", "require_real",
     "angle_spread", None, {"angle_spread": 1j}, ("Scenario",)),
    ("angle spread must be nonnegative", "_check_clusters",
     "xi_deg", "-1", {"angle_spread": np.deg2rad(-1.0)}, ("Scenario",)),
    # The largest finite --xi-deg is about 3.1e306 rad, too small to break it.
    ("angle spread is too large: its ray range 2*sqrt(3)*spread overflows", "_check_clusters",
     "angle_spread", None, {"angle_spread": 1e308}, ("Scenario",)),
    ("unknown condition 'bad'", "_check_clusters",
     "condition", "bad", {"condition": "bad"}, ("Scenario",)),
    (f"ill-conditioned profile needs n_cl >= {ILL_MIN_CLUSTERS}", "_check_clusters",
     "ncl", str(ILL_MIN_CLUSTERS - 1), {"n_cl": ILL_MIN_CLUSTERS - 1}, ("Scenario",)),
    ("master seed must be >= 0, got -1", "__post_init__",
     "seed", "-1", {"master_seed": -1}, ("Scenario",)),
    # The CLI's seed is read as an int, so these come in by the library only.
    ("master_seed must be an integer, got 1.5", "require_integer",
     "master_seed", None, {"master_seed": 1.5}, ("Scenario",)),
    ("master_seed must be an integer, got False", "require_integer",
     "master_seed", None, {"master_seed": False}, ("Scenario",)),
    ("bad snr grid 'a:1:2': could not convert string to float: 'a'", "parse_snr_grid",
     "snr_db", "a:1:2", {}, ()),
    ("snr grid values must be finite", "_check_finite_grid",
     "snr_db", "nan:1:5", {"snr_db": np.array([np.nan])}, ("Scenario",)),
    ("snr grid values must be finite", "_check_finite_grid",
     "snr_db", "0:1:inf", {"snr_db": np.array([0.0, np.inf])}, ("Scenario",)),
    ("snr grid values must be finite", "_check_finite_grid",
     "snr_db", "-inf:1:5", {"snr_db": np.array([-np.inf, 0.0])}, ("Scenario",)),
    ("snr grid values must be finite", "_check_finite_grid",
     "snr_db", "0:inf:5", {"snr_db": np.array([0.0, np.inf])}, ("Scenario",)),
    # Each point is finite in dB, but 10^(dB / 10) overflows to inf or underflows to 0.
    ("snr grid overflows or underflows in linear units", "__post_init__",
     "snr_db", "0:1000:4000", {"snr_db": np.arange(0.0, 4001.0, 1000.0)}, ("Scenario",)),
    ("snr grid overflows or underflows in linear units", "__post_init__",
     "snr_db", "-4000:1000:0", {"snr_db": np.arange(-4000.0, 1.0, 1000.0)}, ("Scenario",)),
    # The CLI's grid has at least one point.
    ("snr grid must be nonempty", "__post_init__",
     "snr_db", None, {"snr_db": []}, ("Scenario",)),
    ("snr grid must be one-dimensional", "__post_init__",
     "snr_db", None, {"snr_db": [[0.0, 10.0], [5.0, 20.0]]}, ("Scenario",)),
    # numpy's own ValueError escaped for a ragged grid.
    ("snr grid must be one-dimensional", "__post_init__",
     "snr_db", None, {"snr_db": [[1, 2], [3]]}, ("Scenario",)),
    ("snr grid must be real", "__post_init__",
     "snr_db", None, {"snr_db": [10 + 5j]}, ("Scenario",)),
    ("snr grid must be real", "__post_init__",
     "snr_db", None, {"snr_db": "10"}, ("Scenario",)),
    ("snr grid must be real", "__post_init__",
     "snr_db", None, {"snr_db": ["1", "2"]}, ("Scenario",)),
    ("snr grid must be real", "__post_init__",
     "snr_db", None, {"snr_db": [True, False]}, ("Scenario",)),
    ("geometry must be an ArrayGeometry, got (32, 8)", "__post_init__",
     "geometry", None, {"geometry": (32, 8)}, ("Scenario",)),
    ("trials must be >= 1", "__post_init__",
     "trials", "0", {"trials": 0}, ("Scenario",)),
    # The CLI splits its text into names, so this comes in by the library only.
    ("schemes must be a collection of names, not a string: 'physical'", "_check_request",
     "schemes", None, {"schemes": "physical"}, ("run_campaign",)),
    ("at least one scheme is required", "_check_request",
     "schemes", " , ", {"schemes": ()}, ("run_campaign",)),
    ("unknown schemes: ['psychic']", "_check_request",
     "schemes", "physical,psychic", {"schemes": ("physical", "psychic")}, ("run_campaign",)),
    ("repeated schemes: ['physical']", "_check_request",
     "schemes", "physical,physical", {"schemes": ("physical", "physical")}, ("run_campaign",)),
    ("repeated schemes: ['ideal', 'pattern']", "_check_request",
     "schemes", "pattern,ideal,physical,ideal,pattern",
     {"schemes": ("pattern", "ideal", "physical", "ideal", "pattern")}, ("run_campaign",)),
    ("workers must be >= 1, got 0", "_check_request",
     "workers", "0", {"workers": 0}, ("run_campaign",)),
    ("safeguard must be True or False, got 'false'", "_check_request",
     "safeguard", None, {"safeguard": "false"}, ("run_campaign",)),
    ("safeguard must be True or False, got array([ True, False])", "_check_request",
     "safeguard", None, {"safeguard": np.array([True, False])}, ("run_campaign",)),
]


def _label(value):
    # A library-only value in a case id: its repr if it is a scalar, a
    # ragged list or a list of strings or bools, else its shape.
    try:
        array = np.asarray(value)
    except ValueError:  # ragged
        return repr(value)
    if array.ndim == 0 or isinstance(value, list) and array.dtype.kind in "bU":
        return repr(value)
    return array.shape


CASES = [
    pytest.param(
        door, message, owner, key, text, value,
        id=f"{key}={_label(value[key]) if text is None else text.strip()}-{door}",
    )
    for message, owner, key, text, value, doors in RULES
    for door in (("flag", "config") if text is not None else ()) + doors
]


def raised_in(exc):
    # The function whose frame raised the first error of ``exc``'s chain.
    while exc.__cause__ is not None:
        exc = exc.__cause__
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name


# Under warnings as errors: a rule raises its own error, never a numpy warning first.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("door, message, owner, key, text, value", CASES)
def test_a_rule_has_one_check_and_one_message_at_every_door(
    door, message, owner, key, text, value, tmp_path, capsys
):
    if door in LIBRARY:
        with pytest.raises(InvalidInputError) as raised:
            LIBRARY[door](SETTINGS | value)
        assert str(raised.value) == message
        assert raised_in(raised.value) == owner
        return

    if door == "flag":
        argv, line = [f"--{key.replace('_', '-')}={text}"], ""
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={text}\n")
        argv, line = ["--config", str(path)], f" (from {path}:1 {key})"
    expected = f"{message}{line}"
    if door == "config" and owner in READ_OWNERS:
        expected = f"{path}:1: bad value for {key!r}: {message}"
    if key != "trials":
        argv += ["--trials", "2"]
    with pytest.raises(UsageError) as raised:
        parse_config(argv)
    assert raised_in(raised.value) == owner

    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"prmimo: usage error: {expected}\n"
    assert not out.exists()


def test_the_largest_spread_whose_ray_range_is_finite_runs():
    # 2*sqrt(3)*5e307 is about 1.7e308, just below the largest float.
    scenario = Scenario(GEOMETRY, n_cl=4, n_ray=1, trials=2, angle_spread=5e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curves = run_campaign(scenario, workers=1)
    assert [curve.scheme for curve in curves] == list(SCHEMES)
