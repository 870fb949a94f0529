"""Generated input for the two text parsers: each call returns a value or
raises ValueError, and a generated layout survives its config text and its
--shape flags unchanged."""

import argparse
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyhop import cli
from keyhop.ratemodel import RateParams, parse_rate_config
from keyhop.topology import (
    Shape,
    Topology,
    build_chain,
    build_multipath,
    build_reach_chain,
    build_ring6,
)

# layout integers stay small: the builders would build a chain of 10^8 nodes
_TOKENS = ["inf", "-inf", "nan", "-0.5", "1e-300", "2,3", "3,,3", "2,", ",", "+4", "1_2", "0x3", "="]
# free text without digits, so it cannot spell a large layout integer
_WORDS = st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=8)
_VALUES = st.one_of(
    st.integers(-3, 9).map(str),
    st.lists(st.integers(-1, 6), min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(_TOKENS),
    _WORDS,
)
_NUMBERS = st.one_of(
    st.floats(1e-6, 1e9).map(repr), st.floats().map(repr), st.sampled_from(_TOKENS), _WORDS
)


def _kv_text(values):
    """Config text: each key of values at most once, with a value drawn from
    its strategy, then at most one stray line."""
    lines = st.fixed_dictionaries({}, optional=values).map(
        lambda kv: [f"{key} = {value}" for key, value in kv.items()]
    )
    stray = st.lists(st.one_of(st.sampled_from(["", "# note", "bogus = 1"]), _WORDS), max_size=1)
    return st.tuples(lines, stray).map(lambda parts: "\n".join(parts[0] + parts[1]))


def _returns_or_value_error(parse, *args):
    try:
        return parse(*args)
    except ValueError:
        return None


@st.composite
def layouts(draw):
    """A generated layout, and the layout keys that name it beside its
    shape, valued as the --shape flags take them."""
    shape = draw(st.sampled_from(list(Shape)))
    if shape is Shape.RING6:
        return build_ring6(), {}
    if shape is Shape.CHAIN:
        m = draw(st.integers(2, 9))
        return build_chain(m), {"m": m}
    t = draw(st.integers(2 if shape is Shape.REACH else 1, 4))
    if shape is Shape.REACH:
        m = draw(st.integers(t + 1, t + 5))
        return build_reach_chain(m, t), {"m": m, "t": t}
    lengths = draw(st.lists(st.integers(max(2, t + 1), 6), min_size=1, max_size=4))
    return build_multipath(lengths, t=t), {"paths": ",".join(map(str, lengths)), "t": t}


def _config_text(topo, keys):
    lines = [f"shape = {topo.shape.value}"]
    return "\n".join(lines + [f"{key} = {value}" for key, value in keys.items()]) + "\n"


def _shape_flags(topo, keys):
    """The Namespace argparse makes of the --shape flags naming the layout."""
    return argparse.Namespace(
        shape=topo.shape.value, config=None, variant=None,
        **{"m": None, "paths": None, "t": None, **keys},
    )


def _from_config(text):
    """The layout cli._layout reads off a --config file holding text."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "layout.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        args = argparse.Namespace(
            shape=None, m=None, paths=None, t=None, config=path, variant=None
        )
        return cli._layout(args)[0]


@st.composite
def _near_configs(draw):
    """A generated layout's config text with at most one line dropped,
    changed or added."""
    lines = _config_text(*draw(layouts())).splitlines()
    pos = draw(st.integers(0, len(lines)))
    if pos < len(lines):
        key = lines[pos].split(" = ")[0]
    else:
        key = draw(st.sampled_from(list(_TOPOLOGY_VALUES)))
    edit = draw(st.sampled_from(["keep", "drop", "set"]))
    if edit == "drop":
        del lines[pos:pos + 1]
    elif edit == "set":
        lines[pos:pos + 1] = [f"{key} = {draw(_TOPOLOGY_VALUES.get(key, _VALUES))}"]
    return "\n".join(lines)


_TOPOLOGY_VALUES = {
    "shape": st.one_of(st.sampled_from([shape.value for shape in Shape]), _WORDS),
    "m": _VALUES,
    "t": _VALUES,
    "paths": _VALUES,
    "link_length_km": st.one_of(st.sampled_from(["100", "0.5"]), _NUMBERS),
}


@settings(deadline=None)
@given(text=st.one_of(_kv_text(_TOPOLOGY_VALUES), _near_configs()))
def test_topology_config_parses_or_raises_value_error(text):
    topo = _returns_or_value_error(_from_config, text)
    assert topo is None or isinstance(topo, Topology)
    # no shape reads a link length
    assert topo is None or "link_length_km" not in text


_RATE_VALUES = dict.fromkeys(["alpha_db_per_km", "c_tf", "c_p2p", "threshold_bps"], _NUMBERS)


@settings(deadline=None)
@given(text=_kv_text(_RATE_VALUES))
def test_rate_config_parses_or_raises_value_error(text):
    params = _returns_or_value_error(parse_rate_config, text)
    assert params is None or isinstance(params, RateParams)


_DEFAULT_T = {Shape.REACH: 2, Shape.MULTIPATH: 1}


@settings(deadline=None)
@given(layout=layouts())
@example(layout=(build_reach_chain(4, 2), {"m": 4, "t": 2}))
@example(layout=(build_multipath([2, 3]), {"paths": "2,3", "t": 1}))
def test_a_layout_survives_its_config_text_and_its_shape_flags(layout):
    topo, keys = layout
    assert _from_config(_config_text(topo, keys)) == topo
    assert cli._layout(_shape_flags(topo, keys))[0] == topo
    # a t equal to its shape's default may go unstated in either form
    if "t" in keys and keys["t"] == _DEFAULT_T[topo.shape]:
        rest = {key: value for key, value in keys.items() if key != "t"}
        assert _from_config(_config_text(topo, rest)) == topo
        assert cli._layout(_shape_flags(topo, rest))[0] == topo
