"""The options census's list (``tests/data/options.txt``) stays exact.

``tests/data/options.py`` finds who sets each field of the spec and config
classes; CI's ``census`` job runs it with ``--check``.  The list is sorted
with no duplicates, names exactly the classes' settable fields, and gives
every field a setter or a reason to stay.  The census's own rules are
checked on small sources: what counts as setting a field, and what a stale
"set by" claim looks like.
"""

import ast

from tests.data.options import (
    LISTING,
    format_line,
    option_names,
    problems,
    read_listing,
    scan,
    setters,
)


def _names():
    return [line.partition("#")[0].strip() for line in LISTING.read_text().splitlines()]


def test_the_list_is_sorted_without_duplicates():
    names = _names()
    assert names == sorted(set(names))


def test_the_list_names_exactly_the_classes_fields():
    assert _names() == option_names()


def test_every_field_has_a_setter_or_a_reason():
    assert [option for option, (named, reason) in read_listing(LISTING.read_text()).items()
            if not named and not reason] == []


def test_the_list_holds_for_the_tree():
    assert problems(read_listing(LISTING.read_text()), setters()) == []


def _scanned(source):
    return sorted(scan(ast.parse(source), "file"))


def test_a_non_default_keyword_or_config_key_sets_a_field():
    source = (
        "PhaseSpec(name='x', settle=0.0, arrivals=3)\n"
        "spec.with_(peers=peers)\n"
        "config = {'safe_leave': False, 'replication_factor': 6}\n"
        "result = {'seed': 1, 'wall_s': 2.0}\n"
        "def figure_19():\n"
        "    return replace(config, successor_list_length=8)\n"
    )
    assert _scanned(source) == [
        ("IndexConfig.safe_leave", "file"),
        ("IndexConfig.successor_list_length", "figure:figure_19"),
        ("PhaseSpec.arrivals", "file"),
        ("PhaseSpec.name", "file"),
        ("ScenarioSpec.peers", "file"),
    ]


def test_a_stale_setter_and_an_unexplained_field_are_problems():
    found = {"IndexConfig.seed": {"cell:smoke"}}
    listing = read_listing("\n".join(
        format_line(option, found.get(option, set()), "a reason") for option in option_names()
    ))
    assert problems(listing, found) == []
    listing["IndexConfig.seed"] = (["cell:gone"], "")
    listing["IndexConfig.key_space"] = ([], "")
    assert problems(listing, found) == [
        "IndexConfig.key_space: nothing sets it and it has no kept: reason",
        "IndexConfig.seed: the list says set by cell:gone, which no longer sets it",
    ]
