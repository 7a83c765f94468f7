"""The differential harness's own contract: a mismatch names the leg,
the run, the component and the first differing domain."""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.web.spec import WorldConfig

from tests.differential import OBSERVATION_FIELDS, Leg, assert_legs_equal, record_run


@pytest.fixture(scope="module")
def leg():
    world = repro.build_world(WorldConfig(scale=400_000))
    run = world.scan_engine().run_week(world.config.reference_week)
    return Leg("serial", [record_run(run)], world.clock.now, "Table 1\nrow\n")


def _with_column(record, name, index, value):
    columns = list(record.columns)
    column = list(columns[OBSERVATION_FIELDS.index(name)])
    column[index] = value
    columns[OBSERVATION_FIELDS.index(name)] = tuple(column)
    return dataclasses.replace(record, columns=tuple(columns))


def _mismatch(oracle, **changes):
    with pytest.raises(AssertionError) as excinfo:
        assert_legs_equal(oracle, dataclasses.replace(oracle, name="changed", **changes))
    return str(excinfo.value)


def test_equal_legs_pass(leg):
    assert_legs_equal(leg, dataclasses.replace(leg, name="copy"))


def test_observation_mismatch_names_the_earliest_domain(leg):
    run = leg.runs[0]
    domains = run.columns[OBSERVATION_FIELDS.index("domain")]
    # 'parked' precedes 'org' in field order, but 'org' differs earlier.
    changed = _with_column(_with_column(run, "parked", 5, None), "org", 3, "Other Org")
    message = _mismatch(leg, runs=[changed])
    assert message.startswith(f"leg 'changed', run {run.label}: ")
    assert f"observation field 'org' differs at domain {domains[3]}" in message


def test_site_record_mismatch_names_site_and_first_domain(leg):
    run = leg.runs[0]
    index, (ip, _, tcp) = next(
        (index, record) for index, record in run.site_records.items() if record[1] is not None
    )
    changed = dataclasses.replace(
        run, site_records={**run.site_records, index: (ip, None, tcp)}
    )
    message = _mismatch(leg, runs=[changed])
    sites = run.columns[OBSERVATION_FIELDS.index("site_index")]
    domain = run.columns[OBSERVATION_FIELDS.index("domain")][sites.index(index)]
    assert f"site records differ at site {index} (first domain {domain})" in message


def test_clock_and_report_mismatches_are_named(leg):
    message = _mismatch(leg, clock=leg.clock + 2**-40)
    assert "leg 'changed': world clock" in message
    assert leg.clock.hex() in message
    message = _mismatch(leg, report="Table 1\nother\n")
    assert "rendered report differs at line 2: expected 'row', got 'other'" in message
