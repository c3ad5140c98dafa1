"""Argument and document checks of ``series`` and ``detector`` outside the CSV readers.

The series and alarm types, ``top_n``, ``detect_alarms`` and the alarm
report each refuse what they cannot hold, with a typed error.
"""

import json
import math
import re

import numpy as np
import pytest

from bgpnovelty.detector import (
    AlarmEvent,
    BadAlarmReport,
    DetectorConfig,
    SOURCE_AUTOENCODER,
    SOURCE_RULE,
    detect_alarms,
    read_alarm_report,
)
from bgpnovelty.series import InvalidRange, MinuteSeries, top_n

NOON = 1_000_080_000


class TestMinuteSeries:
    def test_start_off_a_minute_boundary_raises(self):
        with pytest.raises(InvalidRange, match=f"series start {NOON + 30} not minute-aligned"):
            MinuteSeries(NOON + 30, [1], [2])

    @pytest.mark.parametrize("announcements,withdrawals", [([1, 2], [3]), ([[1, 2]], [[3, 4]])])
    def test_columns_that_are_not_equally_long_and_1d_raise(self, announcements, withdrawals):
        with pytest.raises(ValueError, match="must be 1-D and equally long"):
            MinuteSeries(NOON, announcements, withdrawals)

    def test_top_n_of_a_negative_n_raises(self):
        with pytest.raises(ValueError, match="n must be non-negative, got -1"):
            top_n(MinuteSeries(NOON, [1, 2], [3, 4]), -1)


class TestDetectorArguments:
    @pytest.mark.parametrize("peak", [NOON - 60, NOON + 180])
    def test_alarm_peak_outside_its_span_raises(self, peak):
        with pytest.raises(ValueError, match="alarm peak must lie within the event span"):
            AlarmEvent(NOON, NOON + 120, peak, 1.0, SOURCE_AUTOENCODER)

    def test_negative_gap_raises(self):
        with pytest.raises(ValueError, match="group_gap_minutes must be >= 0"):
            DetectorConfig(1.0, -1)

    def test_minutes_and_values_of_other_lengths_raise(self):
        with pytest.raises(ValueError, match="3 minutes but 2 values"):
            detect_alarms(NOON + 60 * np.arange(3), np.ones(2), DetectorConfig(0.5))


def report_of(**changes) -> str:
    """A one-event alarm report whose fields take ``changes``."""
    entry = {
        "start": "2001-09-18T12:00:00Z", "end": "2001-09-18T12:30:00Z", "peak_minute": "2001-09-18T12:10:00Z",
        "peak_value": 2.0, "source": SOURCE_AUTOENCODER, **changes,
    }
    return json.dumps([entry])


class TestAlarmReport:
    @pytest.mark.parametrize(
        "data,message",
        [
            ("[", "alarm report is not valid JSON: "),
            ("", "alarm report is not valid JSON: "),
            ('{"start": "2001-09-18T12:00:00Z"}', "alarm report must be a JSON array"),
            ("5", "alarm report must be a JSON array"),
            ('[{"start": "2001-09-18T12:00:00Z"}]', "alarm report entry is malformed: 'end'"),
            ("[5]", "alarm report entry is malformed: "),
            (report_of(start="2001-09-18T12:00:30Z"), "alarm report entry is malformed: not a minute-aligned UTC"),
            (report_of(peak_minute="2001-09-18T13:00:00Z"), "malformed: alarm peak must lie within the event span"),
        ],
        ids=["cut", "empty", "object", "number", "missing_key", "entry_not_an_object", "bad_stamp", "peak_outside"],
    )
    def test_a_malformed_report_raises(self, data, message):
        with pytest.raises(BadAlarmReport, match=re.escape(message)):
            read_alarm_report(data)

    @pytest.mark.parametrize("source", [5, None, "Rule", "", ["rule"]])
    def test_a_source_other_than_the_two_detectors_raises(self, source):
        with pytest.raises(BadAlarmReport, match=re.escape(f"source is not 'autoencoder' or 'rule': {source!r}")):
            read_alarm_report(report_of(source=source))

    @pytest.mark.parametrize("value", ["nan", "2.0", True, False, None, [2.0], math.nan, math.inf, -math.inf])
    def test_a_peak_value_that_is_not_a_finite_number_raises(self, value):
        with pytest.raises(BadAlarmReport, match=re.escape(f"peak_value is not a finite number: {value!r}")):
            read_alarm_report(report_of(peak_value=value))

    def test_a_peak_value_past_the_float_range_raises(self):
        with pytest.raises(BadAlarmReport, match="int too large to convert to float"):
            read_alarm_report(report_of(peak_value=10**400))

    @pytest.mark.parametrize("value", [0, -3, 2**63, 1e308])
    def test_integers_and_finite_floats_are_peak_values(self, value):
        (event,) = read_alarm_report(report_of(peak_value=value, source=SOURCE_RULE))
        assert event.peak_value == float(value) and event.source == SOURCE_RULE
