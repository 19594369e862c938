import time

import pytest

from blowring.reports import Report


def slow_pass():
    time.sleep(0.05)
    return True


def test_check_records_verdict_and_witness():
    report = Report("t")
    report.check("bare", lambda: True)
    report.check("with witness", lambda: (False, "why"))
    assert [(c.name, c.status, c.witness) for c in report.checks] == [
        ("bare", "pass", ""),
        ("with witness", "fail", "why"),
    ]
    assert not report.ok


def test_work_before_check_is_not_charged_to_it():
    report = Report("t", timing=True)
    time.sleep(0.2)
    report.check("instant", lambda: True)
    assert report.checks[0].ms < 100


def test_check_charges_its_own_work():
    report = Report("t", timing=True)
    report.check("slow", slow_pass)
    assert report.checks[0].ms >= 45


def test_ms_zero_when_timing_off():
    report = Report("t")
    report.check("slow", slow_pass)
    assert report.checks[0].ms == 0


def test_raising_thunk_propagates_and_records_nothing():
    report = Report("t", timing=True)

    def boom():
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        report.check("boom", boom)
    assert report.checks == []
