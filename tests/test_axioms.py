"""Tests for Axiom 1 and the strict-correctness audit (Definition 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.axioms import (
    CorrectnessReport,
    HistoryStep,
    StrictCorrectnessReplay,
    audit_strict_correctness,
    generates_incorrect_data,
)
from repro.workflow.data import TOMBSTONE
from repro.workflow.log import SystemLog
from repro.workflow.spec import workflow
from repro.workflow.task import TaskInstance


def spec_ab():
    return (
        workflow("w")
        .task("a", reads=["x"], writes=["y"],
              compute=lambda d: {"y": d["x"] + 1})
        .task("b", reads=["y"], writes=["z"],
              compute=lambda d: {"z": d["y"] * 2})
        .chain("a", "b")
        .build()
    )


def history(*steps):
    return [HistoryStep("run", t, n) for t, n in steps]


class TestAxiom1:
    def test_condition1_malicious_code(self):
        log = SystemLog()
        rec = log.commit(TaskInstance("w", "t1", 1), reads={}, writes={})
        assert generates_incorrect_data(rec, ["w/t1#1"], [])
        assert not generates_incorrect_data(rec, [], [])

    def test_condition2_dirty_read(self):
        log = SystemLog()
        rec = log.commit(
            TaskInstance("w", "t2", 1), reads={"x": 3}, writes={}
        )
        assert generates_incorrect_data(rec, [], [("x", 3)])
        assert not generates_incorrect_data(rec, [], [("x", 2)])


class TestAudit:
    def test_accepts_correct_history(self):
        report = audit_strict_correctness(
            {"run": spec_ab()},
            {"x": 1, "y": 0, "z": 0},
            history(("a", 1), ("b", 1)),
            {"x": 1, "y": 2, "z": 4},
        )
        assert report.ok and report.problems == []
        assert report.replayed_snapshot["z"] == 4

    def test_detects_wrong_final_value(self):
        report = audit_strict_correctness(
            {"run": spec_ab()},
            {"x": 1, "y": 0, "z": 0},
            history(("a", 1), ("b", 1)),
            {"x": 1, "y": 2, "z": 999},
        )
        assert not report.ok
        assert any("z" in p and "999" in p for p in report.problems)

    def test_detects_illegal_path(self):
        report = audit_strict_correctness(
            {"run": spec_ab()},
            {"x": 1, "y": 0, "z": 0},
            history(("b", 1), ("a", 1)),  # b cannot run first
            {"x": 1, "y": 2, "z": 4},
        )
        assert not report.ok
        assert any("illegal path" in p for p in report.problems)

    def test_detects_incomplete_workflow(self):
        report = audit_strict_correctness(
            {"run": spec_ab()},
            {"x": 1, "y": 0, "z": 0},
            history(("a", 1)),
            {"x": 1, "y": 2, "z": 0},
        )
        assert not report.ok
        assert any("did not reach an end node" in p for p in report.problems)

    def test_completion_check_optional(self):
        report = audit_strict_correctness(
            {"run": spec_ab()},
            {"x": 1, "y": 0, "z": 0},
            history(("a", 1)),
            {"x": 1, "y": 2, "z": 0},
            require_completion=False,
        )
        assert report.ok, report.problems

    def test_detects_bad_instance_numbers(self):
        report = audit_strict_correctness(
            {"run": spec_ab()},
            {"x": 1, "y": 0, "z": 0},
            history(("a", 2), ("b", 1)),  # a's first visit must be #1
            {"x": 1, "y": 2, "z": 4},
        )
        assert not report.ok
        assert any("instance number" in p for p in report.problems)

    def test_detects_missing_spec(self):
        report = audit_strict_correctness(
            {},
            {"x": 1},
            history(("a", 1)),
            {"x": 1},
        )
        assert not report.ok
        assert any("no spec" in p for p in report.problems)

    def test_detects_branch_divergence(self, diamond_spec):
        # With x=1 the replayed b chooses c; a history going through d
        # is inconsistent with the data.
        report = audit_strict_correctness(
            {"run": diamond_spec},
            {"x": 1, "yc": 0, "yd": 0},
            [
                HistoryStep("run", "a", 1),
                HistoryStep("run", "b", 1),
                HistoryStep("run", "d", 1),  # wrong arm
                HistoryStep("run", "e", 1),
            ],
            {"x": 1},
        )
        assert not report.ok
        assert any("illegal path" in p for p in report.problems)

    def test_report_truthiness(self):
        assert CorrectnessReport(ok=True)
        assert not CorrectnessReport(ok=False, problems=["x"])

    def test_read_of_unknown_object_is_reported_not_raised(self):
        ghost = (
            workflow("g")
            .task("t", reads=["ghost"], writes=["out"],
                  compute=lambda d: {"out": d["ghost"]})
            .build()
        )
        report = audit_strict_correctness(
            {"run": ghost}, {}, history(("t", 1)), {}
        )
        assert not report.ok
        assert report.problems == [
            "run/t#1: replay read unknown data object 'ghost'"
        ]

    def test_workflow_stops_after_unknown_read(self):
        ghost = (
            workflow("g")
            .task("t", reads=["ghost"], writes=["out"],
                  compute=lambda d: {"out": d["ghost"]})
            .task("u", reads=[], writes=["done"],
                  compute=lambda d: {"done": 1})
            .chain("t", "u")
            .build()
        )
        report = audit_strict_correctness(
            {"run": ghost}, {}, history(("t", 1), ("u", 1)), {"done": 1}
        )
        assert any("already finished" in p for p in report.problems)


class TestResumableReplay:
    INITIAL = {"x": 1, "y": 0, "z": 0}

    def test_chunked_extend_equals_one_shot(self):
        steps = history(("a", 1), ("b", 1))
        final = {"x": 1, "y": 2, "z": 4}
        replay = StrictCorrectnessReplay({"run": spec_ab()}, self.INITIAL)
        replay.extend(steps[:1])
        replay.extend(steps[1:])
        assert replay.steps == 2
        assert replay.report(final) == audit_strict_correctness(
            {"run": spec_ab()}, self.INITIAL, steps, final
        )

    def test_report_leaves_state_unchanged(self):
        replay = StrictCorrectnessReplay({"run": spec_ab()}, self.INITIAL)
        replay.extend(history(("a", 1)))
        partial = {"x": 1, "y": 2, "z": 0}
        first = replay.report(partial)
        assert not first.ok  # "run" has not reached its end node yet
        assert replay.report(partial) == first
        first.replayed_snapshot["y"] = 999
        replay.extend(history(("b", 1)))
        assert replay.report({"x": 1, "y": 2, "z": 4}).ok

    @settings(max_examples=60, deadline=None)
    @given(rounds=st.lists(
        st.tuples(
            st.lists(st.tuples(st.sampled_from(["r1", "r2"]),
                               st.sampled_from(["a", "b"]),
                               st.integers(1, 2)), max_size=3),
            st.lists(st.tuples(st.sampled_from(["x", "y", "z", "q"]),
                               st.sampled_from([0, 1, 2, 4, TOMBSTONE])),
                     max_size=3),
        ),
        min_size=1, max_size=5,
    ))
    def test_change_set_report_equals_one_shot(self, rounds):
        """Reports given the names changed since the previous report
        match a from-scratch audit, whichever side changed."""
        specs = {"r1": spec_ab(), "r2": spec_ab()}
        replay = StrictCorrectnessReplay(specs, self.INITIAL)
        steps, snapshot = [], dict(self.INITIAL)
        for chunk, writes in rounds:
            chunk = [HistoryStep(*step) for step in chunk]
            replay.extend(chunk)
            steps.extend(chunk)
            for name, value in writes:
                snapshot[name] = value
            report = replay.report(snapshot,
                                   changed=[name for name, __ in writes])
            assert report == audit_strict_correctness(
                specs, self.INITIAL, steps, snapshot)

    def test_problems_found_earlier_persist(self):
        replay = StrictCorrectnessReplay({"run": spec_ab()}, self.INITIAL)
        replay.extend(history(("b", 1)))
        replay.extend(history(("a", 1)))
        report = replay.report({"x": 1, "y": 0, "z": 0})
        assert any("illegal path" in p for p in report.problems)
        assert any("already finished" in p for p in report.problems)
