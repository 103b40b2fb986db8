"""Tests for multi-epoch operation: healing sequential attack waves."""

import random
import sys
from collections.abc import Mapping
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import epochs as epochs_module
from repro.core import healer as healer_module
from repro.core.axioms import StrictCorrectnessReplay, audit_strict_correctness
from repro.core.epochs import EpochManager
from repro.core.healer import Healer
from repro.errors import RecoveryError
from repro.ids.attacks import AttackCampaign
from repro.sim.fullstack import FullStackConfig, FullStackSimulator
from repro.workflow.data import TOMBSTONE, DataStore
from repro.workflow.log import SystemLog
from repro.workflow.spec import workflow
from repro.workflow.task import TaskSpec


def accumulator_spec(name: str, delta: int):
    """One task adding ``delta`` to the shared counter and logging its
    own output object."""
    return (
        workflow(name)
        .task("add", reads=["counter"], writes=["counter", f"out_{name}"],
              compute=lambda d: {
                  "counter": d["counter"] + delta,
                  f"out_{name}": d["counter"] + delta,
              })
        .build()
    )


def gate_spec():
    """Branch on the shared counter: ``high`` at 10 or more, else ``low``."""
    return (
        workflow("gate")
        .task("check", reads=["counter"], writes=["mode"],
              compute=lambda d: {"mode": 1 if d["counter"] >= 10 else 0},
              choose=lambda d: "high" if d["mode"] else "low")
        .task("high", reads=[], writes=["result"],
              compute=lambda d: {"result": "high"})
        .task("low", reads=[], writes=["result"],
              compute=lambda d: {"result": "low"})
        .edge("check", "high").edge("check", "low")
        .build()
    )


@pytest.fixture
def manager():
    initial = {"counter": 0}
    store = DataStore(initial)
    return EpochManager(store, initial), initial


class TestSingleEpoch:
    def test_clean_epoch_heals_trivially(self, manager):
        mgr, __ = manager
        mgr.run_workflow(accumulator_spec("a", 5))
        report = mgr.heal([])
        assert report.undone == ()
        assert mgr.epoch == 1
        assert mgr.store.read("counter") == 5
        assert mgr.audit().ok

    def test_attacked_epoch_repaired(self, manager):
        mgr, __ = manager
        campaign = AttackCampaign().corrupt_task("add", counter=999)
        name = mgr.run_workflow_attacked(
            accumulator_spec("a", 5), tamper=campaign
        )
        assert mgr.store.read("counter") == 999
        report = mgr.heal(campaign.malicious_uids)
        assert mgr.store.read("counter") == 5
        assert f"{name}/add#1" in report.redone
        assert mgr.audit().ok


class TestMultipleEpochs:
    def test_second_wave_measured_against_healed_baseline(self, manager):
        """Epoch 1: attack +5 task (forged to 999), heal → counter 5.
        Epoch 2: run +7 (counter 12), attack another +1 task, heal.
        The final state must reflect all three legitimate additions."""
        mgr, __ = manager
        wave1 = AttackCampaign().corrupt_task(
            "add", workflow_instance="w1", counter=999
        )
        mgr.run_workflow_attacked(accumulator_spec("a", 5), wave1, name="w1")
        mgr.heal(wave1.malicious_uids)
        assert mgr.store.read("counter") == 5

        mgr.run_workflow(accumulator_spec("b", 7), name="w2")
        wave2 = AttackCampaign().corrupt_task(
            "add", workflow_instance="w3", counter=-1
        )
        mgr.run_workflow_attacked(accumulator_spec("c", 1), wave2, name="w3")
        assert mgr.store.read("counter") == -1
        report = mgr.heal(wave2.malicious_uids)
        assert mgr.store.read("counter") == 13  # 5 + 7 + 1
        assert mgr.epoch == 2
        assert mgr.audit().ok, mgr.audit().problems

    def test_epoch_two_does_not_disturb_epoch_one_work(self, manager):
        mgr, __ = manager
        mgr.run_workflow(accumulator_spec("a", 5), name="w1")
        mgr.heal([])
        wave = AttackCampaign().corrupt_task(
            "add", workflow_instance="w2", counter=123
        )
        mgr.run_workflow_attacked(accumulator_spec("b", 7), wave, name="w2")
        report = mgr.heal(wave.malicious_uids)
        # Only the epoch-2 instance was touched.
        assert all(u.startswith("w2/") for u in report.undone)
        assert mgr.store.read("out_a") == 5
        assert mgr.store.read("counter") == 12

    def test_alert_about_rolled_epoch_ignored(self, manager):
        mgr, __ = manager
        mgr.run_workflow(accumulator_spec("a", 5), name="w1")
        mgr.heal([])
        mgr.run_workflow(accumulator_spec("b", 7), name="w2")
        report = mgr.heal(["w1/add#1"])  # w1 lives in an archived epoch
        assert report.undone == ()
        assert mgr.store.read("counter") == 12

    def test_archived_logs_accumulate(self, manager):
        mgr, __ = manager
        mgr.run_workflow(accumulator_spec("a", 1))
        mgr.heal([])
        mgr.run_workflow(accumulator_spec("b", 1))
        mgr.heal([])
        assert len(mgr.archived_logs) == 2
        assert len(mgr.log) == 0  # fresh epoch

    def test_duplicate_instance_names_rejected(self, manager):
        mgr, __ = manager
        mgr.run_workflow(accumulator_spec("a", 1), name="same")
        mgr.heal([])
        with pytest.raises(RecoveryError, match="unique"):
            mgr.run_workflow(accumulator_spec("b", 1), name="same")

    def test_combined_history_grows(self, manager):
        mgr, __ = manager
        mgr.run_workflow(accumulator_spec("a", 1))
        mgr.heal([])
        n1 = len(mgr.combined_history)
        mgr.run_workflow(accumulator_spec("b", 1))
        mgr.heal([])
        assert len(mgr.combined_history) > n1


class TestBranchAcrossEpochs:
    def test_branch_redecision_in_second_epoch(self, manager):
        """An epoch-2 branch depends on data healed in epoch 1."""
        mgr, __ = manager
        # Epoch 1: attacker forges counter to 100.
        wave1 = AttackCampaign().corrupt_task(
            "add", workflow_instance="w1", counter=100
        )
        mgr.run_workflow_attacked(accumulator_spec("a", 5), wave1, name="w1")
        mgr.heal(wave1.malicious_uids)  # counter back to 5

        gate = gate_spec()
        # Epoch 2: attacker inflates the counter read by the gate.
        wave2 = AttackCampaign().corrupt_task(
            "add", workflow_instance="w2", counter=50
        )
        mgr.run_workflow_attacked(accumulator_spec("b", 2), wave2,
                                  name="w2")
        mgr.run_workflow(gate, name="w3")
        assert mgr.store.read("result") == "high"  # corrupted decision
        mgr.heal(wave2.malicious_uids)
        assert mgr.store.read("counter") == 7
        assert mgr.store.read("result") == "low"  # healed decision
        assert mgr.audit().ok, mgr.audit().problems


def one_shot(mgr, initial):
    """The literal Definition 2 audit: replay the whole combined history."""
    return audit_strict_correctness(
        mgr.specs_by_instance, initial, mgr.combined_history,
        mgr.store.snapshot(),
    )


#: One attack wave: runs of ``(kind, delta, attacked)``.
_wave = st.lists(
    st.tuples(st.sampled_from(["add", "gate"]), st.integers(1, 9),
              st.booleans()),
    min_size=1, max_size=3,
)


def run_wave(mgr, e, runs):
    """Run one attack wave's workflows; returns the malicious uids."""
    malicious = []
    for i, (kind, delta, attacked) in enumerate(runs):
        name = f"e{e}w{i}"
        if kind == "add":
            spec = accumulator_spec(name, delta)
            campaign = AttackCampaign().corrupt_task(
                "add", counter=1000 + delta)
        else:
            spec = gate_spec()
            campaign = AttackCampaign().corrupt_task("check", mode=1)
        if not attacked:
            campaign = None
        mgr.run_workflow_attacked(spec, campaign, name=name)
        if campaign is not None:
            malicious.extend(campaign.malicious_uids)
    return malicious


class TestResumedAudit:
    """``EpochManager.audit`` resumes one replay across heals; it must
    agree with a from-scratch replay of the combined history."""

    @settings(max_examples=25, deadline=None)
    @given(waves=st.lists(_wave, min_size=2, max_size=5))
    def test_equals_one_shot_after_every_heal(self, waves):
        initial = {"counter": 0}
        mgr = EpochManager(DataStore(initial), initial)
        for e, runs in enumerate(waves):
            mgr.heal(run_wave(mgr, e, runs))
            resumed = mgr.audit()
            literal = one_shot(mgr, initial)
            assert resumed.ok, resumed.problems
            assert resumed.problems == literal.problems
            assert resumed.replayed_snapshot == literal.replayed_snapshot

    def test_canary_stale_object_mutation(self, manager):
        """A wrong value written to an object last written epochs ago
        fails the resumed audit exactly as it fails the one-shot one."""
        mgr, initial = manager
        mgr.run_workflow(accumulator_spec("old", 3), name="w0")
        mgr.heal([])
        assert mgr.audit().ok
        for e in range(1, 4):
            mgr.run_workflow(accumulator_spec(f"n{e}", e), name=f"w{e}")
            mgr.heal([])
            assert mgr.audit().ok
        mgr.store.write("out_old", 999, writer="mutant")
        resumed = mgr.audit()
        literal = one_shot(mgr, initial)
        assert not resumed.ok
        assert resumed.problems == literal.problems == [
            "object 'out_old': healed value 999 != replayed value 3"
        ]

    def test_fullstack_replays_each_healed_step_once(self, monkeypatch):
        """Work count, not timing: over a whole run the auditor executes
        each healed step's task exactly once, however many heals audit."""
        managers = []
        replayed = [0]
        audit, run = EpochManager.audit, TaskSpec.run

        def counting_audit(self):
            if not any(m is self for m in managers):
                managers.append(self)
            return audit(self)

        def counting_run(self, inputs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller == "repro.core.axioms":
                replayed[0] += 1
            return run(self, inputs)

        monkeypatch.setattr(EpochManager, "audit", counting_audit)
        monkeypatch.setattr(TaskSpec, "run", counting_run)
        cfg = FullStackConfig(arrival_rate=1.0, alert_buffer=4,
                              recovery_buffer=4)
        result = FullStackSimulator(cfg, random.Random(0)).run(120.0)
        assert result.all_heals_audited_ok
        assert result.heals > 10
        (mgr,) = managers
        assert replayed[0] == len(mgr.combined_history)


# -- literal whole-store reference ------------------------------------------


class LiteralView(healer_module._SettledView):
    """Settled view built up front from every baseline (or initial)
    object of the store, as before the write journal existed."""

    def __init__(self, store, baseline=None):
        super().__init__(store, baseline)
        if baseline is not None:
            for name, ver in baseline.items():
                self.set(name, ver, store.version(name, ver).value)
        else:
            for name in store.names():
                history = store.history(name)
                if history and history[0].writer is None:
                    self.set(name, history[0].number, history[0].value)

    def get(self, name):
        return self._current.get(name)

    def items(self):
        return self._current.items()


class LiteralHealer(Healer):
    """Reconciles by walking every object of the store."""

    def _reconcile(self, view):
        store = self._store
        settled = dict(view.items())
        for name in list(store.names()):
            latest = store.latest(name)
            if name in settled:
                version, value = settled[name]
                if latest.number != version and latest.value != value:
                    store.write(name, value, writer="heal:reconcile")
            else:
                if self._baseline is not None and name in self._baseline:
                    base = store.version(name, self._baseline[name])
                    if latest.value != base.value:
                        store.write(name, base.value,
                                    writer="heal:reconcile")
                    continue
                history = store.history(name)
                if self._baseline is None and history[0].writer is None:
                    if latest.value != history[0].value:
                        store.write(
                            name, history[0].value, writer="heal:reconcile"
                        )
                elif latest.value is not TOMBSTONE:
                    store.write(name, TOMBSTONE, writer="heal:reconcile")


class LiteralManager(EpochManager):
    """Heals with the whole-store view and reconcile, and rebuilds the
    baseline from every object on each roll."""

    def heal(self, *args, **kwargs):
        with mock.patch.object(epochs_module, "Healer", LiteralHealer), \
                mock.patch.object(healer_module, "_SettledView",
                                  LiteralView):
            return super().heal(*args, **kwargs)

    def _roll_epoch(self, report):
        self._archived.append(self._log)
        self._log = SystemLog()
        self._baseline = {
            name: self._store.latest(name).number
            for name in self._store.names()
        }
        self._epoch += 1


def assert_same_state(fast, literal, initial):
    """Histories, baselines and audits of the two managers agree."""
    a, b = fast.store, literal.store
    assert list(a.names()) == list(b.names())
    for name in a.names():
        assert a.history(name) == b.history(name), name
    assert list(fast._baseline.items()) == list(literal._baseline.items())
    resumed = fast.audit()
    expected = one_shot(fast, initial)
    assert resumed.ok == expected.ok
    assert resumed.problems == expected.problems
    assert resumed.replayed_snapshot == expected.replayed_snapshot
    return resumed


def heal_both(fast, literal, malicious):
    got, want = fast.heal(malicious), literal.heal(malicious)
    for field_name in ("malicious", "undone", "redone", "kept", "abandoned",
                       "new_executions", "final_history", "actions",
                       "dirty_versions"):
        assert getattr(got, field_name) == getattr(want, field_name)


class TestIncrementalCommit:
    """Heal, roll and audit visit only the objects written since the
    previous commit; they must leave exactly the state the literal
    whole-store walks leave."""

    @settings(max_examples=25, deadline=None)
    @given(waves=st.lists(_wave, min_size=2, max_size=5))
    def test_matches_whole_store_walks_after_every_heal(self, waves):
        initial = {"counter": 0}
        fast = EpochManager(DataStore(initial), initial)
        literal = LiteralManager(DataStore(initial), initial)
        for e, runs in enumerate(waves):
            malicious = run_wave(fast, e, runs)
            assert run_wave(literal, e, runs) == malicious
            heal_both(fast, literal, malicious)
            assert assert_same_state(fast, literal, initial).ok

    def _aged(self):
        """Two lockstep managers four epochs in; ``out_old`` was last
        written three epochs before the current one."""
        initial = {"counter": 0}
        fast = EpochManager(DataStore(initial), initial)
        literal = LiteralManager(DataStore(initial), initial)
        for e in range(4):
            for mgr in (fast, literal):
                mgr.run_workflow(accumulator_spec("old" if e == 0
                                                  else f"n{e}", e + 3),
                                 name=f"w{e}")
            heal_both(fast, literal, [])
            assert assert_same_state(fast, literal, initial).ok
        return fast, literal, initial

    def test_canary_wrong_value_on_stale_object(self):
        fast, literal, initial = self._aged()
        for mgr in (fast, literal):
            mgr.store.write("out_old", 999, writer="mutant")
        report = assert_same_state(fast, literal, initial)
        assert report.problems == [
            "object 'out_old': healed value 999 != replayed value 3"
        ]
        # The next heal restores the baseline value, as the full
        # reconcile does, and the audit passes again.
        heal_both(fast, literal, [])
        assert fast.store.read("out_old") == 3
        assert assert_same_state(fast, literal, initial).ok

    def test_canary_brand_new_object_is_tombstoned(self):
        fast, literal, initial = self._aged()
        for mgr in (fast, literal):
            mgr.store.write("intruder", 7, writer="mutant")
        report = assert_same_state(fast, literal, initial)
        assert report.problems == [
            "object 'intruder' present in healed store but never "
            "produced by the replayed history or initial data"
        ]
        heal_both(fast, literal, [])
        assert fast.store.read("intruder") is TOMBSTONE
        assert assert_same_state(fast, literal, initial).ok

    def test_fullstack_commit_work_is_names_written_since_last_commit(
            self, monkeypatch):
        """Work count, not timing: over a whole run every reconcile,
        baseline update and audit comparison visits exactly the objects
        written since the previous commit.  The first roll builds the
        baseline from every object and the first audit compares every
        object; no commit walks the store otherwise."""
        written = set()
        commits = []
        visits = {}
        walks = []
        write, latest = DataStore.write, DataStore.latest
        names = DataStore.names
        heal, audit = EpochManager.heal, EpochManager.audit
        latest_values, version = DataStore.latest_values, DataStore.version

        def caller():
            return sys._getframe(2).f_code.co_name

        def counting_write(self, name, value, writer=None):
            written.add(name)
            return write(self, name, value, writer)

        def counting_latest(self, name):
            site = caller()
            if site in ("_reconcile", "_roll_epoch"):
                visits[site] = visits.get(site, 0) + 1
            return latest(self, name)

        class CountingValues(Mapping):
            """The store's value view, counting membership tests made by
            the audit's comparison loop (one per compared object)."""

            def __init__(self, values):
                self._values = values

            def __contains__(self, name):
                if sys._getframe(1).f_code.co_name == "report":
                    visits["report"] = visits.get("report", 0) + 1
                return name in self._values

            def __getitem__(self, name):
                return self._values[name]

            def __iter__(self):
                return iter(self._values)

            def __len__(self):
                return len(self._values)

        def counting_values(self):
            return CountingValues(latest_values(self))

        def counting_version(self, name, number):
            frame = sys._getframe(1)
            if isinstance(frame.f_locals.get("self"),
                          healer_module._SettledView):
                visits["view"] = visits.get("view", 0) + 1
            return version(self, name, number)

        def counting_names(self):
            walks.append(caller())
            return names(self)

        def counting_heal(self, *args, **kwargs):
            visits.clear()
            walks.clear()
            first_roll = self._baseline is None
            report = heal(self, *args, **kwargs)
            log = self.archived_logs[-1]
            touched = {name for r in log.records()
                       for name in list(r.reads) + list(r.writes)}
            commits.append({
                "written": len(written), "first_roll": first_roll,
                "objects": len(list(names(self.store))),
                "reconcile": visits.get("_reconcile", 0),
                "roll": visits.get("_roll_epoch", 0),
                "view": visits.get("view", 0), "touched": len(touched),
                "walks": list(walks),
            })
            written.clear()
            visits.clear()
            walks.clear()
            return report

        def counting_audit(self):
            visits.pop("report", None)
            result = audit(self)
            commits[-1]["audit"] = visits.pop("report", 0)
            return result

        monkeypatch.setattr(DataStore, "write", counting_write)
        monkeypatch.setattr(DataStore, "latest", counting_latest)
        monkeypatch.setattr(DataStore, "version", counting_version)
        monkeypatch.setattr(DataStore, "names", counting_names)
        monkeypatch.setattr(DataStore, "latest_values", counting_values)
        monkeypatch.setattr(EpochManager, "heal", counting_heal)
        monkeypatch.setattr(EpochManager, "audit", counting_audit)
        cfg = FullStackConfig(arrival_rate=1.0, alert_buffer=4,
                              recovery_buffer=4)
        result = FullStackSimulator(cfg, random.Random(0)).run(120.0)
        assert result.all_heals_audited_ok
        assert len(commits) > 10
        first, rest = commits[0], commits[1:]
        assert first["first_roll"]
        assert first["reconcile"] == first["written"]
        assert first["roll"] == first["objects"]
        assert first["audit"] == first["objects"]
        for commit in rest:
            assert not commit["first_roll"]
            assert commit["reconcile"] == commit["written"], commit
            assert commit["roll"] == commit["written"], commit
            assert commit["audit"] == commit["written"], commit
            assert commit["view"] <= commit["touched"], commit
            assert commit["walks"] == [], commit
        # The store outgrows a single commit's writes, so a whole-store
        # walk would show in the counts above.
        assert rest[-1]["objects"] > 2 * max(c["written"] for c in rest)
