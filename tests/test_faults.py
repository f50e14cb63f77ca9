"""Fault-injection subsystem + resilient campaign driver.

The load-bearing properties:

* every fault decision is a pure function of ``(plan seed, vp name,
  session-relative time)`` — so faulted campaigns keep the parallel
  engine's byte-parity across worker counts, kill points, and resume;
* a churn-only campaign with enough retries recovers output
  **byte-identical** to an unfaulted run (dark VPs never half-probe);
* failure surfaces are civil: corrupt artifacts raise
  ``SurveyFormatError`` with path+reason, worker crashes arrive as
  ``SurveyWorkerError`` naming the owning VP, and exhausted retries
  degrade to a ``partial=True`` manifest instead of an exception.
"""

from __future__ import annotations

import gzip
import json
import os
import pickle
import signal

import pytest

from repro.core.parallel import SurveyWorkerError
from repro.core.survey import (
    SurveyFormatError,
    load_survey,
    run_rr_survey,
    save_survey,
)
from repro.faults import (
    CampaignInterrupted,
    CampaignRunner,
    FaultInjector,
    FaultPlan,
    LinkFlap,
    LossBurst,
    RateLimitStorm,
    VpChurn,
)
from repro.faults.campaign import load_checkpoint
from repro.faults.supervisor import SupervisionConfig
from repro.probing.artifacts import embed_checksum
from repro.scenarios.faults import FAULT_PRESETS, build_fault_plan
from repro.scenarios.presets import get_preset
from repro.sim.rate_limiter import TokenBucket

N_DESTS = 30


@pytest.fixture(scope="module")
def world():
    """A private tiny Internet for this module (seed 7)."""
    return get_preset("tiny", 7)


@pytest.fixture(scope="module")
def targets(world):
    return list(world.hitlist)[:N_DESTS]


def _survey_bytes(survey, tmp_path, name):
    path = tmp_path / name
    save_survey(survey, path)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# Specs: validation + seeded determinism.
# ---------------------------------------------------------------------------


class TestSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            VpChurn(prob=1.5)
        with pytest.raises(ValueError):
            VpChurn(max_dark_attempts=0)
        with pytest.raises(ValueError):
            LinkFlap(count=0)
        with pytest.raises(ValueError):
            LinkFlap(duration=0.0)
        with pytest.raises(ValueError):
            LossBurst(p_exit=0.0)
        with pytest.raises(ValueError):
            RateLimitStorm(scale=-0.1)

    def test_churn_is_deterministic_per_vp(self):
        spec = VpChurn(prob=0.5, max_dark_attempts=3)
        draws = [spec.dark_attempts(42, f"vp-{i}") for i in range(50)]
        assert draws == [
            spec.dark_attempts(42, f"vp-{i}") for i in range(50)
        ]
        assert any(d > 0 for d in draws)
        assert any(d == 0 for d in draws)
        assert all(0 <= d <= 3 for d in draws)
        # A different seed reshuffles who churns.
        assert draws != [
            spec.dark_attempts(43, f"vp-{i}") for i in range(50)
        ]

    def test_plan_fingerprint_tracks_content(self):
        a = FaultPlan(seed=1, specs=(VpChurn(),))
        b = FaultPlan(seed=1, specs=(VpChurn(),))
        c = FaultPlan(seed=2, specs=(VpChurn(),))
        d = FaultPlan(seed=1, specs=(VpChurn(prob=0.1),))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() != d.fingerprint()

    def test_plan_pickles(self):
        plan = build_fault_plan("chaos", scenario_seed=7)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.fingerprint() == plan.fingerprint()

    def test_churned_vps_maps_only_dark(self):
        plan = FaultPlan(
            seed=5, specs=(VpChurn(prob=0.5, max_dark_attempts=2),)
        )
        names = [f"vp-{i}" for i in range(40)]
        dark = plan.churned_vps(names)
        assert dark  # with 40 names and p=0.5, some churn
        assert all(1 <= n <= 2 for n in dark.values())
        assert set(dark) < set(names)

    def test_presets_resolve(self):
        for name in FAULT_PRESETS:
            plan = build_fault_plan(name, scenario_seed=7)
            assert plan.is_empty == (name == "none")
        with pytest.raises(ValueError):
            build_fault_plan("earthquake")


# ---------------------------------------------------------------------------
# Token-bucket refill scaling (the RateLimitStorm hook).
# ---------------------------------------------------------------------------


class TestRateScale:
    def test_scale_slows_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        bucket.rate_scale = lambda now: 0.1
        assert bucket.allow(0.0) and bucket.allow(0.0)
        # At full rate t=0.1 would have refilled one token; at 10%
        # it has refilled only 0.1 of one.
        assert not bucket.allow(0.1)
        assert bucket.peek(1.0) == pytest.approx(1.0)

    def test_scale_none_is_identity(self):
        a = TokenBucket(rate=10.0, burst=1.0)
        b = TokenBucket(rate=10.0, burst=1.0)
        b.rate_scale = lambda now: 1.0
        for t in (0.0, 0.05, 0.1, 0.2, 0.35):
            assert a.allow(t) == b.allow(t)


# ---------------------------------------------------------------------------
# Injector + dataplane integration.
# ---------------------------------------------------------------------------


class TestInjector:
    def test_attach_detach_roundtrip(self, world):
        plan = FaultPlan(seed=1, specs=(LossBurst(),))
        injector = FaultInjector(world.network, plan, horizon=1.0)
        world.network.attach_injector(injector)
        assert world.network.injector is injector
        assert world.network.detach_injector() is injector
        assert world.network.injector is None

    def test_flap_windows_respect_session_clock(self, world):
        plan = FaultPlan(
            seed=3, specs=(LinkFlap(count=2, start=0.5, duration=0.25),)
        )
        injector = FaultInjector(world.network, plan, horizon=100.0)
        assert injector.active_flap_edges(0.0) is None
        mid = injector.active_flap_edges(60.0)
        assert mid is not None and len(mid) == 2
        assert injector.active_flap_edges(80.0) is None
        # Edge choice is a function of the plan seed, not call order.
        again = FaultInjector(world.network, plan, horizon=100.0)
        assert again.active_flap_edges(60.0) == mid

    def test_burst_chain_is_per_session_deterministic(self, world):
        plan = FaultPlan(
            seed=9,
            specs=(LossBurst(p_enter=0.2, p_exit=0.3, drop_prob=0.9),),
        )

        def draws(name, n=200):
            injector = FaultInjector(world.network, plan)
            injector.begin_session(name)
            try:
                return [injector.burst_lost() for _ in range(n)]
            finally:
                injector.end_session()

        assert draws("vp-a") == draws("vp-a")
        assert draws("vp-a") != draws("vp-b")
        assert any(draws("vp-a"))

    def test_storm_scale_applies_in_window(self, world):
        plan = FaultPlan(
            seed=4,
            specs=(RateLimitStorm(scale=0.25, start=0.0, duration=0.5),),
        )
        injector = FaultInjector(world.network, plan, horizon=10.0)
        injector.begin_session("vp-x")
        try:
            assert injector._storm_scale(1.0) == 0.25
            assert injector._storm_scale(7.0) == 1.0
            # The network installed the refill hook for its buckets.
            assert world.network._rate_scale is not None
        finally:
            injector.end_session()
        assert world.network._rate_scale is None

    def test_fault_drops_counted(self, world, targets):
        """A heavy loss-burst plan visibly kills packets, and the
        drops land in the fault counters."""
        from repro.faults.injector import fault_drop_counter
        from repro.obs.metrics import REGISTRY

        drops = fault_drop_counter(REGISTRY).labels(
            world.network.net_id, LossBurst.KIND
        )
        before = drops.value
        plan = FaultPlan(
            seed=11,
            specs=(LossBurst(p_enter=0.5, p_exit=0.1, drop_prob=1.0),),
        )
        injector = FaultInjector(world.network, plan)
        world.network.attach_injector(injector)
        try:
            vp = world.working_vps[0]
            # Loss chains are per-session state: probe inside one,
            # like the survey path does.
            world.network.begin_vp_session(vp.name)
            try:
                for dest in targets[:10]:
                    world.prober.ping_rr(vp, dest.addr)
            finally:
                world.network.end_vp_session()
        finally:
            world.network.detach_injector()
        assert drops.value > before


# ---------------------------------------------------------------------------
# Campaign resilience.
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_churn_recovers_unfaulted_bytes(self, world, targets,
                                            tmp_path):
        baseline = _survey_bytes(
            run_rr_survey(world, dests=targets), tmp_path, "base.json"
        )
        plan = FaultPlan(
            seed=99, specs=(VpChurn(prob=0.6, max_dark_attempts=2),)
        )
        result = CampaignRunner(
            world, plan=plan, max_retries=3
        ).run(targets=targets)
        assert not result.partial
        assert result.retry_rounds >= 1
        assert any(n > 1 for n in result.attempts.values())
        assert _survey_bytes(
            result.survey, tmp_path, "churn.json"
        ) == baseline

    def test_exhausted_retries_degrade_to_partial(self, world, targets):
        plan = FaultPlan(
            seed=99, specs=(VpChurn(prob=0.6, max_dark_attempts=2),)
        )
        result = CampaignRunner(
            world, plan=plan, max_retries=0
        ).run(targets=targets)
        assert result.partial
        dark = plan.churned_vps([vp.name for vp in world.vps])
        assert set(result.failed_vps) == set(dark)
        # Failed VPs contribute nothing, everyone else fully merged.
        manifest = result.manifest()
        assert manifest["partial"] is True
        assert manifest["failed_vps"] == sorted(dark)

    def test_budget_exhaustion_stops_retrying(self, world, targets):
        plan = FaultPlan(
            seed=99, specs=(VpChurn(prob=0.6, max_dark_attempts=2),)
        )
        result = CampaignRunner(
            world,
            plan=plan,
            max_retries=5,
            backoff_base=1000.0,  # first retry round blows the budget
            budget_seconds=10.0,
        ).run(targets=targets)
        assert result.partial
        assert result.retry_rounds == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kill_and_resume_is_byte_identical(
        self, world, targets, tmp_path, jobs
    ):
        plan = build_fault_plan("chaos", scenario_seed=7)
        uninterrupted = CampaignRunner(
            world, plan=plan, jobs=jobs, max_retries=4
        ).run(targets=targets)
        expect = _survey_bytes(
            uninterrupted.survey, tmp_path, f"full-{jobs}.json"
        )

        ck = tmp_path / f"ck-{jobs}.json"
        with pytest.raises(CampaignInterrupted):
            CampaignRunner(
                world,
                plan=plan,
                jobs=jobs,
                max_retries=4,
                checkpoint_path=ck,
                kill_after_vps=3,
            ).run(targets=targets)
        assert ck.exists()
        resumed = CampaignRunner(
            world, plan=plan, jobs=jobs, max_retries=4,
            checkpoint_path=ck,
        ).run(targets=targets, resume=True)
        assert resumed.resumed_vps >= 3
        assert _survey_bytes(
            resumed.survey, tmp_path, f"resumed-{jobs}.json"
        ) == expect

    def test_resume_requires_checkpoint_path(self, world, targets):
        with pytest.raises(ValueError):
            CampaignRunner(world).run(targets=targets, resume=True)

    def test_resume_with_missing_file_starts_fresh(
        self, world, targets, tmp_path
    ):
        ck = tmp_path / "never-written.json"
        result = CampaignRunner(
            world, checkpoint_path=ck
        ).run(targets=targets, resume=True)
        assert result.resumed_vps == 0
        assert not result.partial
        assert ck.exists()  # got written along the way

    def test_fingerprint_guards_resume(self, world, targets, tmp_path):
        ck = tmp_path / "ck.json"
        CampaignRunner(
            world,
            plan=build_fault_plan("loss-burst", scenario_seed=7),
            checkpoint_path=ck,
        ).run(targets=targets)
        other = build_fault_plan("chaos", scenario_seed=7)
        with pytest.raises(SurveyFormatError) as err:
            CampaignRunner(
                world, plan=other, checkpoint_path=ck
            ).run(targets=targets, resume=True)
        assert "fingerprint mismatch" in str(err.value)

    def test_checkpoint_corruption_is_civil(self, world, targets,
                                            tmp_path):
        ck = tmp_path / "ck.json"
        ck.write_text("{\"version\": 1, \"trunc", "utf-8")
        with pytest.raises(SurveyFormatError):
            CampaignRunner(
                world, checkpoint_path=ck
            ).run(targets=targets, resume=True)
        ck.write_text(json.dumps(embed_checksum({"version": 99})), "utf-8")
        with pytest.raises(SurveyFormatError) as err:
            load_checkpoint(ck)
        assert "version" in err.value.reason

    def test_validation(self, world):
        with pytest.raises(ValueError):
            CampaignRunner(world, max_retries=-1)
        with pytest.raises(ValueError):
            CampaignRunner(world, jobs=0)


# ---------------------------------------------------------------------------
# Satellite: civil failure surfaces.
# ---------------------------------------------------------------------------


class TestSurveyFormatError:
    def _rt(self, world, targets, tmp_path, name):
        survey = run_rr_survey(world, dests=targets[:5],
                               vps=list(world.vps)[:2])
        path = tmp_path / name
        save_survey(survey, path)
        return path

    def test_truncated_json(self, world, targets, tmp_path):
        path = self._rt(world, targets, tmp_path, "s.json")
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(SurveyFormatError) as err:
            load_survey(path)
        assert str(path) in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        with pytest.raises(SurveyFormatError) as err:
            load_survey(path)
        assert "truncated JSON" in str(err.value)

    def test_truncated_gzip(self, world, targets, tmp_path):
        path = self._rt(world, targets, tmp_path, "s.json.gz")
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(SurveyFormatError) as err:
            load_survey(path)
        assert "gzip" in str(err.value)

    def test_corrupt_gzip(self, tmp_path):
        path = tmp_path / "s.json.gz"
        path.write_bytes(b"not gzip at all")
        with pytest.raises(SurveyFormatError):
            load_survey(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(embed_checksum({"version": 42})), "utf-8")
        with pytest.raises(SurveyFormatError) as err:
            load_survey(path)
        assert "version" in err.value.reason

    def test_malformed_record(self, world, targets, tmp_path):
        path = self._rt(world, targets, tmp_path, "s.json")
        data = json.loads(path.read_text("utf-8"))
        data["vps"][0] = {"bogus": True}
        path.write_text(json.dumps(embed_checksum(data)), "utf-8")
        with pytest.raises(SurveyFormatError) as err:
            load_survey(path)
        assert "malformed" in err.value.reason

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[1, 2, 3]", "utf-8")
        with pytest.raises(SurveyFormatError):
            load_survey(path)

    def test_missing_file_is_not_format_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_survey(tmp_path / "nope.json")


class TestSurveyWorkerError:
    def test_pickle_roundtrip(self):
        err = SurveyWorkerError("rr", 3, "mlab-nyc", "KeyError: 'x'")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.task_kind == "rr"
        assert clone.index == 3
        assert clone.name == "mlab-nyc"
        assert "mlab-nyc" in str(clone)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_failure_names_the_vp(self, monkeypatch, targets, jobs):
        """A task failure arrives attributed, in process or in a
        forked worker."""
        import repro.faults.supervisor as supervisor_mod

        world = get_preset("tiny", 13)
        victim = world.vps[1].name
        real = supervisor_mod.probe_vp_rr

        def sabotaged(scenario, vp, *args, **kwargs):
            if vp.name == victim:
                raise RuntimeError("synthetic probe failure")
            return real(scenario, vp, *args, **kwargs)

        monkeypatch.setattr(supervisor_mod, "probe_vp_rr", sabotaged)
        with pytest.raises(SurveyWorkerError) as err:
            run_rr_survey(
                world, dests=targets[:5], vps=list(world.vps)[:3],
                jobs=jobs,
            )
        assert err.value.name == victim
        assert "synthetic probe failure" in err.value.message

    def test_campaign_retries_worker_failures(self, monkeypatch,
                                              targets):
        """The campaign driver treats a crashing VP as retryable and
        degrades to partial when it never heals."""
        import repro.faults.supervisor as supervisor_mod

        world = get_preset("tiny", 13)
        victim = world.vps[1].name
        real = supervisor_mod.probe_vp_rr

        def sabotaged(scenario, vp, *args, **kwargs):
            if vp.name == victim:
                raise RuntimeError("permanently broken")
            return real(scenario, vp, *args, **kwargs)

        monkeypatch.setattr(supervisor_mod, "probe_vp_rr", sabotaged)
        result = CampaignRunner(world, max_retries=1).run(
            targets=targets[:5], vps=list(world.vps)[:3]
        )
        assert result.partial
        assert result.failed_vps == [victim]
        assert result.attempts[victim] == 2  # initial + 1 retry


class TestWorkerDeath:
    """A worker process that dies mid-task (``os._exit``) is reported,
    never waited on. The alarm turns a pool that waits forever into a
    failure instead of a hung suite."""

    DEADLINE_SECONDS = 120

    @pytest.fixture()
    def deadline(self):
        def expired(_signum, _frame):
            raise TimeoutError("the pool never reported the dead worker")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(self.DEADLINE_SECONDS)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_survey_raises_naming_the_dead_vp(
        self, monkeypatch, targets, deadline
    ):
        import repro.faults.supervisor as supervisor_mod

        world = get_preset("tiny", 13)
        victim = world.vps[1].name
        real = supervisor_mod.probe_vp_rr
        parent = os.getpid()

        def dying(scenario, vp, *args, **kwargs):
            if vp.name == victim and os.getpid() != parent:
                os._exit(7)
            return real(scenario, vp, *args, **kwargs)

        monkeypatch.setattr(supervisor_mod, "probe_vp_rr", dying)
        with pytest.raises(SurveyWorkerError) as err:
            run_rr_survey(
                world, dests=targets[:5], vps=list(world.vps)[:3],
                jobs=2,
            )
        assert err.value.name == victim
        assert "died" in err.value.message

    def test_unsupervised_campaign_retries_the_dead_vp(
        self, monkeypatch, tmp_path, deadline
    ):
        """The victim's worker dies on every try of its first attempt
        (the pool's in-round try budget), then heals: the campaign
        retries it and the merged bytes equal a clean run's."""
        import repro.faults.supervisor as supervisor_mod

        def run(jobs):
            world = get_preset("tiny", 13)
            return CampaignRunner(world, jobs=jobs, max_retries=2).run(
                targets=list(world.hitlist)[:10], vps=list(world.vps)[:3]
            )

        clean = _survey_bytes(run(1).survey, tmp_path, "clean.json")
        victim = get_preset("tiny", 13).vps[1].name
        deaths = tmp_path / "deaths"
        deaths.mkdir()
        tries = SupervisionConfig().task_tries
        real = supervisor_mod.probe_vp_rr
        parent = os.getpid()

        def dying(scenario, vp, *args, **kwargs):
            if (
                vp.name == victim
                and os.getpid() != parent
                and len(list(deaths.iterdir())) < tries
            ):
                (deaths / str(os.getpid())).touch()
                os._exit(7)
            return real(scenario, vp, *args, **kwargs)

        monkeypatch.setattr(supervisor_mod, "probe_vp_rr", dying)
        result = run(2)
        assert len(list(deaths.iterdir())) == tries
        assert not result.partial
        assert result.attempts[victim] == 2
        assert _survey_bytes(result.survey, tmp_path, "pooled.json") == clean


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------


class TestChaosCli:
    def test_kill_then_resume(self, tmp_path, capsys):
        from repro.cli import EXIT_INTERRUPTED, main

        ck = tmp_path / "ck.json"
        out = tmp_path / "survey.json"
        code = main([
            "chaos", "--preset", "tiny", "--seed", "7",
            "--faults", "chaos", "--dests", "20",
            "--checkpoint", str(ck), "--kill-after-vps", "2",
        ])
        assert code == EXIT_INTERRUPTED
        capsys.readouterr()
        code = main([
            "chaos", "--preset", "tiny", "--seed", "7",
            "--faults", "chaos", "--dests", "20",
            "--checkpoint", str(ck), "--resume",
            "--save-survey", str(out),
        ])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["resumed_vps"] >= 2
        assert manifest["partial"] is False
        assert out.exists()

    def test_stats_faults_flag_populates_counters(self, capsys):
        from repro.cli import main
        from repro.core.study import clear_study_cache

        clear_study_cache()
        code = main([
            "stats", "--preset", "tiny", "--seed", "7",
            "--faults", "loss-burst",
        ])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "fault injection (by kind)" in rendered
        assert "loss_burst" in rendered
        assert "campaign resilience" in rendered
