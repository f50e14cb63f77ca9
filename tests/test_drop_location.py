"""Tests for repro.core.drop_location (the 2005 motivating statistic)."""

import pytest

from repro.core.drop_location import (
    DropSite,
    localize_drop,
    run_drop_study,
)
from repro.core.study import run_full_study
from repro.scenarios.presets import get_preset


@pytest.fixture(scope="module")
def study(tiny_scenario, tiny_study):
    return run_drop_study(
        tiny_scenario,
        tiny_study.ping_survey,
        tiny_study.rr_survey,
        sample=40,
    )


class TestLocalization:
    def test_host_dropper_localised_to_destination(
        self, tiny_scenario
    ):
        network = tiny_scenario.network
        vp = tiny_scenario.working_vps[0]
        dropper = next(
            host
            for dest in tiny_scenario.hitlist
            if (host := network.host_for(dest)).ping_responsive
            and host.drops_options
            and not tiny_scenario.graph[host.asn].filters_options
        )
        result = localize_drop(tiny_scenario, vp, dropper.addr)
        assert result.site in (DropSite.DESTINATION, DropSite.UNKNOWN)
        if result.site is DropSite.DESTINATION:
            assert result.deepest_surviving_ttl > 0

    def test_filtering_dest_as_localised_to_destination(
        self, tiny_scenario
    ):
        network = tiny_scenario.network
        vp = tiny_scenario.working_vps[0]
        target = None
        for dest in tiny_scenario.hitlist:
            if not tiny_scenario.graph[dest.asn].filters_options:
                continue
            host = network.host_for(dest)
            if host.ping_responsive:
                target = dest
                break
        if target is None:
            pytest.skip("no pingable host inside a filtering AS")
        result = localize_drop(tiny_scenario, vp, target.addr)
        assert result.site in (DropSite.DESTINATION, DropSite.UNKNOWN)
        if result.blamed_asn is not None:
            assert result.blamed_asn == target.asn

    def test_filtered_vp_localised_to_source(self, tiny_scenario):
        filtered = [vp for vp in tiny_scenario.vps if vp.local_filtered]
        if not filtered:
            pytest.skip("no locally-filtered VP")
        dest = list(tiny_scenario.hitlist)[0]
        result = localize_drop(tiny_scenario, filtered[0], dest.addr)
        assert result.site is DropSite.SOURCE
        assert result.deepest_surviving_ttl == 0

    def test_reachable_pair_reports_delivered(self, tiny_scenario,
                                              tiny_study):
        survey = tiny_study.rr_survey
        vp_index = survey.vp_indices(include_filtered=False)[0]
        vp = survey.vps[vp_index]
        dest_index = survey.reachable_from_vp(vp_index)[0]
        dest = survey.dests[dest_index]
        result = localize_drop(tiny_scenario, vp, dest.addr)
        assert result.site is DropSite.DELIVERED


class TestStudy:
    def test_candidates_were_rr_dark_for_this_vp(self, study,
                                                 tiny_study):
        assert study.results
        survey = tiny_study.rr_survey
        vp_name = study.results[0].vp_name
        vp_index = survey.vp_indices(names=[vp_name])[0]
        for result in study.results:
            dest_index = survey.index_of_addr(result.dst)
            assert vp_index not in survey.responses[dest_index]

    def test_edge_dominates_transit(self, study):
        # The motivating 2005 statistic: ~91% of drops at the edge.
        counts = study.counts()
        located = (
            counts[DropSite.SOURCE]
            + counts[DropSite.TRANSIT]
            + counts[DropSite.DESTINATION]
        )
        if located < 10:
            pytest.skip("too few localised drops to compare")
        assert study.edge_fraction > 0.6

    def test_blamed_asns_really_block_options(self, study,
                                              tiny_scenario):
        """Ground-truth audit: when we blame a destination AS, either
        the AS filters options or its probed host drops them."""
        network = tiny_scenario.network
        for result in study.results:
            if result.site is not DropSite.DESTINATION:
                continue
            host = network.host_of_addr(result.dst)
            as_filters = tiny_scenario.graph[host.asn].filters_options
            assert as_filters or host.drops_options or host.silent_hops

    def test_render(self, study):
        text = study.render()
        assert "2005" in text and "edge" in text


def _drop_study_after_surveys(jobs: int):
    """The RR and ping surveys on a fresh tiny world at ``jobs``, then
    the drop study that reads them, as ``repro study`` runs them."""
    data = run_full_study(get_preset("tiny", 2016), jobs=jobs)
    return run_drop_study(
        data.scenario, data.ping_survey, data.rr_survey, sample=50
    )


def test_drop_study_repeats_at_any_survey_jobs():
    """Surveys run in this process at jobs=1 and leave limiter, clock
    and loss state behind; at jobs=2 the RR survey runs in workers and
    leaves none. Each localisation probes in its own session, so the
    study reads none of it."""
    serial = _drop_study_after_surveys(1)
    assert serial.results
    assert _drop_study_after_surveys(2).results == serial.results
