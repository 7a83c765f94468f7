"""Pipeline: weekly runs, campaign, toplists, distributed vantages."""

import pytest

from repro.pipeline.campaign import campaign_weeks
from repro.pipeline.toplists import list_sizes, merged_toplist_domains, toplist_membership
from repro.pipeline.vantage import forwarded_targets, run_distributed
from repro.util.weeks import Week


def test_weekly_run_covers_all_domains(shape_world, reference_run):
    assert len(reference_run.observations) == len(shape_world.domains)


def test_unresolved_domains_have_no_ip(reference_run):
    unresolved = [o for o in reference_run.observations if not o.resolved]
    assert unresolved
    assert all(o.ip is None and o.quic is None for o in unresolved)


def test_site_scan_shared_across_domains(reference_run):
    """Per-IP scan results are attributed to every domain on the IP."""
    by_site = {}
    for obs in reference_run.observations:
        if obs.site_index >= 0 and obs.quic is not None:
            by_site.setdefault(obs.site_index, set()).add(id(obs.quic))
    multi = [site for site, ids in by_site.items() if len(ids) > 1]
    assert not multi  # one result object per site


def test_org_attribution_present(reference_run):
    quic_obs = [o for o in reference_run.observations if o.quic_available]
    assert quic_obs
    assert all(o.org != "<unknown>" for o in quic_obs)


def test_tracebox_only_on_abnormal_sites(shape_world, reference_run):
    from repro.core.validation import ValidationOutcome

    for site_index in reference_run.traces:
        record = reference_run.site_records[site_index]
        assert record.quic is not None
        assert record.quic.validation_outcome is not ValidationOutcome.CAPABLE


def test_campaign_weeks_ordered(campaign):
    weeks = campaign.weeks()
    assert weeks == sorted(weeks)
    assert campaign.closest_run(Week(2023, 14)).week == weeks[-1]


@pytest.mark.parametrize("cadence", [0, -4])
def test_campaign_weeks_rejects_non_positive_cadence(shape_world, cadence):
    # A zero cadence never advanced (an endless loop); a negative one
    # overflowed the week arithmetic.
    with pytest.raises(ValueError, match="cadence_weeks"):
        campaign_weeks(shape_world, cadence)


def test_campaign_run_at_missing_week_raises(campaign):
    with pytest.raises(KeyError):
        campaign.run_at(Week(2020, 1))


def test_campaign_run_at_uses_week_index(campaign):
    for run in campaign.runs:
        assert campaign.run_at(run.week) is run
        assert campaign.closest_run(run.week) is run  # exact hit, O(1)


def test_campaign_index_tolerates_direct_appends():
    """Analysis code appends to ``runs`` directly; the index must follow."""
    from repro.pipeline.campaign import Campaign
    from repro.pipeline.runs import WeeklyRun

    campaign = Campaign()
    first = WeeklyRun(week=Week(2023, 10), vantage_id="main-aachen", ip_version=4)
    campaign.runs.append(first)
    assert campaign.run_at(Week(2023, 10)) is first
    later = WeeklyRun(week=Week(2023, 12), vantage_id="main-aachen", ip_version=4)
    campaign.runs.append(later)
    assert campaign.run_at(Week(2023, 12)) is later
    assert campaign.closest_run(Week(2023, 11)).week in (Week(2023, 10), Week(2023, 12))
    with pytest.raises(ValueError):
        Campaign().closest_run(Week(2023, 10))


# ----------------------------------------------------------------------
# Toplists
# ----------------------------------------------------------------------
def test_toplist_merge_deduplicates(shape_world):
    week = shape_world.config.reference_week
    merged = merged_toplist_domains(shape_world, week)
    names = [d.name for d in merged]
    assert len(names) == len(set(names))
    assert merged


def test_toplist_churn_changes_membership(shape_world):
    domains = [d for d in shape_world.domains if d.population == "toplist"][:400]
    week_a, week_b = Week(2023, 14), Week(2023, 15)
    changed = sum(
        1
        for d in domains
        for name in d.lists
        if toplist_membership(d, name, week_a) != toplist_membership(d, name, week_b)
    )
    assert changed > 0  # lists churn week over week ...
    assert changed < len(domains)  # ... but only at the margins


def test_list_sizes_cover_all_four_lists(shape_world):
    sizes = list_sizes(shape_world, shape_world.config.reference_week)
    assert set(sizes) <= {"alexa", "umbrella", "majestic", "tranco"}
    assert sum(sizes.values()) > 0


# ----------------------------------------------------------------------
# Distributed vantages
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def distributed(shape_world, reference_run):
    return run_distributed(
        shape_world,
        main_run=reference_run,
        vantage_ids=[
            "main-aachen",
            "aws-frankfurt",
            "vultr-frankfurt",
            "vultr-honolulu",
            "aws-mumbai",
        ],
    )


def test_dedup_forwards_one_domain_per_ip(reference_run):
    targets = forwarded_targets(reference_run)
    ips = [t.ip for t in targets]
    assert len(ips) == len(set(ips))
    # Load reduction: far fewer requests than QUIC domains (factor ~40, §A).
    quic_domains = sum(
        1 for o in reference_run.observations
        if o.quic_available and o.population == "cno"
    )
    assert len(targets) * 5 < quic_domains


def test_mapped_domains_rescale(reference_run):
    targets = forwarded_targets(reference_run)
    total_mapped = sum(t.mapped_domains for t in targets)
    quic_domains = sum(
        1 for o in reference_run.observations
        if o.quic_available and o.population == "cno"
    )
    assert total_mapped == quic_domains


def test_wix_unreachable_from_honolulu(distributed):
    honolulu = distributed["vultr-honolulu"]
    frankfurt = distributed["aws-frankfurt"]
    assert len(honolulu.failed_sites) > len(frankfurt.failed_sites)
    # The failing heavy-hitters map to millions of paper-scale domains.
    failed_mapped = sum(honolulu.mapped_domains[s] for s in honolulu.failed_sites)
    assert failed_mapped > 0.15 * honolulu.total_mapped()


def test_india_undercount_spike(distributed):
    from repro.analysis.figures import vantage_error_categories

    cats = vantage_error_categories(distributed)
    assert cats["aws-mumbai"].get("Undercount", 0) > 3 * cats["aws-frankfurt"].get(
        "Undercount", 1
    )
    assert cats["aws-mumbai"].get("All CE", 0) > 0


def test_vultr_frankfurt_remark_free(distributed):
    from repro.analysis.figures import vantage_error_categories

    cats = vantage_error_categories(distributed)
    assert cats["vultr-frankfurt"].get("Re-Marking ECT(1)", 0) < cats[
        "aws-frankfurt"
    ].get("Re-Marking ECT(1)", 0)


def test_network_error_total_stays_comparable(distributed):
    """§8: categories shift between vantages, the network-error total
    stays even (re-marking trades against clearing/no-mirroring)."""
    from repro.analysis.figures import vantage_error_categories

    cats = vantage_error_categories(distributed)
    reachable_totals = {
        vid: sum(v for k, v in c.items() if k != "Unavailable")
        for vid, c in cats.items()
        if vid in ("main-aachen", "aws-frankfurt", "vultr-frankfurt")
    }
    values = list(reachable_totals.values())
    assert max(values) < 1.2 * min(values)
