"""Measurement pipeline: weekly scans, campaigns, distributed vantages."""

from repro.pipeline.campaign import Campaign, campaign_weeks, run_campaign
from repro.pipeline.checkpoint import CampaignCheckpointer, campaign_checkpoint_key
from repro.pipeline.engine import ScanEngine, ScanPhaseStats, ShardResultMissing
from repro.pipeline.runs import WeeklyRun, run_weekly_scan, run_weekly_scan_reference
from repro.pipeline.sharding import (
    ShmPoolScanEngine,
    SupervisionStats,
    Ticket,
    plan_tickets,
)
from repro.pipeline.toplists import merged_toplist_domains
from repro.pipeline.vantage import VantageRun, run_distributed

__all__ = [
    "Campaign",
    "CampaignCheckpointer",
    "campaign_checkpoint_key",
    "campaign_weeks",
    "run_campaign",
    "ScanEngine",
    "ScanPhaseStats",
    "ShardResultMissing",
    "ShmPoolScanEngine",
    "SupervisionStats",
    "Ticket",
    "plan_tickets",
    "WeeklyRun",
    "run_weekly_scan",
    "run_weekly_scan_reference",
    "merged_toplist_domains",
    "VantageRun",
    "run_distributed",
]
