"""The world's domain table, built in bulk, against a row-by-row reference.

``build_world`` encodes each behaviour group's domains as one batch
(:meth:`~repro.web.world.DomainTable.extend`) and hashes adoption ranks
and toplist memberships with the bulk ``stable_hashes``.  The reference
here builds the same table the plain way: one ``stable_hash`` per rank
and membership bit, one ``DomainTable.append`` per row.  Every column
must come out equal, with the same type and typecode.
"""

from __future__ import annotations

import pytest

import repro
from repro.util.rng import stable_hash
from repro.web.providers import UNRESOLVED_CNO, UNRESOLVED_TOPLIST
from repro.web.spec import HostGroupSpec, ProviderSpec, WorldConfig
from repro.web.world import TOPLIST_NAMES, DomainTable


def reference_domain_table(world) -> DomainTable:
    """The world's domain table, rebuilt one row at a time."""
    config = world.config
    table = DomainTable()
    sites_of: dict[tuple[str, str], list] = {}
    for site in world.sites:
        sites_of.setdefault((site.provider.name, site.group.key), []).append(site)
    for provider in world.provider_list:
        slug = provider.name.lower().replace(" ", "-")
        for group in provider.groups:
            group_sites = sites_of.get((provider.name, group.key), [])
            n_parked = config.quota(group.parked_domains, min_one=False)
            n_aaaa = config.quota(group.ipv6_domains, min_one=False)
            for j in range(config.quota(group.cno_domains)):
                site = group_sites[j % len(group_sites)]
                name = f"{slug}-{group.key}-{j:05d}.{('com', 'net', 'org')[j % 3]}"
                table.append(
                    name,
                    site.index,
                    "cno",
                    ("cno",),
                    parked=j < n_parked,
                    has_aaaa=site.ipv6 is not None and j < n_aaaa,
                    adoption_rank=stable_hash("adopt", name) % 10_000 / 10_000.0,
                )
            for j in range(config.quota(group.toplist_domains, min_one=False)):
                site = group_sites[j % len(group_sites)]
                name = f"top-{slug}-{group.key}-{j:04d}.com"
                membership = tuple(
                    list_name
                    for list_name in TOPLIST_NAMES
                    if stable_hash("toplist", list_name, name) % 100 < 70
                ) or ("tranco",)
                table.append(
                    name,
                    site.index,
                    "toplist",
                    membership,
                    adoption_rank=stable_hash("adopt", name) % 10_000 / 10_000.0,
                )
    for j in range(config.quota(UNRESOLVED_CNO)):
        table.append(f"unresolved-{j:06d}.{('com', 'net', 'org')[j % 3]}", -1, "cno", ("cno",))
    for j in range(config.quota(UNRESOLVED_TOPLIST)):
        table.append(f"top-unresolved-{j:05d}.com", -1, "toplist", ("tranco",))
    return table


#: Paper counts at :data:`CUSTOM_SCALE` = 10 000: one simulated domain
#: or IP per 10 000.
CUSTOM_SCALE = 10_000
CUSTOM_PROVIDERS = [
    ProviderSpec(
        "Zürich Hosting",
        64_510,
        (
            # 250 cno domains over 7 sites (not a multiple), 40 parked,
            # 600 toplist domains (some on no list but the fallback).
            HostGroupSpec(
                "mixed",
                cno_domains=2_500_000,
                ips=70_000,
                quic_profile="cloudflare",
                parked_domains=400_000,
                toplist_domains=6_000_000,
            ),
            # 90 cno domains over 4 sites, the first 30 with AAAA records.
            HostGroupSpec(
                "v6",
                cno_domains=900_000,
                ips=40_000,
                ipv6_domains=300_000,
                parked_domains=100_000,
            ),
        ),
    ),
    ProviderSpec(
        "Top Only",
        64_511,
        (HostGroupSpec("lists", cno_domains=0, ips=30_000, toplist_domains=500_000),),
    ),
]


def _custom_world():
    return repro.build_world(
        WorldConfig(scale=CUSTOM_SCALE), providers=CUSTOM_PROVIDERS, overrides=[]
    )


def test_custom_world_covers_every_batch_shape():
    world = _custom_world()
    table = world.domains
    group_rows: dict[str, list[int]] = {}
    for row, site_index in enumerate(table.site_indexes):
        if site_index >= 0:
            group_rows.setdefault(world.sites[site_index].group.key, []).append(row)
    mixed_cno = [row for row in group_rows["mixed"] if table.population(row) == "cno"]
    assert len(mixed_cno) % world.sites[table.site_indexes[mixed_cno[0]]].group_site_count
    assert any(table.parked(row) for row in mixed_cno)
    v6 = group_rows["v6"]
    assert 0 < sum(table.has_aaaa(row) for row in v6) < len(v6)
    assert {table.population(row) for row in group_rows["lists"]} == {"toplist"}
    on_no_list = [
        row
        for row in group_rows["mixed"]
        if table.population(row) == "toplist"
        and all(
            stable_hash("toplist", list_name, table.names[row]) % 100 >= 70
            for list_name in TOPLIST_NAMES
        )
    ]
    assert on_no_list and all(table.lists(row) == ("tranco",) for row in on_no_list)
    assert any(not name.isascii() for name in table.names)


@pytest.mark.parametrize(
    "build",
    [
        lambda: repro.build_world(WorldConfig(scale=1_000)),
        lambda: repro.build_world(WorldConfig(scale=40_000)),
        _custom_world,
    ],
    ids=["scale-1000", "scale-40000", "custom-providers"],
)
def test_bulk_build_equals_row_by_row_reference(build):
    world = build()
    reference = reference_domain_table(world)
    assert len(world.domains) == len(reference) > 0
    for column in DomainTable.__slots__:
        built, expected = getattr(world.domains, column), getattr(reference, column)
        assert type(built) is type(expected), column
        assert getattr(built, "typecode", None) == getattr(expected, "typecode", None), column
        assert built == expected, column
