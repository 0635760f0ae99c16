"""Prometheus rendering of the export's flat metrics map.

:func:`~repro.obs.export.render_prometheus` is a pure function of the
``{"counters", "gauges", "histograms"}`` map, so series naming and
shapes pin without a campaign on disk.
"""

from repro.obs.export import render_prometheus


def test_prometheus_name_mangling():
    text = render_prometheus({"gauges": {"ecc.rs.miscorrections": 2}})
    assert text == (
        "# TYPE repro_ecc_rs_miscorrections gauge\n"
        "repro_ecc_rs_miscorrections 2\n"
    )


def test_render_prometheus_series_shapes():
    text = render_prometheus({
        "counters": {"campaign.completed": 3,
                     "campaign.failures.worker_death": 1},
        "gauges": {"campaign.scenario_count": 4},
        "histograms": {"trace.store.append": {
            "count": 1, "total": 0.25, "min": None, "max": None,
            "mean": None,
        }},
    })
    assert "# TYPE repro_campaign_completed_total counter" in text
    assert "repro_campaign_completed_total 3" in text
    assert "repro_campaign_failures_worker_death_total 1" in text
    assert "# TYPE repro_campaign_scenario_count gauge" in text
    assert "repro_campaign_scenario_count 4" in text
    # Histograms render as a summary pair.
    assert "# TYPE repro_trace_store_append summary" in text
    assert "repro_trace_store_append_count 1" in text
    assert "repro_trace_store_append_sum 0.25" in text
    assert text.endswith("\n")
