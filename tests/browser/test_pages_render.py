"""Page generator and render-pipeline tests."""

import pytest

from repro.browser import pages
from repro.browser.browser import browser_tasks
from repro.browser.css import match_styles
from repro.browser.dom import DomNode
from repro.browser.pages import (
    HIGH_INTENSITY_PAGES,
    LOW_INTENSITY_PAGES,
    alexa_pages,
    build_page,
    page_by_name,
    page_names,
)
from repro.browser.render import RenderCostModel, build_render_workload

#: Per page: the ``StyleMatchStats`` fields (elements, candidate checks,
#: matches, applied declarations) and the default-cost instruction
#: budgets of the parse, style, layout and paint phases, as the naive
#: O(elements x rules) matcher produced them.  Simulated load times,
#: trained models and the calibration all follow from these.
GOLDEN_WORKLOADS = {
    "360": (
        (216, 8640, 643, 1929),
        (31950000.0, 20193750.0, 59250000.0, 37260000.0),
    ),
    "twitter": (
        (286, 13728, 484, 2420),
        (42210000.0, 29667000.0, 78375000.0, 55890000.0),
    ),
    "instagram": (
        (256, 11264, 515, 3090),
        (34650000.0, 28483500.0, 72750000.0, 116640000.0),
    ),
    "alipay": (
        (324, 16848, 689, 4134),
        (48240000.0, 40774500.0, 89625000.0, 53190000.0),
    ),
    "reddit": (
        (1189, 66584, 4147, 12441),
        (184320000.0, 146529750.0, 312187500.0, 209475000.0),
    ),
    "amazon": (
        (552, 35328, 1504, 4512),
        (83610000.0, 69912000.0, 145500000.0, 117720000.0),
    ),
    "youtube": (
        (493, 29580, 1320, 7920),
        (71100000.0, 74070000.0, 132937500.0, 183195000.0),
    ),
    "ebay": (
        (664, 42496, 2733, 5466),
        (101070000.0, 84241500.0, 175125000.0, 133380000.0),
    ),
    "msn": (
        (808, 58176, 2826, 11304),
        (123030000.0, 129654000.0, 213375000.0, 162540000.0),
    ),
    "bbc": (
        (928, 74240, 3269, 16345),
        (142650000.0, 172653750.0, 246000000.0, 168480000.0),
    ),
    "cnn": (
        (1017, 85428, 5294, 31764),
        (155520000.0, 247257000.0, 268687500.0, 200475000.0),
    ),
    "alibaba": (
        (1178, 103664, 4673, 9346),
        (179910000.0, 190543500.0, 310125000.0, 247230000.0),
    ),
    "imgur": (
        (2656, 254976, 15085, 75425),
        (388350000.0, 665307750.0, 733125000.0, 922860000.0),
    ),
    "firefox": (
        (3250, 357500, 18472, 110832),
        (501210000.0, 951870000.0, 869250000.0, 599130000.0),
    ),
    "hao123": (
        (3259, 391080, 13676, 27352),
        (521820000.0, 689190000.0, 800812500.0, 738045000.0),
    ),
    "espn": (
        (3553, 461890, 20837, 125022),
        (556290000.0, 1161667500.0, 899062500.0, 649755000.0),
    ),
    "imdb": (
        (3052, 427280, 11848, 47392),
        (477450000.0, 818640000.0, 770250000.0, 629820000.0),
    ),
    "aliexpress": (
        (4076, 611400, 20141, 80564),
        (637290000.0, 1219215000.0, 1026750000.0, 943380000.0),
    ),
}


class TestPageGeneration:
    def test_eighteen_pages(self):
        assert len(alexa_pages()) == 18
        assert len(page_names()) == 18

    def test_class_lists_partition_the_pages(self):
        assert set(LOW_INTENSITY_PAGES) | set(HIGH_INTENSITY_PAGES) == set(
            page_names()
        )
        assert not set(LOW_INTENSITY_PAGES) & set(HIGH_INTENSITY_PAGES)

    def test_generation_is_deterministic(self):
        page = page_by_name("reddit")
        rebuilt = build_page(page.profile)
        assert rebuilt.html == page.html
        assert rebuilt.features == page.features

    def test_unknown_page_rejected(self):
        with pytest.raises(KeyError):
            page_by_name("geocities")

    def test_census_features_are_plausible(self):
        for page in alexa_pages():
            assert page.features.dom_nodes > 100
            assert page.features.a_tags > 0
            assert page.features.div_tags > 0
            assert page.features.href_attributes >= page.features.a_tags

    def test_high_complexity_pages_have_more_nodes(self):
        low_max = max(
            page_by_name(n).features.dom_nodes for n in LOW_INTENSITY_PAGES
        )
        high_min = min(
            page_by_name(n).features.dom_nodes for n in HIGH_INTENSITY_PAGES
        )
        assert high_min > low_max * 0.8  # heavy pages are structurally bigger

    def test_markup_is_parseable_real_html(self):
        page = page_by_name("amazon")
        assert page.html.startswith("<!DOCTYPE html>")
        assert page.dom.find_all("body")
        assert page.dom.find_all("img")

    def test_stylesheet_rule_count_matches_profile(self):
        page = page_by_name("espn")
        assert len(page.stylesheet) == page.profile.css_rules

    def test_alexa_pages_are_the_page_by_name_objects(self):
        for index, name in enumerate(page_names()):
            assert page_by_name(name) is alexa_pages()[index]

    def test_page_by_name_builds_only_the_requested_page(self, monkeypatch):
        built = []

        def spy(profile):
            built.append(profile.name)
            return build_page(profile)

        monkeypatch.setattr(pages, "build_page", spy)
        # The uncached lookup, so the process-wide page cache stays warm.
        assert page_by_name.__wrapped__("espn").name == "espn"
        assert built == ["espn"]


class TestRenderWorkload:
    def test_four_pipeline_stages_in_order(self):
        workload = build_render_workload(page_by_name("msn"))
        assert [phase.name for phase in workload.phases] == [
            "parse",
            "style",
            "layout",
            "paint",
        ]

    def test_instructions_grow_with_page_complexity(self):
        small = build_render_workload(page_by_name("360"))
        large = build_render_workload(page_by_name("aliexpress"))
        assert large.total_instructions > 3 * small.total_instructions

    def test_style_stage_reflects_selector_matching_work(self):
        workload = build_render_workload(page_by_name("bbc"))
        stats = workload.style_stats
        assert stats.candidate_checks == stats.elements * len(
            page_by_name("bbc").stylesheet
        )

    def test_cost_model_scales_stage_budgets(self):
        page = page_by_name("cnn")
        base = build_render_workload(page)
        doubled = build_render_workload(
            page, RenderCostModel(parse_per_node=180_000.0)
        )
        assert doubled.phases[0].instructions > base.phases[0].instructions
        assert doubled.phases[1].instructions == base.phases[1].instructions

    def test_media_weight_drives_paint_memory_character(self):
        lean = build_render_workload(page_by_name("alipay")).phases[3]
        rich = build_render_workload(page_by_name("imgur")).phases[3]
        assert rich.l2_apki > lean.l2_apki
        assert rich.working_set_bytes > lean.working_set_bytes

    def test_page_work_runs_once_per_page(self, monkeypatch):
        matched = []
        walked = []
        find_all = DomNode.find_all

        def match_spy(root, sheet):
            matched.append(root)
            return match_styles(root, sheet)

        def find_all_spy(node, tag):
            walked.append(tag)
            return find_all(node, tag)

        monkeypatch.setattr(pages, "match_styles", match_spy)
        monkeypatch.setattr(DomNode, "find_all", find_all_spy)
        page = build_page(page_by_name("reddit").profile)
        first = browser_tasks(page)
        second = browser_tasks(page)
        assert len(matched) == 1
        assert walked == ["img"]
        assert first.workload == second.workload

    @pytest.mark.parametrize("name", page_names())
    def test_workload_matches_golden_table(self, name):
        workload = build_render_workload(page_by_name(name))
        stats = workload.style_stats
        assert (
            stats.elements,
            stats.candidate_checks,
            stats.matches,
            stats.applied_declarations,
        ) == GOLDEN_WORKLOADS[name][0]
        assert (
            tuple(phase.instructions for phase in workload.phases)
            == GOLDEN_WORKLOADS[name][1]
        )


class TestBrowserTasks:
    def test_main_gates_helper_does_not(self):
        tasks = browser_tasks(page_by_name("reddit"))
        assert tasks.main.gating is True
        assert tasks.helper.gating is False

    def test_cores_are_distinct(self):
        tasks = browser_tasks(page_by_name("reddit"))
        assert tasks.main.core != tasks.helper.core

    def test_helper_work_is_a_fraction_of_main(self):
        tasks = browser_tasks(page_by_name("reddit"), helper_fraction=0.5)
        main_total = sum(p.instructions for p in tasks.main.phases)
        helper_total = sum(p.instructions for p in tasks.helper.phases)
        assert helper_total == pytest.approx(0.5 * main_total)

    def test_invalid_helper_fraction_rejected(self):
        with pytest.raises(ValueError):
            browser_tasks(page_by_name("reddit"), helper_fraction=0.0)
        with pytest.raises(ValueError):
            browser_tasks(page_by_name("reddit"), helper_fraction=1.5)

    def test_as_list_orders_main_first(self):
        tasks = browser_tasks(page_by_name("reddit"))
        assert tasks.as_list()[0] is tasks.main
