"""CSS selector matching tests."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.browser.css import (
    SimpleSelector,
    StyleMatchStats,
    StyleRule,
    Stylesheet,
    match_styles,
    parse_selector,
)
from repro.browser.html import parse_html


class TestSelectorParsing:
    def test_tag_selector(self):
        selector = parse_selector("div")
        assert selector.key.tag == "div"
        assert selector.key.classes == frozenset()

    def test_class_selector(self):
        selector = parse_selector(".card")
        assert selector.key.tag is None
        assert selector.key.classes == frozenset({"card"})

    def test_id_selector(self):
        selector = parse_selector("#main")
        assert selector.key.element_id == "main"

    def test_compound_selector(self):
        selector = parse_selector("div.card#hero")
        assert selector.key.tag == "div"
        assert selector.key.classes == frozenset({"card"})
        assert selector.key.element_id == "hero"

    def test_descendant_chain(self):
        selector = parse_selector("nav .item a")
        assert len(selector.parts) == 3
        assert selector.parts[0].tag == "nav"
        assert selector.key.tag == "a"

    def test_tag_is_lowercased(self):
        assert parse_selector("DIV").key.tag == "div"

    def test_empty_selector_rejected(self):
        with pytest.raises(ValueError):
            parse_selector("   ")


class TestSimpleMatching:
    def _node(self, markup):
        return parse_html(markup).children[0]

    def test_tag_match(self):
        assert SimpleSelector(tag="div").matches(self._node("<div></div>"))
        assert not SimpleSelector(tag="div").matches(self._node("<p></p>"))

    def test_class_match_requires_all_classes(self):
        node = self._node('<div class="a b"></div>')
        assert SimpleSelector(classes=frozenset({"a"})).matches(node)
        assert SimpleSelector(classes=frozenset({"a", "b"})).matches(node)
        assert not SimpleSelector(classes=frozenset({"a", "c"})).matches(node)

    def test_id_match(self):
        node = self._node('<div id="hero"></div>')
        assert SimpleSelector(element_id="hero").matches(node)
        assert not SimpleSelector(element_id="other").matches(node)

    def test_text_nodes_never_match(self):
        text = parse_html("<p>x</p>").children[0].children[0]
        assert not SimpleSelector().matches(text)


class TestDescendantMatching:
    def test_requires_ancestors_in_order(self):
        root = parse_html('<nav><div class="item"><a>x</a></div></nav>')
        nav = root.children[0]
        div = nav.children[0]
        anchor = div.children[0]
        selector = parse_selector("nav .item a")
        assert selector.matches(anchor, [nav, div])
        assert not selector.matches(anchor, [div])  # nav missing

    def test_non_adjacent_ancestors_allowed(self):
        root = parse_html("<nav><section><a>x</a></section></nav>")
        nav = root.children[0]
        section = nav.children[0]
        anchor = section.children[0]
        assert parse_selector("nav a").matches(anchor, [nav, section])


class TestMatchStyles:
    def test_candidate_checks_are_elements_times_rules(self):
        markup = "<div><p>x</p><p>y</p></div>"
        sheet = Stylesheet.from_selectors(["p", ".missing", "div"])
        stats = match_styles(parse_html(markup), sheet)
        assert stats.elements == 3
        assert stats.candidate_checks == 9

    def test_match_and_declaration_counts(self):
        markup = "<div><p>x</p><p>y</p></div>"
        sheet = Stylesheet.from_selectors(["p"], declarations=4)
        stats = match_styles(parse_html(markup), sheet)
        assert stats.matches == 2
        assert stats.applied_declarations == 8

    def test_descendant_rules_match_through_the_tree(self):
        markup = '<nav><a class="x">1</a></nav><a class="x">2</a>'
        sheet = Stylesheet.from_selectors(["nav .x"])
        stats = match_styles(parse_html(markup), sheet)
        assert stats.matches == 1

    def test_empty_stylesheet(self):
        stats = match_styles(parse_html("<div></div>"), Stylesheet())
        assert stats.candidate_checks == 0
        assert stats.matches == 0

    def test_stylesheet_len(self):
        assert len(Stylesheet.from_selectors(["a", "p"])) == 2


def naive_match_styles(root, sheet):
    """The O(elements x rules) pass: every rule against every element."""
    elements = checks = matches = applied = 0

    def visit(node, ancestors):
        nonlocal elements, checks, matches, applied
        if not node.is_text and not node.tag.startswith("#"):
            elements += 1
            for rule in sheet.rules:
                checks += 1
                if rule.selector.matches(node, ancestors):
                    matches += 1
                    applied += rule.declarations
            ancestors = ancestors + [node]
        for child in node.children:
            visit(child, ancestors)

    visit(root, [])
    return StyleMatchStats(
        elements=elements,
        candidate_checks=checks,
        matches=matches,
        applied_declarations=applied,
    )


_TAGS = ("div", "a", "p", "section")
_CLASSES = ("a", "b", "card")
_IDS = ("x", "main")


def _element_markup(tag, element_id, classes, children):
    attributes = ""
    if element_id is not None:
        attributes += f' id="{element_id}"'
    if classes is not None:
        attributes += f' class="{" ".join(classes)}"'
    return f"<{tag}{attributes}>{''.join(children)}</{tag}>"


_text = st.sampled_from(("t", "u v"))
_markup = st.recursive(
    _text,
    lambda children: st.builds(
        _element_markup,
        st.sampled_from(_TAGS),
        st.none() | st.sampled_from(_IDS),
        # Absent, empty, or up to three classes with repeats ("a a").
        st.none() | st.lists(st.sampled_from(_CLASSES), max_size=3),
        st.lists(children, max_size=4),
    ),
    max_leaves=24,
)


def _simple_chunk(tag, classes, element_id):
    chunk = (tag or "") + "".join(f".{name}" for name in classes)
    if element_id is not None:
        chunk += f"#{element_id}"
    # "." parses to a key with no tag, class or id: a universal key.
    return chunk or "."


_selector = st.lists(
    st.builds(
        _simple_chunk,
        st.none() | st.sampled_from(_TAGS),
        st.lists(st.sampled_from(_CLASSES), max_size=2),
        st.none() | st.sampled_from(_IDS),
    ),
    min_size=1,
    max_size=3,
).map(" ".join)
_rules = st.lists(
    st.tuples(_selector, st.integers(min_value=1, max_value=6)), max_size=10
)


class TestBucketedMatching:
    @given(
        st.lists(_markup, min_size=1, max_size=3).map("".join),
        _rules,
    )
    @example(markup='<div class="a a"><p class="a">t</p></div>', rules=[(".a", 2)])
    @example(markup="<div><p>t</p></div>", rules=[])
    @example(markup='<div id="x"><a class="b a">t</a></div>', rules=[("#x .a.b", 3)])
    @example(markup="<div><p>t</p></div>", rules=[("div .", 2), (".", 1)])
    def test_equals_the_naive_pass(self, markup, rules):
        sheet = Stylesheet(
            rules=[
                StyleRule(selector=parse_selector(text), declarations=declarations)
                for text, declarations in rules
            ]
        )
        root = parse_html(markup)
        assert match_styles(root, sheet) == naive_match_styles(root, sheet)
