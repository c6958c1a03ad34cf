"""Style rules and selector matching.

A deliberately small CSS subset sufficient to drive the *style
recalculation* stage of the render pipeline: simple selectors (tag,
``.class``, ``#id``) and descendant combinators of simple selectors.
:func:`match_styles` counts the matching work of a full style pass;
the style stage's compute cost in :mod:`repro.browser.render` is sized
from the *modelled* naive pass (every rule checked against every
element, plus the declarations applied), which is how CSS-heavy pages
become slower to load than structurally similar CSS-light ones.  The
host itself does less: it files rules by key selector and fully
matches only each element's candidate rules, the way real engines do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.browser.dom import DomNode


@dataclass(frozen=True)
class SimpleSelector:
    """A simple selector: optional tag, classes, and id."""

    tag: str | None = None
    classes: frozenset[str] = frozenset()
    element_id: str | None = None

    def matches(self, node: DomNode) -> bool:
        """Whether the selector matches a DOM element."""
        if node.is_text:
            return False
        if self.tag is not None and node.tag != self.tag:
            return False
        if self.element_id is not None:
            if node.attributes.get("id") != self.element_id:
                return False
        if self.classes:
            node_classes = set(node.attributes.get("class", "").split())
            if not self.classes <= node_classes:
                return False
        return True


@dataclass(frozen=True)
class Selector:
    """A descendant-combinator chain of simple selectors.

    ``div .headline a`` is three simple selectors; the last one (the
    *key* selector) must match the node and the preceding ones must
    match ancestors in order.
    """

    parts: tuple[SimpleSelector, ...]

    @property
    def key(self) -> SimpleSelector:
        """The rightmost simple selector."""
        return self.parts[-1]

    def matches(self, node: DomNode, ancestors: list[DomNode]) -> bool:
        """Match against a node given its ancestor chain (outermost first)."""
        if not self.key.matches(node):
            return False
        remaining = list(self.parts[:-1])
        if not remaining:
            return True
        position = 0
        for ancestor in ancestors:
            if position < len(remaining) and remaining[position].matches(ancestor):
                position += 1
        return position == len(remaining)


def parse_selector(text: str) -> Selector:
    """Parse a selector string like ``div.card a`` or ``#main .item``."""
    parts = []
    for chunk in text.split():
        parts.append(_parse_simple(chunk))
    if not parts:
        raise ValueError("empty selector")
    return Selector(parts=tuple(parts))


def _parse_simple(chunk: str) -> SimpleSelector:
    tag: str | None = None
    classes: set[str] = set()
    element_id: str | None = None
    token = ""
    mode = "tag"
    for char in chunk + "\0":
        if char in ".#\0":
            if token:
                if mode == "tag":
                    tag = token.lower()
                elif mode == "class":
                    classes.add(token)
                else:
                    element_id = token
            token = ""
            mode = "class" if char == "." else "id" if char == "#" else mode
        else:
            token += char
    return SimpleSelector(
        tag=tag, classes=frozenset(classes), element_id=element_id
    )


@dataclass(frozen=True)
class StyleRule:
    """One CSS rule: a selector and its declaration count.

    Only the *number* of declarations matters for the cost model.
    """

    selector: Selector
    declarations: int = 1


@dataclass
class Stylesheet:
    """An ordered collection of style rules."""

    rules: list[StyleRule] = field(default_factory=list)

    @classmethod
    def from_selectors(cls, selectors: list[str], declarations: int = 3) -> "Stylesheet":
        """Build a sheet from selector strings, all with equal weight."""
        return cls(
            rules=[
                StyleRule(selector=parse_selector(text), declarations=declarations)
                for text in selectors
            ]
        )

    def __len__(self) -> int:
        return len(self.rules)


@dataclass(frozen=True)
class StyleMatchStats:
    """Work of a full style recalculation pass.

    Attributes:
        elements: Element nodes visited.
        candidate_checks: (element, rule) key-selector checks of the
            modelled naive pass, ``elements x len(sheet.rules)``: the
            count that sizes the style phase, not the number of checks
            :func:`match_styles` performs on the host.
        matches: Rules that fully matched some element.
        applied_declarations: Total declarations applied.
    """

    elements: int
    candidate_checks: int
    matches: int
    applied_declarations: int


@dataclass
class _RuleMap:
    """A sheet's rules filed by key selector.

    A rule whose key names an id is filed under that id, else under one
    of its classes, else under its tag; the rest (no id, class or tag)
    are universal.  A key matches an element only if the element has
    the id, class or tag the rule is filed under, so an element's
    candidates are the rules under its id, its classes and its tag,
    plus the universal ones -- each rule at most once.
    """

    by_id: dict[str, list[StyleRule]] = field(default_factory=dict)
    by_class: dict[str, list[StyleRule]] = field(default_factory=dict)
    by_tag: dict[str, list[StyleRule]] = field(default_factory=dict)
    universal: list[StyleRule] = field(default_factory=list)

    @classmethod
    def of(cls, sheet: Stylesheet) -> "_RuleMap":
        """File every rule of a sheet, in sheet order."""
        rule_map = cls()
        for rule in sheet.rules:
            key = rule.selector.key
            if key.element_id is not None:
                rule_map.by_id.setdefault(key.element_id, []).append(rule)
            elif key.classes:
                rule_map.by_class.setdefault(min(key.classes), []).append(rule)
            elif key.tag is not None:
                rule_map.by_tag.setdefault(key.tag, []).append(rule)
            else:
                rule_map.universal.append(rule)
        return rule_map

    def candidates(self, node: DomNode) -> list[StyleRule]:
        """The rules whose key selector could match an element."""
        found: list[StyleRule] = []
        element_id = node.attributes.get("id")
        if element_id is not None:
            found += self.by_id.get(element_id, ())
        for name in sorted(set(node.attributes.get("class", "").split())):
            found += self.by_class.get(name, ())
        found += self.by_tag.get(node.tag, ())
        found += self.universal
        return found


def match_styles(root: DomNode, sheet: Stylesheet) -> StyleMatchStats:
    """Run selector matching over a whole document.

    Rules are bucketed by key selector (:class:`_RuleMap`), and each
    element fully matches only its candidate rules, so the host does
    far fewer than the O(elements x rules) checks of a naive pass.  The
    returned stats are those of that naive pass -- ``candidate_checks``
    is the modelled ``elements x len(sheet.rules)`` -- and feed the
    style-phase cost model.
    """
    rule_map = _RuleMap.of(sheet)
    elements = 0
    matches = 0
    applied = 0

    def visit(node: DomNode, ancestors: list[DomNode]) -> None:
        nonlocal elements, matches, applied
        if not node.is_text and not node.tag.startswith("#"):
            elements += 1
            for rule in rule_map.candidates(node):
                if rule.selector.matches(node, ancestors):
                    matches += 1
                    applied += rule.declarations
            ancestors = ancestors + [node]
        for child in node.children:
            visit(child, ancestors)

    visit(root, [])
    return StyleMatchStats(
        elements=elements,
        candidate_checks=elements * len(sheet.rules),
        matches=matches,
        applied_declarations=applied,
    )
