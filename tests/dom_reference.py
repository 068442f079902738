"""Reference DOM for the flat-DOM equivalence tests: a tree of ``Node``
objects with text children, built either by ``html.parser`` or by the
same regex tokenizer as :func:`neocrawler_ray.functions.dom.parse_html`,
and a CSS matcher that walks the tree.  The selector grammar itself
(``compile_selector``) is shared with the engine; only the document
model and the matching walk are independent."""

from __future__ import annotations

from html import unescape
from html.parser import HTMLParser

from neocrawler_ray.functions.dom import (_ATTR_RE, _RAWTEXT_CLOSE, _TAG_RE,
                                          VOID_ELEMENTS, _apply_set_pseudos,
                                          _nth_matches, compile_selector)


class Node:
    __slots__ = ("name", "attrs", "children", "parent")

    def __init__(self, name: str, attrs=None):
        self.name = name
        self.attrs: dict[str, str] = {
            k: (v if v is not None else "") for k, v in (attrs or [])}
        self.children: list[object] = []  # Node | str (text)
        self.parent: Node | None = None

    def attr(self, name: str) -> str | None:
        return self.attrs.get(name)

    def text(self) -> str:
        out: list[str] = []
        stack: list[object] = list(reversed(self.children))
        while stack:
            n = stack.pop()
            if isinstance(n, str):
                out.append(n)
            else:
                stack.extend(reversed(n.children))
        return "".join(out)

    def html(self) -> str:
        return "".join(_serialize(c) for c in self.children)

    def iter_descendants(self):
        stack = [c for c in reversed(self.children) if isinstance(c, Node)]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(c for c in reversed(n.children)
                         if isinstance(c, Node))


def _serialize(n) -> str:
    if isinstance(n, str):
        return n
    attrs = "".join(f' {k}="{v}"' for k, v in n.attrs.items())
    if n.name in VOID_ELEMENTS:
        return f"<{n.name}{attrs}>"
    return f"<{n.name}{attrs}>{n.html()}</{n.name}>"


def _append(parent: Node, node: Node) -> None:
    node.parent = parent
    parent.children.append(node)


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Node("#root")
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        node = Node(tag, attrs)
        _append(self.stack[-1], node)
        if tag not in VOID_ELEMENTS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        _append(self.stack[-1], Node(tag, attrs))

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].name == tag:
                del self.stack[i:]
                break

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def parse_html_stdlib(content: str) -> Node:
    """html.parser-based tree (the reference tokenizer semantics)."""
    tb = _TreeBuilder()
    tb.feed(content)
    tb.close()
    return tb.root


def parse_tree(content: str) -> Node:
    """The engine's regex tokenizer building a ``Node`` tree: isolates
    the document model from tokenizer differences to html.parser."""
    root = Node("#root")
    stack = [root]
    i, n = 0, len(content)
    while i < n:
        lt = content.find("<", i)
        if lt < 0:
            lt = n
        if lt > i:
            data = content[i:lt]
            stack[-1].children.append(unescape(data) if "&" in data else data)
        if lt >= n:
            break
        m = _TAG_RE.match(content, lt)
        if m is None:
            stack[-1].children.append("<")
            i = lt + 1
            continue
        end_name, start_name, attr_text, self_close = m.group(1, 2, 3, 4)
        i = m.end()
        if start_name is not None:
            tag = start_name.lower()
            attrs = []
            for k, v in _ATTR_RE.findall(attr_text or ""):
                if v:
                    if v[0] in "\"'" and v[-1] == v[0] and len(v) > 1:
                        v = v[1:-1]
                    if "&" in v:
                        v = unescape(v)
                attrs.append((k.lower(), v))
            node = Node(tag, attrs)
            _append(stack[-1], node)
            if tag in _RAWTEXT_CLOSE and not self_close:
                closer = _RAWTEXT_CLOSE[tag].search(content, i)
                raw = content[i:closer.start()] if closer else content[i:]
                if raw:
                    if tag in ("title", "textarea") and "&" in raw:
                        raw = unescape(raw)
                    node.children.append(raw)
                i = closer.end() if closer else n
            elif tag not in VOID_ELEMENTS and not self_close:
                stack.append(node)
        elif end_name is not None:
            tag = end_name.lower()
            for k in range(len(stack) - 1, 0, -1):
                if stack[k].name == tag:
                    del stack[k:]
                    break
    return root


def _elem_siblings(node: Node) -> list[Node]:
    if node.parent is None:
        return [node]
    return [c for c in node.parent.children if isinstance(c, Node)]


def _simple_matches(simple, node: Node) -> bool:
    if simple.tag is not None and node.name != simple.tag:
        return False
    if any(node.attrs.get("id") != i for i in simple.ids):
        return False
    cls = set(node.attrs.get("class", "").split())
    if any(c not in cls for c in simple.classes):
        return False
    for k, v in simple.attrs:
        if k not in node.attrs or (v is not None and node.attrs[k] != v):
            return False
    if simple.nths:
        sibs = _elem_siblings(node)
        idx = sibs.index(node) + 1
        for a, b in simple.nths:
            if a is None:
                if idx != len(sibs):
                    return False
            elif not _nth_matches(a, b, idx):
                return False
    return True


def _match(g, node: Node, i: int) -> bool:
    comb, simple = g.steps[i]
    if not _simple_matches(simple, node):
        return False
    if i == 0:
        return True
    if comb in ("+", "~"):
        sibs = _elem_siblings(node)
        pos = sibs.index(node)
        if comb == "+":
            return pos > 0 and _match(g, sibs[pos - 1], i - 1)
        return any(_match(g, s, i - 1) for s in sibs[:pos])
    anc = node.parent
    if comb == ">":
        return anc is not None and anc.name != "#root" and _match(g, anc, i - 1)
    while anc is not None and anc.name != "#root":
        if _match(g, anc, i - 1):
            return True
        anc = anc.parent
    return False


def css_find(root: Node, expression: str) -> list[Node]:
    """Subtree walk: every descendant tested against every group."""
    groups = compile_selector(expression)
    per = {id(g): [] for g in groups}
    out = []
    for node in root.iter_descendants():
        hit = False
        for g in groups:
            if _match(g, node, len(g.steps) - 1):
                per[id(g)].append(node)
                if not hit:
                    out.append(node)
                    hit = True
    keep = set()
    for g in groups:
        keep.update(id(n) for n in _apply_set_pseudos(g, per[id(g)]))
    return [n for n in out if id(n) in keep]
