"""Minimal flat DOM + CSS-selector engine on the Python stdlib.

The execution environment ships no HTML parser (no lxml / bs4 /
selectolax), so the extract stage carries its own.  Semantics follow
what the reference's cheerio usage actually exercises (reference:
spider/extractor.js:316-367 — ``cssSelector`` / ``cssSelectorPicker``):

- ``find(expr)`` returns matched elements in document order;
- ``text()`` is the concatenation of all descendant text nodes in document
  order with no added separators (cheerio ``.text()``);
- ``html()`` is the inner-HTML serialization;
- ``attr(name)`` returns the attribute or ``None``.

Layout: a parsed page is one :class:`_Doc` of parallel lists filled by a
single tokenizer pass, not a tree of per-node objects.  Element ``i``
(``0`` is the synthetic ``#root``) has ``names[i]``, ``parents[i]``,
``ends[i]`` (one past its last descendant), ``attrs[i]`` (a dict, or
``None`` for a tag without attributes) and the text-chunk span
``texts[tstarts[i]:tends[i]]``.  Elements and text chunks are numbered
in document order, so an element's descendants are the index range
``(i, ends[i])`` and its text is one contiguous slice of ``texts``.
``index`` maps each tag name, ``#id`` and ``.class`` to the ascending
element indexes that carry it.  :func:`css_find` has one path: the
candidates of a group's last compound come from ``index``, clipped to
the context element's descendant range, and are matched by
``_Compiled``/``_Simple`` over indexes.  :class:`Element` views are made
only for the root and for the elements a selector returns.

Selector grammar supported (cheerio parity for the selector forms real
neocrawler instance configs use — reference instance/*/*.json rules):
comma groups; descendant (space), child (``>``), adjacent-sibling
(``+``) and general-sibling (``~``) combinators; compound simple
selectors ``tag``, ``.class``, ``#id``, ``[attr]``, ``[attr=val]``,
``*``; structural pseudo-classes ``:first-child``, ``:last-child``,
``:nth-child(an+b|odd|even|k)``; and the jQuery result-set pseudos
``:first`` / ``:last`` / ``:eq(n)`` when trailing the final step.

The corpus generated by :mod:`neocrawler_ray.sources.pages_gen` is
well-formed, entity-free HTML with double-quoted attributes, so parsing +
re-serialization round-trips byte-identically — the basis of the
byte-identical extracted-text parity invariant (BASELINE.json input_hint).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from html import unescape
from typing import NamedTuple

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class _Doc(NamedTuple):
    """The parallel lists of one parsed page (see the module docstring)."""

    names: list[str]
    parents: list[int]
    ends: list[int]
    attrs: list[dict[str, str] | None]
    tstarts: list[int]
    tends: list[int]
    texts: list[str]
    index: dict[str, list[int]]


def _child_elements(doc: _Doc, p: int) -> list[int]:
    ends = doc.ends
    out = []
    j, e = p + 1, ends[p]
    while j < e:
        out.append(j)
        j = ends[j]
    return out


def _siblings(doc: _Doc, i: int) -> list[int]:
    p = doc.parents[i]
    return [i] if p < 0 else _child_elements(doc, p)


class Element:
    """A view of element ``i`` of a parsed page (cheerio-ish API)."""

    __slots__ = ("doc", "i")

    def __init__(self, doc: _Doc, i: int):
        self.doc = doc
        self.i = i

    @property
    def name(self) -> str:
        return self.doc.names[self.i]

    @property
    def attrs(self) -> dict[str, str]:
        return self.doc.attrs[self.i] or {}

    def attr(self, name: str) -> str | None:
        a = self.doc.attrs[self.i]
        return None if a is None else a.get(name)

    def text(self) -> str:
        d = self.doc
        return "".join(d.texts[d.tstarts[self.i]:d.tends[self.i]])

    def html(self) -> str:
        """Inner HTML: the descendants' tags interleaved with their text
        chunks, each element closed once its subtree range ends."""
        d, i = self.doc, self.i
        names, ends, attrs, texts = d.names, d.ends, d.attrs, d.texts
        tstarts, tends = d.tstarts, d.tends
        out: list[str] = []
        t = tstarts[i]
        open_: list[int] = []
        for j in range(i + 1, ends[i] + 1):
            while open_ and ends[open_[-1]] <= j:
                c = open_.pop()
                out += texts[t:tends[c]]
                t = tends[c]
                out.append(f"</{names[c]}>")
            if j == ends[i]:
                break
            out += texts[t:tstarts[j]]
            t = tstarts[j]
            name, a = names[j], attrs[j]
            if a is None:
                out.append(f"<{name}>")
            else:
                out.append(f"<{name}"
                           + "".join(f' {k}="{v}"' for k, v in a.items())
                           + ">")
            if name not in VOID_ELEMENTS:
                open_.append(j)
        out += texts[t:tends[i]]
        return "".join(out)

    @property
    def children(self) -> list["Element"]:
        """Direct child elements (text chunks are not elements)."""
        d = self.doc
        return [Element(d, j) for j in _child_elements(d, self.i)]

    @property
    def parent(self) -> "Element | None":
        p = self.doc.parents[self.i]
        return None if p < 0 else Element(self.doc, p)

    def iter_descendants(self):
        d = self.doc
        for j in range(self.i + 1, d.ends[self.i]):
            yield Element(d, j)

    def find(self, expression: str) -> list["Element"]:
        return css_find(self, expression)


# One compiled-regex tokenizer pass instead of html.parser's
# char-by-char goahead loop.  Matches html.parser(convert_charrefs=True)
# behavior for standard markup: lowercased tag/attr names, charref
# unescaping in data and attribute values, script/style CDATA content,
# comments/doctype/PIs skipped, void + self-closing elements, orphan
# end-tags popping to the nearest matching ancestor.  A bare '<' that
# opens no construct stays in its surrounding text chunk.
_TAG_RE = re.compile(
    r"<!--.*?(?:-->|$)"              # comment
    r"|<!\[CDATA\[.*?(?:\]\]>|$)"    # cdata (dropped, as html.parser unknown decl)
    r"|<!DOCTYPE[^>]*>|<![^>]*>"     # doctype / declarations
    r"|<\?[^>]*>"                    # processing instruction
    r"|</\s*([a-zA-Z][a-zA-Z0-9:._-]*)\s*>"  # end tag   (group 1)
    r"|<([a-zA-Z][a-zA-Z0-9:._-]*)"          # start tag (group 2)
    r"((?:\s+[^\s/>=]+(?:\s*=\s*(?:\"[^\"]*\"|'[^']*'|[^\s>]*))?)*)"  # attrs (3)
    r"\s*(/)?\s*>",                          # self-closing flag (group 4)
    re.S,
)
_ATTR_RE = re.compile(
    r"([^\s/>=]+)(?:\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s>]*))?")
_RAWTEXT_CLOSE = {
    "script": re.compile(r"</script\s*>", re.I),
    "style": re.compile(r"</style\s*>", re.I),
    "textarea": re.compile(r"</textarea\s*>", re.I),
    "title": re.compile(r"</title\s*>", re.I),
}


def parse_html(content: str) -> Element:
    """Parse an HTML string into a flat :class:`_Doc`; returns the view
    of its synthetic ``#root``."""
    names = ["#root"]
    parents = [-1]
    ends = [0]
    attrs: list[dict[str, str] | None] = [None]
    tstarts = [0]
    tends = [0]
    texts: list[str] = []
    index: dict[str, list[int]] = {}
    stack = [0]  # open elements
    add_name, add_parent, add_end = names.append, parents.append, ends.append
    add_attrs, add_tstart, add_tend = attrs.append, tstarts.append, tends.append
    add_text = texts.append
    search, attr_findall = _TAG_RE.search, _ATTR_RE.findall
    i = 0
    n = len(content)
    while True:
        m = search(content, i)
        lt = n if m is None else m.start()
        if lt > i:
            data = content[i:lt]
            if "&" in data:
                data = unescape(data)
            add_text(data)
        if m is None:
            break
        i = m.end()
        end_name, start_name, attr_text, self_close = m.groups()
        if start_name is not None:
            tag = start_name.lower()
            k = len(names)
            add_name(tag)
            add_parent(stack[-1])
            add_tstart(len(texts))
            index.setdefault(tag, []).append(k)
            if attr_text:
                a = {}
                for key, v in attr_findall(attr_text):
                    if v:
                        if v[0] in "\"'" and v[-1] == v[0] and len(v) > 1:
                            v = v[1:-1]
                        if "&" in v:
                            v = unescape(v)
                    a[key.lower()] = v
                add_attrs(a)
                _id = a.get("id")
                if _id:
                    index.setdefault("#" + _id, []).append(k)
                _cls = a.get("class")
                if _cls:
                    for c in _cls.split():
                        keys = index.setdefault("." + c, [])
                        if not keys or keys[-1] != k:  # class="a a": once
                            keys.append(k)
            else:
                add_attrs(None)
            if tag in _RAWTEXT_CLOSE and not self_close:
                # CDATA content: no nested tags, no charref conversion
                # in script/style (html.parser parity); title/textarea
                # are RCDATA → charrefs convert
                closer = _RAWTEXT_CLOSE[tag].search(content, i)
                raw = content[i:closer.start()] if closer else content[i:]
                if raw:
                    if tag in ("title", "textarea") and "&" in raw:
                        raw = unescape(raw)
                    add_text(raw)
                i = closer.end() if closer else n
                add_end(k + 1)
                add_tend(len(texts))
            elif self_close or tag in VOID_ELEMENTS:
                add_end(k + 1)
                add_tend(len(texts))
            else:
                add_end(0)  # set when the element closes
                add_tend(0)
                stack.append(k)
        elif end_name is not None:
            tag = end_name.lower()
            # pop to the nearest open element of that name; #root
            # (stack[0]) never matches, so an orphan end tag pops nothing
            d = len(stack) - 1
            while d and names[stack[d]] != tag:
                d -= 1
            if d:
                ne, nt = len(names), len(texts)
                while len(stack) > d:
                    e = stack.pop()
                    ends[e] = ne
                    tends[e] = nt
        # else: comment/doctype/PI — skipped
    ne, nt = len(names), len(texts)
    for e in stack:
        ends[e] = ne
        tends[e] = nt
    return Element(
        _Doc(names, parents, ends, attrs, tstarts, tends, texts, index), 0)


# --------------------------------------------------------------------------
# CSS selector engine
# --------------------------------------------------------------------------

_SIMPLE_RE = re.compile(
    r"(?P<tag>[a-zA-Z][\w-]*|\*)?"
    r"(?P<rest>(?:[.#][\w-]+|\[[^\]]+\]|:[\w-]+(?:\([^)]*\))?)*)"
)
_PART_RE = re.compile(r"([.#][\w-]+|\[[^\]]+\]|:[\w-]+(?:\([^)]*\))?)")
_NTH_RE = re.compile(r"^\s*(?:(?P<a>[+-]?\d*)n\s*(?P<b>[+-]\s*\d+)?"
                     r"|(?P<k>[+-]?\d+))\s*$")

# jQuery/cheerio result-set pseudos (apply to the matched set, not the
# tree position) — honored when trailing the final compound of a group
_SET_PSEUDOS = ("first", "last")


def _parse_nth(arg: str) -> tuple[int, int]:
    """':nth-child' argument → (a, b) of an+b (1-based, CSS semantics)."""
    arg = arg.strip().lower()
    if arg == "odd":
        return (2, 1)
    if arg == "even":
        return (2, 0)
    m = _NTH_RE.match(arg)
    if not m:
        raise ValueError(f"unsupported :nth-child argument: {arg!r}")
    if m.group("k") is not None:
        return (0, int(m.group("k")))
    a_txt = m.group("a")
    a = 1 if a_txt in ("", "+") else (-1 if a_txt == "-" else int(a_txt))
    b = int(m.group("b").replace(" ", "")) if m.group("b") else 0
    return (a, b)


def _nth_matches(a: int, b: int, idx: int) -> bool:
    """CSS an+b membership test for a 1-based sibling index."""
    if a == 0:
        return idx == b
    n, rem = divmod(idx - b, a)
    return rem == 0 and n >= 0


class _Simple:
    __slots__ = ("tag", "ids", "classes", "attrs", "nths", "set_pseudos",
                 "index_keys")

    def __init__(self, token: str):
        m = _SIMPLE_RE.match(token)
        if not m or m.end() != len(token):
            raise ValueError(f"unsupported selector token: {token!r}")
        self.tag = m.group("tag") if m.group("tag") not in (None, "*") else None
        self.ids: list[str] = []
        self.classes: list[str] = []
        self.attrs: list[tuple[str, str | None]] = []
        self.nths: list[tuple[int, int]] = []  # structural (a, b) tests
        self.set_pseudos: list[tuple[str, int]] = []  # (kind, arg)
        for part in _PART_RE.findall(m.group("rest") or ""):
            if part.startswith("."):
                self.classes.append(part[1:])
            elif part.startswith("#"):
                self.ids.append(part[1:])
            elif part.startswith(":"):
                name, _, arg = part[1:].partition("(")
                arg = arg[:-1] if arg.endswith(")") else arg
                name = name.lower()
                if name == "first-child":
                    self.nths.append((0, 1))
                elif name == "last-child":
                    # a=None sentinel — distinct from every _parse_nth
                    # result, so :nth-child(-1) (a valid an+b that matches
                    # nothing) is not misread as :last-child
                    self.nths.append((None, 0))
                elif name == "nth-child":
                    self.nths.append(_parse_nth(arg))
                elif name in _SET_PSEUDOS:
                    self.set_pseudos.append((name, 0))
                elif name == "eq":
                    self.set_pseudos.append(("eq", int(arg)))
                else:
                    raise ValueError(f"unsupported pseudo-class: :{name}")
            else:
                body = part[1:-1]
                if "=" in body:
                    k, v = body.split("=", 1)
                    self.attrs.append((k.strip(), v.strip().strip("\"'")))
                else:
                    self.attrs.append((body.strip(), None))
        # the _Doc.index keys a match must carry (candidate lists)
        self.index_keys = ([f"#{i}" for i in self.ids]
                           + [f".{c}" for c in self.classes]
                           + ([self.tag] if self.tag else []))

    def matches(self, doc: _Doc, i: int) -> bool:
        if self.tag is not None and doc.names[i] != self.tag:
            return False
        if self.ids or self.classes or self.attrs:
            a = doc.attrs[i]
            if a is None:
                return False
            if any(a.get("id") != x for x in self.ids):
                return False
            if self.classes:
                cls = a.get("class", "").split()
                if any(c not in cls for c in self.classes):
                    return False
            for k, v in self.attrs:
                if k not in a:
                    return False
                if v is not None and a[k] != v:
                    return False
        if self.nths:
            sibs = _siblings(doc, i)
            idx = sibs.index(i) + 1  # 1-based, elements only (CSS)
            for a, b in self.nths:
                if a is None:  # :last-child sentinel
                    if idx != len(sibs):
                        return False
                elif not _nth_matches(a, b, idx):
                    return False
        return True

    def candidates(self, doc: _Doc, lo: int, hi: int):
        """Ascending element indexes in ``[lo, hi)`` that can match: the
        shortest index list among the compound's tag/#id/.class keys."""
        best = None
        for key in self.index_keys:
            keys = doc.index.get(key)
            if keys is None:
                return ()
            if best is None or len(keys) < len(best):
                best = keys
        if best is None:
            return range(lo, hi)
        return best[bisect_left(best, lo):bisect_left(best, hi)]


class _Compiled:
    """One comma-group: a chain of simple selectors joined by combinators."""

    __slots__ = ("steps", "set_pseudos")

    _TOKEN_RE = re.compile(
        r"([>+~])|((?:\([^)]*\)|\[[^\]]*\]|[^\s>+~])+)")

    def __init__(self, group: str):
        # paren/bracket-aware tokenizer: a '+' inside :nth-child(2n+1)
        # or a '>' inside [attr=">"] is part of the compound, not a
        # combinator; bare whitespace between compounds = descendant
        self.steps: list[tuple[str, _Simple]] = []  # (combinator, simple)
        comb = " "
        for comb_tok, simple_tok in self._TOKEN_RE.findall(group.strip()):
            if comb_tok:
                comb = comb_tok
                continue
            self.steps.append((comb, _Simple(simple_tok)))
            comb = " "
        # jQuery-style set pseudos only make sense on the final compound;
        # a mid-chain :first/:eq would be silently ignored by match(),
        # so reject it like every other unsupported grammar form
        for _, simple in self.steps[:-1]:
            if simple.set_pseudos:
                raise ValueError(
                    "jQuery set pseudos (:first/:last/:eq) are only "
                    "supported on the final compound of a selector")
        self.set_pseudos = self.steps[-1][1].set_pseudos if self.steps else []

    def match_from(self, doc: _Doc, i: int) -> bool:
        """Does element ``i`` match the full chain ending at the last step?"""
        return self._match(doc, i, len(self.steps) - 1)

    def _match(self, doc: _Doc, i: int, k: int) -> bool:
        comb, simple = self.steps[k]
        if not simple.matches(doc, i):
            return False
        if k == 0:
            return True
        # comb joins step k-1 to step k; ancestors stop below #root (0)
        if comb in ("+", "~"):
            sibs = _siblings(doc, i)
            pos = sibs.index(i)
            if comb == "+":
                return pos > 0 and self._match(doc, sibs[pos - 1], k - 1)
            return any(self._match(doc, s, k - 1) for s in sibs[:pos])
        parents = doc.parents
        anc = parents[i]
        if comb == ">":
            return anc > 0 and self._match(doc, anc, k - 1)
        while anc > 0:
            if self._match(doc, anc, k - 1):
                return True
            anc = parents[anc]
        return False


_COMPILE_CACHE: dict[str, list[_Compiled]] = {}


def compile_selector(expression: str) -> list[_Compiled]:
    cached = _COMPILE_CACHE.get(expression)
    if cached is None:
        cached = [_Compiled(g) for g in expression.split(",") if g.strip()]
        _COMPILE_CACHE[expression] = cached
    return cached


def _apply_set_pseudos(g: _Compiled, hits: list[int]) -> list[int]:
    """jQuery result-set pseudos (:first/:last/:eq) slice one group's
    matched set (document order preserved)."""
    for kind, arg in g.set_pseudos:
        if kind == "first":
            hits = hits[:1]
        elif kind == "last":
            hits = hits[-1:]
        else:  # eq — arg+1 of -1 is 0, which would slice to []; jQuery
            # counts negatives from the end, so open-end the slice there
            hits = (hits[arg:arg + 1 or None]
                    if -len(hits) <= arg < len(hits) else [])
    return hits


def css_find(el: Element, expression: str) -> list[Element]:
    """All descendants of ``el`` matching ``expression``, document order.

    Combinators look at ancestors and siblings across the whole page,
    not only inside ``el`` (jQuery ``.find`` semantics)."""
    doc = el.doc
    lo, hi = el.i + 1, doc.ends[el.i]
    per: list[list[int]] = []
    for g in compile_selector(expression):
        match = g.match_from
        hits = [j for j in g.steps[-1][1].candidates(doc, lo, hi)
                if match(doc, j)]
        if g.set_pseudos:
            hits = _apply_set_pseudos(g, hits)
        per.append(hits)
    hits = per[0] if len(per) == 1 else sorted(set().union(*per))
    return [Element(doc, j) for j in hits]
