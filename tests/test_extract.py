"""Unit parity tests for DOM/CSS + rule-engine extraction (FIXTURES.md §5,
mirroring reference test/extractorTest.js assertions)."""

from neocrawler_ray.functions.dom import parse_html
from neocrawler_ray.functions.extract import (
    arrange_link,
    css_selector,
    extract_data,
    extract_link,
    extract_page,
    regex_selector,
    validate_content,
)

HTML = """<html><head><title>The Title</title></head><body>
<div id="main" class="content box">
<h1 class="headline">Hello <b>World</b></h1>
<ul class="tags"><li>alpha</li><li>beta</li><li>gamma</li></ul>
<div class="spec"><span class="k">color</span><span class="v">red</span></div>
<div class="spec"><span class="k">size</span><span class="v">XL</span></div>
<a class="next" href="/page_2.html">next</a>
<img src="/img/pic.jpg" class="photo">
</div>
<div class="single"><li>only</li></div>
</body></html>"""

DOM = parse_html(HTML)


# --- regexSelector (test/extractorTest.js:48-51) -------------------------
def test_regex_selector_group():
    url = "http://www.amazon.cn/s/ref=nb_sb_noss?__mk_zh_CN=&qid=1387944813&rh=x"
    assert regex_selector(url, r".*?qid=(\d+).*", 1) == "1387944813"


def test_regex_selector_no_match_and_array():
    assert regex_selector("no digits", r"qid=(\d+)", 1) is None
    # index <= 0 → array of group 1 of every match (extractor.js:383-388)
    assert regex_selector("a=1 a=2 a=3", r"a=(\d)", -1) == ["1", "2", "3"]
    assert regex_selector("nothing", r"a=(\d)", -1) == []
    # index 0 treated as 1
    assert regex_selector("a=9", r"a=(\d)", 0) == "9"
    # case-insensitive flag
    assert regex_selector("QID=77", r"qid=(\d+)", 1) == "77"


# --- cssSelector picks ----------------------------------------------------
def test_css_text_pick():
    assert css_selector(DOM, "h1.headline", "text", 1) == "Hello World"
    assert css_selector(DOM, "#main", "text", 1).startswith("Hello World")


def test_css_attr_pick():
    assert css_selector(DOM, "a.next", "@href", 1) == "/page_2.html"
    assert css_selector(DOM, "a.next", "@missing", 1) is None


def test_css_html_pick():
    assert css_selector(DOM, "h1.headline", "html", 1) == "Hello <b>World</b>"


def test_css_index_semantics():
    # 1-based index
    assert css_selector(DOM, ".tags li", "text", 1) == "alpha"
    assert css_selector(DOM, ".tags li", "text", 3) == "gamma"
    # out-of-range → None
    assert css_selector(DOM, ".tags li", "text", 9) is None
    # -1 → array of all
    assert css_selector(DOM, ".tags li", "text", -1) == ["alpha", "beta", "gamma"]
    # -1 collapses to scalar when exactly one match (extractor.js:329-334)
    assert css_selector(DOM, ".single li", "text", -1) == "only"


def test_css_combinators():
    assert [n.text() for n in DOM.find("div.spec > span.v")] == ["red", "XL"]
    assert [n.text() for n in DOM.find(".tags li, .single li")] == [
        "alpha", "beta", "gamma", "only",
    ]
    assert css_selector(DOM, "title", "text", 1) == "The Title"


# --- extract_link (href / img src) ---------------------------------------
def test_extract_link():
    assert extract_link(DOM, ["a.next", "img.photo"]) == [
        "/page_2.html",
        "/img/pic.jpg",
    ]


# --- arrange_link + id_parameter (test/extractorTest.js:56-66) ------------
RULES = {
    "site0.example": {
        "list": {"url_pattern": "/list_", "id_parameter": []},
        "detail": {"url_pattern": "/item_\\d+", "id_parameter": ["id"]},
    }
}


def test_arrange_link():
    links = [
        "http://www.site0.example/item_1?id=5&utm=zz",
        "http://www.site0.example/list_1.html",
        "http://www.site0.example/item_1?id=5&utm=other",  # canonical dup
        "http://other.example/x",                           # unmatched → dropped
    ]
    out = arrange_link(links, RULES)
    assert out == {
        "urllib:driller:site0.example:detail": ["http://www.site0.example/item_1?id=5"],
        "urllib:driller:site0.example:list": ["http://www.site0.example/list_1.html"],
    }
    # insertion order of groups preserved
    assert list(out.keys())[0] == "urllib:driller:site0.example:detail"


# --- extract_data: modes, subset, relate, require -------------------------
EXTRACT_RULE = {
    "category": "product",
    "rule": {
        "title": {"base": "content", "mode": "css", "expression": "h1.headline",
                  "pick": "text", "index": 1},
        "next_href": {"base": "content", "mode": "css", "expression": "a.next",
                      "pick": "@href", "index": 1},
        "raw_h1": {"base": "content", "mode": "css", "expression": "h1.headline",
                   "pick": "html", "index": 1},
        "qid": {"base": "url", "mode": "regex", "expression": r".*?qid=(\d+).*",
                "index": 1},
        "const": {"base": "content", "mode": "value", "expression": "fixed-v"},
        "tags": {"base": "content", "mode": "css", "expression": ".tags li",
                 "pick": "text", "index": -1},
        "specs": {"base": "content", "mode": "css", "expression": "div.spec",
                  "index": -1,
                  "subset": {
                      "category": "spec",
                      "relate": "title",
                      "rule": {
                          "k": {"mode": "css", "expression": "span.k",
                                "pick": "text", "index": 1},
                          "v": {"mode": "css", "expression": "span.v",
                                "pick": "text", "index": 1},
                      },
                      "require": ["k", "v"],
                  }},
        "missing": {"base": "content", "mode": "css", "expression": ".nope",
                    "pick": "text", "index": 1},
    },
    "require": ["title", ["missing", "qid"], ["missing", "absent2"]],
}


def test_extract_data_full():
    url = "http://www.site0.example/item?qid=42"
    data, lacks = extract_data(url, HTML, EXTRACT_RULE, None, DOM)
    assert data["$category"] == "product"
    assert data["title"] == "Hello World"
    assert data["next_href"] == "/page_2.html"
    assert data["raw_h1"] == "Hello <b>World</b>"
    assert data["qid"] == "42"
    assert data["const"] == "fixed-v"
    assert data["tags"] == ["alpha", "beta", "gamma"]
    assert data["specs"] == [
        {"$category": "spec", "relate": "Hello World", "k": "color", "v": "red"},
        {"$category": "spec", "relate": "Hello World", "k": "size", "v": "XL"},
    ]
    assert "missing" not in data
    # require: 'title' present; any-of ["missing","qid"] satisfied by qid;
    # ["missing","absent2"] all absent → both reported lacking
    assert lacks == ["missing", "absent2"]


def test_extract_data_require_simple_lack():
    rule = {"rule": {}, "require": ["nope"]}
    _, lacks = extract_data("http://u", "<p>x</p>", rule, None, parse_html("<p>x</p>"))
    assert lacks == ["nope"]


# --- validateContent (extractor.js:392-425) -------------------------------
def test_validate_content():
    long_body = "x" * 600 + " keyword "
    assert validate_content(len(long_body), 200, False, long_body, None)
    assert validate_content(len(long_body), 200, False, long_body, ["keyword"])
    assert not validate_content(len(long_body), 200, False, long_body, ["absent"])
    assert not validate_content(100, 200, False, "x" * 100, None)  # too short
    assert validate_content(25, 200, True, b"x" * 25, None)  # binary limit 20
    assert not validate_content(10, 200, True, b"x" * 10, None)
    assert not validate_content(0, 404, False, "", None)  # >300 invalid
    assert not validate_content(0, 301, False, "", None)  # 301>300 → invalid too
    assert validate_content(0, 204, False, "", None)  # ≤300 non-200 → valid


# --- top-level extract_page ----------------------------------------------
def test_extract_page():
    rule = {
        "drill_rules": ["a.next"],
        "drill_relation": {"mode": "css", "expression": "title", "pick": "text",
                          "index": 1},
        "extract_rule": {"rule": {"title": {"mode": "css",
                                             "expression": "h1.headline",
                                             "pick": "text", "index": 1}}},
    }
    url = "http://www.site0.example/list_1.html"
    page_rules = {
        "site0.example": {
            **RULES["site0.example"],
            "page": {"url_pattern": "/page_\\d+", "id_parameter": []},
        }
    }
    drill_link, drill_relation, data, lacks = extract_page(
        url, HTML, rule, "*", True, page_rules
    )
    assert drill_link == {
        "urllib:driller:site0.example:page": ["http://www.site0.example/page_2.html"]
    }
    assert drill_relation == "*->The Title"
    assert data == {"title": "Hello World"}
    assert lacks == []


# --- extended cheerio grammar: siblings + structural/set pseudos ----------
def _texts(nodes):
    return [n.text() for n in nodes]


def test_css_sibling_combinators():
    # adjacent sibling: the .v immediately after a .k
    assert _texts(DOM.find("span.k + span.v")) == ["red", "XL"]
    # general sibling: everything after the h1 inside #main
    assert _texts(DOM.find("h1.headline ~ a.next")) == ["next"]
    # + requires immediate adjacency: h1 then ul, not a
    assert DOM.find("h1.headline + a.next") == []
    assert _texts(DOM.find("h1.headline + ul.tags li")) == [
        "alpha", "beta", "gamma"]


def test_css_structural_pseudo_classes():
    assert _texts(DOM.find("ul.tags li:first-child")) == ["alpha"]
    assert _texts(DOM.find("ul.tags li:last-child")) == ["gamma"]
    assert _texts(DOM.find("ul.tags li:nth-child(2)")) == ["beta"]
    assert _texts(DOM.find("ul.tags li:nth-child(odd)")) == ["alpha", "gamma"]
    assert _texts(DOM.find("ul.tags li:nth-child(even)")) == ["beta"]
    assert _texts(DOM.find("ul.tags li:nth-child(2n+1)")) == ["alpha", "gamma"]
    assert _texts(DOM.find("ul.tags li:nth-child(-n+2)")) == ["alpha", "beta"]
    # :first-child counts ELEMENT siblings per-parent
    assert _texts(DOM.find("li:first-child")) == ["alpha", "only"]


def test_css_set_pseudos_jquery_style():
    assert _texts(DOM.find("div.spec span:first")) == ["color"]
    assert _texts(DOM.find("div.spec span:last")) == ["XL"]
    assert _texts(DOM.find("div.spec span:eq(2)")) == ["size"]
    assert DOM.find("div.spec span:eq(9)") == []
    # negative :eq counts from the end (jQuery semantics)
    assert _texts(DOM.find("div.spec span:eq(-1)")) == ["XL"]
    assert _texts(DOM.find("div.spec span:eq(-4)")) == ["color"]
    assert DOM.find("div.spec span:eq(-5)") == []
    # a mid-chain set pseudo would be silently ignored → must raise
    import pytest

    with pytest.raises(ValueError, match="final compound"):
        DOM.find("li:first a")
    # comma group: pseudo slices only its own group's matches
    assert _texts(DOM.find("ul.tags li:first, div.spec .v")) == [
        "alpha", "red", "XL"]


def test_css_unsupported_pseudo_raises():
    import pytest

    from neocrawler_ray.functions.dom import _COMPILE_CACHE

    _COMPILE_CACHE.clear()
    with pytest.raises(ValueError):
        DOM.find("li:hover")


# --- flat DOM ≡ html.parser-built reference tree -------------------------
def _dom_eq(flat, ref):
    """Element by element in document order: name, attrs, text(), html()
    (text-chunk boundaries are not compared: only their concatenation
    is observable)."""
    assert flat.text() == ref.text()
    assert flat.html() == ref.html()
    got, want = list(flat.iter_descendants()), list(ref.iter_descendants())
    assert len(got) == len(want)  # perfbench's kernel.nodes_per_page
    for k, (a, b) in enumerate(zip(got, want)):
        assert (a.name, a.attrs, a.text(), a.html()) == (
            b.name, b.attrs, b.text(), b.html()), (k, b.name)


def test_fast_parser_equivalent_to_stdlib():
    from dom_reference import parse_html_stdlib

    cases = [
        HTML,
        '<div class="a" id=x data-k>text &amp; more<br><img src="u"/></div>',
        '<ul><li>a<li>b</ul><p>after</p>',
        '<script>if (a < b && x) { "</div>" }</script><p>t</p>',
        '<style>a > b { color: red }</style>ok',
        '<!-- comment --><!DOCTYPE html><?pi ?><b>x</b>',
        'plain < not a tag > text',
        '<a href="y&lt;z">&#65;B</a>',
        '<title>T &amp; U</title>',
        '<div><span>unclosed</div>',
        '',
        '<p>trailing text',
        '<A HREF="X">Caps</A>',
        "<div data-x='single \" quote'>q</div>",
        '<textarea>&lt;raw&gt;</textarea>',
        '<div>漢字 &copy; ünïcode</div>',
    ]
    for c in cases:
        _dom_eq(parse_html(c), parse_html_stdlib(c))


def test_fast_parser_equivalent_on_generated_corpus(tmp_path):
    from dom_reference import parse_html_stdlib
    from neocrawler_ray.sources.pages_gen import generate_corpus
    import pyarrow.dataset as pads

    out = str(tmp_path / "eqc")
    generate_corpus(out, n_pages=120, n_domains=3, seed=9)
    tbl = pads.dataset(out + "/pages").to_table(columns=["html"])
    from neocrawler_ray.functions.extract import decode_body

    n = 0
    for h in tbl.column("html").to_pylist():
        if h:
            s = decode_body(h, {})  # gunzip transfer-encoded domain 1
            _dom_eq(parse_html(s), parse_html_stdlib(s))
            n += 1
    assert n > 80


def test_decode_body():
    import gzip

    from neocrawler_ray.functions.extract import decode_body

    assert decode_body("plain café".encode(), {}) == "plain café"
    assert decode_body(gzip.compress("zipped café".encode(), mtime=0),
                       {}) == "zipped café"
    assert decode_body(gzip.compress("中文页".encode("gbk"), mtime=0),
                       {"encoding": "gbk"}) == "中文页"
    # corrupt member after the magic bytes → raw charset decode, no raise
    corrupt = b"\x1f\x8bnot really gzip"
    assert decode_body(corrupt, {}) == corrupt.decode("utf-8", "replace")


def test_extract_leaves_no_cyclic_garbage(tmp_path):
    """The flat DOM holds no parent/child reference cycles: once a heavy
    detail page's parse and extract results are dropped, reference
    counting has freed them, so the cyclic GC finds none of their
    objects.  Only this page's objects are checked: other threads of the
    test process (a Ray driver) may leave cyclic garbage of their own."""
    import gc
    import json

    import pyarrow.dataset as pads

    from neocrawler_ray.functions.extract import decode_body
    from neocrawler_ray.functions.urls import detect_link
    from neocrawler_ray.sources.pages_gen import generate_corpus

    out = str(tmp_path / "heavy")
    generate_corpus(out, n_pages=30, n_domains=1, seed=3, page_weight=12)
    with open(out + "/rules.json") as f:
        rules = json.load(f)
    tbl = pads.dataset(out + "/pages").to_table(columns=["url", "html"])
    url, html = next((u, h) for u, h in sorted(zip(
        tbl.column("url").to_pylist(), tbl.column("html").to_pylist()))
        if detect_link(u, rules)[0] == "driller:site0.example:detail")
    content = decode_body(html, {})
    rule = detect_link(url, rules)[1]

    def ours(o):
        return type(o).__module__.startswith("neocrawler_ray.")

    def graph(roots):
        """ids of the containers reachable from ``roots`` through
        builtin containers and neocrawler_ray objects."""
        seen, todo = {}, list(roots)
        while todo:
            o = todo.pop()
            if id(o) in seen or not gc.is_tracked(o):
                continue
            if not (ours(o) or type(o) in (list, dict, tuple, set)):
                continue
            seen[id(o)] = type(o).__name__
            todo += gc.get_referents(o)
        return seen

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what a collection finds
    try:
        dom = parse_html(content)
        assert sum(1 for _ in dom.iter_descendants()) > 150  # heavy page
        result = extract_page(url, content, rule, "*", True, rules)
        assert result[2]["title"] and result[2]["specs"]
        page_objects = graph([dom, result])
        assert "_Doc" in page_objects.values()
        del dom, result
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage
                  if ours(o) or id(o) in page_objects]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
