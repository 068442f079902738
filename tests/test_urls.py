"""Unit parity tests for URL scalar functions (FIXTURES.md §5)."""

from neocrawler_ray.functions.urls import (
    array_unique,
    detect_link,
    expand_seed,
    top_level_domain,
    transform_link,
    url_md5,
    url_tld,
    wash_link,
)

RULES = {
    "site0.example": {
        "home": {"url_pattern": "^http://www\\.site0\\.example/$", "id_parameter": []},
        "detail": {
            "url_pattern": "^http://www\\.site0\\.example/cat_\\d+/item_\\d+\\.html",
            "id_parameter": ["id", "page"],
        },
        # shorter (less specific) pattern that would also match detail urls
        "any": {"url_pattern": "site0\\.example", "id_parameter": []},
    }
}


def test_top_level_domain():
    assert top_level_domain("www.baidu.com") == "baidu.com"
    assert top_level_domain("baidu.com") == "baidu.com"
    assert top_level_domain("a.b.c.d") == "b.c.d"
    assert top_level_domain("localhost") == "localhost"
    assert top_level_domain(None) is None


def test_url_tld():
    assert url_tld("http://www.site0.example/x") == "site0.example"
    assert url_tld("not a url") is None


def test_detect_link_specificity():
    # longer url_pattern wins (spider/spider.js:298-308)
    key, rule = detect_link("http://www.site0.example/cat_1/item_2.html", RULES)
    assert key == "driller:site0.example:detail"
    assert rule["id_parameter"] == ["id", "page"]
    # fallthrough to the catch-all for other urls on the domain
    key, _ = detect_link("http://www.site0.example/other", RULES)
    assert key == "driller:site0.example:any"
    # unmatched domain → dropped
    key, rule = detect_link("http://elsewhere.example/", {})
    assert key is None and rule is None


def test_transform_link_whitelist():
    link = "http://www.site0.example/cat_1/item_2.html?utm=x&id=7&page=3"
    rule = RULES["site0.example"]["detail"]
    assert (
        transform_link(link, rule)
        == "http://www.site0.example/cat_1/item_2.html?id=7&page=3"
    )


def test_transform_link_strip_all():
    link = "http://h.example/p?x=1&y=2"
    assert transform_link(link, {"id_parameter": ["#"]}) == "http://h.example/p"
    # no id_parameter → unchanged
    assert transform_link(link, {"id_parameter": []}) == link
    assert transform_link(link, None) == link


def test_wash_link():
    page = "http://www.site0.example/cat_1/list_1.html"
    links = [
        "item_2.html",            # relative → resolved
        "/cat_2/item_3.html",     # absolute path
        "#frag",                  # dropped
        "javascript:void(0)",     # dropped
        "void(0)",                # dropped
        None,                     # dropped
        "  item_2.html  ",        # trimmed dup → deduped
        "http://www.site0.example/cat_1/list_1.html",  # self → dropped
    ]
    assert wash_link(page, links) == [
        "http://www.site0.example/cat_1/item_2.html",
        "http://www.site0.example/cat_2/item_3.html",
    ]


def test_array_unique_order_preserving():
    assert array_unique(["b", "a", "b", "c", "a"]) == ["b", "a", "c"]


def test_expand_seed():
    # scheduler/index.js:166-178
    assert expand_seed("http://h/p_#.html#1#300#1")[0] == "http://h/p_1.html"
    assert len(expand_seed("http://h/p_#.html#1#300#1")) == 300
    assert expand_seed("http://h/p_#.html#2#10#2") == [
        f"http://h/p_{x}.html" for x in (2, 4, 6, 8, 10)
    ]
    assert expand_seed("http://plain.example/") == ["http://plain.example/"]


def test_url_md5():
    assert url_md5("abc") == "900150983cd24fb0d6963f7d28e17f72"


def test_trans_cookie_kv_pair():
    from neocrawler_ray.functions.urls import trans_cookie_kv_pair

    assert trans_cookie_kv_pair(None) == ""
    assert trans_cookie_kv_pair([
        {"name": "sid", "value": "abc"}, {"name": "lang", "value": "en"},
    ]) == "sid=abc;lang=en"


def test_json_smart_deep_parse():
    from neocrawler_ray.functions.urls import json_smart_deep_parse as p

    # redis hashes store everything as strings (spider/spider.js:67-84)
    assert p({"a": "1", "b": "true", "c": '["x", "2"]', "d": "plain"}) == {
        "a": 1, "b": True, "c": ["x", 2], "d": "plain",
    }
    assert p({"neg": "-5", "obj": '{"k": "3"}'}) == {"neg": -5, "obj": {"k": 3}}
    assert p("") == ""

