"""Rule-engine extraction — reference-parity pure functions.

Re-expresses neocrawler's extractor (reference: spider/extractor.js) as pure
Python over the in-repo DOM (:mod:`neocrawler_ray.functions.dom`).  These
functions are rows-in/rows-out with no I/O; the Ray Data extract stage
(:mod:`neocrawler_ray.stages.extract_stage`) applies them per row of an
Arrow batch inside ``map_batches``.

Pick semantics replicated exactly (extractor.js:316-390):
- 1-based ``index``; ``index<=0`` (``-1``) → array of all picks, collapsed to
  a scalar when length == 1;
- pick ``text``/``innertext`` → concatenated descendant text; ``html``/
  ``innerhtml`` → inner HTML; ``@attr`` → attribute value;
- non-empty results are ``.trim()``-ed;
- regex mode: flags ``i``+``g``; ``index>0`` → that group of the first
  match; ``index<=0`` → list of group 1 of every match.
"""

from __future__ import annotations

import re

from .dom import Element, parse_html
from .urls import array_unique, detect_link, transform_link, wash_link

__all__ = [
    "css_selector",
    "regex_selector",
    "extract_link",
    "arrange_link",
    "extract_data",
    "get_drill_relation",
    "validate_content",
    "extract_page",
]

_REGEX_CACHE: dict[str, re.Pattern] = {}


def _compiled(expression: str) -> re.Pattern:
    pat = _REGEX_CACHE.get(expression)
    if pat is None:
        pat = re.compile(expression, re.IGNORECASE)
        _REGEX_CACHE[expression] = pat
    return pat


def _pick(node: Element | None, pick: str):
    """cssSelectorPicker (extractor.js:347-367)."""
    if node is None:
        return None
    if pick.startswith("@"):
        result = node.attr(pick[1:])
    else:
        p = pick.lower()
        if p in ("text", "innertext"):
            result = node.text()
        elif p in ("html", "innerhtml"):
            result = node.html()
        else:
            result = None
    if result:
        result = result.strip()
    return result


def css_selector(dom: Element, expression: str, pick, index=1):
    """cssSelector (extractor.js:316-340).

    ``pick`` falsy → return the raw matched element list (subset mode).
    ``index`` 1-based; ``<=0`` → array of picks (collapsed when length 1).
    """
    if not index:
        index = 1
    real_index = int(index) - 1
    matched = dom.find(expression)
    if not pick:
        return matched
    if real_index >= 0:
        node = matched[real_index] if real_index < len(matched) else None
        return _pick(node, pick)
    arr = [_pick(n, pick) for n in matched]
    if len(arr) == 1:
        return arr[0]
    return arr


def regex_selector(content: str, expression: str, index):
    """regexSelector (extractor.js:376-390)."""
    index = int(index) if index else 1
    if index == 0:
        index = 1
    pat = _compiled(expression)
    if index > 0:
        m = pat.search(content)
        if m and pat.groups >= index:
            return m.group(index)
        return None
    return [m.group(1) for m in pat.finditer(content)]


def extract_link(dom: Element, drill_rules: list[str]) -> list[str | None]:
    """Collect hrefs (``src`` for ``img``) for each drill-rule CSS selector.

    Parity: extractor.js:31-40.
    """
    links: list[str | None] = []
    for rule in drill_rules:
        for elem in dom.find(rule):
            links.append(elem.attr("src") if elem.name == "img" else elem.attr("href"))
    return links


def arrange_link(links: list[str], driller_rules: dict) -> dict[str, list[str]]:
    """Group washed links by their matched rule's urllib, canonicalizing
    query params via ``id_parameter`` and deduping per group.

    Parity: extractor.js:111-143 (detect via the consistent
    spider/scheduler ``detectLink`` — see urls.detect_link docstring).
    """
    linkobj: dict[str, list[str]] = {}
    for link in links:
        urllib_key, rule = detect_link(link, driller_rules)
        if urllib_key is None:
            continue
        driller_lib = "urllib:" + urllib_key
        link = transform_link(link, rule)
        linkobj.setdefault(driller_lib, []).append(link)
    return {k: array_unique(v) for k, v in linkobj.items()}


def extract_data(url: str, content: str, extract_rule: dict, upper_data, dom: Element):
    """Recursive field extraction (extractor.js:215-294).

    Returns ``(data, lacks)`` — ``data`` is the nested extracted dict,
    ``lacks`` the list of missing ``require`` fields (checksublack
    semantics: a nested any-of list lacks only when ALL its members are
    missing — extractor.js:296-306).
    """
    data: dict = {}
    if extract_rule.get("category"):
        data["$category"] = extract_rule["category"]
    if extract_rule.get("relate"):
        data["relate"] = (upper_data or {}).get(extract_rule["relate"])
    for field, rule in (extract_rule.get("rule") or {}).items():
        mode = rule.get("mode")
        baser = url if rule.get("base") == "url" else content
        if mode == "regex":
            result = regex_selector(baser, rule["expression"], rule.get("index", 1))
            if result is not None:
                data[field] = result
        elif mode == "value":
            data[field] = rule["expression"]
        elif mode in ("xpath", "json"):
            pass  # stubbed in the reference too (extractor.js:233-236)
        else:  # css selector
            if rule.get("subset"):
                elems = css_selector(dom, rule["expression"], False, rule.get("index", 1))
                result_arr = []
                for sub_dom in elems:
                    sub_data, _sub_lacks = extract_data(
                        url, content, rule["subset"], data, sub_dom
                    )
                    result_arr.append(sub_data)
                if result_arr:
                    data[field] = result_arr
            else:
                result = css_selector(
                    dom, rule["expression"], rule.get("pick", "text"), rule.get("index", 1)
                )
                if result:  # JS: tmp_result && !isEmpty(tmp_result)
                    data[field] = result
    lacks: list[str] = []
    for key in extract_rule.get("require") or []:
        if isinstance(key, list):
            sub = [k for k in key if not data.get(k)]
            if len(sub) == len(key):  # all missing → any-of fails
                lacks.extend(sub)
        elif not data.get(key):
            lacks.append(key)
    return data, lacks


def get_drill_relation(dom: Element, url: str, content: str, origin_relation, rule) -> str:
    """Breadcrumb chain ``origin->value`` (extractor.js:151-173)."""
    if not origin_relation:
        origin_relation = "*"
    new_relation = "*"
    if rule:
        if rule.get("mode") == "regex":
            baser = url if rule.get("base") == "url" else content
            new_relation = regex_selector(baser, rule["expression"], rule.get("index", 1))
        else:
            new_relation = css_selector(
                dom, rule["expression"], rule.get("pick", "text"), rule.get("index", 1)
            )
    return f"{origin_relation}->{new_relation}"


GZIP_MAGIC = b"\x1f\x8b"

# <meta charset="..."> / <meta http-equiv=... content="...; charset=...">
# in the document head — ASCII-compatible in every encoding the engine
# decodes, so the sniff runs on raw bytes
_META_TAG_RE = re.compile(rb"<meta\b([^>]*)>", re.IGNORECASE)
_ATTR_RE = re.compile(
    rb"([a-zA-Z-]+)\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s>]+)")
_CONTENT_CHARSET_RE = re.compile(
    rb"charset\s*=\s*[\"']?\s*([A-Za-z0-9_\-]+)", re.IGNORECASE)


def sniff_charset(html: bytes) -> str | None:
    """Charset declared by the page itself (first 2 KB), or None.

    Only genuine declarations count: a ``charset`` ATTRIBUTE of a meta
    tag, or the ``; charset=...`` inside an http-equiv content-type's
    ``content`` value — attributes are actually parsed, so "charset="
    appearing in unrelated attribute text (e.g. a description meta's
    content) never wins.  Unknown/undecodable names are ignored (fall
    back to the rule encoding)."""
    for tag in _META_TAG_RE.finditer(html[:2048]):
        attrs = {
            k.lower(): v.strip(b"\"'")
            for k, v in _ATTR_RE.findall(tag.group(1))
        }
        enc_b = attrs.get(b"charset")
        if enc_b is None and (
            attrs.get(b"http-equiv", b"").lower() == b"content-type"
        ):
            m = _CONTENT_CHARSET_RE.search(attrs.get(b"content", b""))
            enc_b = m.group(1) if m else None
        if not enc_b:
            continue
        enc = enc_b.decode("ascii", "replace")
        import codecs

        try:
            codecs.lookup(enc)
        except LookupError:
            continue
        return enc
    return None


def decode_body(html: bytes, rule: dict) -> str:
    """Transfer-decode then charset-decode a fetched body (reference
    spider/downloader.js:250-307: gunzip on `content-encoding: gzip`,
    then charset conversion).  Fetch-sim has no response headers, so
    gzip is detected by the member magic bytes — safe on the non-binary
    path, where a gzip member can only mean transfer encoding
    (binary-format rules never reach this decode) — and the response's
    own charset declaration is the ``<meta charset>`` tag: it takes
    precedence over the rule's ``encoding`` exactly as the reference
    trusts the content-type header's charset over the configured one
    (downloader.js:272-285), so a misconfigured rule still decodes
    correctly."""
    if html[:2] == GZIP_MAGIC:
        import gzip

        try:
            html = gzip.decompress(html)
        except OSError:
            pass  # corrupt member → charset-decode the raw bytes
    enc = sniff_charset(html) or rule.get("encoding") or "utf-8"
    return html.decode(enc, "replace")


def validate_content(content_len: int, status_code: int, is_binary: bool,
                     content: str | bytes, validation_keywords) -> bool:
    """validateContent (extractor.js:392-425).

    status 200 → content length ≥ 500 (binary ≥ 20) and every
    validation keyword present; otherwise valid iff status ≤ 300.
    """
    limitation = 20 if is_binary else 500
    if status_code == 200:
        if content_len < limitation:
            return False
        for kw in validation_keywords or []:
            needle = kw.encode() if isinstance(content, bytes) else kw
            if needle not in content:
                return False
        return True
    return status_code <= 300


def extract_page(url: str, content: str, rule: dict, origin_relation,
                 keep_link_relation: bool, driller_rules: dict):
    """Top-level extract (extractor.js:180-205) for one non-binary page.

    Returns ``(drill_link, drill_relation, extracted_data, lacks)`` where
    ``drill_link`` maps urllib → ordered deduped canonical links.
    """
    extract_rule = rule.get("extract_rule") or {}
    drill_rules = rule.get("drill_rules")
    dom = None
    if drill_rules or extract_rule.get("rule"):
        dom = parse_html(content)

    drill_link: dict[str, list[str]] = {}
    drill_relation = origin_relation or "*"
    if drill_rules:
        raw = extract_link(dom, drill_rules)
        washed = wash_link(url, raw)
        drill_link = arrange_link(washed, driller_rules)
        if keep_link_relation:
            drill_relation = get_drill_relation(
                dom, url, content, origin_relation, rule.get("drill_relation")
            )

    data: dict = {}
    lacks: list[str] = []
    if extract_rule.get("rule"):
        data, lacks = extract_data(url, content, extract_rule, None, dom)
    return drill_link, drill_relation, data, lacks
