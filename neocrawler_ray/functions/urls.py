"""URL scalar functions — reference-parity implementations.

Re-expresses neocrawler's URL handling (reference: spider/spider.js,
scheduler/index.js, spider/extractor.js, spider/pipeline.js — see each
function's docstring for file:line citations) as pure Python functions that
are applied *vectorized over Arrow batches* by the Ray Data stages.  Pure
rows-in/rows-out, no I/O, no global state: trivially unit-testable and safe
to call from any Ray worker.
"""

from __future__ import annotations

import hashlib
import re
from urllib.parse import parse_qsl, quote, urljoin, urlsplit, urlunsplit

__all__ = [
    "url_md5",
    "top_level_domain",
    "url_host",
    "url_tld",
    "detect_link",
    "transform_link",
    "wash_link",
    "expand_seed",
    "array_unique",
]


def url_md5(url: str) -> str:
    """Hex md5 of a url — the universal row identity.

    Parity: spider/spider.js:382, scheduler/index.js:344 (crypto md5 hex).
    """
    return hashlib.md5(url.encode("utf-8")).hexdigest()


def top_level_domain(host: str | None) -> str | None:
    """``www.baidu.com -> baidu.com``: drop the first label when >2 labels.

    Deliberately naive (NOT public-suffix-list aware) to match the
    reference exactly: spider/spider.js:282-286, extractor.js:49-54,
    scheduler/index.js:269-273.
    """
    if not host:
        return None
    arr = host.split(".")
    if len(arr) <= 2:
        return host
    return ".".join(arr[1:])


def url_host(url: str) -> str | None:
    """Lower-cased hostname of a url (JS ``url.parse().hostname``)."""
    try:
        return urlsplit(url).hostname
    except ValueError:
        return None


def url_tld(url: str) -> str | None:
    """Top-level-domain of a url's host — the engine's partitioning key."""
    return top_level_domain(url_host(url))


def _sorted_aliases(domain_rules: dict[str, dict]) -> list[str]:
    # Most-specific-first: sort aliases by url_pattern length desc; ties keep
    # insertion order (JS Object.keys order + stable Array.sort —
    # scheduler/index.js:285).
    return sorted(
        domain_rules.keys(),
        key=lambda a: -len(domain_rules[a]["url_pattern"]),
    )


def detect_link(link: str, driller_rules: dict[str, dict[str, dict]]):
    """URL -> (urllib_key, rule) for the most specific matching driller rule.

    Parity: spider/spider.js:292-311 (and the duplicated copies at
    scheduler/index.js:279-298, extractor.js:85-104).  We follow the
    spider/scheduler copies, which do NOT ``decodeURIComponent`` the pattern
    (the extractor copy does — a known reference inconsistency documented in
    SURVEY.md §7.3; the consistent behavior is used engine-wide).

    Returns ``(None, None)`` when no rule matches (unmatched links are
    dropped — anti-join semantics, SURVEY.md §2.4 J1).
    """
    domain = url_tld(link)
    if not domain:
        return None, None
    domain_rules = driller_rules.get(domain)
    if not domain_rules:
        return None, None
    for alias in _sorted_aliases(domain_rules):
        rule = domain_rules[alias]
        if re.search(rule["url_pattern"], link):
            return f"driller:{domain}:{alias}", rule
    return None, None


def transform_link(link: str, rule: dict | None) -> str:
    """Canonicalize a url by its rule's ``id_parameter`` whitelist.

    Keep only whitelisted query params (in whitelist order); a leading
    ``"#"`` entry strips ALL params.  Parity: scheduler/index.js:305-329
    (same logic duplicated at extractor.js:121-133 and
    spider/pipeline.js:98-117).
    """
    if not rule:
        return link
    id_parameter = rule.get("id_parameter")
    if not id_parameter or not isinstance(id_parameter, list):
        return link
    parts = urlsplit(link)
    params = dict(parse_qsl(parts.query, keep_blank_values=True))
    new_params: list[tuple[str, str]] = []
    for x, name in enumerate(id_parameter):
        if x == 0 and name == "#":
            break
        if name in params:
            new_params.append((name, params[name]))
    # JS querystring.stringify: '&'-joined k=v with %-escaping, no '+' for
    # spaces.
    search = "&".join(
        f"{quote(k, safe='')}={quote(v, safe='')}" for k, v in new_params
    )
    return urlunsplit((parts.scheme, parts.netloc, parts.path, search, parts.fragment))


def wash_link(pageurl: str, links: list[str | None]) -> list[str]:
    """Clean raw hrefs: trim, drop ``#...``/``javascript:``/``void(``,
    resolve relative→absolute against the page url, drop self-links,
    order-preserving dedup.  Parity: extractor.js:62-79.
    """
    cleaned: list[str] = []
    for raw in links:
        if not raw:
            continue
        link = raw.strip()
        if link.startswith("#") or link.startswith("javascript") or link.startswith("void("):
            continue
        try:
            the_url = urljoin(pageurl, link)
        except ValueError:
            continue
        if the_url != pageurl:
            cleaned.append(the_url)
    return array_unique(cleaned)


def array_unique(items: list) -> list:
    """Order-preserving dedup (lib/jsextend.js:24-29)."""
    seen = set()
    out = []
    for it in items:
        if it not in seen:
            seen.add(it)
            out.append(it)
    return out


def expand_seed(seed: str) -> list[str]:
    """Seed range expansion: ``prefix#suffix#min#max#scale`` →
    ``prefix{x}suffix`` for x=min..max step scale (inclusive).
    Parity: scheduler/index.js:166-178.
    """
    arr = seed.split("#")
    if len(arr) >= 5:
        lo, hi, scale = int(arr[2]), int(arr[3]), int(arr[4])
        return [f"{arr[0]}{x}{arr[1]}" for x in range(lo, hi + 1, scale)]
    return [seed]


def trans_cookie_kv_pair(cookies: list[dict] | None) -> str:
    """Cookie objects → ``k=v;k=v`` request-header string (M15 parity:
    downloader.js:117-123).  Fetch-sim carries this as metadata only —
    there is no live HTTP — but rule configs still declare cookies."""
    if not cookies:
        return ""
    return ";".join(
        f"{c.get('name', '')}={c.get('value', '')}" for c in cookies
    )


def json_smart_deep_parse(obj):
    """Coerce a string-valued hash into typed values — JSON / int / bool
    detection per field (M14 parity: spider/spider.js:67-84).  The new
    engine loads rules from native JSON so this only matters when
    ingesting reference-format redis dumps of driller rules."""
    if isinstance(obj, dict):
        return {k: json_smart_deep_parse(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [json_smart_deep_parse(v) for v in obj]
    if isinstance(obj, str):
        s = obj.strip()
        if s in ("true", "false"):
            return s == "true"
        if s.lstrip("-").isdigit():
            try:
                return int(s)
            except ValueError:
                return obj
        if s[:1] in "[{":
            import json as _json

            try:
                return json_smart_deep_parse(_json.loads(s))
            except (ValueError, TypeError):
                return obj
    return obj


def parse_urllib_key(key: str) -> tuple[str, str] | None:
    """(domain, alias) from a rule-queue key — THE single owner of the
    ``urllib:driller:domain:alias`` / ``driller:domain:alias`` format
    (reference scheduler/index.js queue naming).  Every consumer
    (frontier rule lookup, extract-stage rule lookup, retry routing)
    must parse through here: the format appearing in three hand-rolled
    variants is how a future key change silently mis-routes retries."""
    parts = key.split(":")
    if parts and parts[0] == "urllib":
        parts = parts[1:]
    if len(parts) != 3:
        return None
    return parts[1], parts[2]


def rule_for_urllib(rules: dict, key: str) -> dict | None:
    """The driller rule a rule-queue ``key`` names in ``rules`` (``{domain:
    {alias: rule}}``), or None when the key is malformed or names no
    rule."""
    da = parse_urllib_key(key)
    if da is None:
        return None
    return (rules.get(da[0]) or {}).get(da[1])
