"""The lookup oracle: a linear scan over a dictionary's listed forms that
``FormDictionary.lookup`` is compared against, and the queries it is
sampled with."""

from taksir import bn


def ref_optional_match(dict_form: str, query: str) -> bool:
    """Reference matcher for diacritic-optional lookup, on plain strings:
    dictionary diacritics may be skipped, query diacritics must match."""

    def walk(di: int, qi: int) -> bool:
        if qi == len(query):
            return all(bn.is_diacritic(c) for c in dict_form[di:])
        if di == len(dict_form):
            return False
        if dict_form[di] == query[qi] and walk(di + 1, qi + 1):
            return True
        if bn.is_diacritic(dict_form[di]) and walk(di + 1, qi):
            return True
        return False

    return walk(0, 0)


def linear_scan(forms, query, mode):
    hits = []
    for surface, payloads in forms:
        ok = surface == query if mode == "strict" else ref_optional_match(surface, query)
        if ok:
            hits.extend((surface, p) for p in payloads)
    return sorted(hits, key=lambda sp: (sp[0], sp[1].sort_key()))


def sample_queries(rng, surfaces, n) -> list[tuple[str, str]]:
    """5n (query, mode) pairs: n listed forms (strict), n forms with one
    diacritic dropped where they have one (strict), n forms with about six
    in ten of their diacritics dropped (diacritic-optional), n forms with
    one letter replaced (strict) and n reversed skeletons
    (diacritic-optional)."""
    queries = []
    for _ in range(n):
        queries.append((rng.choice(surfaces), "strict"))
    for _ in range(n):
        s = rng.choice(surfaces)
        marks = [i for i, c in enumerate(s) if bn.is_diacritic(c)]
        if marks:
            i = rng.choice(marks)
            s = s[:i] + s[i + 1:]
        queries.append((s, "strict"))
    for _ in range(n):
        s = rng.choice(surfaces)
        kept = "".join(c for c in s if not bn.is_diacritic(c) or rng.random() < 0.4)
        queries.append((kept, "diacritic-optional"))
    for _ in range(n):
        s = rng.choice(surfaces)
        pos = rng.randrange(len(s))
        mutated = s[:pos] + rng.choice("bxEKu") + s[pos + 1:]
        queries.append((mutated, "strict"))
    for _ in range(n):
        s = rng.choice(surfaces)
        mutated = bn.strip_diacritics(s)[::-1] or "q"
        queries.append((mutated, "diacritic-optional"))
    return queries
