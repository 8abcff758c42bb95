"""Arabic broken-plural morphology toolkit.

Generation: a fully diacritized singular lemma plus an inflectional code
yields the complete inflected paradigm, broken plural included.  The forms
compile into a minimized acyclic automaton for fast, diacritic-tolerant
lookup, and a clitic-aware segmenter maps running-text tokens back to
lexical entries with features.

Importing the package loads only what reads a compiled dictionary; each
generator or writer name imports its module on first access (PEP 562).
"""

from .bn import classify, to_arabic, to_bn
from .features import FeatureBundle
from .formdict import FormDictionary
from .segment import check_agreement, concordance, segment

__version__ = "0.1.0"

#: Each generator or writer name and the module it is taken from.
_GENERATOR = {name: module for module, names in (
    ("classes", "load_registry render_bp_stem resolve_hamza"),
    ("codes", "InflectionalCode SurfaceRoot apply_root_code extract_root parse_code"),
    ("compiler", "compile_lexicon"),
    ("lexicon", "LexicalEntry LexiconFile lexicon_stats load_seed parse_lexicon validate_entry"),
    ("paradigm", "InflectedForm dual_forms form_count inflect"),
) for name in names.split()}


def __getattr__(name: str):
    if name not in _GENERATOR:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_GENERATOR[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_GENERATOR})


__all__ = sorted(["FeatureBundle", "FormDictionary", "check_agreement", "classify", "concordance", "segment",
                  "to_arabic", "to_bn", *_GENERATOR])
