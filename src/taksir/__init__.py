"""Arabic broken-plural morphology toolkit.

Generation: a fully diacritized singular lemma plus an inflectional code
yields the complete inflected paradigm, broken plural included.  The forms
compile into a minimized acyclic automaton for fast, diacritic-tolerant
lookup, and a clitic-aware segmenter maps running-text tokens back to
lexical entries with features.
"""

from .bn import classify, to_arabic, to_bn
from .classes import load_registry, render_bp_stem, resolve_hamza
from .codes import InflectionalCode, SurfaceRoot, apply_root_code, extract_root, parse_code
from .formdict import FormDictionary, compile_lexicon
from .lexicon import LexicalEntry, LexiconFile, lexicon_stats, load_seed, parse_lexicon, validate_entry
from .paradigm import FeatureBundle, InflectedForm, dual_forms, form_count, inflect
from .segment import check_agreement, concordance, segment

__version__ = "0.1.0"

__all__ = [
    "FeatureBundle",
    "FormDictionary",
    "InflectedForm",
    "InflectionalCode",
    "LexicalEntry",
    "LexiconFile",
    "SurfaceRoot",
    "apply_root_code",
    "check_agreement",
    "classify",
    "compile_lexicon",
    "concordance",
    "dual_forms",
    "extract_root",
    "form_count",
    "inflect",
    "lexicon_stats",
    "load_registry",
    "load_seed",
    "parse_code",
    "parse_lexicon",
    "render_bp_stem",
    "resolve_hamza",
    "segment",
    "to_arabic",
    "to_bn",
    "validate_entry",
]
