"""Positional lemma rewrites: how a payload rebuilds its lemma from the
dictionary form that carries it.

A rewrite is a few pieces, each copying a slice of the form and then
appending a literal run.  A singular keeps its lemma as a prefix, so its
rewrite is one piece: all but the last k letters, then a tail.  A broken
plural changes the stem inside (the paper forms it "by modifying the
stem"); its rewrite copies each radical the plural keeps from where the
class template put it and spells the singular's pattern letters around
them, so the entries of one class share it however their radicals are
spelled.  Infix lemma coding (Daciuk's ``fsa`` tools; Morfologik's
``EncoderType.INFIX``) covers one contiguous change; an interleaved
root-and-pattern rewrite generalises it to this model.
"""

from functools import cached_property
from operator import itemgetter


class Rewrite(tuple):
    """A lemma rewrite: pieces ``(start, stop, literal)``, each copying
    ``form[start:stop]`` and then appending ``literal``.  A start counts from
    the form's start; a stop of ``~k`` (negative) counts k letters back from
    its end, any other from its start.  Rewrites compare and hash as their
    pieces.  ``apply`` gives the lemma of a form of at least ``reach``
    letters and raises ``CorruptDictionary`` for a shorter one."""

    # Each is worked out on first use, so loading measures and compiles no rewrite.
    @cached_property
    def apply(self):
        return _applier(self)

    @cached_property
    def reach(self) -> int:     # a piece stopping ~k needs start + k letters
        return max((start + ~stop if stop < 0 else max(start, stop) for start, stop, _ in self), default=0)

    def __str__(self) -> str:
        return "+".join(f"[{start}:{stop if stop >= 0 else -~stop or ''}]" + (f"+{literal!r}" if literal else "")
                        for start, stop, literal in self) or "''"


def _applier(rewrite: Rewrite):
    """``Rewrite.apply``: the one-piece rewrite of a singular costs one
    slice and one concatenation; any other takes every slice in one
    ``itemgetter`` call and joins them with its literals in one ``%``.
    The function holds plain pieces, not the rewrite: a rewrite that
    its own ``apply`` kept alive would outlive its dictionary."""
    pieces, reach = tuple(rewrite), rewrite.reach

    def past(form):
        raise past_the_form(Rewrite(pieces), form)

    if len(pieces) == 1 and pieces[0][0] == 0 and pieces[0][1] < 0:
        ((_, stop, literal),) = pieces
        return lambda form: form[: len(form) + stop + 1] + literal if len(form) >= reach else past(form)
    # A last empty slice makes the picks a tuple however few the pieces are.
    pick = itemgetter(*(slice(start, stop if stop >= 0 else -~stop or None) for start, stop, _ in pieces), slice(0))
    spelling = "".join("%s" + literal.replace("%", "%%") for _, _, literal in pieces) + "%s"
    return lambda form: spelling % pick(form) if len(form) >= reach else past(form)


class CorruptDictionary(ValueError):
    """A fault of a loaded dictionary that shows where it is used: a lemma
    rewrite that reaches past a form carrying it.  Finding it at load would
    take a walk over every form."""


def past_the_form(rewrite: Rewrite, form: str) -> CorruptDictionary:
    return CorruptDictionary(f"corrupt dictionary: the lemma rewrite {rewrite} reaches past the form {form!r} "
                             "that carries it")
