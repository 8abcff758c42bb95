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

from operator import itemgetter


class Rewrite(tuple):
    """A lemma rewrite: pieces ``(start, stop, literal)``, each copying
    ``form[start:stop]`` and then appending ``literal``.  A start counts from
    the form's start; a stop of ``~k`` (negative) counts k letters back from
    its end, any other from its start.  Rewrites compare and hash as their
    pieces.  ``apply`` gives the lemma of a form of at least ``reach``
    letters and raises ``CorruptDictionary`` for a shorter one."""

    def __getattr__(self, name):
        # Only a missing attribute gets here: each is worked out on first
        # use, so loading measures and compiles no rewrite.
        if name == "apply":
            self.apply = _applier(self)
        elif name == "reach":   # a piece stopping ~k needs start + k letters
            self.reach = max((start + ~stop if stop < 0 else max(start, stop) for start, stop, _ in self), default=0)
        else:
            raise AttributeError(name)
        return self.__dict__[name]

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


def common_prefix_length(a: str, b: str) -> int:
    # A plain loop: os.path.commonprefix costs about four times as much on
    # these short strings.
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class RewritePool(dict):
    """One Rewrite per distinct list of pieces, made on first lookup."""

    def __missing__(self, pieces: tuple) -> Rewrite:
        rewrite = self[pieces] = Rewrite(pieces)
        return rewrite


def cut_pieces(rewrite: Rewrite, stem: str, lemma: str, kept: int, tail: str) -> tuple:
    """The stem's rewrite for the word ``stem[:kept] + tail``: a copy past
    what the word shares with the stem becomes a literal of the letters it
    copied."""
    word = stem[:kept] + tail
    if word.startswith(stem[: rewrite.reach]):     # it keeps every copied letter
        return rewrite
    kept = common_prefix_length(word, stem)
    source, i = {}, 0       # lemma index -> stem index
    for start, stop, literal in rewrite:
        for at in range(start, min(stop, kept)):
            source[i + at - start] = at
        i += stop - start + len(literal)
    return _pieces(lemma, source)


def radical_rewrite(entry, stem: str, copies: tuple, length: int) -> tuple:
    """The pieces of the entry's own stem-to-lemma rewrite: each radical of
    the lemma that the plural keeps is copied from where the template put
    it (``copies`` and ``length``, the class's ``radical_copies``), every
    other letter of the lemma is a literal.  A radical is copied only where
    the stem spells it as the lemma does, so the pieces always give back
    the lemma.  A madda contraction shortens the stem and moves the
    radicals after it back, so each is looked for there too."""
    lemma, positions = entry.lemma, entry.sg_root.positions
    if "C" in lemma:    # radical positions count each madda C as four letters
        index = [i for i, c in enumerate(lemma) for _ in range(4 if c == "C" else 1)]
        positions = [index[p - 1] + 1 for p in positions]
    source: dict[int, int] = {}     # lemma index -> stem index
    for k, slot in copies:
        i = positions[k - 1] - 1
        for at in (slot, slot + len(stem) - length):
            if 0 <= at < len(stem) and stem[at] == lemma[i]:
                source.setdefault(i, at)
    return _pieces(lemma, source)


def _pieces(lemma: str, source: dict[int, int]) -> tuple:
    """The pieces that spell the lemma, copying each letter that ``source``
    maps to an index of the form and writing every other as a literal."""
    pieces: list[list] = []
    for i, letter in enumerate(lemma):
        at = source.get(i)
        if at is None:
            if pieces:
                pieces[-1][2] += letter
            else:
                pieces.append([0, 0, letter])
        elif pieces and pieces[-1][1] == at and not pieces[-1][2]:
            pieces[-1][1] += 1
        else:
            pieces.append([at, at + 1, ""])
    return tuple(map(tuple, pieces))
